"""The benchmark's tracer patches program functions by name, so every name
it traces must exist: ``bench/run.py --trace 1`` refuses to start otherwise.
This keeps a rename or deletion of a traced function from passing unseen.

Its hooks also assume what the traced functions return: ``lm.forced_pass``
spans count ``len(result)`` positions and decoder spans read
``result.stats``. A traced run checks those counts against the calls made.
"""

import importlib.util
from pathlib import Path

from tsdecode import decode, harness
from tsdecode.lm import SequenceModel, as_tokens, model_from_spec

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_point_exists():
    tracer = load_tracer()
    assert tracer.missing(tracer.trace_points()) == []


def test_traced_counts_equal_the_calls_made(monkeypatch):
    tracer_module = load_tracer()
    cfg = harness.GenConfig(vocab_size=20, n_tasks=1, source_len_range=(5, 6), seed=4, mask_ratio_list=(0.4,))
    model = model_from_spec(cfg.resolved_model_spec())
    (task,) = harness.gen_dataset(cfg, model)
    # len(target) + 1 per forced pass, recorded under the tracer's wrapper.
    positions = []
    forced_pass = vars(SequenceModel)["forced_pass"]

    def recorded(self, source, target):
        positions.append(len(as_tokens(target)) + 1)
        return forced_pass(self, source, target)

    monkeypatch.setattr(SequenceModel, "forced_pass", recorded)
    tracer = tracer_module.Tracer()
    with tracer.active():
        model.forced_pass(task.source, task.gold_full)
        suggestion = decode.psgd(model, task)
        dba = decode.dba_suggest(model, task, beam_width=3)
    metrics = tracer_module.layer_metrics(tracer.spans)
    # The direct pass, and dba_suggest's re-score of its span unless the
    # output is prefix + span + suffix, whose score is its own finish's.
    p, s = task.prefix.tokens, task.suffix.tokens
    max_len = len(p) + len(s) + decode.default_max_span_len(len(task.source))
    output, _, _ = decode.dba_decode(model, task.source, decode.DbaParams(3, max_len, tuple(c for c in (p, s) if c)))
    assert len(positions) == 1 + (output.tokens != p + dba.span.tokens + s)
    assert metrics["lm.forced_pass.calls"] == len(positions)
    assert metrics["lm.forced_pass.positions"] == sum(positions)
    assert metrics["decode.psgd.forward_passes"] == suggestion.stats.forward_passes > 0
