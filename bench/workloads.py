"""The benchmark's workloads: ratio-sweep, session and wide-mt.

A run is a fixed number of rounds, repeated in a fixed number of passes.
Round ``k`` of a run with seed ``s`` draws its own tasks from
``round_seed(s, k)``; the cost per task varies a lot between tasks, so a
run covers many distinct tasks, and the same ones whatever the speed of
the program or the machine. Every round starts cold, as a user's command
does: the CLI workloads load their own models, and the session builds
fresh ones.

All three workloads use order-2 n-gram models with concentration 0.2 and
model seed 37, the criterion-07 spec. The seed picks the tasks: in the
CLI workloads their tokens, for source lengths fixed per round; in the
session the revised spans of fixed documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from tsdecode import cli, decode, harness
from tsdecode.core import ResultRow, TokenSeq, TsError, TsTask, result_to_dict, task_from_dict
from tsdecode.lm import model_from_spec

RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DECODERS = ("psgd", "dba")
BEAM = 5
PT = 5
SWEEP_SOURCE_LEN = (6, 12)
SWEEP_PROBES = 4


def ngram_spec(vocab_size: int) -> dict:
    return {
        "kind": "ngram_gen",
        "vocab_size": vocab_size,
        "order": 2,
        "seed": 37,
        "concentration": 0.2,
        "table": None,
    }


@dataclass(frozen=True)
class Size:
    """How much work a run does: rounds per run and passes over them, by
    workload name, and the work of one round."""

    rounds: dict[str, int]
    passes: dict[str, int]
    session_sentences: int
    session_masks: int
    wide_ratios: tuple[float, ...]
    wide_source_len: tuple[int, int]


FULL = Size(
    # About 26 s of timed work per run on the baseline machine (see
    # bench/BASELINE.md), so that a run fits BENCHMARK.json's run_seconds.
    rounds={"ratio-sweep": 14, "session": 2, "wide-mt": 18},
    passes={"ratio-sweep": 3, "session": 5, "wide-mt": 3},
    session_sentences=8,
    session_masks=8,
    wide_ratios=RATIOS,
    wide_source_len=(6, 12),
)
TINY = Size(
    rounds={"ratio-sweep": 1, "session": 1, "wide-mt": 1},
    passes={"ratio-sweep": 2, "session": 2, "wide-mt": 2},
    session_sentences=2,
    session_masks=2,
    wide_ratios=(0.5,),
    wide_source_len=(4, 6),
)


class BenchFailure(Exception):
    """The program misbehaved: a command failed or outputs are inconsistent."""


@dataclass
class Round:
    setup_s: float
    # The separately timed parts of the timed section, keyed
    # "<stage>" or "<stage>/<request>": a CLI command, or one request.
    parts: dict[str, float]
    tasks: int
    rows: list[dict]
    latencies: dict[str, list[float]]
    # Times of the speed.probe kernel, run right after each timed part.
    probes: list[float]

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())


def _tracing(tracer):
    return tracer.active() if tracer is not None else contextlib.nullcontext()


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise BenchFailure(f"tsdecode {argv[0]} exited with code {code}")


def _read_rows(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _row_latencies(rows) -> dict[str, list[float]]:
    """Per-decoder latency as the program itself reports it per task."""
    return {
        d: [r["wall_time_us"] * 1e-6 for r in rows if r["decoder"] == d and r.get("error") is None]
        for d in DECODERS
    }


def source_len(bounds: tuple[int, int], k: int) -> int:
    """The source length of round ``k``: every length in ``bounds`` in turn."""
    lo, hi = bounds
    return lo + k % (hi - lo + 1)


def round_seed(seed: int, k: int) -> int:
    """The seed of round ``k``; rounds per run stay far below 1000."""
    return seed * 1000 + k


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rounds = size.rounds[self.name]
        self.passes = size.passes[self.name]

    def round(self, k: int, tracer=None) -> Round:
        raise NotImplementedError

    def reference(self, k: int):
        """(tasks, fresh model) to check the rows of round ``k`` against."""
        raise NotImplementedError

    @contextlib.contextmanager
    def _scratch(self):
        path = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)


class RatioSweep(Workload):
    """The paper's mask-ratio sweep, one ``sweep-ratio`` command per round,
    with default flags: a pool of ``os.cpu_count()`` threads per ratio and
    decoder.

    A round decodes one task per ratio, so the pool hands its one task to
    a worker thread and the two threads never decode at the same time.
    With three tasks per ratio they did, and how fast two threads run
    depends on how they share the interpreter lock and the machine's two
    cores from moment to moment: ten runs spread by 0.26, more than the
    largest bound allowed, and no single-threaded probe tracked it. Round
    ``k`` takes the ``k``-th source length in turn, as in ``WideMt``, so the
    seed picks the tokens but not the mix of lengths.
    """

    name = "ratio-sweep"

    def config(self, k: int) -> dict:
        return {
            "vocab_size": 20,
            "n_tasks": 1,
            "source_len_range": [source_len(SWEEP_SOURCE_LEN, k)] * 2,
            "seed": round_seed(self.seed, k),
            "model_spec": ngram_spec(20),
            "mask_ratio_list": list(RATIOS),
            "constraint_source": "gold_reference",
            "decoders": list(DECODERS),
            "pt_values": [PT],
            "beam_width": BEAM,
        }

    def round(self, k: int, tracer=None) -> Round:
        t0 = time.perf_counter()
        with self._scratch() as d:
            (d / "sweep.json").write_text(json.dumps(self.config(k)))
            argv = ["sweep-ratio", "--config", str(d / "sweep.json"),
                    "--out", str(d / "metrics.csv"), "--results-out", str(d / "rows.jsonl")]
            with _tracing(tracer):
                start = time.perf_counter()
                _run_cli(argv)
                wall = time.perf_counter() - start
                # The command is one part of about half a second; probe as
                # often as the few short parts of a wide-mt round do.
                probes = [speed.probe() for _ in range(SWEEP_PROBES)]
            rows = _read_rows(d / "rows.jsonl")
        return Round(start - t0, {"sweep": wall}, len(RATIOS), rows, _row_latencies(rows), probes)

    def reference(self, k: int):
        tasks = harness.gen_dataset(harness.gen_config_from_dict(self.config(k)))
        return tasks, model_from_spec(ngram_spec(20))


class Session(Workload):
    """A translator revising each sentence several times, one request each.

    Round ``k`` revises document ``k``: its sentences are the same for
    every seed, and the seed picks which spans are revised. A DBA request
    costs about the same whatever span is masked, so with documents that
    changed with the seed, runs would differ mostly by which sentences they
    drew, not by how fast the program ran.
    """

    name = "session"

    def requests(self, k: int) -> list[TsTask]:
        refs = harness.gen_dataset(harness.GenConfig(
            vocab_size=20,
            n_tasks=self.size.session_sentences,
            source_len_range=(6, 12),
            seed=k,
            model_spec=ngram_spec(20),
            mask_ratio_list=(0.5,),
        ))
        # Masks come from the benchmark's own generator, so a change to
        # tsdecode.rng cannot change which requests are sent.
        masks = random.Random(round_seed(self.seed, k))
        out = []
        for i, ref_task in enumerate(refs):
            ref = ref_task.gold_full.tokens
            for j in range(self.size.session_masks):
                length = masks.randint(1, len(ref))
                start = masks.randint(0, len(ref) - length)
                out.append(TsTask(
                    task_id=f"s{i:03d}_m{j:02d}",
                    source=ref_task.source,
                    prefix=TokenSeq(ref[:start], "prefix"),
                    suffix=TokenSeq(ref[start + length:], "suffix"),
                    gold_span=TokenSeq(ref[start:start + length], "span"),
                    gold_full=ref_task.gold_full,
                ))
        return out

    def round(self, k: int, tracer=None) -> Round:
        t0 = time.perf_counter()
        requests = self.requests(k)
        models = {d: model_from_spec(ngram_spec(20)) for d in DECODERS}
        params = decode.PsgdParams(beam_width=BEAM, patience=PT)
        calls = {
            "psgd": lambda model, task: decode.psgd(model, task, params),
            "dba": lambda model, task: decode.dba_suggest(model, task, beam_width=BEAM),
        }
        rows, parts, latencies, probes = [], {}, {}, []
        with _tracing(tracer):
            start = time.perf_counter()
            for d in DECODERS:
                model, call, lat = models[d], calls[d], []
                for task in requests:
                    sent = time.perf_counter()
                    try:
                        s = call(model, task)
                        row = ResultRow(task.task_id, d, s.span.tokens, s.whole_seq_score,
                                        s.stats.forward_passes, s.stats.positions_scored,
                                        s.stats.emitted_steps, s.stats.stop_reason,
                                        s.stats.wall_time_us)
                    except TsError as exc:
                        row = ResultRow(task.task_id, d, (), 0.0, 0, 0, 0, "max_len", 0,
                                        error=type(exc).__name__)
                    lat.append(time.perf_counter() - sent)
                    parts[f"{d}/{task.task_id}"] = lat[-1]
                    probes.append(speed.probe())
                    rows.append(result_to_dict(row))
                latencies[d] = lat
        return Round(start - t0, parts, len(requests), rows, latencies, probes)

    def reference(self, k: int):
        return self.requests(k), model_from_spec(ngram_spec(20))


class WideMt(Workload):
    """gen -> suggest psgd -> suggest dba -> eval on machine-translation
    constraints over a 100-token vocabulary, each command cold.

    A round is the pipeline for one task, so each command is a short timed
    part: the fastest of a few runs of a short part is far steadier on a
    noisy machine than that of a long one. Round ``k`` takes the mask ratio
    and the source length ``k`` modulo their ranges, so every seed decodes
    the same mix of ratios and lengths and the seed picks only the tokens:
    a task's cost grows with its source length, and with 18 tasks a run
    would otherwise differ from the next mostly by how many long sources
    it drew.
    """

    name = "wide-mt"

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.task_lines: dict[int, list[str]] = {}

    def round(self, k: int, tracer=None) -> Round:
        t0 = time.perf_counter()
        with self._scratch() as d:
            config = {
                "model_spec": ngram_spec(100),
                "mask_ratio_list": [self.size.wide_ratios[k % len(self.size.wide_ratios)]],
                "source_len_range": [source_len(self.size.wide_source_len, k)] * 2,
            }
            (d / "gen.json").write_text(json.dumps(config))
            tasks, model = str(d / "tasks.jsonl"), str(d / "model.json")
            out = {dec: d / f"{dec}.jsonl" for dec in DECODERS}
            both = d / "results.jsonl"
            commands = [
                ("gen", ["gen", "--config", str(d / "gen.json"), "--vocab-size", "100",
                         "--n-tasks", "1",
                         "--seed", str(round_seed(self.seed, k)),
                         "--constraint-source", "machine_translation",
                         "--out", tasks, "--model-spec", model]),
            ] + [
                (dec, ["suggest", "--tasks", tasks, "--model-spec", model, "--decoder", dec,
                       "--out", str(out[dec])])
                for dec in DECODERS
            ] + [
                ("eval", ["eval", "--tasks", tasks, "--results", str(both),
                          "--out", str(d / "metrics.csv")]),
            ]
            stages, probes = {}, []
            with _tracing(tracer):
                start = time.perf_counter()
                for stage, argv in commands:
                    if stage == "eval":
                        both.write_text("".join(out[dec].read_text() for dec in DECODERS))
                    began = time.perf_counter()
                    _run_cli(argv)
                    stages[stage] = time.perf_counter() - began
                    probes.append(speed.probe())
            lines = Path(tasks).read_text().splitlines()
            rows = _read_rows(both)
        if self.task_lines.setdefault(k, lines) != lines:
            raise BenchFailure(f"gen wrote a different task file when round {k} was repeated")
        return Round(start - t0, stages, len(lines), rows, _row_latencies(rows), probes)

    def reference(self, k: int):
        tasks = [task_from_dict(json.loads(line)) for line in self.task_lines[k]]
        return tasks, model_from_spec(ngram_spec(100))


WORKLOADS = {w.name: w for w in (RatioSweep, Session, WideMt)}
