"""Synthetic dataset generation and the benchmark sweep protocols.

Datasets are generated end to end from a seed: sample a source sequence,
decode a reference target with beam search under the configured model, then
mask a span of the requested length ratio. Constraints come either from the
reference itself (``gold_reference``) or from the output of a perturbed
sibling model (``machine_translation``), which mimics masking a machine
translation whose prefix/suffix may contain errors; in that mode only the
full-sequence reference is kept, so evaluation compares reconstructed
sentences rather than spans.

Task ids embed the nominal mask ratio (``r<ratio>_n<index>``) because the
task schema itself stores no ratio; aggregation parses it back out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields as dc_fields

from .core import (
    ResultRow,
    Suggestion,
    TokenSeq,
    TsError,
    TsTask,
    Vocab,
    check_int,
    check_str,
)
from .decode import PsgdParams, beam_search, dba_suggest, default_max_span_len, psgd
from .lm import SequenceModel, make_perturbed_sibling, model_from_spec
from .metrics import BenchRow, EvalRecord, aggregate
from .rng import Stream, hash_key

CONSTRAINT_GOLD = "gold_reference"
CONSTRAINT_MT = "machine_translation"

_GEN_BEAM_WIDTH = 5
_MT_PERTURB_RATE = 0.3
_TASK_ID_RE = re.compile(r"^r(\d+\.\d+)_n(\d+)$")


class DegenerateTarget(TsError):
    """Could not generate a usable reference sequence after many retries."""


@dataclass(frozen=True)
class GenConfig:
    vocab_size: int = 20
    n_tasks: int = 50
    source_len_range: tuple[int, int] = (6, 12)
    seed: int = 0
    model_spec: dict | None = None
    mask_ratio_list: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    constraint_source: str = CONSTRAINT_GOLD

    def __post_init__(self) -> None:
        Vocab(check_int("vocab_size", self.vocab_size))  # in range before any row of that size
        check_int("seed", self.seed)
        check_int("n_tasks", self.n_tasks, 1)
        if len(self.source_len_range) != 2:
            raise ValueError(f"source_len_range must be [min, max], got {self.source_len_range}")
        lo, hi = self.source_len_range
        check_int("source_len_range", lo)
        check_int("source_len_range", hi)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad source_len_range {self.source_len_range}")
        if self.model_spec is not None and not isinstance(self.model_spec, dict):
            raise ValueError(f"model_spec must be a dict or null, got {self.model_spec!r}")
        if not self.mask_ratio_list:
            raise ValueError("mask_ratio_list must be non-empty")
        for ratio in self.mask_ratio_list:
            if not isinstance(ratio, (int, float)) or isinstance(ratio, bool):
                raise ValueError(f"mask_ratio_list entry {ratio!r} is not a number")
            if not 0.0 < ratio < 1.0:
                raise ValueError(f"mask_ratio_list entry {ratio} outside (0, 1)")
        if len({make_task_id(ratio, 0) for ratio in self.mask_ratio_list}) < len(self.mask_ratio_list):
            raise ValueError(f"mask_ratio_list entries {list(self.mask_ratio_list)} share a task id")
        if self.constraint_source not in (CONSTRAINT_GOLD, CONSTRAINT_MT):
            raise ValueError(f"unknown constraint_source {self.constraint_source!r}")

    def resolved_model_spec(self) -> dict:
        if self.model_spec is not None:
            return dict(self.model_spec)
        return {
            "kind": "ngram_gen",
            "vocab_size": self.vocab_size,
            "order": 2,
            "seed": self.seed,
            "concentration": 0.3,
            "table": None,
        }


@dataclass(frozen=True)
class SweepConfig:
    decoders: tuple[str, ...] = ("psgd", "dba")
    pt_values: tuple[int, ...] = (5,)
    beam_width: int = 5
    output_path: str = "metrics.csv"

    def __post_init__(self) -> None:
        if not self.decoders:
            raise ValueError("at least one decoder required")
        for name in self.decoders:
            if name not in ("psgd", "dba"):
                raise ValueError(f"unknown decoder {name!r}")
        if not self.pt_values:
            raise ValueError("at least one pt value required")
        for pt in self.pt_values:
            check_int("pt_values", pt, 0)
        # A repeated entry would decode every task twice into one CSV row.
        for name, values in (("decoders", self.decoders), ("pt_values", self.pt_values)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} {list(values)} repeats an entry")
        check_int("beam_width", self.beam_width, 1)
        check_str("output_path", self.output_path)


def _config_from_dict(cls, d: dict):
    """``cls`` from the keys of ``d`` that name its fields, ignoring the
    others; a tuple-valued field takes a list (or tuple) and nothing else."""
    kwargs = {}
    for f in dc_fields(cls):
        if f.name not in d:
            continue
        value = d[f.name]
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{f.name} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def gen_config_from_dict(d: dict) -> GenConfig:
    return _config_from_dict(GenConfig, d)


def sweep_config_from_dict(d: dict) -> SweepConfig:
    return _config_from_dict(SweepConfig, d)


def make_task_id(ratio: float, index: int) -> str:
    return f"r{ratio:.2f}_n{index:04d}"


def parse_task_ratio(task: TsTask) -> float:
    """Nominal mask ratio from the task id, falling back to the empirical
    span/reference length ratio when the id does not carry one."""
    m = _TASK_ID_RE.match(task.task_id)
    if m:
        return float(m.group(1))
    if task.gold_span is not None and task.gold_full is not None and len(task.gold_full) > 0:
        return round(len(task.gold_span) / len(task.gold_full), 2)
    return 0.0


def _reference(model: SequenceModel, source: tuple[int, ...]) -> tuple[int, ...]:
    """The length-normalized beam-search translation of ``source``."""
    return beam_search(
        model, source, _GEN_BEAM_WIDTH, max_len=default_max_span_len(len(source))
    ).tokens.tokens


def _sample_reference(
    model: SequenceModel, stream: Stream, lo: int, hi: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sample a source and decode a reference of length >= 2 for it."""
    content = model.vocab.content_ids
    for _ in range(100):
        src_len = stream.randint(lo, hi)
        source = tuple(stream.choice(content) for _ in range(src_len))
        ref = _reference(model, source)
        if len(ref) >= 2:
            return source, ref
    raise DegenerateTarget("no reference of length >= 2 after 100 retries")


def _mask(sequence: tuple[int, ...], ratio: float, stream: Stream) -> tuple[int, int]:
    """Span (start, length) for masking ``sequence`` at ``ratio``."""
    span_len = round(ratio * len(sequence))
    span_len = max(1, min(span_len, len(sequence)))
    start = stream.randint(0, len(sequence) - span_len)
    return start, span_len


def gen_dataset(cfg: GenConfig, model: SequenceModel | None = None) -> list[TsTask]:
    """Generate ``cfg.n_tasks`` tasks per mask ratio, deterministically.

    ``model`` is the model of ``cfg.resolved_model_spec()``, built here when
    not given. A caller that decodes the tasks passes the model it decodes
    with, so the rows drawn for the references are memo hits there.
    """
    if model is None:
        model = model_from_spec(cfg.resolved_model_spec())
    mt_model = None
    if cfg.constraint_source == CONSTRAINT_MT:
        mt_model = make_perturbed_sibling(
            model, perturb_seed=hash_key(cfg.seed, 0x6D74), rate=_MT_PERTURB_RATE
        )
    lo, hi = cfg.source_len_range
    tasks = []
    for ratio in cfg.mask_ratio_list:
        ratio_key = int(round(ratio * 1000))
        for i in range(cfg.n_tasks):
            stream = Stream(hash_key(cfg.seed, 0x7461736B, ratio_key, i))
            source, ref = _sample_reference(model, stream, lo, hi)
            # In MT mode the constraints come from the sibling's translation,
            # or from the reference when that translation is empty.
            masked = ref if mt_model is None else (_reference(mt_model, source) or ref)
            start, span_len = _mask(masked, ratio, stream)
            span = TokenSeq(masked[start : start + span_len])
            tasks.append(TsTask(
                task_id=make_task_id(ratio, i),
                source=TokenSeq(source),
                prefix=TokenSeq(masked[:start]),
                suffix=TokenSeq(masked[start + span_len :]),
                gold_span=span if mt_model is None else None,
                gold_full=TokenSeq(ref),
            ))
    return tasks


def split_by_ratio(tasks: list[TsTask]) -> dict[float, list[TsTask]]:
    out: dict[float, list[TsTask]] = {}
    for task in tasks:
        out.setdefault(parse_task_ratio(task), []).append(task)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def decode_task(
    model: SequenceModel,
    task: TsTask,
    decoder: str,
    psgd_params: PsgdParams,
) -> Suggestion:
    if decoder == "psgd":
        return psgd(model, task, psgd_params)
    if decoder == "dba":
        max_len = None
        if psgd_params.max_span_len is not None:
            max_len = len(task.prefix) + len(task.suffix) + psgd_params.max_span_len
        return dba_suggest(
            model,
            task,
            beam_width=psgd_params.beam_width,
            max_len=max_len,
            scoring=psgd_params.scoring,
            include_eos_in_len=psgd_params.include_eos_in_len,
        )
    raise ValueError(f"unknown decoder {decoder!r}")


def result_row(task: TsTask, decoder: str, outcome: Suggestion | TsError) -> ResultRow:
    """The result row for one decode: the suggestion and its statistics, or
    an error row naming the exception when the decode failed."""
    if isinstance(outcome, TsError):
        return ResultRow(
            task_id=task.task_id,
            decoder=decoder,
            span=(),
            score=0.0,
            forward_passes=0,
            positions_scored=0,
            emitted_steps=0,
            stop_reason="max_len",
            wall_time_us=0,
            error=type(outcome).__name__,
        )
    stats = outcome.stats
    return ResultRow(
        task_id=task.task_id,
        decoder=decoder,
        span=outcome.span.tokens,
        score=outcome.whole_seq_score,
        forward_passes=stats.forward_passes,
        positions_scored=stats.positions_scored,
        emitted_steps=stats.emitted_steps,
        stop_reason=stats.stop_reason,
        wall_time_us=stats.wall_time_us,
    )


def resolve_pair(task: TsTask, span: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (candidate, reference) pair to score for a task: the span against
    the gold span when one exists, otherwise the reconstructed sentence
    against the full reference."""
    if task.gold_span is not None:
        return span, task.gold_span.tokens
    if task.gold_full is not None:
        candidate = task.prefix.tokens + span + task.suffix.tokens
        return candidate, task.gold_full.tokens
    return None


def eval_record(task: TsTask, row: ResultRow) -> EvalRecord | None:
    """The record ``aggregate`` scores for one result row, or None for an
    error row or a task with no reference."""
    if row.error is not None:
        return None
    pair = resolve_pair(task, row.span)
    if pair is None:
        return None
    return EvalRecord(
        decoder=row.decoder,
        mask_ratio=parse_task_ratio(task),
        candidate=pair[0],
        reference=pair[1],
        forward_passes=row.forward_passes,
        wall_time_us=row.wall_time_us,
    )


def _sweep_point(
    model: SequenceModel,
    tasks: list[TsTask],
    decoder_label: str,
    decoder: str,
    params: PsgdParams,
) -> tuple[list[EvalRecord], list[ResultRow]]:
    """Decode each of ``tasks`` once, in order."""
    records: list[EvalRecord] = []
    rows: list[ResultRow] = []
    for task in tasks:
        try:
            outcome = decode_task(model, task, decoder, params)
        except TsError as exc:
            outcome = exc
        row = result_row(task, decoder_label, outcome)
        rows.append(row)
        record = eval_record(task, row)
        if record is not None:
            records.append(record)
    return records, rows


def run_pt_sweep(
    dataset: list[TsTask],
    model: SequenceModel,
    pt_values,
    beam_width: int,
) -> tuple[list[BenchRow], list[ResultRow]]:
    """Decode the dataset at each early-stopping patience value."""
    for task in dataset:
        if task.gold_span is None:
            raise TsError(f"pt sweep needs gold spans; task {task.task_id} has none")
    records: list[EvalRecord] = []
    rows: list[ResultRow] = []
    for pt in pt_values:
        params = PsgdParams(beam_width=beam_width, patience=pt)
        recs, rws = _sweep_point(model, dataset, f"psgd_pt{pt}", "psgd", params)
        records.extend(recs)
        rows.extend(rws)
    return aggregate(records), rows


def run_ratio_sweep(
    datasets_by_ratio: dict[float, list[TsTask]],
    model: SequenceModel,
    decoders,
    params: PsgdParams,
) -> tuple[list[BenchRow], list[ResultRow]]:
    """Decode every per-ratio dataset with every decoder."""
    records: list[EvalRecord] = []
    rows: list[ResultRow] = []
    for ratio in sorted(datasets_by_ratio):
        tasks = datasets_by_ratio[ratio]
        for decoder in decoders:
            recs, rws = _sweep_point(model, tasks, decoder, decoder, params)
            records.extend(recs)
            rows.extend(rws)
    return aggregate(records), rows
