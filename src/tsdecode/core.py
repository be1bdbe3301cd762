"""Shared domain types and the on-disk task/result schema.

Token ids are plain non-negative integers. Content sequences (source,
prefix, suffix, span, target) never contain BOS or EOS; models prepend
BOS and decoders handle EOS, so lengths always count content tokens only.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Iterable, Iterator


class TsError(Exception):
    """Base class for all library errors."""


class TokenOutOfRange(TsError):
    """A token id is negative or >= the vocabulary size."""


class ReservedTokenInContent(TsError):
    """BOS or EOS appeared inside a content sequence."""


class MalformedLine(TsError):
    """A task or result JSONL line is not JSON, lacks a key or holds a bad value."""


STOP_PATIENCE = "patience"
STOP_MAX_LEN = "max_len"
STOP_EMPTY_BEAM = "empty_beam"
STOP_REASONS = (STOP_PATIENCE, STOP_MAX_LEN, STOP_EMPTY_BEAM)


# The largest vocabulary: a row is 8 MiB, and every id and R x V block size
# stays far inside the kernel's int64 arguments. The memo keeps every row a
# command draws, so memory, not this bound, limits what a host can serve
# near it.
MAX_VOCAB_SIZE = 2**20


@dataclass(frozen=True)
class Vocab:
    """An integer vocabulary of ``size`` ids, from 3 to ``MAX_VOCAB_SIZE``;
    id 0 is BOS and id 1 is EOS in every vocabulary, and the ids from 2 up
    are content tokens."""

    size: int
    bos_id: ClassVar[int] = 0
    eos_id: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not 3 <= self.size <= MAX_VOCAB_SIZE:
            raise ValueError(f"vocab_size must be in [3, {MAX_VOCAB_SIZE}], got {self.size}")

    @cached_property
    def content_ids(self) -> tuple[int, ...]:
        """All ids except BOS and EOS, ascending; computed once per vocabulary."""
        return tuple(
            i for i in range(self.size) if i != self.bos_id and i != self.eos_id
        )


@dataclass(frozen=True)
class TokenSeq:
    """An immutable content-token sequence; where it sits in a ``TsTask``
    says what it is."""

    tokens: tuple[int, ...] = ()
    role: InitVar[str | None] = None  # accepted and dropped; deleted (ROADMAP item 7) once item 1 stops bench/ passing one

    def __post_init__(self, role: str | None) -> None:
        object.__setattr__(self, "tokens", tuple(map(int, self.tokens)))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def __getitem__(self, idx):
        return self.tokens[idx]


@dataclass(frozen=True)
class TsTask:
    """One suggestion problem: fill the span between a fixed prefix and suffix.

    ``gold_span`` is the reference filling when known; ``gold_full`` is the
    complete reference target. Either may be absent. When both are present
    they must be consistent with the constraints.
    """

    task_id: str
    source: TokenSeq
    prefix: TokenSeq
    suffix: TokenSeq
    gold_span: TokenSeq | None = None
    gold_full: TokenSeq | None = None

    def __post_init__(self) -> None:
        if self.gold_span is not None and self.gold_full is not None:
            expected = self.prefix.tokens + self.gold_span.tokens + self.suffix.tokens
            if self.gold_full.tokens != expected:
                raise ValueError(
                    f"task {self.task_id}: gold_full is not prefix + gold_span + suffix"
                )


@dataclass(frozen=True)
class DecodeStats:
    """Work accounting for one decode."""

    forward_passes: int
    positions_scored: int
    emitted_steps: int
    stop_reason: str
    wall_time_us: int

    def __post_init__(self) -> None:
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop_reason {self.stop_reason!r}")
        if self.emitted_steps > self.forward_passes:
            raise ValueError("emitted_steps cannot exceed forward_passes")


@dataclass(frozen=True)
class Suggestion:
    """A decoder's answer for one task."""

    span: TokenSeq
    whole_seq_score: float
    stats: DecodeStats

    def __post_init__(self) -> None:
        score = float(self.whole_seq_score)
        if not math.isfinite(score):
            raise ValueError(f"whole_seq_score must be finite, got {score}")


@dataclass(frozen=True)
class ResultRow:
    """One line of the result file: a decoder's answer plus its statistics."""

    task_id: str
    decoder: str
    span: tuple[int, ...]
    score: float
    forward_passes: int
    positions_scored: int
    emitted_steps: int
    stop_reason: str
    wall_time_us: int
    error: str | None = None


def check_int(name: str, value, least: int | None = None) -> int:
    """``value``, or a ValueError naming ``name`` unless it is an int (not a
    bool) and at least ``least`` when given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_str(name: str, value) -> str:
    """``value``, or a ValueError naming ``name`` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def check_float(name: str, value) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is an
    int or float (not a bool) within the finite float range."""
    # Compared as numbers, so NaN and ints beyond the float range fail too.
    big = sys.float_info.max
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -big <= value <= big:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_tokens(tokens: tuple[int, ...], vocab: Vocab, what: str, content: bool = True) -> None:
    """Raise TokenOutOfRange for an id outside ``vocab`` and, if ``tokens`` is
    a content sequence, ReservedTokenInContent for BOS or EOS; the message
    starts with ``what``."""
    size, lo = vocab.size, 2 if content else 0
    # BOS and EOS are ids 0 and 1, so content ids are exactly those from 2
    # up: one chained comparison per id (min() and max() cost more on a
    # task's short sequences), and the second loop runs only to raise the
    # first error.
    for tok in tokens:
        if not lo <= tok < size:
            break
    else:
        return
    reserved = (vocab.bos_id, vocab.eos_id)
    for tok in tokens:
        if tok < 0 or tok >= size:
            raise TokenOutOfRange(f"{what}: token id {tok} outside vocab of size {size}")
        if content and tok in reserved:
            raise ReservedTokenInContent(f"{what}: reserved token id {tok} in content sequence")


def validate_task(task: TsTask, vocab: Vocab) -> TsTask:
    """Check every sequence of ``task`` against ``vocab`` and return it unchanged.

    Raises TokenOutOfRange for ids outside the vocabulary and
    ReservedTokenInContent if BOS/EOS appear in any content sequence.
    """
    for what in ("source", "prefix", "suffix", "gold_span", "gold_full"):
        seq = getattr(task, what)
        if seq is not None:
            check_tokens(seq.tokens, vocab, f"task {task.task_id} {what}")
    return task


# ---------------------------------------------------------------------------
# JSONL schema
# ---------------------------------------------------------------------------

def task_to_dict(task: TsTask) -> dict:
    return {
        "task_id": task.task_id,
        "source": list(task.source.tokens),
        "prefix": list(task.prefix.tokens),
        "suffix": list(task.suffix.tokens),
        "gold_span": None if task.gold_span is None else list(task.gold_span.tokens),
        "gold_full": None if task.gold_full is None else list(task.gold_full.tokens),
    }


def task_from_dict(d: dict) -> TsTask:
    def seq(key: str) -> TokenSeq:
        return TokenSeq(tuple(check_int(key, tok) for tok in d[key]))

    return TsTask(
        task_id=check_str("task_id", d["task_id"]),
        source=seq("source"),
        prefix=seq("prefix"),
        suffix=seq("suffix"),
        gold_span=None if d.get("gold_span") is None else seq("gold_span"),
        gold_full=None if d.get("gold_full") is None else seq("gold_full"),
    )


def result_to_dict(row: ResultRow) -> dict:
    d = {
        "task_id": row.task_id,
        "decoder": row.decoder,
        "span": list(row.span),
        "score": row.score,
        "forward_passes": row.forward_passes,
        "positions_scored": row.positions_scored,
        "emitted_steps": row.emitted_steps,
        "stop_reason": row.stop_reason,
        "wall_time_us": row.wall_time_us,
    }
    if row.error is not None:
        d["error"] = row.error
    return d


def result_from_dict(d: dict) -> ResultRow:
    if d["stop_reason"] not in STOP_REASONS:
        raise ValueError(f"unknown stop_reason {d['stop_reason']!r}")
    decoder = check_str("decoder", d["decoder"])
    # A metrics CSV row holds the label as one unquoted field.
    if any(c in decoder for c in ",\n\r"):
        raise ValueError(f"decoder must hold no comma or line break, got {decoder!r}")
    error = d.get("error")
    return ResultRow(
        task_id=check_str("task_id", d["task_id"]),
        decoder=decoder,
        span=tuple(check_int("span", tok) for tok in d["span"]),
        score=check_float("score", d["score"]),
        forward_passes=check_int("forward_passes", d["forward_passes"], 0),
        positions_scored=check_int("positions_scored", d["positions_scored"], 0),
        emitted_steps=check_int("emitted_steps", d["emitted_steps"], 0),
        stop_reason=d["stop_reason"],
        wall_time_us=check_int("wall_time_us", d["wall_time_us"], 0),
        error=None if error is None else check_str("error", error),
    )


def _write_jsonl(path: str | Path, dicts: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json.dumps(d, separators=(",", ":")))
            fh.write("\n")


def write_tasks_jsonl(path: str | Path, tasks: Iterable[TsTask]) -> None:
    _write_jsonl(path, (task_to_dict(t) for t in tasks))


def _read_jsonl(path: str | Path, from_dict, key_fields: tuple[str, ...]) -> list:
    """The items of a JSONL file, each read by ``from_dict``; no two may
    agree on every one of ``key_fields``."""
    out = []
    seen = set()
    # A byte that is not UTF-8 reads as a lone surrogate, so its line can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                item = from_dict(json.loads(line))
            except UnicodeEncodeError:
                raise MalformedLine(f"{path}:{lineno}: not UTF-8 text") from None
            except KeyError as exc:
                raise MalformedLine(f"{path}:{lineno}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise MalformedLine(f"{path}:{lineno}: {exc}") from exc
            key = tuple(getattr(item, name) for name in key_fields)
            if key in seen:
                named = ", ".join(f"{name} {value!r}" for name, value in zip(key_fields, key))
                raise MalformedLine(f"{path}:{lineno}: repeated {named}")
            seen.add(key)
            out.append(item)
    return out


def read_tasks_jsonl(path: str | Path) -> list[TsTask]:
    return _read_jsonl(path, task_from_dict, ("task_id",))


def write_results_jsonl(path: str | Path, rows: Iterable[ResultRow]) -> None:
    _write_jsonl(path, (result_to_dict(r) for r in rows))


def read_results_jsonl(path: str | Path) -> list[ResultRow]:
    return _read_jsonl(path, result_from_dict, ("task_id", "decoder"))
