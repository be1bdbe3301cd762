"""Corpus BLEU over token ids, plus aggregation of decode statistics.

BLEU here operates directly on integer token sequences (the synthetic data
has no surface text): clipped n-gram precision for n = 1..4 pooled over the
corpus, geometric mean, and the standard brevity penalty. The corpus metric
is unsmoothed; a separately exposed sentence-level variant applies add-1
smoothing to the higher-order precisions for per-task diagnostics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .core import TsError
from .lm import as_tokens


class EmptyCorpus(TsError):
    """BLEU/aggregation called with no sentence pairs."""


class LengthMismatch(TsError):
    """Candidate and reference lists differ in length."""


MAX_ORDER = 4


@dataclass(frozen=True)
class BleuScore:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    candidate_len: int
    reference_len: int


def _ngram_counts(tokens: tuple[int, ...]) -> Counter:
    """Every 1- to ``MAX_ORDER``-gram of ``tokens``, counted in one Counter;
    an n-gram's length is its order."""
    return Counter(chain.from_iterable(zip(*[tokens[i:] for i in range(n)]) for n in range(1, MAX_ORDER + 1)))


def _pooled_counts(
    candidates: Sequence[tuple[int, ...]], references: Sequence[tuple[int, ...]], counted: dict | None = None
) -> tuple[list[int], list[int], int, int]:
    """Clipped n-gram matches and n-gram totals per order, then the
    candidates' and the references' lengths. ``counted`` holds each
    reference's ``_ngram_counts`` by its tokens, each counted once."""
    counted = {} if counted is None else counted
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        ref_counts = counted.get(ref)
        if ref_counts is None:
            ref_counts = counted[ref] = _ngram_counts(ref)
        cand_counts = _ngram_counts(cand)
        for ngram in cand_counts.keys() & ref_counts.keys():
            matches[len(ngram) - 1] += min(cand_counts[ngram], ref_counts[ngram])
        for i in range(MAX_ORDER):
            totals[i] += max(len(cand) - i, 0)
    return matches, totals, cand_len, ref_len


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len >= ref_len:
        return 1.0
    if cand_len == 0:
        return 0.0
    return math.exp(1.0 - ref_len / cand_len)


def _geometric_bleu(precisions: Sequence[float], bp: float) -> float:
    if any(p <= 0.0 for p in precisions):
        return 0.0
    log_sum = sum(math.log(p) for p in precisions) / MAX_ORDER
    return bp * math.exp(log_sum) * 100.0


def corpus_bleu(candidates: Sequence, references: Sequence, *, counted: dict | None = None) -> BleuScore:
    """Unsmoothed corpus BLEU with one reference per candidate.

    Empty candidates are legal: they add zero matches and zero length to the
    pool (driving the brevity penalty down) rather than raising. Calls that
    share ``counted``, a dict that starts empty, count each reference's
    n-grams once.
    """
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise EmptyCorpus("corpus BLEU needs at least one sentence pair")
    cands = [as_tokens(c) for c in candidates]
    refs = [as_tokens(r) for r in references]
    matches, totals, cand_len, ref_len = _pooled_counts(cands, refs, counted)
    precisions = tuple(
        (matches[i] / totals[i]) if totals[i] > 0 else 0.0 for i in range(MAX_ORDER)
    )
    bp = _brevity_penalty(cand_len, ref_len)
    return BleuScore(
        score=_geometric_bleu(precisions, bp),
        precisions=precisions,
        brevity_penalty=bp,
        candidate_len=cand_len,
        reference_len=ref_len,
    )


def sentence_bleu_smoothed(candidate, reference) -> BleuScore:
    """Per-sentence BLEU with add-1 smoothing on the n >= 2 precisions."""
    cand = as_tokens(candidate)
    ref = as_tokens(reference)
    matches, totals, cand_len, ref_len = _pooled_counts([cand], [ref])
    precisions = []
    for i in range(MAX_ORDER):
        if i == 0:
            precisions.append(matches[0] / totals[0] if totals[0] > 0 else 0.0)
        else:
            precisions.append((matches[i] + 1.0) / (totals[i] + 1.0))
    bp = _brevity_penalty(cand_len, ref_len)
    return BleuScore(
        score=_geometric_bleu(precisions, bp),
        precisions=tuple(precisions),
        brevity_penalty=bp,
        candidate_len=cand_len,
        reference_len=ref_len,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRecord:
    """One evaluated task: resolved candidate/reference pair plus statistics."""

    decoder: str
    mask_ratio: float
    candidate: tuple[int, ...]
    reference: tuple[int, ...]
    forward_passes: int
    wall_time_us: int


@dataclass(frozen=True)
class BenchRow:
    decoder: str
    mask_ratio: float
    bleu: BleuScore
    mean_forward_passes: float
    mean_wall_time_us: float
    n_tasks: int


def aggregate(records: Sequence[EvalRecord]) -> list[BenchRow]:
    """Group records by (decoder, mask ratio) and compute per-group corpus
    BLEU and mean decode statistics, sorted by the group key."""
    if not records:
        raise EmptyCorpus("no records to aggregate")
    groups: dict[tuple[str, float], list[EvalRecord]] = {}
    for rec in records:
        groups.setdefault((rec.decoder, rec.mask_ratio), []).append(rec)
    rows = []
    # Each reference's n-grams are counted once, for every decoder.
    counted: dict = {}
    for (decoder, ratio), recs in sorted(groups.items()):
        bleu = corpus_bleu([r.candidate for r in recs], [r.reference for r in recs], counted=counted)
        rows.append(
            BenchRow(
                decoder=decoder,
                mask_ratio=ratio,
                bleu=bleu,
                mean_forward_passes=sum(r.forward_passes for r in recs) / len(recs),
                mean_wall_time_us=sum(r.wall_time_us for r in recs) / len(recs),
                n_tasks=len(recs),
            )
        )
    return rows


CSV_HEADER = "decoder,mask_ratio,bleu,bp,p1,p2,p3,p4,mean_forward_passes,mean_wall_time_us,n_tasks"


def format_metrics_csv(rows: Iterable[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        p1, p2, p3, p4 = row.bleu.precisions
        lines.append(
            ",".join(
                [
                    row.decoder,
                    f"{row.mask_ratio:.4f}",
                    f"{row.bleu.score:.4f}",
                    f"{row.bleu.brevity_penalty:.4f}",
                    f"{p1:.4f}",
                    f"{p2:.4f}",
                    f"{p3:.4f}",
                    f"{p4:.4f}",
                    f"{row.mean_forward_passes:.4f}",
                    f"{row.mean_wall_time_us:.4f}",
                    str(row.n_tasks),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(path: str | Path, rows: Iterable[BenchRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics_csv(rows))
