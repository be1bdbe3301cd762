"""Brute-force reference computations for property tests and expected values.

These enumerate the search space exactly and share the scoring code path
with the decoders, so they define ground truth for what the approximate
searches should return.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import TokenSeq, TsError, TsTask
from .lm import SequenceModel, as_tokens
from .scoring import SCORING_MEAN_LOGPROB, filled_score, rank


# The most spans ``exhaustive_best_span`` may score.
SPAN_BUDGET = 10**6


class SearchSpaceTooLarge(TsError):
    """The requested enumeration exceeds the candidate budget."""


@dataclass(frozen=True)
class OracleResult:
    best_span: TokenSeq
    best_score: float
    candidates_evaluated: int


def _score(model: SequenceModel, task: TsTask, span, scoring: str, include_eos_in_len: bool) -> float:
    return filled_score(model, task.source, task.prefix, span, task.suffix, scoring, include_eos_in_len)


def exhaustive_best_span(
    model: SequenceModel,
    task: TsTask,
    max_len: int,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> OracleResult:
    """Score every content-token span of length 0..max_len and return the
    first by ``rank``: best score, then shorter span, then smaller tokens."""
    content = model.vocab.content_ids
    lengths = range(max_len + 1)
    count = sum(len(content) ** n for n in lengths)
    if count > SPAN_BUDGET:
        raise SearchSpaceTooLarge(f"{count} spans of length 0..{max_len} exceed the budget of {SPAN_BUDGET}")
    spans = itertools.chain.from_iterable(itertools.product(content, repeat=n) for n in lengths)
    best_score, best_span = min(
        ((_score(model, task, span, scoring, include_eos_in_len), span) for span in spans),
        key=rank,
        default=(float("-inf"), ()),
    )
    return OracleResult(
        best_span=TokenSeq(best_span),
        best_score=best_score,
        candidates_evaluated=count,
    )


def exhaustive_best_prefix(
    model: SequenceModel,
    task: TsTask,
    path,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> tuple[int, float]:
    """Best cut point of ``path``: scores prefix + path[:n] + suffix for every
    n and returns (n, score) with ties going to the smaller n."""
    tokens = as_tokens(path)
    if len(tokens) > 10**4:
        raise SearchSpaceTooLarge(f"path of length {len(tokens)} exceeds the budget")
    heads = (tokens[:n] for n in range(len(tokens) + 1))
    score, head = min(((_score(model, task, h, scoring, include_eos_in_len), h) for h in heads), key=rank)
    return len(head), score
