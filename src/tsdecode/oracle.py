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
from .scoring import SCORING_MEAN_LOGPROB, filled_score, prefer


class SearchSpaceTooLarge(TsError):
    """The requested enumeration exceeds the candidate budget."""


@dataclass(frozen=True)
class OracleResult:
    best_span: TokenSeq
    best_score: float
    candidates_evaluated: int


def exhaustive_best_span(
    model: SequenceModel,
    task: TsTask,
    max_len: int,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> OracleResult:
    """Enumerate every content-token span of length 0..max_len and score it.

    Enumeration runs length-ascending then lexicographic, so keeping the
    first strict maximum implements the global tie-break (shorter span
    first, then smaller token sequence) without sorting candidates.
    """
    content = model.vocab.content_ids
    if max_len >= 0 and len(content) ** max_len > 10**6:
        raise SearchSpaceTooLarge(
            f"{len(content)}^{max_len} spans exceeds the 1e6 candidate budget"
        )
    best_score = float("-inf")
    best_span: tuple[int, ...] = ()
    count = 0
    for length in range(max_len + 1):
        for span in itertools.product(content, repeat=length):
            score = filled_score(
                model, task.source, task.prefix, span, task.suffix, scoring, include_eos_in_len
            )
            count += 1
            if count == 1 or prefer(score, span, best_score, best_span):
                best_score = score
                best_span = span
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
    best_n = 0
    best_score = float("-inf")
    for n in range(len(tokens) + 1):
        score = filled_score(
            model, task.source, task.prefix, tokens[:n], task.suffix, scoring, include_eos_in_len
        )
        if n == 0 or score > best_score:
            best_score = score
            best_n = n
    return best_n, best_score
