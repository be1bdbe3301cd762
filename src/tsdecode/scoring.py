"""Whole-sequence scoring shared by the span decoder and the enumeration oracle.

A candidate filling is judged by the log probability of the complete target
(prefix + span + suffix, with the end-of-sentence term always included in
the numerator) normalized by the content length. Two normalizations exist:

* ``mean_logprob`` (default): total log-probability divided by length —
  the standard length-normalized score.
* ``prob_over_length``: raw probability divided by length, kept in the log
  domain as ``total - log(length)``. This penalizes length twice as hard
  and degenerates for long sequences, but is exposed for fidelity
  experiments.

``include_eos_in_len`` adds one to the normalizing length for the EOS term;
by default the length counts content tokens only.
"""

from __future__ import annotations

import math

from .lm import SequenceModel, as_tokens, seq_logprob

SCORING_MEAN_LOGPROB = "mean_logprob"
SCORING_PROB_OVER_LENGTH = "prob_over_length"
SCORING_MODES = (SCORING_MEAN_LOGPROB, SCORING_PROB_OVER_LENGTH)


def rank(candidate: tuple) -> tuple:
    """Sort key of a ``(score, tokens, ...)`` candidate for every search and
    oracle: higher score first, then shorter tokens, then smaller ones."""
    return (-candidate[0], len(candidate[1]), candidate[1])


def normalized_score(
    total_logprob: float,
    content_len: int,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> float:
    """Normalize a summed log-probability by the sequence length.

    ``content_len`` is the number of content tokens scored (EOS excluded);
    a zero length (empty prefix, span and suffix) normalizes by 1.
    """
    if scoring not in SCORING_MODES:
        raise ValueError(f"unknown scoring mode {scoring!r}")
    term = length_term(content_len, scoring, include_eos_in_len)
    if scoring == SCORING_MEAN_LOGPROB:
        return total_logprob / term
    return total_logprob - term


def length_term(content_len: int, scoring: str, include_eos_in_len: bool) -> float:
    """What ``normalized_score`` divides the total by (``mean_logprob``, the
    length) or subtracts from it (``prob_over_length``, the length's log)."""
    length = max(content_len + (1 if include_eos_in_len else 0), 1)
    return length if scoring == SCORING_MEAN_LOGPROB else math.log(length)


def filled_score(
    model: SequenceModel,
    source,
    prefix,
    span,
    suffix,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> float:
    """Score of prefix + span + suffix computed from scratch in one pass."""
    target = as_tokens(prefix) + as_tokens(span) + as_tokens(suffix)
    total = seq_logprob(model, source, target, include_eos=True)
    return normalized_score(total, len(target), scoring, include_eos_in_len)
