import math

import pytest

from tsdecode.scoring import (
    SCORING_MEAN_LOGPROB,
    SCORING_PROB_OVER_LENGTH,
    filled_score,
    normalized_score,
    rank,
)


def test_mean_logprob_divides_by_content_length():
    assert normalized_score(-6.0, 3) == -2.0


def test_prob_over_length_subtracts_log_length():
    got = normalized_score(-6.0, 3, SCORING_PROB_OVER_LENGTH)
    assert abs(got - (-6.0 - math.log(3))) < 1e-12


def test_include_eos_in_len_adds_one():
    assert normalized_score(-6.0, 2, SCORING_MEAN_LOGPROB, include_eos_in_len=True) == -2.0


def test_zero_length_normalizes_by_one():
    assert normalized_score(-1.5, 0) == -1.5
    assert normalized_score(-1.5, 0, SCORING_PROB_OVER_LENGTH) == -1.5


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        normalized_score(-1.0, 1, "geometric")


def test_filled_score_matches_manual(m1, m1_task):
    # prefix [a], span [], suffix [b]: P(a|bos) P(b|a) P(eos|b) over length 2.
    want = (math.log(0.7) + math.log(0.6) + math.log(0.6)) / 2
    got = filled_score(m1, m1_task.source, m1_task.prefix, (), m1_task.suffix)
    assert abs(got - want) < 1e-9


class TestPrefer:
    """A candidate is preferred to another when its ``rank`` is smaller."""

    def test_higher_score_wins(self):
        assert rank((-1.0, (5, 5))) < rank((-2.0, ()))
        assert not rank((-2.0, ())) < rank((-1.0, (5, 5)))

    def test_tie_shorter_wins(self):
        assert rank((-1.0, (2,))) < rank((-1.0, (2, 3)))
        assert not rank((-1.0, (2, 3))) < rank((-1.0, (2,)))

    def test_tie_lexicographic(self):
        assert rank((-1.0, (2, 3))) < rank((-1.0, (2, 4)))
        assert not rank((-1.0, (2, 4))) < rank((-1.0, (2, 3)))

    def test_identical_does_not_beat(self):
        assert not rank((-1.0, (2,))) < rank((-1.0, (2,)))
