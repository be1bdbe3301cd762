import pytest

from tsdecode import oracle
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import UniformModel
from tsdecode.oracle import SearchSpaceTooLarge, exhaustive_best_prefix, exhaustive_best_span
from tsdecode.scoring import filled_score

from util import random_table_model, random_task


def test_max_len_zero_single_candidate(m1, m1_task):
    result = exhaustive_best_span(m1, m1_task, 0)
    assert result.best_span.tokens == ()
    assert result.candidates_evaluated == 1
    want = filled_score(m1, m1_task.source, m1_task.prefix, (), m1_task.suffix)
    assert result.best_score == want


def test_uniform_ties_break_to_empty_span():
    model = UniformModel(Vocab(5))
    task = TsTask("u", TokenSeq((2,)), TokenSeq(()), TokenSeq(()))
    result = exhaustive_best_span(model, task, 2)
    assert result.best_span.tokens == ()


def test_m1_enumeration_count_and_best(m1, m1_task):
    # Two content tokens: 1 + 2 + 4 = 7 candidate spans up to length 2.
    result = exhaustive_best_span(m1, m1_task, 2)
    assert result.candidates_evaluated == 7
    assert result.best_span.tokens == ()
    assert abs(result.best_score - (-0.6891630957374759)) < 1e-12


def test_m1_unconstrained_best(m1, m1_task_empty):
    result = exhaustive_best_span(m1, m1_task_empty, 3)
    assert result.candidates_evaluated == 15
    assert result.best_span.tokens == (2, 3)
    assert abs(result.best_score - (-0.6891630957374759)) < 1e-12


def test_best_score_recomputable(m1, m1_task):
    result = exhaustive_best_span(m1, m1_task, 2)
    again = filled_score(m1, m1_task.source, m1_task.prefix, result.best_span.tokens, m1_task.suffix)
    assert abs(result.best_score - again) < 1e-12


def test_search_space_guard():
    model = UniformModel(Vocab(103))
    task = TsTask("g", TokenSeq((2,)), TokenSeq(()), TokenSeq(()))
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_best_span(model, task, 3)  # 101^3 > 1e6


def test_search_space_guard_counts_every_length(m1, m1_task, monkeypatch):
    # Two content ids: 1 + 2 + 4 = 7 spans up to length 2 exceed a budget of
    # 6, though the longest length alone (2^2 = 4) is within it.
    monkeypatch.setattr(oracle, "SPAN_BUDGET", 6)
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_best_span(m1, m1_task, 2)
    assert exhaustive_best_span(m1, m1_task, 1).candidates_evaluated == 3


def test_search_space_guard_at_the_default_budget(m1, m1_task):
    # 2^0 + ... + 2^19 = 1,048,575 spans exceed 1e6; 2^19 alone does not.
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_best_span(m1, m1_task, 19)


class TestBestPrefix:
    def test_empty_path(self, m1, m1_task):
        n, score = exhaustive_best_prefix(m1, m1_task, ())
        assert n == 0
        assert score == filled_score(m1, m1_task.source, m1_task.prefix, (), m1_task.suffix)

    def test_decreasing_scores_pick_zero(self):
        # Uniform model: every token costs the same, so longer fillings only
        # dilute the score and the empty prefix wins.
        model = UniformModel(Vocab(5))
        task = TsTask("u", TokenSeq((2,)), TokenSeq(()), TokenSeq(()))
        n, _ = exhaustive_best_prefix(model, task, (2, 3, 4))
        assert n == 0

    def test_m1_pinned_path(self, m1, m1_task_empty, m1_task):
        n, score = exhaustive_best_prefix(m1, m1_task_empty, (2, 3, 2))
        assert n == 2
        assert abs(score - (-0.6891630957374759)) < 1e-12
        n2, _ = exhaustive_best_prefix(m1, m1_task, (2, 3, 2))
        assert n2 == 0

    def test_ties_pick_smaller_n(self):
        model = UniformModel(Vocab(3))
        # One content token: scores for n=0,1,2... are all log(0.5)·(n+1)/max(n,1):
        # n=0: log .5; n=1: 2 log .5; strictly worse, so n=0 by argmax anyway.
        task = TsTask("u", TokenSeq((2,)), TokenSeq(()), TokenSeq(()))
        n, _ = exhaustive_best_prefix(model, task, (2, 2))
        assert n == 0


def test_oracle_dominates_psgd_on_random_fixtures():
    from tsdecode.decode import PsgdParams, psgd

    for seed in range(25):
        vocab, src, model = random_table_model(seed)
        task = random_task(seed, vocab, src)
        oracle = exhaustive_best_span(model, task, 2)
        got = psgd(model, task, PsgdParams(beam_width=2, patience=2, max_span_len=2))
        assert got.whole_seq_score <= oracle.best_score + 1e-9
