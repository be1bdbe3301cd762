import math

import pytest
from hypothesis import given, settings, strategies as st

from tsdecode.metrics import (
    EmptyCorpus,
    EvalRecord,
    LengthMismatch,
    aggregate,
    corpus_bleu,
    format_metrics_csv,
    sentence_bleu_smoothed,
)
from tsdecode.rng import Stream, hash_key

from reference_bleu import reference_corpus_bleu


class TestCorpusBleu:
    def test_identity_corpus_scores_100(self):
        corpus = [(1, 2, 3, 4), (5, 6, 7, 8, 9)]
        got = corpus_bleu(corpus, corpus)
        assert abs(got.score - 100.0) < 1e-9
        assert got.brevity_penalty == 1.0

    def test_disjoint_corpus_scores_0(self):
        got = corpus_bleu([(1, 2, 3, 4)], [(5, 6, 7, 8)])
        assert got.score == 0.0

    def test_hand_counted_precisions(self):
        got = corpus_bleu([(1, 2, 3, 4)], [(1, 2, 3, 5)])
        assert got.precisions == (3 / 4, 2 / 3, 1 / 2, 0.0)
        assert got.score == 0.0  # zero 4-gram precision, unsmoothed

    def test_smoothed_sentence_variant_positive(self):
        got = sentence_bleu_smoothed((1, 2, 3, 4), (1, 2, 3, 5))
        # Add-1 smoothing on n >= 2: (3/4, 3/4, 2/3, 1/2), BP = 1.
        want = 100.0 * math.exp(
            (math.log(3 / 4) + math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)) / 4
        )
        assert abs(got.score - want) < 1e-9
        assert abs(got.score - 65.8037) < 1e-3

    def test_brevity_penalty_value(self):
        got = corpus_bleu([(1, 2)], [(1, 2, 3, 4)])
        assert abs(got.brevity_penalty - math.exp(1 - 4 / 2)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_bleu([(1,)], [])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], [])


class TestEmptyCandidates:
    def test_all_empty_corpus_scores_0(self):
        got = corpus_bleu([(), ()], [(1, 2), (3,)])
        assert got.score == 0.0
        assert got.brevity_penalty == 0.0
        assert got.candidate_len == 0

    def test_mixed_corpus_pools_zero_length_entries(self):
        got = corpus_bleu([(1, 2, 3, 4), ()], [(1, 2, 3, 4), (5, 6)])
        assert got.candidate_len == 4
        assert got.reference_len == 6
        assert got.brevity_penalty == math.exp(1 - 6 / 4)


def random_corpus(seed, n_pairs=None):
    stream = Stream(hash_key(seed, 0xB1E0))
    n = n_pairs or stream.randint(1, 6)
    cands, refs = [], []
    for _ in range(n):
        cands.append(tuple(stream.randint(1, 8) for _ in range(stream.randint(0, 7))))
        refs.append(tuple(stream.randint(1, 8) for _ in range(stream.randint(1, 7))))
    return cands, refs


def test_cross_check_against_reference_implementation():
    for seed in range(100):
        cands, refs = random_corpus(seed)
        got = corpus_bleu(cands, refs)
        want_score, want_prec, want_bp = reference_corpus_bleu(cands, refs)
        assert abs(got.score - want_score) < 1e-9
        assert abs(got.brevity_penalty - want_bp) < 1e-9
        for a, b in zip(got.precisions, want_prec):
            assert abs(a - b) < 1e-9


@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(seed, rnd):
    cands, refs = random_corpus(seed, n_pairs=4)
    base = corpus_bleu(cands, refs)
    order = list(range(len(cands)))
    rnd.shuffle(order)
    shuffled = corpus_bleu([cands[i] for i in order], [refs[i] for i in order])
    assert abs(base.score - shuffled.score) < 1e-12


def test_appending_exact_match_never_decreases():
    for seed in range(30):
        cands, refs = random_corpus(seed)
        base = corpus_bleu(cands, refs)
        extended = corpus_bleu(cands + [(7, 7, 8, 9, 7)], refs + [(7, 7, 8, 9, 7)])
        assert extended.score >= base.score - 1e-12


class TestAggregate:
    def record(self, decoder, ratio, cand, ref, fw=10, wall=100):
        return EvalRecord(decoder, ratio, tuple(cand), tuple(ref), fw, wall)

    def test_identity_group_scores_100(self):
        rows = aggregate([self.record("psgd", 0.5, (1, 2, 3, 4), (1, 2, 3, 4))] * 3)
        assert len(rows) == 1
        assert abs(rows[0].bleu.score - 100.0) < 1e-9
        assert rows[0].n_tasks == 3

    def test_two_decoders_two_rows(self):
        rows = aggregate(
            [
                self.record("psgd", 0.5, (1, 2, 3, 4), (1, 2, 3, 4)),
                self.record("dba", 0.5, (1, 2, 3, 4), (1, 2, 3, 4)),
            ]
        )
        assert [r.decoder for r in rows] == ["dba", "psgd"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpus):
            aggregate([])

    def test_pinned_csv(self):
        rows = aggregate(
            [
                self.record("psgd", 0.25, (1, 2, 3, 4), (1, 2, 3, 4), fw=12, wall=250),
                self.record("psgd", 0.25, (1, 2, 3, 4), (1, 2, 3, 5), fw=14, wall=350),
                self.record("dba", 0.25, (1, 2, 3, 4), (1, 2, 3, 4), fw=40, wall=1000),
            ]
        )
        want = (
            "decoder,mask_ratio,bleu,bp,p1,p2,p3,p4,mean_forward_passes,mean_wall_time_us,n_tasks\n"
            "dba,0.2500,100.0000,1.0000,1.0000,1.0000,1.0000,1.0000,40.0000,1000.0000,1\n"
            "psgd,0.2500,72.3127,1.0000,0.8750,0.8333,0.7500,0.5000,13.0000,300.0000,2\n"
        )
        assert format_metrics_csv(rows) == want
