import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode.core import ReservedTokenInContent, TokenOutOfRange, TokenSeq, Vocab
from tsdecode.lm import (
    _ROW_TAG,
    EPS_FLOOR,
    ForcedPassResult,
    InvalidModelSpec,
    NgramGenModel,
    StepDistribution,
    TableModel,
    UniformModel,
    UnnormalizedRow,
    as_tokens,
    make_perturbed_sibling,
    model_from_spec,
    model_to_spec,
    load_model_spec,
    save_model_spec,
    seq_logprob,
)
from tsdecode.rng import Stream, hash_key

from util import finish_rows, kernel_paths, over_paths, random_table_model, run_by


def test_as_tokens_gives_plain_ints():
    got = as_tokens(np.array([3, 4]))
    assert got == (3, 4)
    assert all(type(t) is int for t in got)


class TestUniformModel:
    def test_rows_uniform_over_non_bos(self):
        model = UniformModel(Vocab(5))
        result = model.forced_pass((2,), (2, 3, 4))
        assert len(result) == 4
        for dist in result.distributions:
            assert dist.probs[0] == 0.0
            np.testing.assert_allclose(dist.probs[1:], 0.25, atol=1e-9)

    def test_three_token_vocab(self):
        model = UniformModel(Vocab(3))
        row = model.forced_pass((2,), ()).distributions[0].probs
        np.testing.assert_allclose(row, [0.0, 0.5, 0.5], atol=1e-9)

    def test_position_independent(self):
        model = UniformModel(Vocab(6))
        result = model.forced_pass((3, 4), (2, 5, 2))
        mats = result.matrix()
        for row in mats[1:]:
            np.testing.assert_array_equal(row, mats[0])


class TestForcedPass:
    def test_length_is_target_plus_one(self, m1, m1_src):
        assert len(m1.forced_pass(m1_src, (2, 3, 2))) == 4

    def test_empty_target_single_distribution(self, m1, m1_src):
        assert len(m1.forced_pass(m1_src, ())) == 1

    def test_m1_rows_match_table(self, m1, m1_src):
        result = m1.forced_pass(m1_src, (2,))
        np.testing.assert_allclose(result.distributions[0].probs, [0, 0.1, 0.7, 0.2], atol=1e-9)
        np.testing.assert_allclose(result.distributions[1].probs, [0, 0.2, 0.2, 0.6], atol=1e-9)

    def test_rejects_out_of_range(self, m1, m1_src):
        with pytest.raises(TokenOutOfRange):
            m1.forced_pass(m1_src, (7,))

    def test_rejects_reserved_in_target(self, m1, m1_src):
        with pytest.raises(ReservedTokenInContent):
            m1.forced_pass(m1_src, (2, 1))

    def test_missing_context_falls_back_to_uniform(self, m1, m1_src):
        # Context (eos,) has no table row.
        row = np.exp(m1.rows_after(m1_src.tokens, [(1,)])[0])
        np.testing.assert_allclose(row, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_floor_applies_to_every_non_bos_entry(self):
        vocab = Vocab(4)
        model = TableModel(vocab, 1, {((2,), (0,)): [0.0, 0.0, 1.0, 0.0]})
        row = model.forced_pass((2,), ()).distributions[0].probs
        assert row[0] == 0.0
        assert row[1] >= EPS_FLOOR and row[3] >= EPS_FLOOR
        assert abs(float(row.sum()) - 1.0) < 1e-9


class TestLazyDistributions:
    def test_reads_match_the_memoised_rows(self):
        model = NgramGenModel(Vocab(7), 2, seed=4, concentration=0.3)
        target = (2, 5, 3)
        result = model.forced_pass((2, 6), target)
        rows = [model.rows_after((2, 6), [target[:t]])[0] for t in range(4)]
        assert len(result) == 4
        assert all(isinstance(d, StepDistribution) for d in result.distributions)
        assert result.distributions is result.distributions
        assert all(got is row for got, row in zip(result.log_rows, rows))
        np.testing.assert_array_equal(result.matrix(), np.stack([d.probs for d in result.distributions]))
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(np.stack(result.log_rows), np.log(result.matrix()))

    def test_built_only_when_read(self, monkeypatch):
        built = []
        post_init = StepDistribution.__post_init__
        monkeypatch.setattr(StepDistribution, "__post_init__", lambda d: built.append(d) or post_init(d))
        model = UniformModel(Vocab(5))
        result = model.forced_pass((2,), (2, 3))
        assert len(result) == 3 and np.stack(result.log_rows).shape == (3, 5)
        assert built == []
        result.matrix()
        assert len(built) == 3

    def test_unnormalized_row_raises_when_read(self):
        probs = np.array([0.0, 0.5, 0.4])
        with np.errstate(divide="ignore"):
            logs = np.log(probs)
        result = ForcedPassResult(lambda: (probs,), (logs,))
        assert len(result) == 1
        np.testing.assert_array_equal(np.stack(result.log_rows), [logs])
        with pytest.raises(ValueError):
            result.distributions
        with pytest.raises(ValueError):
            result.matrix()
        with pytest.raises(ValueError):
            StepDistribution(probs)


def _order3_table_model():
    # Rows keyed on BOS contexts: an order-3 context keeps BOS for the first
    # three positions.
    rows = {
        ((2,), (0,)): [0.0, 0.1, 0.3, 0.2, 0.4],
        ((2,), (0, 3)): [0.0, 0.25, 0.25, 0.1, 0.4],
        ((2,), (0, 3, 4)): [0.0, 0.5, 0.2, 0.2, 0.1],
        ((2,), (4, 2, 3)): [0.0, 0.05, 0.05, 0.6, 0.3],
    }
    return TableModel(Vocab(5), 3, rows)


NEXT_ROW_MODELS = {
    "uniform": (lambda: UniformModel(Vocab(5)), (2,)),
    "table_bos_contexts": (_order3_table_model, (2,)),
    "ngram": (lambda: NgramGenModel(Vocab(9), 2, seed=17, concentration=0.3), (3, 8, 2)),
    "perturbed_sibling": (
        lambda: make_perturbed_sibling(
            NgramGenModel(Vocab(9), 2, seed=17, concentration=0.3), perturb_seed=5, rate=0.5
        ),
        (3, 8, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(NEXT_ROW_MODELS))
def test_next_log_row_is_last_forced_pass_row(name):
    # The next-token row after a prefix, looked up alone, is the last row
    # of a forced pass over that prefix.
    make, src = NEXT_ROW_MODELS[name]
    # Two instances, so each query draws its rows cold rather than reading
    # the other's memo.
    cold, reference = make(), make()
    content = cold.vocab.content_ids
    prefixes = [(), (content[1],), (content[1], content[2]), (content[1], content[2], content[0], content[1])]
    for prefix in prefixes + [TokenSeq(prefixes[-1]), list(prefixes[2])]:
        got = cold.rows_after(src, [as_tokens(prefix)])[0]
        want = np.stack(reference.forced_pass(src, prefix).log_rows)[-1]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "src, prefix, error",
    [
        ((2,), (5,), TokenOutOfRange),
        ((2,), (2, -1), TokenOutOfRange),
        ((9,), (), TokenOutOfRange),
        ((2,), (0,), ReservedTokenInContent),
        ((2,), (2, 1), ReservedTokenInContent),
    ],
)
def test_forced_pass_checks_inputs(m1, src, prefix, error):
    with pytest.raises(error):
        m1.forced_pass(src, prefix)


Q20 = [((4, 9, 12), ()), ((4, 9, 12), (5, 3, 8)), ((2, 19, 7, 7), (19, 2, 11))]

# SHA-256 over the finalized probability and log rows of forced passes
# (matrix() then np.stack(log_rows) bytes, query by query). A faster row draw,
# finalization or memo must reproduce every bit of these rows.
ROW_BYTES = {
    "ngram_v20": (
        lambda: NgramGenModel(Vocab(20), 2, seed=37, concentration=0.2),
        Q20,
        "352bdae4ec31040ef50213d2f1909d181c6a1327fd5ff5018cb03e0cb60b0bc7",
    ),
    "ngram_v100": (
        lambda: NgramGenModel(Vocab(100), 2, seed=37, concentration=0.2),
        [((4, 90, 12), (55, 3, 99)), ((2, 64), (64, 2, 17, 80))],
        "18e2e43e73c457a7cfadde070e6d64571c080b63df4fae94285dc7868383b222",
    ),
    "perturbed_sibling_v20": (
        lambda: make_perturbed_sibling(
            NgramGenModel(Vocab(20), 2, seed=37, concentration=0.2), perturb_seed=5, rate=0.5
        ),
        Q20,
        "450d43de8c19951a0ff4a63f91d2ca8d514fc8bd160d96e8a27b0b74d6578953",
    ),
    "table_fallback": (
        lambda: TableModel(Vocab(6), 2, {((2,), (0,)): [0.0, 0.1, 0.2, 0.3, 0.2, 0.2]}),
        [((2,), (3, 4, 5)), ((3, 5), (2,))],
        "d005e8cc5436007e21ac6688c1d602f742aa8083c6d8abb9aebcba5c306158e5",
    ),
    "uniform": (
        lambda: UniformModel(Vocab(7)),
        [((2,), (3, 4)), ((6, 5), ())],
        "c14e7f91cc6b1bdf13c14cc2917d9806b945ef031dddda2f41d054487a699532",
    ),
}


@over_paths("finalize", "name", [(name,) for name in sorted(ROW_BYTES)], sorted(ROW_BYTES))
def test_finalized_row_bytes_are_pinned(name):
    make, queries, want = ROW_BYTES[name]
    model = make()
    digest = hashlib.sha256()
    for src, target in queries:
        result = model.forced_pass(src, target)
        digest.update(result.matrix().tobytes())
        digest.update(np.stack(result.log_rows).tobytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("name", sorted(ROW_BYTES))
def test_pinned_row_bytes_on_every_row_path(name):
    # The pins above hold however the rows are drawn: by the Python loop or
    # by the compiled block, and in a block of one row each, the memo filled
    # one prefix at a time, as in one block per pass.
    make, queries, want = ROW_BYTES[name]
    for path in kernel_paths("block"):
        with run_by("block", path):
            model = make()
            digest = hashlib.sha256()
            for src, target in queries:
                prefixes = [tuple(target[:t]) for t in range(len(target) + 1)]
                digest.update(np.concatenate([model._prob_rows(src, [prefix]) for prefix in prefixes]).tobytes())
                digest.update(np.stack([model.rows_after(src, [prefix])[0] for prefix in prefixes]).tobytes())
        assert digest.hexdigest() == want, path


class TestSeqLogprob:
    def test_uniform_length_three_with_eos(self):
        model = UniformModel(Vocab(5))
        got = seq_logprob(model, (2,), (2, 3, 4), include_eos=True)
        assert abs(got - 4 * math.log(0.25)) < 1e-9

    def test_empty_target_no_eos_is_zero(self, m1, m1_src):
        assert seq_logprob(m1, m1_src, (), include_eos=False) == 0.0

    def test_m1_hand_product(self, m1, m1_src):
        got = seq_logprob(m1, m1_src, (2, 3), include_eos=True)
        want = math.log(0.7) + math.log(0.6) + math.log(0.6)
        assert abs(got - want) < 1e-9


class TestTableModel:
    def test_unnormalized_row_rejected(self):
        with pytest.raises(UnnormalizedRow):
            TableModel(Vocab(4), 1, {((2,), (0,)): [0.0, 0.1, 0.7, 0.1]})

    def test_negative_row_rejected(self):
        with pytest.raises(UnnormalizedRow):
            TableModel(Vocab(4), 1, {((2,), (0,)): [0.0, -0.1, 1.0, 0.1]})

    def test_context_longer_than_order_rejected(self):
        with pytest.raises(ValueError):
            TableModel(Vocab(4), 1, {((2,), (0, 2)): [0.0, 0.1, 0.7, 0.2]})

    def test_order_two_context_includes_bos_near_start(self):
        vocab = Vocab(4)
        row = [0.0, 0.2, 0.4, 0.4]
        model = TableModel(vocab, 2, {((2,), (0, 2)): row})
        # Position 1 of target (2, ...) conditions on context (bos, 2).
        got = model.forced_pass((2,), (2,)).distributions[1].probs
        np.testing.assert_allclose(got, row, atol=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_context_is_last_order_tokens_of_bos_plus_prefix(self, order):
        model = TableModel(Vocab(9), order, {})
        for n in range(order + 3):
            prefix = tuple(range(2, 2 + n))
            assert model._contexts([prefix]) == [((model.vocab.bos_id,) + prefix)[-order:]]


class TestNgramGenModel:
    def test_deterministic_rows(self):
        a = NgramGenModel(Vocab(6), 2, seed=123, concentration=0.5)
        b = NgramGenModel(Vocab(6), 2, seed=123, concentration=0.5)
        ra = a.forced_pass((2, 3), (4, 5)).matrix()
        rb = b.forced_pass((2, 3), (4, 5)).matrix()
        np.testing.assert_array_equal(ra, rb)

    def test_golden_row(self):
        # Cross-platform canary: raw Dirichlet row pinned to 12 digits.
        model = NgramGenModel(Vocab(6), 2, seed=123, concentration=0.5)
        (key,) = model._row_keys((2, 3), [(0,)])
        np.testing.assert_allclose(
            Stream(key).dirichlet(0.5, 5),
            [0.005985862393, 0.253041496324, 0.033840999458, 0.704912698660, 0.002218943165],
            atol=1e-12,
        )

    def test_different_seeds_differ(self):
        a = NgramGenModel(Vocab(6), 2, seed=123, concentration=0.5)
        b = NgramGenModel(Vocab(6), 2, seed=124, concentration=0.5)
        assert (a._finished_rows((2, 3), [(0,)])[0] != b._finished_rows((2, 3), [(0,)])[0]).any()

    def test_rows_normalized(self):
        model = NgramGenModel(Vocab(9), 2, seed=5, concentration=0.3)
        for t in range(20):
            result = model.forced_pass((2, 3), tuple([2 + (t + i) % 7 for i in range(3)]))
            for dist in result.distributions:
                assert abs(float(dist.probs.sum()) - 1.0) < 1e-9

    def test_perturbed_sibling_differs_on_some_contexts(self):
        base = NgramGenModel(Vocab(8), 2, seed=21, concentration=0.4)
        sibling = make_perturbed_sibling(base, perturb_seed=99, rate=0.3)
        same = differ = 0
        for ctx_tok in base.vocab.content_ids:
            a = base._finished_rows((2,), [(ctx_tok,)])[0]
            b = sibling._finished_rows((2,), [(ctx_tok,)])[0]
            if (a == b).all():
                same += 1
            else:
                differ += 1
        assert differ > 0 and same > 0

    def test_huge_order_builds_at_once_and_folds_keys_as_hash_key(self):
        # Nothing is tabulated by context length, so an order of 10**9 costs
        # nothing before its first row, and a context of any length is keyed
        # by hash_key.
        spec = {"kind": "ngram_gen", "vocab_size": 9, "order": 10**9, "seed": 5, "concentration": 0.3, "table": None}
        start = time.perf_counter()
        huge = model_from_spec(spec)
        assert time.perf_counter() - start < 0.5
        for n in (0, 1, 5, 40, 3, 100, 2):
            context = tuple(2 + (5 * i) % 7 for i in range(n))
            key = hash_key(5, _ROW_TAG, (2, 3), context)
            want = finish_rows([Stream(key).dirichlet(0.3, 8)])
            assert huge._finished_rows((2, 3), [context]).tobytes() == want.tobytes()
        # A forced pass draws contexts of every length up to the target's,
        # each keyed as under any order longer than the target.
        target = tuple(2 + (3 * i) % 7 for i in range(40))
        want = model_from_spec(dict(spec, order=64)).forced_pass((2, 3), target).log_rows
        got = model_from_spec(spec).forced_pass((2, 3), target).log_rows
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]

    def test_invalid_concentration(self):
        # NaN and inf would give rows of NaN.
        for concentration in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                NgramGenModel(Vocab(4), 1, seed=0, concentration=concentration)


class TestStepDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StepDistribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StepDistribution(np.array([1.1, -0.1]))

    def test_probs_read_only(self):
        dist = StepDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0


# ---------------------------------------------------------------------------
# Model-level properties
# ---------------------------------------------------------------------------

model_seeds = st.integers(min_value=0, max_value=10**6)


@given(model_seeds, st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_causality_prefix_stability(seed, cut):
    vocab, src, model = random_table_model(seed, vocab_size=5)
    stream_tokens = tuple(vocab.content_ids[(seed + i) % len(vocab.content_ids)] for i in range(4))
    full = model.forced_pass(src, stream_tokens).matrix()
    cut = min(cut, len(stream_tokens))
    truncated = model.forced_pass(src, stream_tokens[:cut]).matrix()
    np.testing.assert_array_equal(full[: cut + 1], truncated)


@given(model_seeds)
@settings(max_examples=60, deadline=None)
def test_consistency_one_pass_vs_stepwise(seed):
    vocab, src, model = random_table_model(seed, vocab_size=5)
    target = tuple(vocab.content_ids[(seed + i) % len(vocab.content_ids)] for i in range(3))
    total = seq_logprob(model, src, target, include_eos=True)
    stepwise = 0.0
    for t, tok in enumerate(target):
        row = model.forced_pass(src, target[:t]).distributions[-1].probs
        stepwise += math.log(float(row[tok]))
    row = model.forced_pass(src, target).distributions[-1].probs
    stepwise += math.log(float(row[vocab.eos_id]))
    assert abs(total - stepwise) < 1e-9


@given(model_seeds)
@settings(max_examples=60, deadline=None)
def test_normalization_and_floor(seed):
    vocab, src, model = random_table_model(seed, vocab_size=6)
    result = model.forced_pass(src, (vocab.content_ids[0], vocab.content_ids[-1]))
    for dist in result.distributions:
        assert abs(float(dist.probs.sum()) - 1.0) < 1e-9
        assert dist.probs[vocab.bos_id] == 0.0
        non_bos = np.delete(dist.probs, vocab.bos_id)
        assert (non_bos >= EPS_FLOOR).all()


# ---------------------------------------------------------------------------
# Model spec files
# ---------------------------------------------------------------------------

class TestModelSpec:
    def test_uniform_roundtrip(self, tmp_path):
        model = UniformModel(Vocab(7))
        path = tmp_path / "model.json"
        save_model_spec(path, model)
        loaded = load_model_spec(path)
        np.testing.assert_array_equal(
            loaded.forced_pass((2,), (3,)).matrix(), model.forced_pass((2,), (3,)).matrix()
        )

    def test_table_roundtrip(self, m1, m1_src):
        spec = model_to_spec(m1)
        assert spec["kind"] == "table"
        assert "src:2|ctx:0" in spec["table"]
        loaded = model_from_spec(spec)
        np.testing.assert_array_equal(
            loaded.forced_pass(m1_src, (2, 3)).matrix(), m1.forced_pass(m1_src, (2, 3)).matrix()
        )

    def test_ngram_roundtrip(self):
        model = NgramGenModel(Vocab(6), 2, seed=9, concentration=0.25)
        loaded = model_from_spec(model_to_spec(model))
        np.testing.assert_array_equal(
            loaded.forced_pass((2,), (3, 4)).matrix(), model.forced_pass((2,), (3, 4)).matrix()
        )

    def test_perturbed_sibling_not_serializable(self):
        base = NgramGenModel(Vocab(6), 2, seed=9, concentration=0.25)
        with pytest.raises(ValueError):
            model_to_spec(make_perturbed_sibling(base, 1))

    # A key whose ids fall outside the vocabulary names a row no lookup can
    # ever reach, so it is rejected rather than stored.
    @pytest.mark.parametrize("src, ctx", [((99,), (0,)), ((2,), (-5,)), ((99,), (-5,)), ((2,), (4,))])
    def test_table_key_outside_vocab_rejected(self, src, ctx):
        with pytest.raises(ValueError, match="has an id outside"):
            TableModel(Vocab(4), 1, {(src, ctx): [0.0, 0.5, 0.5, 0.0]})

    def test_spec_table_key_outside_vocab_rejected(self):
        spec = {"kind": "table", "vocab_size": 4, "order": 1, "seed": 0, "concentration": 0.0,
                "table": {"src:99|ctx:-5": [0.0, 0.5, 0.5, 0.0]}}
        with pytest.raises(InvalidModelSpec, match=r"table key 'src:99\|ctx:-5' has an id outside \[0, 4\)"):
            model_from_spec(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "transformer", "vocab_size": 8})
