import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode.rng import Stream, hash_key, mix64

from util import gamma


def reference_u64(key, i):
    """Draw ``i`` (counting from 1) of the stream keyed by ``key``, computed alone."""
    return mix64(key ^ mix64(i))


def reference_uniform(key, i):
    return ((reference_u64(key, i) >> 11) + 0.5) * (2.0 ** -53)


def test_stream_is_deterministic():
    a = Stream(hash_key(42, (1, 2, 3)))
    b = Stream(hash_key(42, (1, 2, 3)))
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_golden_uniforms():
    # Platform-stability canary: these exact values must hold everywhere.
    s = Stream(hash_key(7))
    got = [s.uniform() for _ in range(3)]
    assert got == [0.0833004957158831, 0.4541999850657041, 0.7784060395532655]


def reference_dirichlet(stream, concentration, n):
    """``Stream.dirichlet`` as one ``gamma`` call per variate."""
    draws = np.array([gamma(stream, concentration) for _ in range(n)], dtype=np.float64)
    total = draws.sum()
    if total <= 0.0:
        return np.full(n, 1.0 / n, dtype=np.float64)
    return draws / total


def test_hash_key_respects_sequence_boundaries():
    assert hash_key((1, 2), (3,)) != hash_key((1,), (2, 3))
    assert hash_key(5, (1,)) != hash_key(5, (1, 0))


def test_mix64_is_stable():
    assert mix64(0) == mix64(0)
    assert mix64(1) != mix64(2)


def test_uniform_in_open_interval():
    s = Stream(hash_key(3))
    for _ in range(1000):
        u = s.uniform()
        assert 0.0 < u < 1.0


def test_randint_bounds():
    s = Stream(hash_key(9))
    values = {s.randint(2, 5) for _ in range(200)}
    assert values == {2, 3, 4, 5}


def test_gamma_moments():
    # Gamma(shape) has mean == shape; check both branches of the sampler.
    for shape in (0.3, 2.5):
        s = Stream(hash_key(11, int(shape * 10)))
        draws = [gamma(s, shape) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - shape) < 0.12 * max(1.0, shape)
        assert all(d > 0 for d in draws)


def test_dirichlet_normalized():
    s = Stream(hash_key(13))
    for _ in range(50):
        row = s.dirichlet(0.4, 7)
        assert abs(float(row.sum()) - 1.0) < 1e-12
        assert (row >= 0).all()


@pytest.mark.parametrize(
    "concentration, n",
    [(0.2, 0), (0.2, -3), (0.0, 5), (-1.0, 5), (-1.0, 0), (math.nan, 5), (math.inf, 5)],
)
def test_dirichlet_rejects_bad_arguments_before_drawing(concentration, n):
    s = Stream(hash_key(13))
    with pytest.raises(ValueError):
        s.dirichlet(concentration, n)
    assert s._counter == 0


@pytest.mark.parametrize("shape", [0.0, -1.0, math.nan, math.inf])
def test_gamma_rejects_bad_shape_before_drawing(shape):
    s = Stream(hash_key(13))
    with pytest.raises(ValueError):
        gamma(s, shape)
    assert s._counter == 0


# 0.05, 0.2 and 0.3 take the boost path, 1.0 is the edge that does not.
SHAPES = st.sampled_from([0.05, 0.2, 0.3, 1.0, 2.5])

DRAWS = st.one_of(
    st.just(("uniform",)),
    st.just(("next_u64",)),
    st.tuples(st.just("randint"), st.integers(-5, 5), st.integers(0, 2**70)),
    st.tuples(st.just("dirichlet"), SHAPES, st.integers(1, 8)),
)


@given(st.integers(0, 2**64 - 1), st.lists(DRAWS, max_size=3 * 128 + 2))
@settings(max_examples=60, deadline=None)
def test_any_interleaving_matches_scalar_reference(key, draws):
    s, twin = Stream(key), Stream(key)
    drawn = 0
    for kind, *args in draws:
        if kind == "dirichlet":
            # A row takes the draws of n scalar gamma calls on a twin stream
            # that has consumed as many draws.
            shape, n = args
            twin._counter = drawn
            assert s.dirichlet(shape, n).tobytes() == reference_dirichlet(twin, shape, n).tobytes()
            drawn = twin._counter
            assert s._counter == drawn
            continue
        drawn += 1
        u = reference_u64(key, drawn)
        if kind == "uniform":
            assert s.uniform() == reference_uniform(key, drawn)
        elif kind == "next_u64":
            assert s.next_u64() == u
        else:
            lo, span = args
            assert s.randint(lo, lo + span) == lo + u % (span + 1)
    assert s._counter == drawn


@pytest.mark.parametrize("n", [1, 2, 128, 129, 130, 257, 258])
def test_scalar_draws_match_the_reference_at_any_count(n):
    # Each scalar draw is computed alone, so counts that straddle multiples
    # of a block size (128 here) draw what the reference draws.
    key = hash_key(19, n)
    s = Stream(key)
    got = [s.uniform() for _ in range(n - 1)]
    assert got == [reference_uniform(key, i) for i in range(1, n)]
    assert s.next_u64() == reference_u64(key, n)


def test_counter_counts_draws_consumed():
    key = hash_key(23)
    s = Stream(key)
    for n in range(1, 2 * 128 + 3):
        if n % 5 == 0:
            assert s.next_u64() == reference_u64(key, n)
        else:
            assert s.uniform() == reference_uniform(key, n)
        assert s._counter == n


def test_golden_dirichlet_rows():
    # Rows pinned before the stream drew in blocks: shape 0.2 takes the
    # boost path of gamma, shape 2.5 the direct one.
    digest = hashlib.sha256()
    for shape in (0.2, 2.5):
        for k in range(200):
            digest.update(Stream(hash_key(k, int(shape * 10))).dirichlet(shape, 20).tobytes())
    assert digest.hexdigest() == "e0d3771faf88004efc2d8ac8859c53d58676772b7c7446ce9ecbe61ad0953618"


def assert_dirichlet_matches_reference(key, shape, n, prior=()):
    """Row bytes, draws consumed and the next two draws all match ``n``
    scalar ``gamma`` calls on a twin stream."""
    got, ref = Stream(key), Stream(key)
    for kind in prior:
        assert getattr(got, kind)() == getattr(ref, kind)()
    row = got.dirichlet(shape, n)
    assert row.tobytes() == reference_dirichlet(ref, shape, n).tobytes()
    assert got._counter == ref._counter
    drawn = got._counter
    assert got.uniform() == reference_uniform(key, drawn + 1)
    assert got.uniform() == reference_uniform(key, drawn + 2)
    return drawn


@given(
    st.integers(0, 2**64 - 1),
    SHAPES,
    st.integers(1, 3 * 128),
    st.lists(st.sampled_from(["uniform", "next_u64"]), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_dirichlet_matches_scalar_gamma_reference(key, shape, n, prior):
    assert_dirichlet_matches_reference(key, shape, n, prior)


def test_dirichlet_row_with_a_long_rejection_run_matches_reference():
    # Found by search: a row with a long run of rejections, which takes more
    # than 4n + 16 draws (about 4.11 per variate is typical at 0.2).
    n = 20
    drawn = assert_dirichlet_matches_reference(hash_key(29, n, 1098), 0.2, n)
    assert drawn > 4 * n + 16


def test_dirichlet_of_all_underflowing_variates_is_uniform():
    # At concentration 0.001 every boost U ** 1000 of this row underflows
    # to 0, so the row sums to 0 and is uniform instead.
    key = hash_key(31, 8)
    s, ref = Stream(key), Stream(key)
    assert s.dirichlet(0.001, 3).tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert reference_dirichlet(ref, 0.001, 3).tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert s._counter == ref._counter == 15
