"""An n-gram model's rows must not depend on how they are drawn.

A row is a pure function of its key, ``rng.hash_key(seed, tag, source,
context)``, under the sibling's seed where its coin lands below the rate.
``NgramGenModel`` folds the (seed, tag, source) part once per source and
the compiled block (``tsd_block``) folds each context onto it, or the
Python path folds each whole key, and draws and finishes its rows in
blocks; each path must give exactly the rows of a fresh ``Stream`` per
key, finished by ``lm._numpy_finalize``. Blocks are finished in place,
which must never write a row a model keeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode.core import Vocab
from tsdecode.lm import _COIN_TAG, _ROW_TAG, NgramGenModel, TableModel, UniformModel, make_perturbed_sibling
from tsdecode.rng import Stream, _normalized, hash_key

from test_row_block import recorded_counters
from util import finish_rows, kernel_paths, run_by


def reference_rows(model, source, contexts):
    """Each context's finished row from its definition: the coin and the row
    key each by one ``hash_key`` call, one Python-loop row per key, finished
    by ``lm._numpy_finalize``."""
    rows = []
    for context in contexts:
        seed = model.seed
        if model.perturb_seed is not None and model.perturb_rate > 0.0:
            if Stream(hash_key(model.perturb_seed, _COIN_TAG, source, context)).uniform() < model.perturb_rate:
                seed = model._perturbed_seed
        stream = Stream(hash_key(seed, _ROW_TAG, source, context))
        rows.append(_normalized(stream._gammas(model.concentration, model.vocab.size - 1)))
    return finish_rows(rows)


@given(
    st.sampled_from([3, 20, 100]),
    st.integers(1, 3),
    st.sampled_from([None, 0.0, 0.5, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rows_are_keyed_by_hash_key(vocab_size, order, rate, seed, data):
    model = NgramGenModel(Vocab(vocab_size), order, seed=seed, concentration=0.2)
    if rate is not None:
        model = make_perturbed_sibling(model, data.draw(st.integers(0, 2**64 - 1)), rate)
    ids = st.integers(0, vocab_size - 1)
    source = tuple(data.draw(st.lists(ids, max_size=12)))
    prefix = tuple(data.draw(st.lists(st.integers(2, vocab_size - 1), max_size=4)))
    # The context a lookup folds (it starts with BOS after a short prefix),
    # and any context of at most ``order`` ids.
    contexts = [*model._contexts([prefix]), tuple(data.draw(st.lists(ids, max_size=order)))]
    want = reference_rows(model, source, contexts).tobytes()
    for path in kernel_paths("block"):
        with run_by("block", path):
            assert model._finished_rows(source, contexts).tobytes() == want


@pytest.mark.parametrize(
    "n, seed, source, contexts",
    [
        (2, 3, (2,), [(2,)]),
        (19, 5, (4, 9), [(0,), (0, 4), (4, 9), (9, 9), (17, 4)]),
        (99, 7, (), [(0, 50), (50, 2), (2, 98)]),
        # The middle row has a long run of rejections, more than 4n + 16
        # draws (test_row_block's
        # test_block_with_an_overrunning_row_matches_single_rows).
        (20, 29, (3, 15), [(2, 3), (17, 15), (4, 5)]),
    ],
    ids=["vocab3", "vocab20", "vocab100", "long-rejection-run"],
)
def test_row_blocks_match_single_streams(n, seed, source, contexts):
    # The block's rows, on every path, against one fresh stream per
    # context's key, each drawn alone and finished alone; the Python path
    # consumes the same draws from each stream.
    model = NgramGenModel(Vocab(n + 1), 2, seed=seed, concentration=0.2)
    keys = [hash_key(seed, _ROW_TAG, source, context) for context in contexts]
    with recorded_counters() as counters:
        single = [finish_rows([Stream(key).dirichlet(0.2, n)]).tobytes() for key in keys]
    single_counters = dict(counters)
    assert len(set(single)) == len(keys) == len(single_counters)
    for path in kernel_paths("block"):
        with recorded_counters() as counters, run_by("block", path):
            block = model._finished_rows(source, contexts)
        assert [row.tobytes() for row in block] == single
        assert counters == ({} if path == "kernel" else single_counters)


def _draw_everything(model):
    src = (2, 3)
    model.rows_after(src, [(), (2,), (3, 2), (2, 2, 3)])
    model.rows_after(src, [(4,)])
    model.rows_after((4,), [()])
    return model


def test_uniform_model_row_is_never_written():
    model = UniformModel(Vocab(6))
    kept = model._row.tobytes()
    _draw_everything(model)
    assert model._row.tobytes() == kept


def test_table_model_rows_are_never_written():
    row = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.0])
    model = TableModel(Vocab(6), 2, {((2, 3), (0,)): row, ((2, 3), (0, 2)): row[::-1].copy()})
    kept = {key: arr.tobytes() for key, arr in model._table.items()}
    fallback = model._fallback.tobytes()
    _draw_everything(model)
    assert {key: arr.tobytes() for key, arr in model._table.items()} == kept
    assert model._fallback.tobytes() == fallback
