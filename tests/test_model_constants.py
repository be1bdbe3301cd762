"""An n-gram model's rows must not depend on how they are drawn.

A row is a pure function of its key, ``rng.hash_key(seed, tag, source,
context)``, under the sibling's seed where its coin lands below the rate.
``NgramGenModel`` folds the (seed, tag, source) part once per source and
the compiled block (``tsd_block``) folds each context onto it, or the
Python path folds each whole key, and draws its rows in blocks; each path
must give exactly the rows of a fresh ``Stream`` per key. Blocks are
finalized in place, which must never write a row a model keeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode.core import Vocab
from tsdecode.lm import _COIN_TAG, _ROW_TAG, NgramGenModel, TableModel, UniformModel, make_perturbed_sibling
from tsdecode.rng import Stream, _normalized, hash_key

from test_row_block import recorded_counters
from util import kernel_paths, run_by


def reference_rows(model, source, contexts):
    """Each context's raw row from its definition: the coin and the row key
    each by one ``hash_key`` call, and one Python-loop row per key."""
    rows = []
    for context in contexts:
        seed = model.seed
        if model.perturb_seed is not None and model.perturb_rate > 0.0:
            if Stream(hash_key(model.perturb_seed, _COIN_TAG, source, context)).uniform() < model.perturb_rate:
                seed = model._perturbed_seed
        stream = Stream(hash_key(seed, _ROW_TAG, source, context))
        rows.append([0.0, *_normalized(stream._gammas(model.concentration, model.vocab.size - 1))])
    return np.array(rows)


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
            assert model._raw_rows(source, contexts).tobytes() == want


@pytest.mark.parametrize(
    "keys, n",
    [
        ([hash_key(3, 2)], 2),
        ([hash_key(5, 19, k) for k in range(5)], 19),
        ([hash_key(7, 99, k) for k in range(3)], 99),
        # The middle row has a long run of rejections (test_rng's
        # test_dirichlet_row_with_a_long_rejection_run_matches_reference).
        ([hash_key(29, 20, 1097), hash_key(29, 20, 1098), hash_key(29, 20, 1099)], 20),
    ],
)
def test_row_blocks_match_single_streams(keys, n):
    with recorded_counters() as counters:
        block = [Stream(key).dirichlet(0.2, n) for key in keys]
        block_counters = dict(counters)
        counters.clear()
        single = [Stream(key).dirichlet(0.2, n) for key in keys]
    assert [row.tobytes() for row in block] == [row.tobytes() for row in single]
    assert block_counters == counters and len(counters) == len(keys)


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
