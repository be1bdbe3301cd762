"""The row block: every missing row of a batched lookup is drawn in one block.

``SequenceModel.rows_after`` over a batch of prefixes must give exactly what
one ``rows_after`` call per prefix gives on a fresh model: the same
probability and log row bytes and the same memo keys, whichever path draws
the rows, and, on the Python path, the same draws from every stream. The
benchmark's tracer counts rows and draws through ``Stream.dirichlet``. The
Python path calls it once per drawn row and consumes as many draws; the
compiled block (``tsd_block``) draws a whole block in one call and calls it
for no row, so there the tracer counts none.
The memo the block fills holds one read-only log row per context, one dict
per source, and reading a forced pass's probabilities leaves it alone.
"""

import gc
import importlib.util
import math
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode import decode, harness, lm, rng
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import _ROW_TAG, NgramGenModel, SequenceModel, make_perturbed_sibling, model_from_spec
from tsdecode.rng import Stream, hash_key

from util import drawn_rows, finish_rows, kernel_paths, run_by

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def make_model(vocab_size: int, perturbed: bool) -> NgramGenModel:
    model = NgramGenModel(Vocab(vocab_size), 2, seed=37, concentration=0.2)
    return make_perturbed_sibling(model, perturb_seed=5, rate=0.5) if perturbed else model


@contextmanager
def recorded_counters():
    """Stream key -> its counter after each ``dirichlet`` or ``uniform``
    call (the coin of a perturbed sibling), while the block is open."""
    counters = {}
    originals = {name: vars(Stream)[name] for name in ("dirichlet", "uniform")}

    def recording(original):
        def recorded(self, *args):
            out = original(self, *args)
            counters[self._key] = self._counter
            return out

        return recorded

    for name, original in originals.items():
        setattr(Stream, name, recording(original))
    try:
        yield counters
    finally:
        for name, original in originals.items():
            setattr(Stream, name, original)


def memo_snapshot(model):
    return {(source, context): row for source, memo in model._row_cache.items() for context, row in memo.items()}


def lookups(model, counters, src, warm, prefixes, batched):
    """Log rows, probability rows, draws and memo keys of a lookup of
    ``prefixes`` after one ``rows_after`` per ``warm`` prefix."""
    counters.clear()
    for prefix in warm:
        model.rows_after(src, [prefix])
    if batched:
        logs = model.rows_after(src, prefixes)
    else:
        logs = [model.rows_after(src, [prefix])[0] for prefix in prefixes]
    draws = dict(counters)
    keys = set(memo_snapshot(model))
    probs = [model.forced_pass(src, prefix).distributions[-1].probs for prefix in prefixes]
    return ([row.tobytes() for row in logs], [row.tobytes() for row in probs], draws, keys)


def assert_batch_matches_one_at_a_time(vocab_size, perturbed, src, warm, prefixes):
    """The batch matches one lookup at a time on each row path, and every
    path gives the same rows and memo keys. The Python path also consumes
    the same draws, which the recorder sees; the block makes no ``Stream``
    call, so it records none."""
    seen = []
    for path in kernel_paths("block"):
        with recorded_counters() as counters, run_by("block", path):
            got = lookups(make_model(vocab_size, perturbed), counters, src, warm, prefixes, batched=True)
            want = lookups(make_model(vocab_size, perturbed), counters, src, warm, prefixes, batched=False)
        assert len(got[0]) == len(prefixes)
        assert got == want
        assert bool(got[2]) == (path == "python")
        seen.append(got)
    assert all(got[:2] + got[3:] == seen[0][:2] + seen[0][3:] for got in seen)
    assert all(got[2] == seen[0][2] for got in seen if got[2])


SRC = (2, 2, 2)
# (warm lookups, batch) over content ids 2..4.
BATCHES = {
    # One prefix three times, and the empty prefix twice: each context is
    # drawn once.
    "duplicates": ((), [(2, 3), (), (2, 3), (), (2, 3)]),
    # Different prefixes ending in the same order-2 context (3, 4).
    "shared-context": ((), [(2, 3, 4), (3, 4), (4, 3, 4), (2, 2, 3, 4), (4,)]),
    # Hits (warmed first) mixed with misses, in both orders.
    "hits-and-misses": (((2,), (3, 3), ()), [(2,), (4,), (3, 3), (2, 4), (), (4, 4), (2,)]),
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("perturbed", [False, True], ids=["base", "sibling"])
@pytest.mark.parametrize("vocab_size", [5, 20, 100])
def test_batched_lookup_matches_one_at_a_time(vocab_size, perturbed, batch):
    warm, prefixes = BATCHES[batch]
    assert_batch_matches_one_at_a_time(vocab_size, perturbed, SRC, warm, prefixes)


TOKENS = st.lists(st.integers(2, 4), max_size=4).map(tuple)


@given(
    st.sampled_from([3, 20, 100]),
    st.booleans(),
    st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
    st.lists(TOKENS, max_size=4),
    st.lists(TOKENS, min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_any_batch_matches_one_at_a_time(vocab_size, perturbed, src, warm, prefixes):
    if vocab_size == 3:  # one content id, 2
        src = (2,) * len(src)
        warm = [(2,) * len(p) for p in warm]
        prefixes = [(2,) * len(p) for p in prefixes]
    assert_batch_matches_one_at_a_time(vocab_size, perturbed, src, warm, prefixes)


def test_block_with_an_overrunning_row_matches_single_rows():
    # The middle context's row has a long run of rejections, more than
    # 4n + 16 draws (n = 20; found by search, as in test_rng's
    # test_dirichlet_row_with_a_long_rejection_run_matches_reference). Every
    # path draws the same rows in a block as one at a time, and the Python
    # path the same draws.
    n, source, contexts = 20, (3, 15), [(2, 3), (17, 15), (4, 5)]
    keys = [hash_key(29, _ROW_TAG, source, context) for context in contexts]
    with recorded_counters() as counters:
        single = [Stream(key).dirichlet(0.2, n) for key in keys]
    single_counters = dict(counters)
    assert single_counters[keys[1]] > 4 * n + 16
    for path in kernel_paths("block"):
        with recorded_counters() as counters, run_by("block", path):
            block = NgramGenModel(Vocab(n + 1), 2, seed=29, concentration=0.2)._finished_rows(source, contexts)
        assert not block[:, 0].any()
        assert block.tobytes() == finish_rows(single).tobytes()
        assert counters == ({} if path == "kernel" else single_counters)


def test_block_rows_share_no_memory_and_match_single_rows():
    # Each call finishes its rows in a block of its own, and each row as it
    # would be finished alone, on every path.
    n, source, contexts = 20, (5, 9), [(0,), (0, 5), (5, 9), (9, 2), (2, 2), (7, 5)]
    single = [finish_rows([Stream(hash_key(31, _ROW_TAG, source, context)).dirichlet(0.2, n)]).tobytes()
              for context in contexts]
    rows = []
    for path in kernel_paths("block"):
        with run_by("block", path):
            model = NgramGenModel(Vocab(n + 1), 2, seed=31, concentration=0.2)
            for _ in range(2):
                block = model._finished_rows(source, contexts)
                assert [row.tobytes() for row in block] == single
                rows += list(block)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :])


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_rows(tracer_module):
    """A cold gen + psgd + dba run under the benchmark's tracer (MT
    constraints, so a perturbed sibling draws rows too): its
    ``rng.rows_drawn``, summed ``dirichlet`` counter advance, the size of
    every block ``_draw`` memoises, and the (source, context) of every row
    memoised, by ``_draw`` or after a compiled search drew it, in order."""
    blocks, memoised = [], []

    cfg = harness.GenConfig(
        vocab_size=20,
        n_tasks=4,
        source_len_range=(4, 7),
        seed=3,
        mask_ratio_list=(0.3, 0.6),
        constraint_source=harness.CONSTRAINT_MT,
    )
    tracer = tracer_module.Tracer()
    with pytest.MonkeyPatch.context() as patch:
        drawn = drawn_rows(patch)
        draw = vars(SequenceModel)["_draw"]

        def counted(self, source, contexts):
            blocks.append(len(contexts))
            draw(self, source, contexts)

        patch.setattr(SequenceModel, "_draw", counted)
        with tracer.active():
            model = model_from_spec(cfg.resolved_model_spec())
            for task in harness.gen_dataset(cfg, model):
                decode.psgd(model, task)
                decode.dba_suggest(model, task, beam_width=3)
    memoised = [(source, context) for source, context, _ in drawn]
    u64 = sum(sp.info for sp in tracer.spans if sp.name == "rng.dirichlet")
    return tracer_module.layer_metrics(tracer.spans)["rng.rows_drawn"], u64, blocks, memoised


def test_tracer_row_metrics_keep_their_meaning(monkeypatch):
    """``rng.rows_drawn`` counts ``Stream.dirichlet`` calls and
    ``rng.u64_per_row`` their counter advance. With the block off, batched,
    ``dirichlet`` runs once per memoised row, and both sums equal the
    one-at-a-time path's. The compiled block, and the compiled searches
    that draw rows with it, memoise the same rows and call ``dirichlet`` for
    no row, so the tracer reads 0 rows there: its blind spot until it counts
    the rows memoised."""
    tracer_module = _load_tracer()
    with run_by("block", "python"):
        rows, u64, blocks, memoised = traced_rows(tracer_module)
    assert rows == sum(blocks) == len(memoised) and max(blocks) > 1
    rows_after = vars(SequenceModel)["rows_after"]
    with run_by("block", "python"):
        assert traced_rows(tracer_module) == (rows, u64, blocks, memoised)
        # One row at a time through rows_after: the compiled searches draw
        # or hand back the contexts a step misses as one block, so the
        # Python searches run here.
        with monkeypatch.context() as patch, run_by("beam_search", "python"), run_by("psgd_search", "python"):
            patch.setattr(
                SequenceModel,
                "rows_after",
                lambda self, source, prefixes: [rows_after(self, source, [p])[0] for p in prefixes],
            )
            single_rows, single_u64, single_blocks, _ = traced_rows(tracer_module)
    assert single_rows == sum(single_blocks) and max(single_blocks) == 1
    assert (rows, u64) == (single_rows, single_u64)
    if "kernel" in kernel_paths("block"):
        with run_by("block", "kernel"):
            block_rows, _, _, block_memoised = traced_rows(tracer_module)
        assert sorted(block_memoised) == sorted(memoised)
        assert block_rows == 0


def test_cold_forced_pass_draws_one_block(monkeypatch):
    """A forced pass reads every position with one batched lookup, so a cold
    pass draws its distinct contexts as one block and a warm one draws none."""
    blocks = []
    draw = vars(SequenceModel)["_draw"]

    def counted(self, source, contexts):
        blocks.append(len(contexts))
        draw(self, source, contexts)

    monkeypatch.setattr(SequenceModel, "_draw", counted)
    model = make_model(20, perturbed=False)
    # Order-2 contexts (0,), (0, 2), (2, 3), (3, 4), (4, 2) and (2, 3) again.
    result = model.forced_pass(SRC, (2, 3, 4, 2, 3))
    assert len(result) == 6
    assert blocks == [5]
    model.forced_pass(SRC, (2, 3, 4))
    assert blocks == [5]


def test_a_missed_block_is_one_compiled_call_and_read_only_views():
    """A miss of R distinct contexts makes exactly one call into the
    compiled kernel, whatever function it calls, and each memo row it adds
    is a read-only view of the model's row store, one chunk for the block,
    that owns no data."""
    if "kernel" not in kernel_paths("block"):
        pytest.skip("the compiled row block cannot be built here")
    loaded = rng.compiled()
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    model = make_model(20, perturbed=True)
    prefixes = [(), (2,), (3, 4), (4, 4, 2), (2, 3)]
    rng._compiled = loaded._replace(**{name: counted(name, f) for name, f in loaded._asdict().items() if f})
    try:
        rows = model.rows_after(SRC, prefixes)
    finally:
        rng._compiled = loaded
    assert calls == ["block"]
    assert len(memo_snapshot(model)) == len(prefixes)
    for row in memo_snapshot(model).values():
        assert not row.flags.owndata and not row.flags.writeable
    assert len({id(row.base) for row in memo_snapshot(model).values()}) == 1
    assert all(any(row is kept for kept in memo_snapshot(model).values()) for row in rows)


def test_a_memo_row_keeps_its_data_address_as_its_source_grows():
    # Rows are views of chunks that never move: drawing many more rows of
    # the same source fills new chunks and leaves the first row's data where
    # it was, with the same bytes.
    model = make_model(20, perturbed=False)
    (first,) = model.rows_after(SRC, [(2,)])
    address, kept = first.__array_interface__["data"][0], first.tobytes()
    content = model.vocab.content_ids
    for a in content:
        model.rows_after(SRC, [(a, b) for b in content])
    assert len(memo_snapshot(model)) > 3 * lm.CHUNK_ROWS
    (again,) = model.rows_after(SRC, [(2,)])
    assert again is first
    assert first.__array_interface__["data"][0] == address and first.tobytes() == kept
    assert len({id(row.base) for row in memo_snapshot(model).values()}) > 3


def test_a_models_row_store_and_index_are_freed_with_it():
    # No cache outlives its model: the chunks and the index a compiled
    # search filled go when the model does.
    model = make_model(20, perturbed=True)
    decode.dba_suggest(model, TsTask("t", TokenSeq(SRC), TokenSeq((2,)), TokenSeq(())), beam_width=3)
    memo, index = model._row_cache[SRC], model._indexes.get(SRC)
    held = [weakref.ref(model), weakref.ref(next(iter(memo.values())).base)]
    if index is not None:
        held.append(weakref.ref(index.table))
    del model, memo, index
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)


def test_memo_costs_under_500_bytes_per_row():
    """The memo keeps one log row per context, in one dict per source:
    3,000 cold vocab-20 rows over 30 sources cost under 500 B each (a
    (probability, log) pair per (source, context) key cost about 750)."""
    model = NgramGenModel(Vocab(20), 2, seed=11, concentration=0.2)
    content = model.vocab.content_ids
    sources = [(content[s % 18], content[s // 18]) + content[:6] for s in range(30)]
    prefixes = [(a, b) for a in content for b in content][:100]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src in sources:
            model.rows_after(src, prefixes)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(memo_snapshot(model)) == 3000
    assert held / 3000 < 500


def test_memo_rows_are_read_only_log_rows():
    model = make_model(20, perturbed=True)
    model.forced_pass((2, 3, 4), (2, 3, 4, 4))
    model.rows_after(SRC, [(), (2,), (3, 4, 2)])
    memo = memo_snapshot(model)
    assert len(memo) == 8
    for (source, context), row in memo.items():
        assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == (20,)
        assert not row.flags.writeable
        assert row[model.vocab.bos_id] == -math.inf and np.isfinite(row[1:]).all()
        # A hit on the prefix that ends in this context (BOS, id 0, starts none).
        assert model.rows_after(source, [context[1:] if context[0] == 0 else context])[0] is row


def test_reading_probabilities_leaves_the_memo_alone():
    model = make_model(20, perturbed=True)
    result = model.forced_pass(SRC, (2, 3, 4, 2, 3))
    memo = memo_snapshot(model)
    assert len(result.distributions) == 6 and result.matrix().shape == (6, 20)
    after = memo_snapshot(model)
    assert after.keys() == memo.keys()
    assert all(after[key] is row for key, row in memo.items())
