"""The source's index is the only memo of the rows a compiled search draws
itself: Python claims their chunk rows when the search returns and keeps no
view of them. ``SequenceModel.rows_after`` looks a context that the
source's dict misses up in the index (``lm._Index.find``, the Python twin
of the kernel's probe) and caches a read-only view of the row it finds, so
a row the kernel drew is never drawn again, and only a context that both
lack reaches ``_draw``."""

import ctypes
import gc
import itertools
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import NgramGenModel, make_perturbed_sibling
from tsdecode.rng import Stream, hash_key

from util import counted_returns, drawn_rows, run_by, table_model, with_room

SOURCE = (3, 7, 5)
# At seed 1, DBA's output for this task is not prefix + span + suffix on
# every model below, so dba_suggest takes a forced pass.
TASK = TsTask("t", TokenSeq(SOURCE), TokenSeq((4,)), TokenSeq((6, 2)))


def kernel_draws() -> bool:
    """Whether both compiled searches, the row block and the log loop are
    used here, so that the searches draw their missed rows themselves."""
    functions = rng.compiled()
    return bool(functions.beam_search and functions.psgd_search and functions.block and rng._log)


needs_kernel_draws = pytest.mark.skipif(not kernel_draws(), reason="the compiled searches do not draw rows here")


def make_model(kind, order):
    model = NgramGenModel(Vocab(12), order, seed=1, concentration=0.2)
    return make_perturbed_sibling(model, 5, 0.5) if kind == "sibling" else model


def prefix_of(context, bos=0):
    """A target prefix whose context is ``context``."""
    return context[1:] if context[0] == bos else context


def no_draw(self, source, contexts):
    pytest.fail(f"{contexts} of {source} were drawn again")


@needs_kernel_draws
@pytest.mark.parametrize("room", ["default", "8-slot table", "3-row chunks"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ngram", "sibling"])
def test_rows_the_kernel_drew_read_back_with_no_draw(kind, order, room, monkeypatch):
    # The 8-slot table is outgrown by the first decode; with 3-row chunks
    # the decodes open new chunks.
    if room == "3-row chunks":
        monkeypatch.setattr(lm, "CHUNK_ROWS", 3)
    model = make_model(kind, order)
    if room == "8-slot table":
        with_room(model, SOURCE, bits=3)
    drawn = drawn_rows(monkeypatch)
    forced_pass, forced = lm.SequenceModel.forced_pass, []

    def checked_forced_pass(self, source, target):
        # A forced pass draws only contexts that the index lacked before it,
        # and reads every other one at the index's address.
        entries, before = self._indexes[source].entries(), len(drawn)
        result = forced_pass(self, source, target)
        assert not {context for _, context, _ in drawn[before:]} & entries.keys()
        contexts = self._contexts([tuple(target[:t]) for t in range(len(target) + 1)])
        for context, row in zip(contexts, result.log_rows):
            assert entries.get(context, row.__array_interface__["data"][0]) == row.__array_interface__["data"][0]
        forced.append(target)
        return result

    monkeypatch.setattr(lm.SequenceModel, "forced_pass", checked_forced_pass)
    with run_by("psgd_search", "kernel"), run_by("beam_search", "kernel"):
        decode.psgd(model, TASK)
        decode.dba_suggest(model, TASK, beam_width=3)
        decode.beam_search(model, (2, 9), beam_width=3, max_len=6)
    assert len(forced) == 1
    assert {source for source, _, by_kernel in drawn if by_kernel} == {SOURCE, (2, 9)}
    assert model._indexes[SOURCE].bits > 3
    if room == "3-row chunks":
        assert len(model._chunks) >= 3
    fresh, entries = make_model(kind, order), {source: index.entries() for source, index in model._indexes.items()}
    want = {source: [row.tobytes() for row in fresh.rows_after(source, [*map(prefix_of, contexts)])]
            for source, contexts in entries.items()}
    monkeypatch.setattr(lm.SequenceModel, "_draw", no_draw)
    for source, contexts in entries.items():
        assert contexts.keys() >= {context for s, context, _ in drawn if s == source}
        prefixes = [*map(prefix_of, contexts)]
        rows = model.rows_after(source, prefixes)
        for row, address in zip(rows, contexts.values()):
            assert row.__array_interface__["data"][0] == address and not row.flags.writeable
            assert row.tobytes() == ctypes.string_at(address, 8 * model.vocab.size)
        assert [row.tobytes() for row in rows] == want[source]
        assert all(again is row for again, row in zip(model.rows_after(source, prefixes), rows))


# A task whose source has rows in ``table_model(3, 12, 2, False)``.
ROUTE_TASK = TsTask("r", TokenSeq((3,)), TokenSeq((4,)), TokenSeq((6, 2)))


def searched(kind, model):
    """The span and score of a PSGD decode of ``ROUTE_TASK`` on ``model``,
    or the tokens and score of a beam search from its source."""
    if kind == "psgd_search":
        suggestion = decode.psgd(model, ROUTE_TASK)
        return suggestion.span.tokens, suggestion.whole_seq_score.hex()
    result = decode.beam_search(model, ROUTE_TASK.source, beam_width=3, max_len=6)
    return result.tokens.tokens, result.score.hex()


@pytest.mark.parametrize("route", ["seeded at the first search", "forced pass", "return route"])
@pytest.mark.parametrize("kind", ["beam_search", "psgd_search"])
def test_rows_python_drew_reach_the_kernel_with_no_redraw(kind, route, monkeypatch):
    # Each way a row Python draws enters the source's index: the rows the
    # dict holds at the source's first compiled search, and the rows
    # ``_draw`` draws once the source has an index, through a forced pass
    # or through the return route of a model whose rows the kernel does
    # not draw. A later search that reads only those rows draws none.
    if not getattr(rng.compiled(), kind):
        pytest.skip(f"the compiled {kind} is not used here")
    source = ROUTE_TASK.source.tokens
    model = table_model(3, 12, 2, False) if route == "return route" else make_model("ngram", 3)
    drawn = drawn_rows(monkeypatch)
    if route == "seeded at the first search":
        with run_by(kind, "python"):
            want = searched(kind, model)
        # More rows than the first table's 2^INDEX_BITS slots hold.
        model.rows_after(source, [*itertools.product(range(2, 12), repeat=3)][:300])
        assert source not in model._indexes and len(model._row_cache[source]) > 1 << lm.INDEX_BITS
    elif route == "forced pass":
        fresh = make_model("ngram", 3)
        with run_by(kind, "kernel"):
            want = searched(kind, fresh)
        with run_by("beam_search", "kernel"):
            decode.beam_search(model, source, beam_width=1, max_len=0)
        count = model._indexes[source].count
        for context in fresh._indexes[source].entries():
            model.forced_pass(source, prefix_of(context))
        assert model._indexes[source].count > count
    else:
        with run_by(kind, "kernel"):
            want = searched(kind, model)
        assert drawn and not any(by_kernel for _, _, by_kernel in drawn)
    assert drawn
    del drawn[:]
    monkeypatch.setattr(lm.SequenceModel, "_draw", no_draw)
    with run_by(kind, "kernel"):
        assert searched(kind, model) == want
    assert drawn == []
    index = model._indexes[source]
    assert index.count == len(index.entries()) == len(model._row_cache[source])


@needs_kernel_draws
def test_a_row_read_from_the_index_keeps_its_chunk_alive():
    model = make_model("ngram", 2)
    with run_by("beam_search", "kernel"):
        decode.beam_search(model, SOURCE, beam_width=3, max_len=6)
    (context, address), *_ = model._indexes[SOURCE].entries().items()
    row = model.forced_pass(SOURCE, prefix_of(context)).log_rows[-1]
    assert row.__array_interface__["data"][0] == address
    kept, chunk = row.tobytes(), weakref.ref(row.base)
    del model
    gc.collect()
    assert chunk() is not None and row.tobytes() == kept


def colliding(bits, n, order=3, size=40):
    """``n`` distinct contexts of at most ``order`` ids below ``size``, each
    0 (BOS) included, whose first slot in a table of ``2 ** bits`` slots is
    in its last eighth, so that their probes wrap round the table's end."""
    found, low = [], (1 << bits) - max(1, 1 << bits >> 3)
    for k in range(1, size ** order):
        context = tuple(k // size ** j % size for j in range(order) if k >= size ** j)
        if first_slot(context, bits) >= low:
            found.append(context)
            if len(found) == n:
                return found
    raise AssertionError("too few colliding contexts")


def first_slot(context, bits):
    """The first slot of ``context`` in a table of ``2 ** bits`` slots:
    ``_rowkernel.c``'s ``first_slot``, written apart from ``lm._Index``'s."""
    h = len(context)
    for tok in context:
        h = ((h ^ tok) * 0x100000001B3) % 2**64
    return (h * 0x9E3779B97F4A7C15) % 2**64 >> (64 - bits)


@pytest.mark.parametrize("bits", range(3, 11))
def test_the_python_lookup_finds_every_entry_of_a_full_table_of_colliding_contexts(bits, monkeypatch):
    # ``_Index.enter`` fills 3/4 of a table of 2^bits slots with contexts
    # whose probes all wrap round its end. Their rows are never read, so the
    # addresses the test gives them are only numbers. Where the compiled
    # beam search runs, a max_len-0 search then reads only the row after
    # BOS, which it must find in the full table: it draws no row, and the
    # table is not replaced.
    model = NgramGenModel(Vocab(12), 3, seed=1, concentration=0.2)
    (bos_row,) = model.rows_after(SOURCE, [()])
    n = 3 << bits >> 2
    contexts = colliding(bits, n - 1)
    absent = colliding(bits, n + 8)[n - 1 :]
    index = model._indexes[SOURCE] = lm._Index(model.order, bits)
    index.enter((0,), bos_row.__array_interface__["data"][0])
    for k, context in enumerate(contexts):
        index.enter(context, (1 << 20) + 8 * 12 * k)
    if rng.compiled().beam_search:
        monkeypatch.setattr(lm.SequenceModel, "_draw", no_draw)
        rowkernel.CompiledSearch()(rng.compiled().beam_search, model, SOURCE, (), 2, 0)
    assert index.bits == bits and index.count == n
    entries = index.entries()
    assert len(entries) == n
    assert [index.find(context) for context in contexts] == [(1 << 20) + 8 * 12 * k for k in range(n - 1)]
    assert [entries[context] for context in contexts] == [index.find(context) for context in contexts]
    assert index.find((0,)) == bos_row.__array_interface__["data"][0]
    assert [index.find(context) for context in absent] == [0] * 9


# Blocks of up to 12 contexts of up to 3 ids below 6 (BOS included, so
# that contexts share ids and first slots), or a reservation of up to 200
# rows.
INDEX_OPS = st.lists(st.one_of(st.lists(st.lists(st.integers(0, 5), max_size=3).map(tuple), max_size=12),
                               st.integers(0, 200)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(INDEX_OPS)
def test_the_python_index_enters_as_the_kernel_does(ops):
    # From a table of 2^3 slots, each block is entered as ``_draw`` enters
    # it: the room reserved, then each context the table lacks. After each
    # step, every slot must hold what ``_rowkernel.c``'s ``enter`` writes
    # (the address, the context's length, its ids, then 0s) on the probe
    # from the context's first slot (``first_slot``, written apart here),
    # every other slot 0s, and the table at most 3/4 full; a table that
    # moved has at least 2^INDEX_BITS slots.
    order = 3
    index, entered = lm._Index(order, 3), {}
    for op in ops:
        bits = index.bits
        if isinstance(op, int):
            index.reserve(op)
        else:
            new = [context for context in dict.fromkeys(op) if context not in entered]
            index.reserve(len(new))
            for context in new:
                entered[context] = 8 * (1 + len(entered))
                index.enter(context, entered[context])
        if index.bits != bits:
            assert index.bits >= lm.INDEX_BITS
        width, mask = 2 + order, (1 << index.bits) - 1
        slots = [index.table[at : at + width].tolist() for at in range(0, len(index.table), width)]
        assert len(slots) == 1 << index.bits
        assert index.count == len(index.entries()) == len(entered) <= 3 << index.bits >> 2
        assert index.entries() == entered
        for context, address in entered.items():
            assert index.find(context) == address
            slot = first_slot(context, index.bits)
            while slots[slot][0] != address:
                assert slots[slot][0], f"{context}'s probe meets a free slot first"
                slot = (slot + 1) & mask
            assert slots[slot] == [address, len(context), *context] + [0] * (order - len(context))
        assert all(slot == [0] * width for slot in slots if not slot[0])
        assert [index.find(context) for context in ((6,), (0, 6), (7, 7, 7))] == [0, 0, 0]


def session_tasks():
    """8 sources of 6 to 12 content ids over vocab 20, each with a target as
    long, masked 8 ways: a translator revising each sentence several times."""
    stream, content = Stream(hash_key(45, 0x5E55)), Vocab(20).content_ids
    tasks = []
    for i in range(8):
        n = stream.randint(6, 12)
        source = tuple(stream.choice(content) for _ in range(n))
        target = tuple(stream.choice(content) for _ in range(n))
        for j in range(8):
            length = stream.randint(1, n)
            start = stream.randint(0, n - length)
            tasks.append(TsTask(f"s{i}m{j}", TokenSeq(source), TokenSeq(target[:start]),
                                TokenSeq(target[start + length :])))
    return tasks


@needs_kernel_draws
def test_cold_decodes_return_within_their_budget(monkeypatch):
    # A cold decode returns when the model's chunk or the source's index
    # lacks room for a step's rows. Chunks double from CHUNK_ROWS and a
    # source's first table has 256 slots, so the 64 decodes of each kind
    # take few calls beyond one each; and no chunk reaches 128 KiB.
    loaded, returns = rng.compiled(), {"psgd": Counter(), "dba": Counter()}
    monkeypatch.setattr(rng, "_compiled", loaded._replace(
        psgd_search=counted_returns(loaded.psgd_search, returns["psgd"]),
        beam_search=counted_returns(loaded.beam_search, returns["dba"])))
    models = {kind: NgramGenModel(Vocab(20), 2, seed=37, concentration=0.2) for kind in returns}
    for task in session_tasks():
        decode.psgd(models["psgd"], task, decode.PsgdParams(beam_width=5, patience=5))
        try:
            decode.dba_suggest(models["dba"], task, beam_width=5)
        except decode.ConstraintsUnsatisfiable:
            pass
    # Before chunks doubled and the first table grew from 64 slots: 103 and
    # 92 calls, 22 and 14 chunk-room returns, 18 and 14 index-room ones.
    assert returns == {"psgd": Counter(calls=70, chunk=4, index=2), "dba": Counter(calls=67, chunk=3)}
    assert all(chunk.nbytes < 128 * 1024 for model in models.values() for _, chunk in model._chunks)


@needs_kernel_draws
@pytest.mark.parametrize("kind", ["beam_search", "psgd_search"])
def test_the_load_checks_cold_decodes_return_for_chunk_and_for_index_room(kind):
    # The check's cold models start with CHECK_CHUNK_ROWS free rows and a
    # table of 2^CHECK_INDEX_BITS slots, so that a kernel that draws past
    # either room, or never returns for it, fails the check.
    loaded, returns = rng.compiled(), Counter()
    check = {"beam_search": rowkernel.beam_search_self_check, "psgd_search": rowkernel.psgd_self_check}[kind]
    assert check(counted_returns(getattr(loaded, kind), returns), rowkernel.CheckRows(loaded.block, rng._log))
    assert returns["chunk"] >= 1 and returns["index"] >= 1
