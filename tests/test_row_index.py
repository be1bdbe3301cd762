"""The source's index is the only memo of the rows a compiled search draws
itself: Python claims their chunk rows when the search returns and keeps no
view of them. ``SequenceModel.rows_after`` looks a context that the
source's dict misses up in the index (``lm._Index.find``, the Python twin
of the kernel's probe) and caches a read-only view of the row it finds, so
a row the kernel drew is never drawn again, and only a context that both
lack reaches ``_draw``."""

import ctypes
import gc
import weakref
from array import array

import pytest

from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import NgramGenModel, make_perturbed_sibling

from util import drawn_rows, run_by, with_room

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
        assert len(model._chunks) > 3
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


@pytest.mark.skipif(not rng.compiled().beam_search, reason="the compiled beam search cannot be built here")
@pytest.mark.parametrize("bits", range(3, 11))
def test_the_python_lookup_finds_every_entry_of_a_full_table_of_colliding_contexts(bits):
    # The kernel enters the queued contexts, 3/4 of the slots, into a table
    # of 2^bits slots as a max_len-0 beam search begins; the search reads
    # only the row after BOS, so the table is not replaced. Their rows are
    # never read, so the addresses the test gives them are only numbers.
    model = NgramGenModel(Vocab(12), 3, seed=1, concentration=0.2)
    (bos_row,) = model.rows_after(SOURCE, [()])
    n = 3 << bits >> 2
    contexts = colliding(bits, n - 1)
    absent = colliding(bits, n + 8)[n - 1 :]
    index = model._indexes[SOURCE] = lm._Index([(((0,),), bos_row.__array_interface__["data"][0]),
                                                (contexts, 1 << 20)])
    index.table, index.bits = array("q", [0]) * ((2 + model.order) << bits), bits
    rowkernel.CompiledSearch()(rng.compiled().beam_search, model, SOURCE, (), 2, 0)
    assert index.bits == bits and index.count == n
    entries = index.entries()
    assert len(entries) == n
    assert [index.find(context) for context in contexts] == [(1 << 20) + 8 * 12 * k for k in range(n - 1)]
    assert [entries[context] for context in contexts] == [index.find(context) for context in contexts]
    assert index.find((0,)) == bos_row.__array_interface__["data"][0]
    assert [index.find(context) for context in absent] == [0] * 9
