"""A model's compiled decode contexts (``rowkernel.CompiledSearch`` and
``rowkernel.CompiledPsgd``), which every decode of its kind reuses: decodes
of each kind, width, prefix and suffix length and phrase count, one that
grows the room for tokens and ones that raised, interleaved on one model,
each give what the same decode gives on a fresh model in Python, on both
paths; a warm decode of a shape seen before cuts no section, and a cut that
fails leaves the context as it was."""

from dataclasses import replace

import numpy as np
import pytest

from tsdecode import rng, rowkernel
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.decode import ConstraintsUnsatisfiable, PsgdParams, beam_search, dba_suggest, psgd
from tsdecode.lm import NgramGenModel

from util import kernel_paths, run_by

SOURCE = (3, 7, 5)


def task(prefix, suffix, source=SOURCE):
    return TsTask("t", TokenSeq(source), TokenSeq(prefix), TokenSeq(suffix))


def unstamped(suggestion):
    return replace(suggestion, stats=replace(suggestion.stats, wall_time_us=0))


# (name, decode of a model): widths, prefix and suffix lengths and phrase
# counts that differ from one decode to the next. "long" decodes run more
# steps or rounds than CHECK_CAPACITY and grow the room; "unsatisfiable"
# raises ConstraintsUnsatisfiable after its search; a decode "without the
# log loop", of another source, leaves the rows it misses to Python.
DECODES = [
    ("psgd", lambda model: unstamped(psgd(model, task((4,), (6, 2)), PsgdParams(beam_width=3, patience=3)))),
    ("dba", lambda model: unstamped(dba_suggest(model, task((4, 5), (2,)), beam_width=4))),
    ("beam", lambda model: beam_search(model, SOURCE, beam_width=2, max_len=6)),
    ("long psgd", lambda model: unstamped(
        psgd(model, task((), ()), PsgdParams(beam_width=2, patience=12, max_span_len=12)))),
    ("short psgd", lambda model: unstamped(psgd(model, task((8, 6, 4), (3,)), PsgdParams(beam_width=5)))),
    ("unsatisfiable", lambda model: dba_suggest(model, task((4, 5), (6, 2)), beam_width=2, max_len=2)),
    ("long dba", lambda model: unstamped(dba_suggest(model, task((9,), ()), beam_width=2, max_len=12))),
    ("dba without the log loop", lambda model: unstamped(
        dba_suggest(model, task((10,), (11, 4), (4, 2)), beam_width=3))),
    ("dba", lambda model: unstamped(dba_suggest(model, task((), (5,)), beam_width=5))),
    ("long beam", lambda model: beam_search(model, SOURCE, beam_width=3, max_len=10)),
    ("psgd without the log loop", lambda model: unstamped(
        psgd(model, task((10, 3), (9,), (4, 2)), PsgdParams(beam_width=4, patience=2)))),
    ("psgd", lambda model: unstamped(psgd(model, task((2,), ()), PsgdParams(beam_width=1, patience=2)))),
]


def new_model(order):
    return NgramGenModel(Vocab(12), order, seed=9, concentration=0.2)


def outcome(decode, model):
    """What ``decode`` gives on ``model``, or the name of what it raised."""
    try:
        return decode(model)
    except (ConstraintsUnsatisfiable, MemoryError) as exc:
        return type(exc).__name__


def failing(search):
    """The compiled ``search`` reporting, after its call, that its scratch
    could not be allocated."""

    def call(address):
        search(address)
        return -1

    return call


# The paths both compiled searches can take here.
PATHS = [path for path in kernel_paths("beam_search") if path in kernel_paths("psgd_search")]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("path", PATHS)
def test_interleaved_decodes_on_one_model_equal_fresh_ones(path, order, monkeypatch):
    with run_by("beam_search", "python"), run_by("psgd_search", "python"):
        want = [outcome(decode, new_model(order)) for _, decode in DECODES]
    with run_by("beam_search", path), run_by("psgd_search", path):
        model = new_model(order)
        # Contexts with room for CHECK_CAPACITY tokens: the long decodes
        # grow it, and the decodes after them run in the grown room.
        for kind in (rowkernel.CompiledSearch, rowkernel.CompiledPsgd):
            model._decoders[kind] = kind(rowkernel.CHECK_CAPACITY)
        got = []
        for name, decode in DECODES:
            with monkeypatch.context() as patch:
                if name.endswith("without the log loop"):
                    patch.setattr(rng, "_log", None)
                got.append(outcome(decode, model))
            if path == "kernel" and name in ("psgd", "dba"):
                # The same decode again, stopped by a failed allocation
                # after the kernel's first call.
                function = "psgd_search" if name == "psgd" else "beam_search"
                with monkeypatch.context() as patch:
                    patch.setattr(rng, "_compiled", rng._compiled._replace(
                        **{function: failing(getattr(rng._compiled, function))}))
                    assert outcome(decode, model) == "MemoryError"
    assert got == want
    assert "ConstraintsUnsatisfiable" in got
    if path == "kernel":
        assert min(context.buffers.capacity for context in model._decoders.values()) > rowkernel.CHECK_CAPACITY


@pytest.mark.skipif(PATHS != ["python", "kernel"], reason="the compiled searches cannot be built here")
def test_a_warm_decode_of_a_shape_seen_before_cuts_no_section(monkeypatch):
    cut = []
    sections = rowkernel._sections
    monkeypatch.setattr(rowkernel, "_sections", lambda *args: cut.append(args[1:]) or sections(*args))
    model = new_model(2)
    with run_by("beam_search", "kernel"), run_by("psgd_search", "kernel"):
        for _, decode in DECODES:
            outcome(decode, model)
        assert cut
        cut.clear()
        for _, decode in DECODES:
            outcome(decode, model)
    assert cut == []


@pytest.mark.skipif(PATHS != ["python", "kernel"], reason="the compiled searches cannot be built here")
def test_a_failed_cut_leaves_the_context_as_it_was(monkeypatch):
    # The int64 array of a wider decode's cut cannot be allocated: the
    # decode raises, and the context keeps its shape, its arrays and the
    # pointers to them, so the same decode then cuts again and gives what a
    # fresh model gives.
    narrow, wide = (lambda model, width=width: unstamped(psgd(model, task((4,), (6, 2)), PsgdParams(width)))
                    for width in (2, 9))
    model = new_model(2)
    zeros, calls = np.zeros, []

    def failing(n, dtype):
        calls.append(dtype)
        if len(calls) == 2:
            raise MemoryError
        return zeros(n, dtype)

    with run_by("psgd_search", "kernel"):
        narrow(model)
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", failing)
            with pytest.raises(MemoryError):
                wide(model)
        assert calls == [np.float64, np.int64]
        assert (wide(model), narrow(model)) == (wide(new_model(2)), narrow(new_model(2)))


@pytest.mark.skipif(PATHS != ["python", "kernel"], reason="the compiled searches cannot be built here")
def test_decodes_that_each_need_a_little_more_room_cut_seldom(monkeypatch):
    # Each decode's prefix is one id longer than the last one's, so each
    # needs more room for its prefix or phrase tokens and fixed terms; the
    # room is rounded up to a power of two, so 16 decodes of each kind cut
    # their context 1 + log2(16) times at most, the first cut included.
    cut = []
    sections = rowkernel._sections
    monkeypatch.setattr(rowkernel, "_sections", lambda *args: cut.append(type(args[0])) or sections(*args))
    model = new_model(2)
    with run_by("beam_search", "kernel"), run_by("psgd_search", "kernel"):
        for n in range(1, 17):
            prefix = (2, 3, 4, 5)[: n % 4] + (6, 7, 8, 9) * (n // 4)
            psgd(model, task(prefix, (6,)), PsgdParams(beam_width=2, patience=2))
            dba_suggest(model, task(prefix, (6,)), beam_width=2)
    assert 0 < cut.count(rowkernel._PsgdBuffers) <= 5
    assert 0 < cut.count(rowkernel._SearchBuffers) <= 5
