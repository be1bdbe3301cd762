"""The compiled beam search against the Python search, decode by decode:
the same first-ranked finish, the same final beam, the same statistics and the same result bytes, on random n-gram and table
models, constrained or not, on a cold memo and on one filled first. A warm
decode is one compiled call, and so is a cold one with room for its rows,
which the kernel draws, logs and indexes itself; without the log loop, a
cold one returns to Python once per step that misses rows, which ``_draw``
draws."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import ResultRow, TokenSeq, TsTask, Vocab, result_to_dict
from tsdecode.decode import DbaParams, beam_search, dba_suggest
from tsdecode.lm import NgramGenModel, TableModel, make_perturbed_sibling

from util import (Interrupted, Unindexed, drawn_rows, interrupted_claims, kernel_paths, memo_bytes, run_by,
                  starved, table_model, with_room)

needs_search_kernel = pytest.mark.skipif(
    "kernel" not in kernel_paths("beam_search"), reason="the compiled beam search cannot be built here"
)


@st.composite
def decodes(draw):
    """(model factory, source, constraints, width, max_len, warm-up)."""
    kind = draw(st.sampled_from(["ngram", "sibling", "table", "tied"]))
    vocab_size = draw(st.sampled_from([5, 8, 20]))
    order = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind in ("ngram", "sibling"):
        concentration = draw(st.sampled_from([0.05, 0.2, 1.0]))

        def factory():
            model = NgramGenModel(Vocab(vocab_size), order, seed, concentration)
            return make_perturbed_sibling(model, seed + 1, 0.5) if kind == "sibling" else model
    else:
        def factory():
            return table_model(seed, vocab_size, order, kind == "tied")
    content = Vocab(vocab_size).content_ids
    source = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=1)))
    phrase = st.lists(st.sampled_from(content[:4]), min_size=1, max_size=3).map(tuple)
    constraints = tuple(draw(st.lists(phrase, max_size=2)))
    width = draw(st.integers(1, 6))
    max_len = draw(st.integers(0, 8))
    warm = draw(st.sampled_from(["cold", "forced", "decoded"]))
    return factory, source, constraints, width, max_len, warm


def warmed(factory, source, warm):
    """A new model, its memo filled first by forced passes or by a decode
    of another width when ``warm`` says so."""
    model = factory()
    if warm == "forced":
        content = model.vocab.content_ids
        for target in [(), content[:3], content[-2:] * 2, (content[0],) * 4]:
            model.forced_pass(source, target)
    elif warm == "decoded":
        decode._python_search(model, source, (), 3, 5)
    return model


def outcome(path, factory, source, constraints, width, max_len, warm):
    """What a decode gives on the ``path`` way: the first-ranked finish,
    the final beam and the statistics of the beam core, and the result bytes of the DBA suggestion under the same
    constraints as prefix and suffix (or ``None`` when nothing finished),
    each float as its hex."""
    prefix, suffix = (constraints + ((), ()))[:2]
    task = TsTask("t", TokenSeq(source), TokenSeq(prefix), TokenSeq(suffix))
    with run_by("beam_search", path):
        model = warmed(factory, source, warm)
        best, beam, stats = decode._beam_core(model, source, DbaParams(width, max_len, constraints))
        beam = beam()
        try:
            suggestion = dba_suggest(warmed(factory, source, warm), task, beam_width=width, max_len=max_len)
        except decode.ConstraintsUnsatisfiable:
            suggestion = None
    row = None
    if suggestion is not None:
        s = suggestion.stats
        row = result_to_dict(ResultRow(task.task_id, "dba", suggestion.span.tokens, suggestion.whole_seq_score,
                                       s.forward_passes, s.positions_scored, s.emitted_steps, s.stop_reason, 0))
    return rowkernel.search_outcome((best, beam, ())), replace(stats, wall_time_us=0), row


def _never_finishes():
    # EOS is floored to 1e-12 everywhere: nothing finishes, and the
    # unconstrained search is not forced to finish at max_len.
    vocab = Vocab(7)
    row = [0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.2]
    rows = {((2,), ctx): row for ctx in [(0,)] + [(t,) for t in vocab.content_ids]}
    return lambda: TableModel(vocab, 1, rows)


@needs_search_kernel
@given(decodes())
@example((_never_finishes(), (2,), (), 2, 4, "cold"))
@example((_never_finishes(), (2,), ((3, 4),), 2, 4, "cold"))
@settings(max_examples=150, deadline=None)
def test_compiled_search_equals_python_search(case):
    assert outcome("kernel", *case) == outcome("python", *case)


@needs_search_kernel
@pytest.mark.parametrize("path", ["python", "kernel"])
def test_the_open_found_case_stays_unfinished_on_both_paths(path):
    # Unconstrained beam search is not force-finished at max_len, on either
    # path: the condition is ``constraints and last`` in both.
    with run_by("beam_search", path):
        got = beam_search(_never_finishes()(), (2,), beam_width=2, max_len=4)
    assert not got.finished and len(got.tokens) == 4


@needs_search_kernel
@pytest.mark.parametrize("constraints", [(), ((3, 4),)], ids=["plain", "constrained"])
def test_a_decode_longer_than_the_first_capacity_grows_it(constraints):
    # Nothing finishes before the budget, so the search runs to 150 tokens,
    # past the 64 a hypothesis has room for at first.
    outcomes = [outcome(path, _never_finishes(), (2,), constraints, 3, 150, "cold") for path in ("python", "kernel")]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].emitted_steps == 150 > rowkernel.INITIAL_CAPACITY


@needs_search_kernel
def test_a_decode_that_stops_on_an_empty_beam_matches():
    # Every hypothesis of the uniform-EOS rows finishes in the window at
    # once: beam-width many window finishes stop the search.
    vocab = Vocab(6)
    row = [0.0, 0.6, 0.1, 0.1, 0.1, 0.1]
    model = lambda: TableModel(vocab, 1, {((2,), (t,)): row for t in (0, 2, 3, 4, 5)})
    outcomes = [outcome(path, model, (2,), (), 3, 6, "cold") for path in ("python", "kernel")]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].stop_reason == "empty_beam"


@needs_search_kernel
def test_a_warm_decode_is_one_call_and_so_is_a_cold_one_with_room(monkeypatch):
    # The kernel draws, logs and indexes a cold decode's rows itself, and
    # returns only when the chunk or the index is full; without the log
    # loop it returns once per step that misses rows.
    kernel = rng.compiled().beam_search
    calls = []

    def counted(address):
        calls.append(address)
        return kernel(address)

    def decoded(model):
        best, beam, _ = decode._beam_core(model, (3, 7, 5, 9), DbaParams(4, 10, ((4,), (6, 2))))
        return best, beam()

    drawn = drawn_rows(monkeypatch)
    decodes = {}
    for log in (rng._log, None):
        monkeypatch.setattr(rng, "_log", log)
        model = with_room(NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2), (3, 7, 5, 9))
        with run_by("beam_search", "kernel"):
            rng._compiled = rng._compiled._replace(beam_search=counted)
            calls.clear()
            cold = decoded(model)
            cold_calls = len(calls)
            calls.clear()
            warm = decoded(model)
        assert len(calls) == 1 and cold == warm
        decodes[log is None] = cold, cold_calls, {kernel for _, _, kernel in drawn}
        drawn.clear()
    if "kernel" in kernel_paths("block") and rng._log is not None:
        assert decodes[False][1:] == (1, {True})
    assert decodes[True][1] > 1 and decodes[True][2] == {False}
    assert decodes[True][0] == decodes[False][0]


@needs_search_kernel
def test_a_draw_that_indexes_no_rows_raises_instead_of_looping():
    # Rows drawn by _draw (the row block off) that never reach the index,
    # then rows the kernel is never given room to draw.
    with run_by("beam_search", "kernel"):
        with run_by("block", "python"), pytest.raises(RuntimeError, match="out of the memo"):
            decode._beam_core(Unindexed(Vocab(8), 2, 3, 0.5), (2,), DbaParams(2, 4))
        if "kernel" in kernel_paths("block") and rng._log is not None:
            rng._compiled = rng._compiled._replace(beam_search=starved(rng._compiled.beam_search))
            with pytest.raises(RuntimeError, match="out of the memo"):
                decode._beam_core(NgramGenModel(Vocab(8), 2, 3, 0.5), (2,), DbaParams(2, 4))


def test_a_model_with_its_own_contexts_takes_the_python_search(monkeypatch):
    class Shortsighted(NgramGenModel):
        def _contexts(self, prefixes):
            return [p[-1:] for p in prefixes]

    monkeypatch.setattr(rowkernel, "CompiledSearch", lambda *a: pytest.fail("compiled"))
    model = Shortsighted(Vocab(8), 2, 3, 0.5)
    best, _, _ = decode._beam_core(model, (2,), DbaParams(2, 4))
    assert best == decode._python_search(Shortsighted(Vocab(8), 2, 3, 0.5), (2,), (), 2, 4)[0]


@needs_search_kernel
@pytest.mark.parametrize("kind", ["ngram", "sibling"])
def test_a_cold_decode_takes_both_miss_routes_and_draws_each_row_once(monkeypatch, kind):
    # With chunks of 3 rows, a step that misses more rows than the chunk
    # has room for returns for a new chunk, and the kernel then draws the
    # rows itself; without the log loop every row takes _draw.
    monkeypatch.setattr(lm, "CHUNK_ROWS", 3)
    drawn = drawn_rows(monkeypatch)
    log = rng._log
    outcomes = {}
    for path in ("python", "kernel", "kernel without the log loop"):
        drawn.clear()
        monkeypatch.setattr(rng, "_log", None if path.endswith("loop") else log)
        with run_by("beam_search", path[:6]):
            model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
            if kind == "sibling":
                model = make_perturbed_sibling(model, 5, 0.5)
            best, beam, stats = decode._beam_core(model, (3, 7, 5), DbaParams(3, 8, ((4,), (6, 2))))
            beam = beam()
            plain = beam_search(model, (2, 9), beam_width=3, max_len=6)
        contexts = [(source, context) for source, context, _ in drawn]
        assert len(set(contexts)) == len(contexts)
        routes = {kernel for _, _, kernel in drawn}
        outcomes[path] = (rowkernel.search_outcome((best, beam, ())), replace(stats, wall_time_us=0),
                          plain.tokens, plain.score.hex(), memo_bytes(model))
        by_kernel = path == "kernel" and "kernel" in kernel_paths("block") and log is not None
        assert routes == ({True} if by_kernel else {False})
    assert outcomes["kernel"] == outcomes["python"] == outcomes["kernel without the log loop"]


@needs_search_kernel
def test_an_interrupted_draw_leaves_no_unlogged_row_reachable(monkeypatch):
    # The kernel draws, logs and indexes a step's missed rows and returns;
    # when the decode stops right after Python claimed their chunk rows,
    # those rows stay theirs: every row the memo reaches has its logged
    # bytes, and later decodes read them.
    if "kernel" not in kernel_paths("block") or rng._log is None:
        pytest.skip("the compiled row block or the log loop is not used here")
    monkeypatch.setattr(lm, "CHUNK_ROWS", 3)

    def searched(model):
        best, beam, stats = decode._beam_core(model, (3, 7), DbaParams(3, 7, ((4,),)))
        return rowkernel.search_outcome((best, beam(), ())), replace(stats, wall_time_us=0)

    with run_by("beam_search", "python"):
        filled = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
        want = searched(filled)
    with run_by("beam_search", "kernel"):
        model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
        with monkeypatch.context() as patch:
            interrupted_claims(patch)
            for _ in range(2):
                with pytest.raises(Interrupted):
                    searched(model)
        reached = memo_bytes(model)
        assert reached and all(row == memo_bytes(filled)[key] for key, row in reached.items())
        assert searched(model) == want
        assert searched(model) == want
        assert memo_bytes(model).items() >= reached.items()


# Decodes a cold model twice, by the compiled search, each of whose calls
# is told that the index has room for any number of rows, and by the Python
# search, and prints whether they agree. The source's first table has 8
# slots, which the kernel fills and then probes.
FULL_TABLE = """
from dataclasses import replace
import numpy as np
from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import Vocab
from tsdecode.decode import DbaParams
from tsdecode.lm import NgramGenModel

search = rng.compiled().beam_search


def unchecked_room(address):
    rowkernel._RowBuffers.from_address(address).index_room = 1 << 40
    return search(address)


def decoded(by):
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    model._new_chunk(np.empty((512, model.vocab.size)))
    model._indexes[(3, 7)] = lm._Index(model.order, 3)
    rng._compiled = rng._compiled._replace(beam_search=by)
    best, beam, stats = decode._beam_core(model, (3, 7), DbaParams(4, 8))
    return best, beam(), replace(stats, wall_time_us=0)


print(decoded(unchecked_room) == decoded(None))
"""


@needs_search_kernel
def test_a_full_index_table_ends_the_probe_instead_of_hanging():
    # A probe of a table with no free slot gives up after every slot: the
    # step misses and draws its rows again until the chunk is full, then
    # Python sizes a larger table and the decode goes on. Run apart, so that
    # a probe that never ends fails the test instead of hanging the suite.
    if "kernel" not in kernel_paths("block") or rng._log is None:
        pytest.skip("the compiled row block or the log loop is not used here")
    src = str(Path(rng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FULL_TABLE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
