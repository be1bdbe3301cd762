"""The compiled PSGD search against the Python search, decode by decode:
the same span, the same score bytes and the same statistics, on random
n-gram, sibling and table models and on models whose rows tie, on a cold
memo, a warm one and one filled first, past the point where the compiled
search's span room grows. A warm decode is one compiled call, and so is a
cold one with room for its rows, which the kernel draws, logs and indexes
itself; without the log loop, a cold one returns to Python once per round
that misses rows, which ``_draw`` draws."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.decode import PsgdParams, psgd, psgd_with_trace
from tsdecode.lm import NgramGenModel, SequenceModel, UniformModel, make_perturbed_sibling
from tsdecode.scoring import SCORING_MODES

from util import (Interrupted, Unindexed, drawn_rows, interrupted_claims, kernel_paths, memo_bytes, run_by,
                  starved, table_model, with_room)

needs_psgd_kernel = pytest.mark.skipif(
    "kernel" not in kernel_paths("psgd_search"), reason="the compiled PSGD search cannot be built here"
)

# Log-row values: few and distinct, so scores tie. Short binary fractions add
# exactly, so items whose spans score differently tie too; the others do
# not, so a sum added in another order changes bytes. Each is the log of its
# exponential, so ``_draw`` keeps it.
EXACT_VALUES = tuple(-0.25 * i for i in range(1, 9))
INEXACT_VALUES = (-0.3, -0.7, -1.1, -2.9)


class TiedModel(SequenceModel):
    """A model whose log row after BOS + a prefix depends only on the
    prefix's last token (BOS for the empty prefix), each entry drawn from
    ``values`` by a generator seeded with ``seed`` and that token."""

    def __init__(self, vocab: Vocab, order: int, values: tuple[float, ...], seed: int) -> None:
        super().__init__("tied", vocab, order)
        self.probs, self.seed = np.exp(values), seed

    def _finished_rows(self, source, contexts):
        return np.array([np.random.default_rng((self.seed, context[-1])).choice(self.probs, self.vocab.size)
                         for context in contexts])


def factories(kind, vocab_size, order, seed, draw):
    """A function that builds a new model of ``kind``."""
    if kind in ("ngram", "sibling"):
        concentration = draw(st.sampled_from([0.05, 0.2, 1.0]))

        def factory():
            model = NgramGenModel(Vocab(vocab_size), order, seed, concentration)
            return make_perturbed_sibling(model, seed + 1, 0.5) if kind == "sibling" else model
    elif kind == "tied":
        values = draw(st.sampled_from([EXACT_VALUES, INEXACT_VALUES]))

        def factory():
            return TiedModel(Vocab(vocab_size), order, values, seed)
    else:
        def factory():
            return table_model(seed, vocab_size, order, kind == "tied-table")
    return factory


@st.composite
def decodes(draw):
    """(model factory, task, params, memo state): n-gram, sibling, table
    and tied models of vocab 5, 8 or 20 and order 1-3, prefix and suffix of
    0-4 tokens over the first content ids, so the suffix is shorter or
    longer than the order, widths 1-6, patience 0-6, ``max_span_len`` 1-8
    or 70, past the first span room, both scoring modes, with EOS in the
    length or not."""
    kind = draw(st.sampled_from(["ngram", "sibling", "table", "tied-table", "tied"]))
    vocab_size = draw(st.sampled_from([5, 8, 20]))
    factory = factories(kind, vocab_size, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)), draw)
    affix = st.lists(st.sampled_from(Vocab(vocab_size).content_ids[:3]), max_size=4).map(tuple)
    source = draw(st.sampled_from([(2,), (3,)]))
    task = TsTask("t", TokenSeq(source), TokenSeq(draw(affix)), TokenSeq(draw(affix)))
    params = PsgdParams(
        beam_width=draw(st.integers(1, 6)),
        patience=draw(st.integers(0, 6)),
        max_span_len=draw(st.one_of(st.integers(1, 8), st.just(70))),
        scoring=draw(st.sampled_from(SCORING_MODES)),
        include_eos_in_len=draw(st.booleans()),
    )
    return factory, task, params, draw(st.sampled_from(["cold", "warm", "filled"]))


def outcome(path, factory, task, params, memo):
    """What a decode gives on the ``path`` way, its score as its hex and
    its statistics with ``wall_time_us`` 0. Its model's memo is ``cold``,
    ``warm`` (the same decode ran first) or ``filled`` (forced passes over
    some targets ran first)."""
    with run_by("psgd_search", path):
        model = factory()
        if memo == "warm":
            psgd(model, task, params)
        elif memo == "filled":
            content = model.vocab.content_ids
            for target in [(), content[:3], content[-2:] * 2, task.prefix.tokens + (content[0],) * 3]:
                model.forced_pass(task.source, target)
        got = psgd(model, task, params)
    return got.span.tokens, got.whole_seq_score.hex(), replace(got.stats, wall_time_us=0)


def _uniform():
    # Every span scores alike under the mean with EOS in the length, and
    # better with each token without it: decodes that run to the cap.
    return UniformModel(Vocab(6))


@needs_psgd_kernel
@given(decodes())
@example((_uniform, TsTask("u", TokenSeq((2,)), TokenSeq((3,)), TokenSeq((4,))), PsgdParams(3, 6, 70), "cold"))
@example((_uniform, TsTask("u", TokenSeq((2,)), TokenSeq(()), TokenSeq(())), PsgdParams(2, 2, 70, "mean_logprob", True),
          "warm"))
@settings(max_examples=300, deadline=None)
def test_compiled_round_equals_python_round(case):
    assert outcome("kernel", *case) == outcome("python", *case)


@needs_psgd_kernel
@pytest.mark.parametrize("order", [2, 3])
def test_long_decodes_match_past_the_carry_growth(order):
    # Every item carries its span's terms, in room for 64 at first that
    # doubles; these decodes run to 70. The suffix (5, 2) at order 2 reads a
    # fixed EOS head term, the shorter ones each item's EOS row.
    params = PsgdParams(beam_width=4, patience=80, max_span_len=70)
    for suffix in ((), (5,), (5, 2)):
        task = TsTask("long", TokenSeq((3, 4)), TokenSeq((2,)), TokenSeq(suffix))
        outcomes = [outcome(path, lambda: NgramGenModel(Vocab(9), order, seed=21, concentration=0.3), task, params,
                            "cold") for path in ("python", "kernel")]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2].emitted_steps == 70 > rowkernel.INITIAL_CAPACITY


@needs_psgd_kernel
def test_a_traced_decode_matches_the_compiled_one():
    # A trace asks for every round's scores, which the kernel does not
    # keep: psgd_with_trace takes the Python search on either path.
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    task = TsTask("t", TokenSeq((3, 7)), TokenSeq((4,)), TokenSeq((6, 2)))
    with run_by("psgd_search", "kernel"):
        traced, trace = psgd_with_trace(model, task)
        got = psgd(model, task)
    assert (traced.span, traced.whole_seq_score) == (got.span, got.whole_seq_score)
    assert replace(traced.stats, wall_time_us=0) == replace(got.stats, wall_time_us=0)
    assert sum(map(len, trace)) == got.stats.forward_passes


@needs_psgd_kernel
def test_a_warm_decode_is_one_call_and_so_is_a_cold_one_with_room(monkeypatch):
    # The kernel draws, logs and indexes a cold decode's rows itself, and
    # returns only when the chunk or the index is full; without the log
    # loop it returns once per round that misses rows.
    kernel = rng.compiled().psgd_search
    calls = []

    def counted(address):
        calls.append(address)
        return kernel(address)

    drawn = drawn_rows(monkeypatch)
    task = TsTask("t", TokenSeq((3, 7, 5, 9)), TokenSeq((4,)), TokenSeq((6, 2)))
    decodes = {}
    for log in (rng._log, None):
        monkeypatch.setattr(rng, "_log", log)
        model = with_room(NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2), (3, 7, 5, 9))
        with run_by("psgd_search", "kernel"):
            rng._compiled = rng._compiled._replace(psgd_search=counted)
            calls.clear()
            cold = psgd(model, task)
            cold_calls = len(calls)
            calls.clear()
            warm = psgd(model, task)
        assert len(calls) == 1
        assert (cold.span, cold.whole_seq_score) == (warm.span, warm.whole_seq_score)
        # The kernel draws the fixed terms' rows too, with the rounds'.
        decodes[log is None] = (cold.span, cold.whole_seq_score), cold_calls, {kernel for _, _, kernel in drawn}
        drawn.clear()
    if "kernel" in kernel_paths("block") and rng._log is not None:
        assert decodes[False][1:] == (1, {True})
    assert decodes[True][1] > 1 and decodes[True][2] == {False}
    assert decodes[True][0] == decodes[False][0]


@needs_psgd_kernel
def test_a_draw_that_indexes_no_rows_raises_instead_of_looping():
    # Rows drawn by _draw (the row block off) that never reach the index,
    # then rows the kernel is never given room to draw.
    task = TsTask("t", TokenSeq((2,)), TokenSeq((3,)), TokenSeq((4,)))
    with run_by("psgd_search", "kernel"):
        with run_by("block", "python"), pytest.raises(RuntimeError, match="out of the memo"):
            psgd(Unindexed(Vocab(8), 2, 3, 0.5), task)
        if "kernel" in kernel_paths("block") and rng._log is not None:
            rng._compiled = rng._compiled._replace(psgd_search=starved(rng._compiled.psgd_search))
            with pytest.raises(RuntimeError, match="out of the memo"):
                psgd(NgramGenModel(Vocab(8), 2, 3, 0.5), task)


def test_a_model_with_its_own_contexts_takes_the_python_search(monkeypatch):
    class Shortsighted(NgramGenModel):
        def _contexts(self, prefixes):
            return [p[-1:] for p in prefixes]

    monkeypatch.setattr(rowkernel, "CompiledPsgd", lambda *a: pytest.fail("compiled"))
    task = TsTask("t", TokenSeq((2,)), TokenSeq((3,)), TokenSeq((4,)))
    got = psgd(Shortsighted(Vocab(8), 2, 3, 0.5), task)
    with run_by("psgd_search", "python"):
        want = psgd(Shortsighted(Vocab(8), 2, 3, 0.5), task)
    assert (got.span, got.whole_seq_score) == (want.span, want.whole_seq_score)


def test_the_forced_pass_reference_takes_the_python_search(monkeypatch):
    monkeypatch.setattr(rowkernel, "CompiledPsgd", lambda *a: pytest.fail("compiled"))
    task = TsTask("t", TokenSeq((2,)), TokenSeq((3,)), TokenSeq((4,)))
    decode.psgd_two_pass(NgramGenModel(Vocab(8), 2, 3, 0.5), task)


@needs_psgd_kernel
@pytest.mark.parametrize("kind", ["ngram", "sibling"])
def test_a_cold_decode_takes_both_miss_routes_and_draws_each_row_once(monkeypatch, kind):
    # With chunks of 3 rows, a round that misses more rows than the chunk
    # has room for returns for a new chunk, and the kernel then draws the
    # rows itself, the fixed terms' too; without the log loop every row
    # takes _draw.
    monkeypatch.setattr(lm, "CHUNK_ROWS", 3)
    drawn = drawn_rows(monkeypatch)
    log = rng._log
    task = TsTask("t", TokenSeq((3, 7, 5)), TokenSeq((4,)), TokenSeq((6,)))
    outcomes = {}
    for path in ("python", "kernel", "kernel without the log loop"):
        drawn.clear()
        monkeypatch.setattr(rng, "_log", None if path.endswith("loop") else log)
        with run_by("psgd_search", path[:6]):
            model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
            if kind == "sibling":
                model = make_perturbed_sibling(model, 5, 0.5)
            got = psgd(model, task, PsgdParams(beam_width=2, patience=3, max_span_len=8))
        contexts = [(source, context) for source, context, _ in drawn]
        assert len(set(contexts)) == len(contexts)
        routes = {kernel for _, _, kernel in drawn}
        outcomes[path] = (got.span, got.whole_seq_score.hex(), replace(got.stats, wall_time_us=0), memo_bytes(model))
        by_kernel = path == "kernel" and "kernel" in kernel_paths("block") and log is not None
        assert routes == ({True} if by_kernel else {False})
    assert outcomes["kernel"] == outcomes["python"] == outcomes["kernel without the log loop"]


@needs_psgd_kernel
def test_an_interrupted_draw_leaves_no_unlogged_row_reachable(monkeypatch):
    # The kernel draws, logs and indexes a round's missed rows and returns;
    # when the decode stops right after Python claimed their chunk rows,
    # those rows stay theirs: every row the memo reaches has its logged
    # bytes, and later decodes read them.
    if "kernel" not in kernel_paths("block") or rng._log is None:
        pytest.skip("the compiled row block or the log loop is not used here")
    monkeypatch.setattr(lm, "CHUNK_ROWS", 3)
    task = TsTask("t", TokenSeq((3, 7)), TokenSeq((4,)), TokenSeq((6,)))

    def decoded(model):
        got = psgd(model, task)
        return got.span, got.whole_seq_score.hex(), replace(got.stats, wall_time_us=0)

    with run_by("psgd_search", "python"):
        filled = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
        want = decoded(filled)
    with run_by("psgd_search", "kernel"):
        model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
        with monkeypatch.context() as patch:
            interrupted_claims(patch)
            for _ in range(2):
                with pytest.raises(Interrupted):
                    decoded(model)
        reached = memo_bytes(model)
        assert reached and all(row == memo_bytes(filled)[key] for key, row in reached.items())
        assert decoded(model) == want
        assert decoded(model) == want
        assert memo_bytes(model).items() >= reached.items()
