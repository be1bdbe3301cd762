"""The compiled PSGD round against the Python round: the same scores, byte
for byte, the same first-ranked item, the same children and carries, over
random rounds whose scores tie, and the same decodes past the point where
the compiled round's carry buffer grows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode import decode, rng
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.decode import EXPAND_ALWAYS, EXPAND_IF_BETTER, EXPAND_NEVER, PsgdParams, psgd_with_trace
from tsdecode.lm import NgramGenModel
from tsdecode.rowkernel import CompiledRound, round_outputs
from tsdecode.scoring import SCORING_MODES

from util import kernel_paths, run_by

needs_round_kernel = pytest.mark.skipif(
    "kernel" not in kernel_paths("psgd_round"), reason="the compiled PSGD round cannot be built here"
)

# Row values: few and distinct, so scores tie. Short binary fractions add
# exactly, so items whose spans score differently tie too; the others do
# not, so a sum added in another order changes bytes.
EXACT_VALUES = tuple(-0.25 * i for i in range(1, 9))
INEXACT_VALUES = (-0.3, -0.7, -1.1, -2.9)


class TiedModel:
    """A model whose row after BOS + a prefix depends only on the prefix's
    last token, each drawn from ``values`` on first use."""

    def __init__(self, vocab: Vocab, order: int, values: tuple[float, ...], seed: int) -> None:
        self.vocab, self.order, self.values = vocab, order, values
        self.draw = np.random.default_rng(seed)
        self.table = {}

    def rows_after(self, source, prefixes):
        out = []
        for prefix in prefixes:
            key = prefix[-1:]
            if key not in self.table:
                row = self.draw.choice(self.values, size=self.vocab.size)
                row[self.vocab.bos_id] = -math.inf
                self.table[key] = row
            out.append(self.table[key])
        return out


@st.composite
def decodes(draw):
    """(model, prefix, suffix, params, plan): vocab 20 or 100, order 1-3,
    rows of exact or inexact values, prefix and suffix of 0-4 tokens over
    the first content ids, so the
    suffix is shorter or longer than the order, width 1-8, both scoring
    modes, and 1-5 rounds, each with an ``EXPAND_*`` and the best so far:
    -inf, or the round's own best score, which it must not beat."""
    vocab = Vocab(draw(st.sampled_from([20, 100])))
    values = draw(st.sampled_from([EXACT_VALUES, INEXACT_VALUES]))
    model = TiedModel(vocab, draw(st.integers(1, 3)), values, draw(st.integers(0, 2**32 - 1)))
    affix = st.lists(st.sampled_from(vocab.content_ids[:3]), max_size=4).map(tuple)
    prefix, suffix = draw(affix), draw(affix)
    params = PsgdParams(
        beam_width=draw(st.integers(1, 8)),
        scoring=draw(st.sampled_from(SCORING_MODES)),
        include_eos_in_len=draw(st.booleans()),
    )
    expand = st.sampled_from([EXPAND_ALWAYS, EXPAND_ALWAYS, EXPAND_IF_BETTER, EXPAND_NEVER])
    plan = draw(st.lists(st.tuples(expand, st.booleans()), min_size=1, max_size=5))
    return model, prefix, suffix, params, plan


@needs_round_kernel
@given(decodes())
@settings(max_examples=300, deadline=None)
def test_compiled_round_equals_python_round(case):
    model, p, s, params, plan = case
    scorer = decode._SpanScorer(model, (), p, s)
    takes = [
        decode._PythonRound(scorer, model.vocab, params),
        CompiledRound(rng.compiled().psgd_round, scorer, model.vocab, params),
    ]
    spans = [()]
    for n, (expand, own_best) in enumerate(plan):
        rows = model.rows_after((), [p + span + piece for span in spans for piece in scorer.pieces])
        length = len(p) + n + len(s)
        best = -math.inf
        if own_best:
            best = takes[0](rows, spans, length, EXPAND_NEVER, best)[1]
        want, got = (round_outputs(take, rows, spans, length, expand, best) for take in takes)
        assert got == want
        spans = [spans[parent] + (tok,) for parent, tok in want[3]]
        if not spans:
            break


def _decode(path, model, task, params):
    with run_by("psgd_round", path):
        return psgd_with_trace(model, task, params)


@needs_round_kernel
@pytest.mark.parametrize("order", [2, 3])
def test_long_decodes_match_past_the_carry_growth(order):
    # A suffix shorter than the order keeps each span's terms, in a buffer
    # that starts with room for 8 and doubles; these decodes run to 40.
    model = NgramGenModel(Vocab(9), order, seed=21, concentration=0.3)
    params = PsgdParams(beam_width=4, patience=50, max_span_len=40)
    for suffix in ((), (5,), (5, 2)):
        task = TsTask("long", TokenSeq((3, 4)), TokenSeq((2,)), TokenSeq(suffix))
        (want, want_trace), (got, got_trace) = (_decode(path, model, task, params) for path in ("python", "kernel"))
        assert got.stats.emitted_steps == 40
        assert (got.span, got.whole_seq_score, got_trace) == (want.span, want.whole_seq_score, want_trace)
