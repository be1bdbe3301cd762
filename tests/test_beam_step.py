"""The compiled beam step against the Python step: the same survivors, the
same finishes and window or slot finish counts, and next beams with the
same scores, byte for byte, progress and banks, over random steps whose
scores tie."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsdecode import decode, rng
from tsdecode.core import Vocab
from tsdecode.rowkernel import CompiledStep, step_outputs

from util import kernel_paths

needs_beam_kernel = pytest.mark.skipif(
    "kernel" not in kernel_paths("beam_step"), reason="the compiled beam step cannot be built here"
)

# Few distinct values, so scores tie across parents, tokens and EOS.
TIE_VALUES = (-0.5, -1.0, -2.0, -4.0)
# Repeated tokens, phrases that restart on their first token, two phrases
# that need the same next token and a phrase inside another.
HARD_PHRASES = [((2, 2),), ((3, 2, 3),), ((2, 3), (2, 4)), ((2, 3, 4), (3, 4)), ((3,), (3, 3), (2, 3))]


@st.composite
def steps(draw):
    """(vocab, phrases, beam width, beam, rows per step, last): vocab 20 or
    100, 0-3 phrases over ids 2-4, width 1-8, a beam of 1 to width distinct
    hypotheses of 0-3 tokens with any progress, and 1-3 steps of rows drawn
    from ``TIE_VALUES``, the last at the length budget or not."""
    vocab = Vocab(draw(st.sampled_from([20, 100])))
    phrase = st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple)
    phrases = draw(st.one_of(st.sampled_from(HARD_PHRASES), st.lists(phrase, max_size=3).map(tuple)))
    width = draw(st.integers(1, 8))
    length = draw(st.integers(0, 3))
    tokens = draw(st.lists(
        st.tuples(*[st.sampled_from(vocab.content_ids[:4])] * length),
        min_size=1, max_size=min(width, 4**length), unique=True,
    ))
    beam = []
    for t in tokens:
        progress = tuple(draw(st.integers(0, len(p))) for p in phrases)
        beam.append((t, draw(st.sampled_from(TIE_VALUES)), progress, sum(progress)))
    n_steps = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(TIE_VALUES, size=(n_steps, width, vocab.size))
    rows[:, :, vocab.bos_id] = -math.inf
    return vocab, phrases, width, beam, rows, draw(st.booleans())


def _every_candidate_eos():
    # No phrases, so every hypothesis is complete, and EOS is every row's
    # best entry: the width many EOS candidates fill the global window.
    vocab = Vocab(20)
    beam = [((t,), -1.0, (), 0) for t in (2, 3, 4, 5)]
    rows = np.full((1, 4, 20), -4.0)
    rows[:, :, vocab.eos_id] = -0.5
    rows[:, :, vocab.bos_id] = -math.inf
    return vocab, (), 4, beam, rows, False


@needs_beam_kernel
@given(steps())
@example(_every_candidate_eos())
@settings(max_examples=300, deadline=None)
def test_compiled_step_equals_python_step(case):
    vocab, phrases, width, beam, rows, last = case
    kernel = rng.compiled().beam_step
    takes = [
        decode._PythonStep(vocab, phrases, width, beam),
        CompiledStep(kernel, vocab, phrases, width, beam),
    ]
    tokens = [entry[0] for entry in beam]
    for i, block in enumerate(rows):
        at_budget = last and i == len(rows) - 1
        want, got = (step_outputs(take, list(block[: len(tokens)]), tokens, at_budget) for take in takes)
        assert got == want
        tokens = [entry[0] for entry in want[3]]


@needs_beam_kernel
def test_every_candidate_eos_fills_the_window():
    vocab, phrases, width, beam, rows, _ = _every_candidate_eos()
    take = CompiledStep(rng.compiled().beam_step, vocab, phrases, width, beam)
    survivors, finishes, hard, _ = step_outputs(take, list(rows[0]), [entry[0] for entry in beam], False)
    assert hard == width
    assert [parent for parent, _ in finishes] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(survivors) == width
