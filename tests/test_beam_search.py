import numpy as np
import pytest

from tsdecode.core import Vocab
from tsdecode.decode import InvalidParams, beam_search
from tsdecode.lm import TableModel, UniformModel

from util import enumerate_best


def test_m1_matches_enumeration_normalized(m1, m1_src):
    want_tokens, want_score = enumerate_best(m1, m1_src.tokens, 3)
    got = beam_search(m1, m1_src, beam_width=4, max_len=3)
    assert got.tokens.tokens == want_tokens
    assert abs(got.score - want_score) < 1e-12


def test_uniform_tie_break_deterministic():
    model = UniformModel(Vocab(5))
    got = beam_search(model, (2,), beam_width=3, max_len=4)
    assert got.tokens.tokens == ()
    assert got.finished
    again = beam_search(model, (2,), beam_width=3, max_len=4)
    assert again.tokens.tokens == got.tokens.tokens and again.score == got.score


def test_beam_one_follows_greedy_path(m1, m1_src):
    # Walk the argmax chain by hand until EOS is the argmax.
    path = []
    while True:
        row = m1.forced_pass(m1_src, tuple(path)).distributions[-1].probs
        tok = int(np.argmax(row))
        if tok == m1.vocab.eos_id:
            break
        path.append(tok)
    got = beam_search(m1, m1_src, beam_width=1, max_len=len(path))
    assert got.tokens.tokens == tuple(path)


def test_unfinished_flag_when_eos_never_competitive():
    # EOS mass is zero everywhere (floored to 1e-12), so its candidates rank
    # far below every content candidate and never enter the finish window.
    vocab = Vocab(7)
    row = [0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.2]
    rows = {((2,), ctx): row for ctx in [(0,)] + [(t,) for t in vocab.content_ids]}
    model = TableModel(vocab, 1, rows)
    got = beam_search(model, (2,), beam_width=2, max_len=4)
    assert not got.finished
    assert len(got.tokens) == 4


def test_max_len_zero_returns_empty_completion(m1, m1_src):
    got = beam_search(m1, m1_src, beam_width=2, max_len=0)
    # Only the empty hypothesis is scored; it finishes iff EOS is its argmax.
    assert got.tokens.tokens == ()


def test_invalid_params(m1, m1_src):
    with pytest.raises(InvalidParams):
        beam_search(m1, m1_src, beam_width=0, max_len=3)
    with pytest.raises(InvalidParams):
        beam_search(m1, m1_src, beam_width=2, max_len=-1)
