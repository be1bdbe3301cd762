"""Shared random-fixture generators and the brute-force search oracle for tests.

Everything is keyed off the library's own platform-stable stream so every
test run sees identical fixtures.
"""

import itertools

from tsdecode import core, decode, lm
from tsdecode.core import ROLE_PREFIX, ROLE_SOURCE, ROLE_SUFFIX, TokenSeq, TsTask, Vocab
from tsdecode.lm import TableModel, seq_logprob
from tsdecode.rng import Stream, hash_key
from tsdecode.scoring import normalized_score, prefer


def random_table_model(seed, vocab_size=4, order=1, concentration=0.8, max_src_len=2):
    """A random order-1 lookup model with rows for every single-token context."""
    vocab = Vocab(vocab_size)
    stream = Stream(hash_key(seed, 0xF1C7))
    src_len = stream.randint(1, max_src_len)
    src = tuple(stream.choice(vocab.content_ids) for _ in range(src_len))
    table = {}
    contexts = [(vocab.bos_id,)] + [(t,) for t in range(vocab_size) if t != vocab.bos_id]
    for ctx in contexts:
        weights = stream.dirichlet(concentration, vocab_size - 1)
        row = [0.0] * vocab_size
        ids = [i for i in range(vocab_size) if i != vocab.bos_id]
        for i, w in zip(ids, weights):
            row[i] = float(w)
        table[(src, ctx)] = row
    return vocab, src, TableModel(vocab, order, table)


def random_task(seed, vocab, src, max_affix_len=2):
    """A task with random prefix/suffix content tokens over ``vocab``."""
    stream = Stream(hash_key(seed, 0xA27B))
    t_p = stream.randint(0, max_affix_len)
    t_s = stream.randint(0, max_affix_len)
    prefix = tuple(stream.choice(vocab.content_ids) for _ in range(t_p))
    suffix = tuple(stream.choice(vocab.content_ids) for _ in range(t_s))
    return TsTask(
        f"rand{seed}",
        TokenSeq(src, ROLE_SOURCE),
        TokenSeq(prefix, ROLE_PREFIX),
        TokenSeq(suffix, ROLE_SUFFIX),
    )


def random_phrases(seed, vocab, max_phrases=2, max_phrase_len=3):
    stream = Stream(hash_key(seed, 0xC0DE))
    n = stream.randint(1, max_phrases)
    return tuple(
        tuple(stream.choice(vocab.content_ids) for _ in range(stream.randint(1, max_phrase_len)))
        for _ in range(n)
    )


def contains_phrase(hay, phrase):
    return any(hay[i : i + len(phrase)] == phrase for i in range(len(hay) - len(phrase) + 1))


def enumerate_best(model, source, max_len, phrases=()):
    """Independent oracle: the best content sequence up to ``max_len`` by
    length-normalized score among those containing every phrase; None when
    there is none."""
    best_tokens, best_score = None, float("-inf")
    for length in range(max_len + 1):
        for seq in itertools.product(model.vocab.content_ids, repeat=length):
            if not all(contains_phrase(seq, phrase) for phrase in phrases):
                continue
            score = normalized_score(seq_logprob(model, source, seq, include_eos=True), len(seq))
            if best_tokens is None or prefer(score, seq, best_score, best_tokens):
                best_tokens, best_score = seq, score
    return best_tokens, best_score


def record_token_checks(monkeypatch) -> list[str]:
    """Patch ``check_tokens`` wherever the library calls it; the returned
    list collects the ``what`` of every call."""
    checked = []
    real = core.check_tokens

    def recording(tokens, vocab, what, content=True):
        checked.append(what)
        return real(tokens, vocab, what, content)

    for module in (core, decode, lm):
        monkeypatch.setattr(module, "check_tokens", recording)
    return checked
