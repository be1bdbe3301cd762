"""Shared random-fixture generators, the brute-force search oracle and the
reference implementations that fused library code is checked against, for tests.

Everything is keyed off the library's own platform-stable stream so every
test run sees identical fixtures.
"""

import ctypes
import itertools
import math
from array import array
from contextlib import contextmanager

import numpy as np
import pytest

from tsdecode import core, decode, lm, rng
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import TableModel, seq_logprob
from tsdecode.rng import Stream, hash_key
from tsdecode.scoring import normalized_score, rank


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


def table_model(seed, vocab_size, order, tied):
    """An order-``order`` table model over ``vocab_size`` ids with a row
    for some contexts of sources (2,) and (3,): random rows, or rows of
    few distinct values, so that scores tie."""
    vocab = Vocab(vocab_size)
    stream = Stream(hash_key(seed, 0x7AB1E))
    content = vocab.content_ids
    table = {}
    for source in ((2,), (3,)):
        for _ in range(12):
            length = stream.randint(1, order)
            context = (vocab.bos_id,) * (stream.randint(0, 1)) + tuple(stream.choice(content) for _ in range(length))
            if tied:
                weights = [float(stream.choice((1, 2, 4))) for _ in range(vocab_size - 1)]
            else:
                weights = stream.dirichlet(0.5, vocab_size - 1).tolist()
            total = sum(weights)
            table[(source, context[-order:])] = [0.0, *(w / total for w in weights)]
    return TableModel(vocab, order, table)


class Unindexed(lm.NgramGenModel):
    """A model whose ``_draw`` keeps the rows it draws out of the source's
    index, so that a compiled search misses them again."""

    def _draw(self, source, contexts):
        index = self._indexes.pop(source, None)
        super()._draw(source, contexts)
        if index is not None:
            self._indexes[source] = index


def starved(search):
    """The compiled ``search`` (``tsd_beam_search`` or ``tsd_psgd_search``)
    with each call given no room in the model's chunk, however much Python
    gives it: a step that misses rows returns for room again and again, and
    its rows never reach the index."""
    from tsdecode import rowkernel

    def call(address):
        rowkernel._RowBuffers.from_address(address).chunk_room = 0
        return search(address)

    return call


def claimed_rows(context) -> list:
    """The contexts of the chunk rows that the kernel's last call drew, as
    ``rowkernel._Resumable._kept`` is about to claim them, in chunk order:
    read from the source's index by their addresses."""
    if not context.draws:
        return []
    model, by_address = context.model, {a: c for c, a in context.index.entries().items()}
    size = 8 * model.vocab.size
    return [by_address[a] for a in range(model._address + size * model._used, context.buffers.chunk, size)]


def drawn_rows(monkeypatch) -> list:
    """Patch the Python step of each miss route: ``SequenceModel._draw``,
    and ``rowkernel._Resumable._kept``, which claims the rows a compiled
    search drew, logged and indexed itself. The returned list collects
    ``(source, context, drawn by the kernel)`` for every row either one
    memoises, the kernel's read through the index (``claimed_rows``)."""
    from tsdecode import rowkernel

    drawn = []
    draw, kept = vars(lm.SequenceModel)["_draw"], vars(rowkernel._Resumable)["_kept"]

    def python(self, source, contexts):
        drawn.extend((source, context, False) for context in contexts)
        draw(self, source, contexts)

    def kernel(self):
        drawn.extend((self.source, context, True) for context in claimed_rows(self))
        kept(self)

    monkeypatch.setattr(lm.SequenceModel, "_draw", python)
    monkeypatch.setattr(rowkernel._Resumable, "_kept", kernel)
    return drawn


class Interrupted(Exception):
    """Raised right after Python claimed the rows a compiled search drew."""


def interrupted_claims(monkeypatch) -> None:
    """Patch ``rowkernel._Resumable._kept`` to raise ``Interrupted`` once it
    has claimed the chunk rows of rows a compiled search drew, logged and
    indexed: the decode stops before Python reads anything else."""
    from tsdecode import rowkernel

    kept = vars(rowkernel._Resumable)["_kept"]

    def failing(self):
        used = self.model._used
        kept(self)
        if self.model._used != used:
            raise Interrupted

    monkeypatch.setattr(rowkernel._Resumable, "_kept", failing)


def with_room(model, source, rows=512, bits=10):
    """``model`` with a chunk of ``rows`` free rows and an empty index of
    ``2 ** bits`` slots for ``source``: room for a cold decode's rows."""
    model._new_chunk(np.empty((rows, model.vocab.size)))
    index = model._indexes[source] = lm._Index([])
    index.table, index.bits = array("q", [0]) * ((2 + model.order) << bits), bits
    return model


def memo_bytes(model) -> dict:
    """Every row the memo of ``model`` reaches, by source and context: each
    row of a source's dict and each its index reaches, read at its
    address, as bytes. A row both reach must be one row, at one address."""
    rows = {}
    for source in {*model._row_cache, *model._indexes}:
        index = model._indexes.get(source)
        entries = index.entries() if index else {}
        for context, address in entries.items():
            rows[source, context] = ctypes.string_at(address, 8 * model.vocab.size)
        for context, row in model._row_cache.get(source, {}).items():
            address = row.__array_interface__["data"][0]
            assert entries.get(context, address) == address
            rows[source, context] = row.tobytes()
    return rows


def random_task(seed, vocab, src, max_affix_len=2):
    """A task with random prefix/suffix content tokens over ``vocab``."""
    stream = Stream(hash_key(seed, 0xA27B))
    t_p = stream.randint(0, max_affix_len)
    t_s = stream.randint(0, max_affix_len)
    prefix = tuple(stream.choice(vocab.content_ids) for _ in range(t_p))
    suffix = tuple(stream.choice(vocab.content_ids) for _ in range(t_s))
    return TsTask(
        f"rand{seed}",
        TokenSeq(src),
        TokenSeq(prefix),
        TokenSeq(suffix),
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
    seqs = (
        seq
        for length in range(max_len + 1)
        for seq in itertools.product(model.vocab.content_ids, repeat=length)
        if all(contains_phrase(seq, phrase) for phrase in phrases)
    )
    best_score, best_tokens = min(
        ((normalized_score(seq_logprob(model, source, seq, include_eos=True), len(seq)), seq) for seq in seqs),
        key=rank,
        default=(float("-inf"), None),
    )
    return best_tokens, best_score


def gamma(stream, shape):
    """Marsaglia-Tsang gamma variate with unit scale, drawn from ``stream``;
    shape > 0.

    The one-variate definition that ``Stream.dirichlet`` fuses, in Python
    and in the compiled row kernel, kept as the reference both loops are
    checked against.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"gamma shape must be finite and > 0, got {shape}")
    if shape < 1.0:
        # Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        u = stream.uniform()
        return gamma(stream, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    uniform = stream.uniform
    while True:
        # A Box-Muller normal: u1 is drawn before u2.
        x = math.sqrt(-2.0 * math.log(uniform())) * math.cos(2.0 * math.pi * uniform())
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = uniform()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


# The row finalisation is the row block's: ``tsd_block`` returns finished
# rows, and its Python twin finishes them with ``lm._numpy_finalize``.
FIELDS = {"finalize": "block"}


def finish_rows(rows):
    """The finished rows of the Dirichlet ``rows`` of an n-gram model, as
    one (R, V) block: each row after a BOS entry of 0.0, finished by
    ``lm._numpy_finalize``."""
    return lm._numpy_finalize(np.array([[0.0, *row] for row in rows]), 0)


def kernel_paths(function):
    """The ways to run the kernel function ``function`` (``"block"``, the
    finished rows of an n-gram model's block of contexts, ``"finalize"``,
    the same, ``"beam_search"`` or ``"psgd_search"``) here: ``"python"``
    always, and ``"kernel"`` where the compiled function builds, loads and
    passes its check."""
    return ("python", "kernel") if getattr(rng.compiled(), FIELDS.get(function, function)) else ("python",)


@contextmanager
def run_by(function, path):
    """Run ``function`` (``"block"``, ``"finalize"``, ``"beam_search"`` or
    ``"psgd_search"``) the ``path`` way while the block is open: the loaded
    kernel's function, or in its place the Python row loop and numpy
    finish or search."""
    function = FIELDS.get(function, function)
    loaded = rng.compiled()
    assert path == "python" or getattr(loaded, function), f"the compiled {function} is not loaded"
    rng._compiled = loaded if path == "kernel" else loaded._replace(**{function: None})
    try:
        yield
    finally:
        rng._compiled = loaded


# The fixture that runs a test on one path of each kernel function.
PATH_FIXTURES = {"finalize": "finalize_path", "beam_search": "beam_path", "psgd_search": "round_path"}


def over_paths(function, argnames, table, ids):
    """``pytest.mark.parametrize`` of ``argnames`` over ``table``, each row
    on every path of ``function`` (the ``finalize_path``, ``beam_path`` or
    ``round_path`` fixture, which the test need not take): the Python
    path's ids are ``ids``, the compiled path's end in ``-kernel``."""
    fixture = PATH_FIXTURES[function]
    parametrize = pytest.mark.parametrize(
        f"{fixture}, {argnames}",
        [
            pytest.param(path, *row, id=row_id if path == "python" else f"{row_id}-{path}")
            for path in kernel_paths(function)
            for row, row_id in zip(table, ids)
        ],
        indirect=[fixture],
    )
    return lambda test: parametrize(pytest.mark.usefixtures(fixture)(test))


def on_every_path(function):
    """Marks a test or class to run once on each path of ``function``, as
    its ``finalize_path``, ``beam_path`` or ``round_path`` fixture, with ids
    ``[python]`` and ``[kernel]``."""
    fixture = PATH_FIXTURES[function]

    def mark(test):
        test = pytest.mark.usefixtures(fixture)(test)
        return pytest.mark.parametrize(fixture, kernel_paths(function), indirect=True)(test)

    return mark


def reference_check_tokens(tokens, vocab, what, content=True) -> None:
    """``core.check_tokens`` as a loop over every token, without its fast
    path: the first id outside ``vocab`` raises TokenOutOfRange and, in a
    content sequence, the first BOS or EOS ReservedTokenInContent."""
    size = vocab.size
    reserved = (vocab.bos_id, vocab.eos_id)
    for tok in tokens:
        if tok < 0 or tok >= size:
            raise core.TokenOutOfRange(f"{what}: token id {tok} outside vocab of size {size}")
        if content and tok in reserved:
            raise core.ReservedTokenInContent(f"{what}: reserved token id {tok} in content sequence")


def reference_extract_span(output, prefix, suffix):
    """``decode.extract_span`` as two scans, without its fast path: the
    span between the end of the first prefix occurrence and the start of
    the last suffix occurrence, an absent one counting as empty, or else
    the output without the matched tokens."""

    def find(hay, needle, last=False):
        starts = range(len(hay) - len(needle) + 1)
        for i in reversed(starts) if last else starts:
            if hay[i : i + len(needle)] == needle:
                return i
        return None

    p_start = find(output, prefix)
    if p_start is None:
        prefix, p_start = (), 0
    s_start = find(output, suffix, last=True)
    if s_start is None:
        suffix, s_start = (), len(output)
    p_end = p_start + len(prefix)
    if p_end <= s_start:
        return output[p_end:s_start]
    drop = set(range(p_start, p_end)) | set(range(s_start, s_start + len(suffix)))
    return tuple(tok for i, tok in enumerate(output) if i not in drop)


def counted_returns(search, returns):
    """The compiled ``search`` (``tsd_beam_search`` or ``tsd_psgd_search``),
    counting into the Counter ``returns`` its calls (``"calls"``) and each
    return for rows whose step the chunk (``"chunk"``) or the index
    (``"index"``) lacks room for, as the kernel's ``draw_wanted`` found."""
    from tsdecode import rowkernel

    def call(address):
        status = search(address)
        returns["calls"] += 1
        r = rowkernel._RowBuffers.from_address(address)
        if status > 0 and r.n_wanted:
            ids, at, rows = (ctypes.c_int64 * r.n_wanted).from_address(r.wanted), 0, 0
            while at < r.n_wanted:
                at, rows = at + 1 + ids[at], rows + 1
            returns["chunk"] += rows > r.chunk_room
            returns["index"] += rows > r.index_room
        return status

    return call


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


def ranked_expansions(beam, rows, content):
    """Every one-token content expansion of ``beam`` (entries ``(tokens, lp,
    ...)``, ``rows[i]`` the log next-token row of ``beam[i]``) as ``(score,
    child, parent entry)``, sorted by ``rank``: what ``decode._expand``'s top
    k must be a prefix of."""
    return sorted(
        (
            (entry[1] + float(row[tok]), entry[0] + (tok,), entry)
            for entry, row in zip(beam, rows)
            for tok in content
        ),
        key=rank,
    )


def best_finish(finished) -> tuple:
    """The first-ranked of ``finished``'s (tokens, raw score) entries under
    ``decode._pick_best``'s rule, as the searches keep it: (raw score,
    tokens), or ``(-inf, ())`` when there is none."""
    if not finished:
        return -math.inf, ()
    _, tokens = decode._pick_best(finished.items())
    return finished[tokens], tokens


def reference_beam_core(model, source, params):
    """The full-sentence beam search as written before ``decode._beam_core``
    ranked each step's candidates in one sorted list: the global window,
    each bank, the leftovers and the next beam are each sorted on their own,
    and the top-k expansions are cut from a full sort of every candidate
    (``ranked_expansions``), not taken from ``decode._expand``.
    Inputs must be valid; returns ``(finished, beam, stats)`` with the beam
    as (tokens, raw score, progress) triples and ``wall_time_us`` 0."""
    src = tuple(source)
    constraints = tuple(tuple(c) for c in params.constraints)
    eos = model.vocab.eos_id
    content = model.vocab.content_ids
    beam_width = params.beam_width

    def is_complete(progress):
        return all(pos == len(phrase) for pos, phrase in zip(progress, constraints))

    fw = pos_scored = emitted = hard_finishes = 0
    stop_reason = core.STOP_MAX_LEN
    beam = [((), 0.0, tuple(0 for _ in constraints))]
    finished = {}
    for step in range(params.max_len + 1):
        last = step == params.max_len
        rows = []
        eos_cands = []
        for tokens, lp, progress in beam:
            log_row = model.rows_after(src, [tokens])[0]
            fw += 1
            pos_scored += len(tokens) + 1
            rows.append(log_row)
            if is_complete(progress):
                eos_cands.append((lp + float(log_row[eos]), tokens, progress, None))
                if int(np.argmax(log_row)) == eos or (constraints and last):
                    finished.setdefault(tokens, eos_cands[-1][0])
        if last:
            break

        top = [
            (lp_c, child, parent[2], child[-1])
            for lp_c, child, parent in ranked_expansions(beam, rows, content)[:beam_width]
        ]
        finishes_this_round = set()
        for cand in sorted(top + eos_cands, key=rank)[:beam_width]:
            if cand[3] is None:
                finished.setdefault(cand[1], cand[0])
                finishes_this_round.add(cand[1])

        pool = {c[1]: c for c in top}
        for (tokens, lp, progress), log_row in zip(beam, rows):
            needed = {phrase[pos] for pos, phrase in zip(progress, constraints) if pos < len(phrase)}
            for tok in needed:
                child = tokens + (tok,)
                if child not in pool:
                    pool[child] = (lp + float(log_row[tok]), child, progress, tok)

        banked = {}
        for lp_c, child, progress, tok in pool.values():
            new_progress = decode._advance_progress(progress, constraints, tok)
            banked.setdefault(sum(new_progress), []).append((lp_c, child, new_progress, False))
        for lp_c, tokens, progress, _ in eos_cands:
            banked.setdefault(sum(progress), []).append((lp_c, tokens, progress, True))
        for cands in banked.values():
            cands.sort(key=rank)

        banks = sorted(banked, reverse=True)
        base, rem = divmod(beam_width, len(banks))
        selected = []
        leftovers = []
        for i, bank in enumerate(banks):
            slots = base + (1 if i < rem else 0)
            for cand in banked[bank][:slots]:
                if cand[3]:
                    finished.setdefault(cand[1], cand[0])
                    finishes_this_round.add(cand[1])
            bank_content = [c for c in banked[bank] if not c[3]]
            selected.extend((lp_c, child, prog) for lp_c, child, prog, _ in bank_content[:slots])
            leftovers.extend((lp_c, child, prog) for lp_c, child, prog, _ in bank_content[slots:])
        if len(selected) < beam_width and leftovers:
            leftovers.sort(key=rank)
            selected.extend(leftovers[: beam_width - len(selected)])

        hard_finishes += len(finishes_this_round)
        if hard_finishes >= beam_width:
            stop_reason = core.STOP_EMPTY_BEAM
            break
        selected.sort(key=rank)
        beam = [(child, lp_c, progress) for lp_c, child, progress in selected]
        emitted += 1

    stats = core.DecodeStats(
        forward_passes=fw,
        positions_scored=pos_scored,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=0,
    )
    return finished, beam, stats
