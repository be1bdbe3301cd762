"""The compiled kernel: build, cache, load and check ``_rowkernel.c``.

``_rowkernel.c`` exports four functions, each named ``tsd_`` and its
``Functions`` field and each the C twin of Python code: ``tsd_block`` is
``lm.NgramGenModel``'s Python row loop over a block of contexts
(``_row_keys``, then one ``rng.Stream.dirichlet`` row per key),
``tsd_finalize`` is ``lm._numpy_finalize``, ``tsd_beam_step`` is
``decode._PythonStep``, one step of the full-sentence beam search, and
``tsd_psgd_round`` is ``decode._PythonRound``, one PSGD scoring round. The
row functions add a row up in numpy's ``add.reduce`` order, which their
checks compare rather than assume. This module holds no state:
``rng.compiled()`` calls ``load`` once per process, on the first n-gram row
block, beam step or PSGD round, never on import. ``lm`` and ``decode`` then
use each function that passed its check, and the much slower Python code
otherwise.

``load`` builds the kernel with the C compiler the running Python was built
with (``sysconfig``'s ``CC``) and ``FLAGS``, which keep every float
operation as the source writes it: never fast-math or ``-march=native``,
as a fused multiply-add or a reordered sum changes bytes. The shared object
is cached in ``cache_dir()``, a directory only its owner may write, under a
name that is a 64-bit ``rng.hash_key`` of the source, the compile command
and the platform, so a changed source or compiler builds a new file; the
name needs no ``hashlib``, which loads OpenSSL into the process. It is written
to a temporary file and moved into place, so processes that build it at
once never load half a file.

Each function is checked before it is used, next to its Python twin, by a
check of its own. ``lm.block_self_check`` draws ``lm.CHECK_BLOCKS`` both
ways and requires the same bytes: blocks of several vocabularies and
concentrations, whose rows cover the Dirichlet row's branches and tell
numpy's sum from any one of its rules changed.
``lm.finalize_self_check`` finalizes a block of every width in
``lm.CHECK_WIDTHS`` both ways and requires the same bytes, and the same
``ValueError`` for a row with no mass; ``beam_self_check`` takes the ``CHECK_STEPS`` steps of a small fixed
decode with both steps and requires the same survivors, finishes and
scores, byte for byte; ``psgd_self_check`` scores the ``CHECK_ROUNDS`` with
both rounds and requires the same scores, best items, children and
carries, byte for byte. The checks run inside ``rng.compiled()``'s lock, so
they call the Python twins, never ``lm.NgramGenModel._raw_rows`` or
``lm._finalize_rows``, which would wait for it. A function that fails its
check is replaced by its Python twin alone, so a row mismatch leaves the
compiled finalisation, beam step and round in use, and so on. No compiler,
or a failed build or load, leaves all four to Python, exactly as without
the kernel. Without a compiler that is silent; any other failure is
reported by one ``RuntimeWarning``. The cache holds code, never rows: every
command still draws every row it reads.
"""

from __future__ import annotations

import ctypes
import math
import os
import shlex
import shutil
import sysconfig
import warnings
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lm import block_self_check, finalize_self_check
from .rng import hash_key
from .scoring import SCORING_MEAN_LOGPROB, length_term

SOURCE = Path(__file__).with_name("_rowkernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

def compiler() -> list[str] | None:
    """The C compiler this Python was built with, as a command; None when
    it names none."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/tsdecode``, or ``~/.cache/tsdecode`` when
    ``XDG_CACHE_HOME`` is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "tsdecode"


class Functions(NamedTuple):
    """The kernel's functions that passed their checks; None for each that
    did not, or when the kernel could not be built or loaded. Field
    ``name`` holds ``tsd_<name>``: ``block`` draws a block of an n-gram
    model's rows, ``finalize`` finalizes a block of rows, ``beam_step``
    takes a beam step and ``psgd_round`` scores a PSGD round."""

    block: object = None
    finalize: object = None
    beam_step: object = None
    psgd_round: object = None


def load(directory: Path | None = None) -> Functions:
    """The kernel's functions from ``directory`` (``cache_dir()`` by
    default), built there first if it is not there yet, each kept only if it
    passes its own check: ``lm.block_self_check`` for ``tsd_block``,
    ``lm.finalize_self_check`` for ``tsd_finalize``, ``beam_self_check`` for
    ``tsd_beam_step`` and ``psgd_self_check`` for ``tsd_psgd_round``. Each
    failure is reported as one warning, except a missing compiler."""
    cc = compiler()
    if cc is None or shutil.which(cc[0]) is None:
        return Functions()
    try:
        command = [*cc, *FLAGS]
        directory = cache_dir() if directory is None else directory
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(directory)
        data = SOURCE.read_bytes() + "\0".join([*command, sysconfig.get_platform()]).encode()
        words = memoryview(data + bytes(-len(data) % 8)).cast("Q")
        path = directory / f"rowkernel-{hash_key(len(data), words):016x}.so"
        if not path.exists():
            _compile(command, path)
        block, finalize, beam_step, psgd_round = _open(path)
    except Exception as exc:  # whatever fails, rows are drawn, beams stepped and rounds scored in Python
        _warn("kernel", repr(exc), "rows are drawn and finalized, beams stepped and PSGD rounds scored in Python")
        return Functions()

    return Functions(
        _checked(block, block_self_check, "row block", "rows are drawn in Python"),
        _checked(finalize, finalize_self_check, "row finalisation", "rows are finalized in Python"),
        _checked(beam_step, beam_self_check, "beam step", "beams are stepped in Python"),
        _checked(psgd_round, psgd_self_check, "PSGD round", "PSGD rounds are scored in Python"),
    )


def _checked(function, check, name: str, fallback: str):
    """``function`` if ``check(function)`` holds; otherwise None, with one
    warning."""
    try:
        if check(function):
            return function
        problem = "it differs from the Python reference"
    except Exception as exc:  # a check that cannot run rejects the function
        problem = repr(exc)
    _warn(name, problem, fallback)
    return None


def _warn(name: str, problem: str, fallback: str) -> None:
    warnings.warn(f"the compiled {name} is not used ({problem}); {fallback}", RuntimeWarning, stacklevel=4)


def _check_private(directory: Path) -> None:
    """Refuse a cache directory that another user owns or may write: code
    loaded from it runs in this process."""
    st = directory.stat()
    if st.st_mode & 0o022 or st.st_uid != os.getuid():
        raise PermissionError(f"{directory} is not private to this user")


def _compile(command: list[str], path: Path) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([*command, "-o", tmp, str(SOURCE), "-lm"], capture_output=True, text=True, timeout=300)
        if proc.returncode:
            raise OSError(f"{command[0]} exited with {proc.returncode}: {proc.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _open(path: Path) -> Functions:
    """The kernel's functions from the shared object at ``path``, each field
    ``name`` holding ``tsd_<name>`` with its argument and result types."""
    library = ctypes.CDLL(str(path))
    functions = Functions(*(getattr(library, "tsd_" + name) for name in Functions._fields))
    block, finalize, beam_step, psgd_round = functions
    finalize.argtypes = (ctypes.POINTER(ctypes.c_double), ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                         ctypes.c_double, ctypes.c_double)
    finalize.restype = ctypes.c_int64
    beam_step.argtypes = (ctypes.c_void_p, ctypes.c_int64)
    beam_step.restype = ctypes.c_int64
    psgd_round.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_int64)
    psgd_round.restype = ctypes.c_int64
    # The tokens and the lengths come as bytes objects of packed int64s.
    block.argtypes = (ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.POINTER(ctypes.c_double))
    block.restype = None
    return functions


def _sections(struct, reals, ints) -> dict[str, np.ndarray]:
    """One decode's buffers: a zeroed float64 array cut into the ``reals``
    sections and a zeroed int64 array cut into the ``ints`` sections, each a
    ``(name, length)`` pair, in order. Each name is a pointer field of
    ``struct``, set to its section's address; returns each section's numpy
    view by name. numpy arrays, not ctypes ones: each ctypes
    array length is a new type that ctypes keeps for the life of the
    process. An address is read through ``c_char.from_buffer``, without the
    dict that ``__array_interface__`` builds."""
    views = {}
    for dtype, sections in ((np.float64, reals), (np.int64, ints)):
        array = np.zeros(sum(length for _, length in sections), dtype)
        base, at = ctypes.addressof(ctypes.c_char.from_buffer(array)), 0
        for name, length in sections:
            setattr(struct, name, base + 8 * at)
            views[name] = array[at : at + length]
            at += length
    return views


class _BeamBuffers(ctypes.Structure):
    """``struct tsd_beam`` of ``_rowkernel.c``."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "vocab", "width", "eos", "lo", "n_content", "n_phrases", "complete", "cur", "n_finished", "hard"
        )]
        + [("size", ctypes.c_int64 * 2)]
        + [(name, ctypes.c_void_p) for name in (
            "phrases", "starts", "rows", "parent", "token", "finished", "finish_score", "lp", "progress", "bank",
            "order",
        )]
    )


class CompiledStep:
    """``decode._PythonStep``'s interface and results through
    ``tsd_beam_step``.

    The beam lives in the sections of ``_BeamBuffers`` (``_sections``),
    which each decode allocates once; ``lp``, ``progress``, ``bank`` and
    ``order`` hold two sides, side s starting at s times the side's length.
    Per step Python copies the rows in and reads the survivors and finishes
    out, and the tokens, which the kernel never reads, stay with the caller.
    The kernel breaks token ties by each hypothesis's rank among the beam's
    tokens in lexicographic order, computed here for the first beam and by
    the kernel for every next one.
    """

    def __init__(self, kernel, vocab, constraints: tuple[tuple[int, ...], ...], beam_width: int, beam: list) -> None:
        width, size, n = beam_width, vocab.size, len(constraints)
        content = vocab.content_ids
        flat = [tok for phrase in constraints for tok in phrase]
        # The kernel indexes its buffers with these without checking them.
        if len(beam) > width or any(tok not in content for tok in flat):
            raise ValueError("the beam is wider than its width, or a phrase holds a non-content id")
        for _, _, progress, bank in beam:
            if len(progress) != n or bank != sum(progress) or any(
                not 0 <= pos <= len(phrase) for pos, phrase in zip(progress, constraints)
            ):
                raise ValueError(f"progress {progress} and bank {bank} do not fit the phrases {constraints}")
        buffers = self.buffers = _BeamBuffers(
            size, width, vocab.eos_id, content[0], len(content), n, len(flat), 0, 0, 0, (len(beam), 0)
        )
        # A hypothesis can finish twice in a step: at its EOS argmax, then in a window or slot.
        views = self.views = _sections(
            buffers,
            (("rows", width * size), ("lp", 2 * width), ("finish_score", 2 * width)),
            (("phrases", len(flat)), ("starts", n + 1), ("progress", 2 * width * n), ("bank", 2 * width),
             ("order", 2 * width), ("parent", width), ("token", width), ("finished", 2 * width)),
        )
        views["phrases"][:] = flat
        views["starts"][:] = list(accumulate(map(len, constraints), initial=0))
        lps, progresses, banks, order = views["lp"], views["progress"], views["bank"], views["order"]
        for b, (_, lp, progress, bank) in enumerate(beam):
            lps[b] = lp
            progresses[b * n : (b + 1) * n] = progress
            banks[b] = bank
        for rank_, b in enumerate(sorted(range(len(beam)), key=lambda b: beam[b][0])):
            order[b] = rank_
        self.kernel, self.address, self.width, self.n_phrases = kernel, ctypes.addressof(buffers), width, n
        self.block = views["rows"].reshape(width, size)

    def __call__(self, rows, tokens: list[tuple[int, ...]], last: bool):
        self.block[: len(rows)] = rows
        n = self.kernel(self.address, last)
        if n < 0:
            raise MemoryError("tsd_beam_step could not allocate its candidates")
        views, buffers = self.views, self.buffers
        finishes = ()
        if buffers.n_finished:
            k = buffers.n_finished
            finishes = zip(views["finished"][:k].tolist(), views["finish_score"][:k].tolist())
        return zip(views["parent"][:n].tolist(), views["token"][:n].tolist()), finishes, buffers.hard

    def advance(self) -> None:
        self.buffers.cur ^= 1

    def beam(self, tokens: list[tuple[int, ...]]) -> list:
        views, n, m = self.views, self.n_phrases, len(tokens)
        first = self.buffers.cur * self.width
        lps, banks = views["lp"][first : first + m].tolist(), views["bank"][first : first + m].tolist()
        progress = views["progress"][first * n : (first + m) * n].tolist()
        return [(t, lps[b], tuple(progress[b * n : (b + 1) * n]), banks[b]) for b, t in enumerate(tokens)]


# A decode the compiled beam step must reproduce, byte for byte, before it
# is used: vocab 6 (content ids 2-5), the phrases (3, 4) and (2,), beam
# width 3, four steps from a beam of three two-token hypotheses, the fourth
# at the length budget. A hypothesis's row is CHECK_TABLE's row for its last
# token. Row values repeat, so children tie with each other and with EOS
# candidates; a bank between two non-empty ones stays empty; EOS candidates
# finish inside the window and their bank's slots; and a complete
# hypothesis whose argmax is not EOS is forced to finish at the budget.
# Found by search: it tells the step from copies with the token tie-break,
# the EOS tie-break, the slot remainder, the next beam's token order, the
# argmax, the window, the backfill or the forced children's dedup changed.
CHECK_PHRASES = ((3, 4), (2,))
CHECK_BEAM = [((2, 3), -0.5, (1, 1), 2), ((4, 4), -1.0, (0, 0), 0), ((4, 5), -1.0, (0, 0), 0)]
_NO = -math.inf  # BOS, never a next token
CHECK_TABLE = {
    2: [_NO, -0.5, -0.5, -0.5, -1.0, -1.0],
    3: [_NO, -0.5, -2.0, -2.0, -0.5, -0.5],
    4: [_NO, -1.0, -0.5, -1.0, -1.0, -0.5],
    5: [_NO, -2.0, -1.0, -2.0, -2.0, -2.0],
}
CHECK_STEPS = 4


def step_outputs(take, rows, tokens, last: bool):
    """One step of ``take`` (a ``decode._PythonStep`` or a
    ``CompiledStep``) as plain data, each score as its ``float.hex``:
    the survivors, the finishes, the count of window and slot finishes, and
    the next beam's entries, to which ``take`` advances."""
    survivors, finishes, hard = take(rows, tokens, last)
    survivors = list(survivors)
    finishes = [(parent, score.hex()) for parent, score in finishes]
    beam = []
    if not last:
        take.advance()
        beam = take.beam([tokens[parent] + (tok,) for parent, tok in survivors])
        beam = [(t, lp.hex(), progress, bank) for t, lp, progress, bank in beam]
    return survivors, finishes, hard, beam


def beam_self_check(beam_step) -> bool:
    """Whether ``beam_step`` takes ``CHECK_STEPS`` steps exactly as
    ``decode._PythonStep`` does."""
    from .core import Vocab
    from .decode import _PythonStep

    vocab = Vocab(6)
    steps = [
        _PythonStep(vocab, CHECK_PHRASES, 3, CHECK_BEAM),
        CompiledStep(beam_step, vocab, CHECK_PHRASES, 3, CHECK_BEAM),
    ]
    tokens = [entry[0] for entry in CHECK_BEAM]
    for step in range(CHECK_STEPS):
        rows = [CHECK_TABLE[t[-1]] for t in tokens]
        want, got = (step_outputs(take, rows, tokens, step == CHECK_STEPS - 1) for take in steps)
        if want != got:
            return False
        tokens = [entry[0] for entry in want[3]]
    return True


class _RoundBuffers(ctypes.Structure):
    """``struct tsd_psgd`` of ``_rowkernel.c``."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "vocab", "width", "eos", "lo", "n_content", "per_item", "n_suffix", "n_prefix", "n_tail",
            "fixed_eos", "mean", "capacity", "n_terms", "cur", "best",
        )]
        + [("size", ctypes.c_int64 * 2)]
        + [(name, ctypes.c_void_p) for name in (
            "suffix", "terms", "rows", "score", "parent", "token", "lp", "order", "carry"
        )]
    )


class CompiledRound:
    """``decode._PythonRound``'s interface and results through
    ``tsd_psgd_round``, for a ``decode._SpanScorer``.

    As in ``CompiledStep``, the beam lives in sections each decode
    allocates once, ``lp`` and ``order`` with two sides, and the spans,
    which the kernel never reads, stay with the caller; the kernel breaks
    ties by each item's rank among the beam's spans. The carries have their
    own buffer, two sides of one partial sum per item or, when the EOS row
    is not fixed, the span's terms, in room that doubles as the spans grow:
    it is sized by the rounds the decode runs, never by ``max_span_len``.
    """

    def __init__(self, kernel, scorer, vocab, params) -> None:
        width, size = params.beam_width, vocab.size
        per_item, content = len(scorer.pieces), vocab.content_ids
        prefix, tail, suffix = scorer.prefix_terms, scorer.tail_terms, scorer.suffix
        # The kernel reads each item's suffix rows and, unless it is fixed, its
        # EOS row, and indexes them with the suffix ids, checking neither.
        if len(suffix) + (not scorer.fixed_eos) > per_item or any(not 0 <= tok < size for tok in suffix):
            raise ValueError(f"the suffix {suffix} does not fit {per_item} rows of {size} per item")
        self.scoring, self.include_eos_in_len = params.scoring, params.include_eos_in_len
        self.fixed_eos, self.n_terms = scorer.fixed_eos, 0
        # The root: one item, the empty span, log-prob 0.0, tie rank 0.
        buffers = self.buffers = _RoundBuffers(
            size, width, vocab.eos_id, content[0], len(content), per_item, len(suffix), len(prefix), len(tail),
            scorer.fixed_eos, params.scoring == SCORING_MEAN_LOGPROB, 0, 0, 0, 0, (1, 0),
        )
        views = self.views = _sections(
            buffers,
            (("rows", width * per_item * size), ("terms", len(prefix) + len(tail)), ("score", width),
             ("lp", 2 * width)),
            (("suffix", len(suffix)), ("parent", width), ("token", width), ("order", 2 * width)),
        )
        views["terms"][:] = prefix + tail
        views["suffix"][:] = suffix
        self.carries = np.zeros((2, width, 1 if scorer.fixed_eos else 8))
        if scorer.fixed_eos:
            self.carries[0, 0, 0] = scorer.root
        self._set_carries()
        self.kernel, self.address = kernel, ctypes.addressof(buffers)
        self.block = views["rows"].reshape(width * per_item, size)

    def _set_carries(self) -> None:
        carries, buffers = self.carries, self.buffers
        buffers.capacity = carries.shape[2]
        buffers.carry = ctypes.addressof(ctypes.c_char.from_buffer(carries))

    def __call__(self, rows, spans: list[tuple[int, ...]], length: int, expand: int, best: float):
        self.block[: len(rows)] = rows
        k = self.kernel(self.address, length_term(length, self.scoring, self.include_eos_in_len), best, expand)
        if k < 0:
            raise MemoryError("tsd_psgd_round could not allocate its children")
        views, top = self.views, self.buffers.best
        children = []
        if k:
            children = list(zip(views["parent"][:k].tolist(), views["token"][:k].tolist()))
        return top, views["score"].item(top), children

    def scores(self) -> list[float]:
        return self.views["score"][: self.buffers.size[self.buffers.cur]].tolist()

    def advance(self) -> None:
        buffers = self.buffers
        buffers.cur ^= 1
        self.n_terms = buffers.n_terms = self.n_terms + 1
        capacity = self.carries.shape[2]
        if not self.fixed_eos and self.n_terms == capacity:
            grown = np.zeros((2, buffers.width, 2 * capacity))
            grown[:, :, :capacity] = self.carries
            self.carries = grown
            self._set_carries()

    def beam(self) -> list:
        buffers = self.buffers
        side, m = buffers.cur, buffers.size[buffers.cur]
        first = side * buffers.width
        lps = self.views["lp"][first : first + m].tolist()
        carries = self.carries[side, :m].tolist()
        if self.fixed_eos:
            return [(lp, carry[0]) for lp, carry in zip(lps, carries)]
        return [(lp, tuple(carry[: self.n_terms])) for lp, carry in zip(lps, carries)]


def round_outputs(take, rows, spans, length: int, expand: int, best: float):
    """One round of ``take`` (a ``decode._PythonRound`` or a
    ``CompiledRound``) as plain data, each float as its ``float.hex``: every
    item's score, the first-ranked item and its score, the children, and
    their (span log-prob, carry) entries, to which ``take`` advances."""
    top, score, children = take(rows, spans, length, expand, best)
    scores = [x.hex() for x in take.scores()]
    beam = []
    if children:
        take.advance()
        for lp, carry in take.beam():
            beam.append((lp.hex(), carry.hex() if isinstance(carry, float) else tuple(t.hex() for t in carry)))
    return scores, top, score.hex(), children, beam


class _CheckModel:
    """The model of ``psgd_self_check``'s rounds: vocab 6 (content ids 2-5)
    and order ``order``; the row after BOS + a prefix is CHECK_ROUND_TABLE's
    row for the prefix's last token (BOS for the empty prefix)."""

    def __init__(self, order: int) -> None:
        from .core import Vocab

        self.vocab, self.order = Vocab(6), order
        self.table = {tok: np.array(row) for tok, row in CHECK_ROUND_TABLE.items()}

    def rows_after(self, source, prefixes) -> list:
        return [self.table[prefix[-1] if prefix else 0] for prefix in prefixes]


# Rounds the compiled PSGD round must reproduce, byte for byte, before it is
# used: (order, prefix, suffix, scoring, include_eos_in_len, rounds), each
# at beam width 3. Every round but the last expands (the odd ones only if
# they beat a best of -inf); the last is told that its own best score is the
# best so far, so it must not expand. The first keeps each span's terms
# (its suffix is shorter than the order), the second a partial sum; both
# read a suffix term the span changes. Row values repeat, so scores tie in
# the expansion and in the best, and some are not short binary fractions,
# so a sum added in another order changes bytes. Found by search: it tells
# the round from copies with the item tie-break, the tie going to the last
# item, the strict best (in the round or against the best so far), the
# EOS-first addition order, the carry kind, the children's token tie-break
# or the next beam's tie ranks changed.
CHECK_ROUND_TABLE = {
    0: [_NO, -0.3, -0.3, -0.7, -1.0, -1.0],
    2: [_NO, -0.5, -1.1, -0.7, -0.5, -0.7],
    3: [_NO, -1.0, -0.3, -0.7, -1.1, -0.3],
    4: [_NO, -0.75, -0.7, -0.25, -1.1, -0.25],
    5: [_NO, -0.3, -0.5, -0.7, -0.3, -0.75],
}
CHECK_ROUNDS = (
    (3, (4, 3), (3,), "mean_logprob", True, 3),
    (1, (5, 5), (3, 3, 4), "prob_over_length", True, 3),
)


def psgd_self_check(psgd_round) -> bool:
    """Whether ``psgd_round`` scores and expands every round of
    ``CHECK_ROUNDS`` exactly as ``decode._PythonRound`` does."""
    from .decode import EXPAND_ALWAYS, EXPAND_IF_BETTER, EXPAND_NEVER, PsgdParams, _PythonRound, _SpanScorer

    for order, p, s, scoring, include_eos_in_len, rounds in CHECK_ROUNDS:
        model = _CheckModel(order)
        scorer = _SpanScorer(model, (), p, s)
        params = PsgdParams(beam_width=3, scoring=scoring, include_eos_in_len=include_eos_in_len)
        takes = [_PythonRound(scorer, model.vocab, params), CompiledRound(psgd_round, scorer, model.vocab, params)]
        spans = [()]
        for n in range(rounds):
            rows = model.rows_after((), [p + span + piece for span in spans for piece in scorer.pieces])
            length = len(p) + n + len(s)
            expand, best = (EXPAND_IF_BETTER, -math.inf) if n % 2 else (EXPAND_ALWAYS, -math.inf)
            if n == rounds - 1:
                expand, best = EXPAND_IF_BETTER, takes[0](rows, spans, length, EXPAND_NEVER, best)[1]
            want, got = (round_outputs(take, rows, spans, length, expand, best) for take in takes)
            if want != got:
                return False
            spans = [spans[parent] + (tok,) for parent, tok in want[3]]
    return True
