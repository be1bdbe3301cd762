"""The compiled kernel: build, cache, load and check ``_rowkernel.c``.

``_rowkernel.c`` exports three functions, each named ``tsd_`` and its
``Functions`` field and each the C twin of Python code: ``tsd_block`` is
``lm.NgramGenModel._python_rows``, the finished rows of a block of contexts
(``_row_keys``, then one ``rng.Stream.dirichlet`` row per key, finished by
``lm._numpy_finalize``), ``tsd_beam_search`` is ``decode._python_search``,
the full-sentence beam search, and ``tsd_psgd_round`` is
``decode._PythonRound``, one PSGD scoring round. The block adds a row up in
numpy's ``add.reduce`` order, which its check compares rather than
assumes. This module holds no state:
``rng.compiled()`` calls ``load`` once per process, on the first n-gram row
block, beam search or PSGD round, never on import. ``lm`` and ``decode`` then
use each function that passed its check, and the much slower Python code
otherwise.

``load`` builds the kernel with the C compiler the running Python was built
with (``sysconfig``'s ``CC``) and ``FLAGS``, which keep every float
operation as the source writes it: never fast-math or ``-march=native``,
as a fused multiply-add or a reordered sum changes bytes. The shared object
is cached in ``cache_dir()``, a directory only its owner may write, under a
64-bit name, ``zlib``'s CRC-32 and Adler-32 checksums of the source, the
compile command and the platform, so a changed source or compiler builds a
new file. Both checksums run in C over the bytes at once, and the name
needs no ``hashlib``, which loads OpenSSL into the process. It is written
to a temporary file and moved into place, so processes that build it at
once never load half a file.

Each function is checked before it is used, next to its Python twin, by a
check of its own. ``lm.block_self_check`` finishes ``lm.CHECK_BLOCKS`` both
ways and requires the same bytes: blocks of several vocabularies and
concentrations, whose rows cover the Dirichlet row's branches and every
branch of numpy's sum, and tell it from any one of its rules changed;
``beam_search_self_check`` runs the ``CHECK_SEARCHES`` decodes with both
searches, on cold check models and on warm ones, and requires the same
finishes, final beams, scores and counts, byte for byte; ``psgd_self_check`` scores the ``CHECK_ROUNDS`` with
both rounds and requires the same scores, best items, children and
carries, byte for byte. The two search checks refuse a take whose buffers
hold a NULL pointer before they call the kernel, which would crash the
process rather than fail the check. The checks run inside
``rng.compiled()``'s lock, so they call the Python twins, never
``lm.NgramGenModel._finished_rows``, which would wait for it. A function
that fails its check is replaced by its Python twin alone, so a row
mismatch leaves the compiled beam search and round in use, and so on. No
compiler, or a failed build or load, leaves all three to Python, exactly as
without the kernel. Without a compiler that is silent; any other failure is
reported by one ``RuntimeWarning``. The cache holds code, never rows: every
command still draws every row it reads.
"""

from __future__ import annotations

import ctypes
import math
from array import array
import os
import shlex
import shutil
import sysconfig
import warnings
import zlib
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import STOP_EMPTY_BEAM, STOP_MAX_LEN
from .lm import _Index, block_self_check
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
    ``name`` holds ``tsd_<name>``: ``block`` returns the finished rows of
    a block of an n-gram model's contexts, ``beam_search`` runs a
    full-sentence beam search and ``psgd_round`` scores a PSGD round."""

    block: object = None
    beam_search: object = None
    psgd_round: object = None


def load(directory: Path | None = None) -> Functions:
    """The kernel's functions from ``directory`` (``cache_dir()`` by
    default), built there first if it is not there yet, each kept only if it
    passes its own check: ``lm.block_self_check`` for ``tsd_block``,
    ``beam_search_self_check`` for ``tsd_beam_search`` and
    ``psgd_self_check`` for ``tsd_psgd_round``. Each failure is reported as one warning, except a
    missing compiler."""
    cc = compiler()
    if cc is None or shutil.which(cc[0]) is None:
        return Functions()
    try:
        command = [*cc, *FLAGS]
        directory = cache_dir() if directory is None else directory
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(directory)
        data = SOURCE.read_bytes() + "\0".join([*command, sysconfig.get_platform()]).encode()
        path = directory / f"rowkernel-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so"
        if not path.exists():
            _compile(command, path)
        block, beam_search, psgd_round = _open(path)
    except Exception as exc:  # whatever fails, rows are drawn, beams searched and rounds scored in Python
        _warn("kernel", repr(exc), "rows are drawn, beams searched and PSGD rounds scored in Python")
        return Functions()

    return Functions(
        _checked(block, block_self_check, "row block", "rows are drawn in Python"),
        _checked(beam_search, beam_search_self_check, "beam search", "beams are searched in Python"),
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
    block, beam_search, psgd_round = functions
    beam_search.argtypes = (ctypes.c_void_p,)
    beam_search.restype = ctypes.c_int64
    psgd_round.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_int64)
    psgd_round.restype = ctypes.c_int64
    # The contexts come as one bytes object of packed int64s.
    block.argtypes = (ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p,
                      ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_double,
                      ctypes.POINTER(ctypes.c_double))
    block.restype = None
    return functions


def _pointers_set(buffers) -> bool:
    """Whether every pointer field of ``buffers`` is set, but those it
    names ``optional``. A misspelt section name sets a Python attribute
    instead of its field, and the kernel would read or write through NULL,
    ending the process instead of failing a check."""
    optional = getattr(buffers, "optional", ())
    return all(getattr(buffers, name) for name, kind in buffers._fields_ if kind is ctypes.c_void_p
               and name not in optional)


def _address(array: np.ndarray) -> int:
    """The address of a non-empty array's data, read through
    ``c_char.from_buffer``, without the dict that ``__array_interface__``
    builds."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _sections(struct, reals, ints) -> dict[str, np.ndarray]:
    """One decode's buffers: a zeroed float64 array cut into the ``reals``
    sections and a zeroed int64 array cut into the ``ints`` sections, each a
    ``(name, length)`` pair, in order. Each name is a pointer field of
    ``struct``, set to its section's address; returns each section's numpy
    view by name. numpy arrays, not ctypes ones: each ctypes
    array length is a new type that ctypes keeps for the life of the
    process."""
    views = {}
    for dtype, sections in ((np.float64, reals), (np.int64, ints)):
        if not sections:
            continue
        array = np.zeros(sum(length for _, length in sections), dtype)
        base, at = _address(array), 0
        for name, length in sections:
            setattr(struct, name, base + 8 * at)
            views[name] = array[at : at + length]
            at += length
    return views


class _SearchBuffers(ctypes.Structure):
    """``struct tsd_search`` of ``_rowkernel.c``."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "vocab", "width", "eos", "bos", "lo", "n_content", "n_phrases", "complete", "n_context", "max_len",
            "capacity", "finish_room", "bits", "slot_width", "old_bits", "old_width", "n_queued", "step", "cur",
        )]
        + [("size", ctypes.c_int64 * 2)]
        + [(name, ctypes.c_int64) for name in (
            "forward_passes", "positions", "emitted", "hard", "empty_beam", "n_finished", "n_finish_ids", "n_wanted",
        )]
        + [(name, ctypes.c_void_p) for name in (
            "index", "old_index", "queued", "phrases", "starts", "rows", "parent", "token", "finished",
            "finish_score", "lp", "progress", "bank", "order", "tokens", "wanted",
        )]
    )
    # Pointers that ``CompiledSearch`` sets for each call, NULL when there is
    # nothing to read.
    optional = ("index", "old_index", "queued")


# Finishes per beam slot that one call of the search can hold before it
# returns for the caller to read them, and the tokens a hypothesis has room
# for at first: a longer decode returns to have the room doubled.
FINISH_ROOM = 4
INITIAL_CAPACITY = 64


class CompiledSearch:
    """``decode._python_search`` of one decode of ``model`` from ``source``
    through ``tsd_beam_search``, called with no argument.

    The search lives in the sections of ``_SearchBuffers`` (``_sections``),
    which each decode allocates once, but for those sized by ``capacity``,
    which double when the hypotheses outgrow them; ``lp``, ``progress``,
    ``bank``, ``order`` and ``tokens`` hold two sides, side s starting at s
    times the side's length. The kernel reads each hypothesis's row through
    the source's index (``lm._Index``) and runs the whole loop in one call.
    It returns early when a step needs room for its tokens or finishes, or
    rows the memo lacks: Python then reads the finishes, grows the sections
    or looks up the wanted prefixes with ``rows_after``, whose ``_draw``
    draws and queues the missing rows, and calls again to resume that step.
    A warm decode is one call.
    """

    def __init__(self, kernel, model, source: tuple[int, ...], constraints: tuple[tuple[int, ...], ...],
                 beam_width: int, max_len: int, capacity: int = INITIAL_CAPACITY) -> None:
        vocab, width, n = model.vocab, beam_width, len(constraints)
        content = vocab.content_ids
        flat = [tok for phrase in constraints for tok in phrase]
        # The kernel indexes its rows with these without checking them.
        if any(not content[0] <= tok <= content[-1] for tok in flat):
            raise ValueError(f"a phrase of {constraints} holds a non-content id")
        room = FINISH_ROOM * width
        # The root: one hypothesis, no tokens, log-prob 0.0, no progress.
        buffers = self.buffers = _SearchBuffers(
            vocab.size, width, vocab.eos_id, vocab.bos_id, content[0], len(content), n, len(flat), model.order,
            max_len, min(max_len, capacity), room, size=(1, 0),
        )
        views = self.views = _sections(
            buffers,
            (("rows", width * vocab.size), ("lp", 2 * width), ("finish_score", room)),
            (("phrases", len(flat)), ("starts", n + 1), ("progress", 2 * width * n), ("bank", 2 * width),
             ("order", 2 * width), ("parent", width), ("token", width), *self._sized()),
        )
        self.tokens = views["tokens"].reshape(2 * width, buffers.capacity)
        views["phrases"][:] = flat
        views["starts"][:] = list(accumulate(map(len, constraints), initial=0))
        self.kernel, self.address, self.model, self.source = kernel, ctypes.addressof(buffers), model, source
        self.index, self.table = model._indexes.get(source), None
        if self.index is None:
            # The first search of the source queues each row the memo holds.
            memo = model._row_cache.get(source, {})
            self.index = model._indexes[source] = _Index(
                [((context,), row.__array_interface__["data"][0]) for context, row in memo.items()]
            )

    def _sized(self) -> tuple:
        """The sections sized by ``capacity``: the finishes' ids, the
        hypotheses' tokens and the wanted prefixes."""
        buffers = self.buffers
        width, capacity = buffers.width, buffers.capacity
        return (("finished", buffers.finish_room * (capacity + 1)), ("tokens", 2 * width * capacity),
                ("wanted", width * (capacity + 1)))

    def _grow(self) -> None:
        """Double ``capacity``, up to ``max_len``, in new sections keeping
        both sides' tokens. The finishes and the wanted prefixes were read
        first."""
        buffers, tokens = self.buffers, self.tokens
        buffers.capacity = min(2 * buffers.capacity, buffers.max_len)
        self.views.update(_sections(buffers, (), self._sized()))
        self.tokens = self.views["tokens"].reshape(2 * buffers.width, buffers.capacity)
        self.tokens[:, : tokens.shape[1]] = tokens

    def _queue(self) -> None:
        """Point the kernel's next call at the source's index, with the rows
        it lacks queued for it to enter. The index is made to have room
        first, at most 3/4 full and each slot wide enough for every
        context: a table that must grow is replaced by a zeroed one, and the
        kernel moves the old entries into it before the queued ones. The
        call must follow, or those rows are lost to the index."""
        index, buffers = self.index, self.buffers
        pending, index.pending = index.pending, []
        queued, width, old = array("q"), index.width, None
        for contexts, address in pending:
            lengths = [*map(len, contexts)]
            width = max(width, 2 + max(lengths))
            queued.extend((len(contexts), address, *lengths, *chain.from_iterable(contexts)))
            index.count += len(contexts)
        if index.table is None or 4 * index.count > 3 << index.bits or width > index.width:
            bits, old = max(index.bits, 4), index.table
            while 4 * index.count > 3 << bits:
                bits += 1
            buffers.old_index = None if old is None else old.buffer_info()[0]
            buffers.old_bits, buffers.old_width = index.bits, index.width
            index.table, index.bits, index.width = array("q", [0]) * (width << bits), bits, width
        if index.table is not self.table:
            self.table = index.table
            buffers.index, buffers.bits, buffers.slot_width = index.table.buffer_info()[0], index.bits, index.width
        buffers.queued, buffers.n_queued = queued.buffer_info()
        # Both are read by the kernel's next call.
        self.held = old, queued

    def _records(self, name: str, n: int) -> list[tuple[int, ...]]:
        """The first ``n`` ids of the section ``name`` as the records they
        hold, each a length and that many ids."""
        ids, at, records = self.views[name][:n].tolist(), 0, []
        while at < n:
            records.append(tuple(ids[at + 1 : at + 1 + ids[at]]))
            at += 1 + ids[at]
        return records

    def _read_finishes(self, finished: dict) -> None:
        buffers = self.buffers
        if buffers.n_finished:
            tokens = self._records("finished", buffers.n_finish_ids)
            for t, score in zip(tokens, self.views["finish_score"][: buffers.n_finished].tolist()):
                finished.setdefault(t, score)
            buffers.n_finished = buffers.n_finish_ids = 0

    def __call__(self):
        """The finished sequences with their raw scores, the final beam and
        the counts, as ``decode._python_search`` returns them."""
        buffers, finished, step, returns = self.buffers, {}, -1, 0
        self._queue()
        while status := self.kernel(self.address):
            if status < 0:
                raise MemoryError("tsd_beam_search could not allocate its candidates")
            # A step returns at most twice: for room, then for its rows.
            returns, step = (returns + 1 if buffers.step == step else 1), buffers.step
            if returns > 2:
                raise RuntimeError(f"step {step} returned three times: rows_after left a row out of the memo")
            self._read_finishes(finished)
            if step == buffers.capacity < buffers.max_len:
                self._grow()
            if buffers.n_wanted:
                self.model.rows_after(self.source, self._records("wanted", buffers.n_wanted))
            self._queue()
        self._read_finishes(finished)
        views, n, m, width = self.views, buffers.n_phrases, buffers.size[buffers.cur], buffers.width
        first = buffers.cur * width
        lps, banks = views["lp"][first : first + m].tolist(), views["bank"][first : first + m].tolist()
        progress = views["progress"][first * n : (first + m) * n].tolist()
        tokens = self.tokens[first : first + m, : buffers.step].tolist()
        beam = [(tuple(t), lps[b], tuple(progress[b * n : (b + 1) * n]), banks[b]) for b, t in enumerate(tokens)]
        stop = STOP_EMPTY_BEAM if buffers.empty_beam else STOP_MAX_LEN
        return finished, beam, (buffers.forward_passes, buffers.positions, buffers.emitted, stop)


# Decodes the compiled beam search must reproduce, byte for byte, before it
# is used: (model, source, constraints, beam width, max_len). "ngram" is an
# order-2 n-gram model over vocab 8, "tied" an order-1 table model over vocab
# 6 whose rows tie EOS with content ids and content ids with each other, and
# "uniform" the uniform model over vocab 5, where every candidate ties.
CHECK_SEARCHES = (
    ("ngram", (2, 5), (), 2, 10),
    ("ngram", (2, 5, 4), ((3,), (5, 2)), 3, 9),
    ("ngram", (2, 5, 4), ((4, 4),), 2, 6),
    ("ngram", (3, 4), (), 4, 7),
    ("ngram", (3, 4), (), 4, 3),
    ("ngram", (3, 4), (), 1, 5),
    ("ngram", (5,), ((5,),), 2, 0),
    ("tied", (2,), (), 3, 4),
    ("tied", (3,), ((4, 5),), 2, 5),
    ("uniform", (2,), ((3,),), 3, 3),
)
CHECK_CAPACITY = 4
_A = (0.0, 0.25, 0.25, 0.25, 0.125, 0.125)
_B = (0.0, 0.125, 0.125, 0.25, 0.25, 0.25)


def _check_model(name: str, drawn: dict):
    """A new check model ``name``. An n-gram model's rows are drawn by the
    Python twin, never ``lm.NgramGenModel._finished_rows``, which would wait
    for the lock the checks run under, each once into ``drawn``, which the
    check's models share."""
    from .core import Vocab
    from .lm import NgramGenModel, TableModel, UniformModel

    if name == "ngram":
        model = NgramGenModel(Vocab(6), 2, 182, 1.0)

        def finished_rows(source, contexts):
            new = [context for context in contexts if (source, context) not in drawn]
            if new:
                drawn.update(zip([(source, context) for context in new], model._python_rows(source, new)))
            return np.array([drawn[source, context] for context in contexts])

        model._finished_rows = finished_rows
        return model
    if name == "tied":
        rows = [_A, _B, _A, _B, _A, _B, _A, _B, _A, _B]
        contexts = [(src, (ctx,)) for src in (2, 3) for ctx in (0, 2, 3, 4, 5)]
        return TableModel(Vocab(6), 1, {((src,), ctx): row for (src, ctx), row in zip(contexts, rows)})
    return UniformModel(Vocab(5))


def search_outcome(result) -> tuple:
    """A search's (finished, beam, counts) as plain data, each score as its
    ``float.hex``, the finishes in the order they were marked."""
    finished, beam, counts = result
    return (
        [(tokens, score.hex()) for tokens, score in finished.items()],
        [(tokens, lp.hex(), progress, bank) for tokens, lp, progress, bank in beam],
        counts,
    )


def beam_search_self_check(beam_search) -> bool:
    """Whether ``beam_search`` decodes every decode of ``CHECK_SEARCHES``
    exactly as ``decode._python_search`` does, three times: on a cold model
    with room for ``CHECK_CAPACITY`` tokens, so that the search returns to
    grow it and for rows, and resumes; on the same model warm, in one call
    that reads every row it indexed; and on the model the Python search
    filled, whose rows the first search of a source indexes."""
    from .decode import _python_search

    drawn = {}
    for name, source, constraints, width, max_len in CHECK_SEARCHES:
        filled, cold = _check_model(name, drawn), _check_model(name, drawn)
        want = search_outcome(_python_search(filled, source, constraints, width, max_len))
        for model, capacity in ((cold, CHECK_CAPACITY), (cold, INITIAL_CAPACITY), (filled, INITIAL_CAPACITY)):
            take = CompiledSearch(beam_search, model, source, constraints, width, max_len, capacity)
            if not _pointers_set(take.buffers) or search_outcome(take()) != want:
                return False
    return True


class _RoundBuffers(ctypes.Structure):
    """``struct tsd_psgd`` of ``_rowkernel.c``."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "vocab", "width", "eos", "lo", "n_content", "per_item", "n_suffix", "n_head", "n_tail",
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

    As in ``CompiledSearch``, the beam lives in sections each decode
    allocates once, ``lp`` and ``order`` with two sides, and the spans,
    which the kernel never reads, stay with the caller; the kernel breaks
    ties by each item's rank among the beam's spans. The carries, each
    item's span terms, have their own buffer of two sides, in room that
    doubles as the spans grow: it is sized by the rounds the decode runs,
    never by ``max_span_len``.
    """

    def __init__(self, kernel, scorer, vocab, params) -> None:
        width, size = params.beam_width, vocab.size
        per_item, content = len(scorer.pieces), vocab.content_ids
        head, tail, suffix = scorer.head_terms, scorer.tail_terms, scorer.suffix
        # The kernel reads each item's suffix rows and, unless it is fixed, its
        # EOS row, and indexes them with the suffix ids, checking neither.
        if len(suffix) + (not scorer.fixed_eos) > per_item or any(not 0 <= tok < size for tok in suffix):
            raise ValueError(f"the suffix {suffix} does not fit {per_item} rows of {size} per item")
        self.scoring, self.include_eos_in_len = params.scoring, params.include_eos_in_len
        # The root: one item, the empty span, log-prob 0.0, tie rank 0.
        buffers = self.buffers = _RoundBuffers(
            size, width, vocab.eos_id, content[0], len(content), per_item, len(suffix), len(head), len(tail),
            scorer.fixed_eos, params.scoring == SCORING_MEAN_LOGPROB, 0, 0, 0, 0, (1, 0),
        )
        views = self.views = _sections(
            buffers,
            (("rows", width * per_item * size), ("terms", len(head) + len(tail)), ("score", width),
             ("lp", 2 * width)),
            (("suffix", len(suffix)), ("parent", width), ("token", width), ("order", 2 * width)),
        )
        views["terms"][:] = head + tail
        views["suffix"][:] = suffix
        self._set_carries(np.zeros((2, width, 8)))
        self.kernel, self.address = kernel, ctypes.addressof(buffers)
        self.block = views["rows"].reshape(width * per_item, size)

    def _set_carries(self, carries: np.ndarray) -> None:
        self.carries, buffers = carries, self.buffers
        buffers.capacity = carries.shape[2]
        buffers.carry = _address(carries)

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
        buffers.n_terms += 1
        capacity = self.carries.shape[2]
        if buffers.n_terms == capacity:
            grown = np.zeros((2, buffers.width, 2 * capacity))
            grown[:, :, :capacity] = self.carries
            self._set_carries(grown)

    def beam(self) -> list:
        buffers = self.buffers
        side, m, n = buffers.cur, buffers.size[buffers.cur], buffers.n_terms
        first = side * buffers.width
        lps = self.views["lp"][first : first + m].tolist()
        return [(lp, tuple(carry[:n])) for lp, carry in zip(lps, self.carries[side, :m].tolist())]


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
        beam = [(lp.hex(), tuple(term.hex() for term in carry)) for lp, carry in take.beam()]
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
# best so far, so it must not expand. The first reads each item's EOS term
# from its last row (its suffix is shorter than the order), the second a
# fixed EOS head term; both read a suffix term the span changes. Row values
# repeat, so scores tie in the expansion and in the best, and some are not
# short binary fractions, so a sum added in another order changes bytes.
# Found by search: it tells the round from copies with the item tie-break,
# the tie going to the last item, the strict best (in the round or against
# the best so far), the EOS-first addition order, the span's terms added
# one by one, the children's token tie-break or the next beam's tie ranks
# changed, and from copies that skip the fixed EOS term or read it from
# the item's row.
_NO = -math.inf  # BOS, never a next token
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
        if not _pointers_set(takes[1].buffers):
            return False
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
