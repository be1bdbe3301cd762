"""The compiled kernel: build, cache, load and check ``_rowkernel.c``.

``_rowkernel.c`` exports three functions, each named ``tsd_`` and its
``Functions`` field and each the C twin of Python code: ``tsd_block`` is
``lm.NgramGenModel._python_rows``, the finished rows of a block of contexts
(``_row_keys``, then one ``rng.Stream.dirichlet`` row per key, finished by
``lm._numpy_finalize``), ``tsd_beam_search`` is ``decode._python_search``,
the full-sentence beam search, and ``tsd_psgd_search`` is
``decode._python_psgd``, the PSGD search, each run by a model's decode
context of its kind, ``CompiledSearch`` or ``CompiledPsgd``, through the
resume loop they share (``_Resumable``). A context holds the kernel's
struct and the two arrays its sections are cut from; the model makes it
on its first compiled decode of that kind and every later one reuses it,
writing only its inputs and resetting the search's state, so a decode of
a shape seen before builds no buffers. When the row block passed its
check and numpy's float64 log loop passed its own (``log_loop``), a search
draws the rows a step misses of an n-gram model itself, with the block's
code, writes their log with that loop and enters them into the memo's
index, in that order, and goes on: it returns to Python only when the
model's chunk, the index or its room for tokens is full, and Python then
claims the chunk rows it drew. The index is those rows' only memo, which
``lm.SequenceModel.rows_after`` reads when Python asks for one of them.
Otherwise it returns the contexts it misses, Python draws their rows and its
next call enters them into the index. The block adds a row up in numpy's
``add.reduce`` order, which its check compares rather than assumes. This module
holds no state, and the contexts belong to their models: ``rng.compiled()``
calls ``log_loop`` and ``load`` once per process, on the first n-gram row
block, beam search or PSGD decode, never on import. ``lm`` and ``decode`` then
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
``beam_search_self_check`` and ``psgd_self_check`` run the
``CHECK_SEARCHES`` and ``CHECK_DECODES`` with both searches, cold and warm,
on new contexts and on one that another check decode left mid-decode
(``_decodes_match``), and require the same results and the same memo, byte
for byte, over the route a missed row takes, first refusing a call whose
context holds a NULL pointer, which would crash the process rather than
fail the check. The log loop is numpy's own, not this file's: ``log_loop``
reads it from ``np.log``'s table of loops and keeps it only if it writes
``np.log``'s bytes over a fixed block. The checks run inside
``rng.compiled()``'s lock, so their n-gram rows (``CheckRows``) never come
from ``lm.NgramGenModel._finished_rows``, which would wait for it. A
function that fails its check is replaced by its Python twin alone, and a
log loop that cannot be found or fails its check sends every missed row to
``lm.SequenceModel._draw``. No compiler, or a failed build or load, leaves
all three to Python, exactly as without the kernel. Without a compiler that
is silent; any other failure is reported by one ``RuntimeWarning``. The
cache holds code, never rows: every command still draws every row it
reads.
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
from functools import cache, partial
from itertools import accumulate, chain
from operator import gt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import STOP_EMPTY_BEAM, STOP_MAX_LEN, STOP_PATIENCE
from .decode import PsgdParams, _SpanScorer, _python_psgd, _python_search, _span_shape
from .lm import CHUNK_ROWS, EPS_FLOOR, _Index, block_self_check
from .scoring import SCORING_MEAN_LOGPROB

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
    full-sentence beam search and ``psgd_search`` a PSGD search."""

    block: object = None
    beam_search: object = None
    psgd_search: object = None


def load(directory: Path | None = None, log: LogLoop | None = None) -> Functions:
    """The kernel's functions from ``directory`` (``cache_dir()`` by
    default), built there first if it is not there yet, each kept only if it
    passes its own check: ``lm.block_self_check`` for ``tsd_block``,
    ``beam_search_self_check`` for ``tsd_beam_search`` and
    ``psgd_self_check`` for ``tsd_psgd_search``, which share the n-gram
    rows they draw, by the block when it passed, and draw their own missed
    rows with ``log``, the loop ``log_loop`` returned, when it is given and
    the block passed. Each failure is reported as one warning, except a
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
        block, beam_search, psgd_search = _open(path)
    except Exception as exc:  # whatever fails, rows are drawn and decodes run in Python
        _warn("the compiled kernel", repr(exc), "rows are drawn, beams searched and PSGD decodes run in Python")
        return Functions()

    block = _checked(block, block_self_check, "the compiled row block", "rows are drawn in Python")
    rows = CheckRows(block, log)
    return Functions(
        block,
        _checked(beam_search, beam_search_self_check, "the compiled beam search", "beams are searched in Python",
                 rows),
        _checked(psgd_search, psgd_self_check, "the compiled PSGD search", "PSGD decodes run in Python", rows),
    )


def _checked(function, check, name: str, fallback: str, *args):
    """``function`` if ``check(function, *args)`` holds; otherwise None,
    with one warning."""
    try:
        if check(function, *args):
            return function
        problem = "it differs from the Python reference"
    except Exception as exc:  # a check that cannot run rejects the function
        problem = repr(exc)
    _warn(name, problem, fallback)
    return None


def _warn(name: str, problem: str, fallback: str) -> None:
    warnings.warn(f"{name} is not used ({problem}); {fallback}", RuntimeWarning, stacklevel=4)


class LogLoop(NamedTuple):
    """numpy's float64 log loop: the addresses of the inner loop ``np.log``
    runs on float64 arrays and of the data it is called with (0 for none),
    as ``struct tsd_rows`` takes them."""

    function: int
    data: int


class _UFunc(ctypes.Structure):
    """The head of numpy's ``PyUFuncObject`` (``numpy/_core/include/numpy/
    ufuncobject.h``) up to its name: after the object header, the counts of
    inputs and outputs, then the arrays of loops and of their data, one
    entry per type signature of ``ufunc.types``."""

    _fields_ = [("header", ctypes.c_char * object.__basicsize__),
                *((name, ctypes.c_int) for name in ("nin", "nout", "nargs", "identity")),
                ("functions", ctypes.POINTER(ctypes.c_void_p)), ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int), ("name", ctypes.c_char_p)]


def _log_loop() -> LogLoop:
    """The loop ``np.log`` runs on float64: the first ``d->d`` entry of its
    table, as numpy resolves the loop by the first signature that fits.
    Raises when the table does not look like ``np.log``'s."""
    head = _UFunc.from_address(id(np.log))
    # The counts first: a name read at the wrong offset could be any pointer.
    if (head.nin, head.nout, head.ntypes) != (1, 1, len(np.log.types)) or head.name != b"log":
        raise LookupError("np.log's table of loops is not where numpy's ufuncobject.h puts it")
    at = np.log.types.index("d->d")
    return LogLoop(head.functions[at], head.data[at] or 0)


# The block the log loop must write with np.log's bytes: uniforms, the same
# scaled by 1e-6, the floor and 1.0, 2046 entries from the second of the
# array, so that the loop meets an unaligned start and a ragged end.
_UNIFORMS = [k * 0.6180339887498949 % 1.0 for k in range(1, 1023)]
CHECK_LOGS = np.array([math.nan, *_UNIFORMS, *(u * 1e-6 for u in _UNIFORMS), EPS_FLOOR, 1.0])


# A loop's C type: ``tsd_loop`` of ``_rowkernel.c``.
_LOOP = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)


def log_self_check(loop: LogLoop) -> bool:
    """Whether ``loop`` writes the log of ``CHECK_LOGS[1:]`` over it, in
    place, with the bytes of ``np.log``."""
    block = CHECK_LOGS.copy()
    at = _address(block) + 8
    args, steps = (ctypes.c_void_p * 2)(at, at), (ctypes.c_ssize_t * 2)(8, 8)
    dimensions = (ctypes.c_ssize_t * 1)(len(block) - 1)
    _LOOP(loop.function)(args, dimensions, steps, loop.data)
    return block[1:].tobytes() == np.log(CHECK_LOGS[1:]).tobytes()


def log_loop() -> LogLoop | None:
    """numpy's float64 log loop (``_log_loop``) if it passes
    ``log_self_check``; otherwise None, with one warning."""
    fallback = "the rows a compiled search misses are drawn in Python"
    try:
        loop = _log_loop()
    except Exception as exc:  # no loop: misses go to lm.SequenceModel._draw
        _warn("numpy's float64 log loop", repr(exc), fallback)
        return None
    return _checked(loop, log_self_check, "numpy's float64 log loop", fallback)


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
    block, beam_search, psgd_search = functions
    for search in (beam_search, psgd_search):
        search.argtypes = (ctypes.c_void_p,)
        search.restype = ctypes.c_int64
    # The contexts come as one bytes object of packed int64s.
    block.argtypes = (ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p,
                      ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_double,
                      ctypes.POINTER(ctypes.c_double))
    block.restype = None
    return functions


def _pointers_set(buffers) -> bool:
    """Whether every pointer field of ``buffers``, its base's included, is
    set, but those it names ``optional``. A misspelt section name sets a
    Python attribute instead of its field, and the kernel would read or
    write through NULL, ending the process instead of failing a check."""
    return all(getattr(buffers, name) for name in _pointers(type(buffers)))


@cache
def _pointers(struct) -> list[str]:
    """The names of the pointer fields of ``struct`` that must be set."""
    optional = getattr(struct, "optional", ())
    fields = [field for cls in struct.__mro__ for field in vars(cls).get("_fields_", ())]
    return [name for name, kind in fields if kind is ctypes.c_void_p and name not in optional]


def _address(array: np.ndarray) -> int:
    """The address of a non-empty array's data, read through
    ``c_char.from_buffer``, without the dict that ``__array_interface__``
    builds."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _sections(struct, reals, ints) -> dict[str, np.ndarray]:
    """A context's buffers: a zeroed float64 array cut into the ``reals``
    sections and a zeroed int64 array cut into the ``ints`` sections, each a
    ``(name, length)`` pair, in order. Each name is a pointer field of
    ``struct``, set to its section's address once both arrays are made, so
    a failed allocation leaves ``struct`` as it was; returns each section's
    numpy view by name. numpy arrays, not ctypes ones: each ctypes array
    length is a new type that ctypes keeps for the life of the process."""
    views, arrays = {}, [(np.zeros(sum(length for _, length in sections), dtype), sections)
                         for dtype, sections in ((np.float64, reals), (np.int64, ints))]
    for array, sections in arrays:
        base, at = _address(array), 0
        for name, length in sections:
            setattr(struct, name, base + 8 * at)
            views[name] = array[at : at + length]
            at += length
    return views


def _fields(ints: str, pointers: str, **others) -> list:
    """A ``_fields_`` list: an int64 field per name of ``ints``, the
    ``others``, then a pointer field per name of ``pointers``."""
    return ([(name, ctypes.c_int64) for name in ints.split()] + [*others.items()]
            + [(name, ctypes.c_void_p) for name in pointers.split()])


class _Source(ctypes.Structure):
    """``struct tsd_source`` of ``_rowkernel.c``: an n-gram model's
    ``_row_params`` for one source."""

    _fields_ = [*((name, ctypes.c_uint64) for name in ("h_row", "h_alt", "h_coin")),
                *((name, ctypes.c_double) for name in ("rate", "concentration", "scale", "eps"))]


class _RowBuffers(ctypes.Structure):
    """``struct tsd_rows`` of ``_rowkernel.c``, which both searches'
    structs begin with."""

    _fields_ = _fields("vocab bos n_context bits old_bits n_queued step n_wanted chunk_room index_room",
                       "index old_index queued wanted chunk log log_data", source=_Source)
    # Pointers that ``_Resumable._queue`` sets for each call, NULL when
    # there is nothing to read, and those of a search that draws no rows.
    optional = ("index", "old_index", "queued", "chunk", "log", "log_data")


class _SearchBuffers(_RowBuffers):
    """``struct tsd_search`` of ``_rowkernel.c``."""

    _fields_ = _fields(
        "width eos lo n_content n_phrases complete max_len capacity cur forward_passes positions emitted hard"
        " empty_beam best_step",
        "phrases starts lp progress bank tokens best_tokens",
        size=ctypes.c_int64 * 2, best=ctypes.c_double,
    )


class _PsgdBuffers(_RowBuffers):
    """``struct tsd_psgd`` of ``_rowkernel.c``."""

    _fields_ = _fields(
        "width eos lo n_content n_prefix n_suffix n_pieces n_changed fixed_eos mean eos_in_len"
        " patience max_span capacity cur forward_passes positions emitted at_cap best_step",
        "prefix suffix pieces terms parent token lp carry tokens best_tokens",
        size=ctypes.c_int64 * 2, best=ctypes.c_double,
    )


# The tokens a hypothesis or span has room for at first: a longer decode
# returns to have the room doubled, and the context keeps it.
INITIAL_CAPACITY = 64
# A source's first index table has 2^INDEX_BITS slots: room for the 192 rows
# that most cold decodes of a short source read, so that few return for a
# larger table.
INDEX_BITS = 8


class _Resumable:
    """A model's context for the decodes of one compiled search kind
    (``of``): its ``STRUCT`` and the sections of one float64 and one int64
    array that its pointers name, which every decode reuses, one at a time,
    writing its inputs and resetting the state the kernel reads. The
    sections are cut anew only for a decode whose ``shape`` (the model's
    order, the beam width, ...) needs more room than they hold, for the
    largest shape seen. A subclass sets ``_layout(shape, capacity)``, the
    sections by name and length, and ``KEPT``, those of rows of ``capacity``
    entries. Both kinds keep one answer, the first-ranked so far, in ``best``,
    ``best_step`` and ``best_tokens``. A decode (``_run``) resets and reads it
    as it does the root and the counts, and reads its rows through the source's
    index (``lm._Index``); it returns early when a step needs what Python must
    give: rows, room for them, or room for its tokens, whose ``capacity``
    doubles up to the decode's ``limit`` and stays so.

    A missed row takes one of two routes. Given ``log``, numpy's checked
    log loop (``log_loop``), and a model whose rows the kernel draws
    (``_row_params``), the kernel draws the rows a step misses into the model's
    chunk, writes their log and enters them into the index, which is their only
    memo, and Python only claims their chunk rows when it returns (``_kept``);
    when the chunk or the index lacks room for a step's rows, it returns first
    and Python opens a new chunk or sizes a new table. Chunks double
    (``lm.SequenceModel._room``) and a source's first table has
    2^``INDEX_BITS`` slots, so a cold decode seldom returns. Otherwise Python
    draws them through ``_draw`` and the next call enters them into the
    index. Either way no row is reachable before its log is written."""

    KEPT: tuple[str, ...] = ()

    def __init__(self, capacity: int = INITIAL_CAPACITY) -> None:
        self.buffers = self.STRUCT(capacity=capacity)
        self.address, self.vocab, self.shape, self.views = ctypes.addressof(self.buffers), None, None, {}
        # The row parameters and log loop the struct holds, as ``_start`` bound them.
        self.bound = None

    @classmethod
    def of(cls, model):
        """The context of ``model`` for this kind, made on its first decode
        and freed with it."""
        context = model._decoders.get(cls)
        if context is None:
            context = model._decoders[cls] = cls()
        return context

    def _start(self, model, source: tuple[int, ...], log: LogLoop | None, shape: tuple[int, ...]) -> None:
        """Bind the context to ``model`` and ``source``, with room for
        ``shape``; the struct's row parameters and log loop are written
        only when they change."""
        buffers = self.buffers
        if model.vocab is not self.vocab or model.order != buffers.n_context:
            vocab = self.vocab = model.vocab
            buffers.vocab, buffers.bos, buffers.eos = vocab.size, vocab.bos_id, vocab.eos_id
            buffers.n_context, buffers.lo, buffers.n_content = model.order, vocab.content_ids[0], len(vocab.content_ids)
        if self.shape is None or any(map(gt, shape, self.shape)):
            # Each dimension but the order rounded up to a power of two, so
            # that decodes that each need a little more room cut seldom.
            shape = tuple(map(max, (shape[0], *(1 << max(n - 1, 0).bit_length() for n in shape[1:])),
                              self.shape or shape))
            self.views = _sections(buffers, *self._layout(shape, buffers.capacity))
            self.shape = shape
        self.model, self.source, self.index = model, source, model._indexes.get(source)
        if self.index is None:
            # The first search of the source queues each row the memo holds.
            memo = model._row_cache.get(source, {})
            self.index = model._indexes[source] = _Index(
                [((context,), row.__array_interface__["data"][0]) for context, row in memo.items()]
            )
        params = model._row_params(source) if log else None
        self.draws = params is not None
        # Bound anew only when they change: a model keeps one ``_row_params``
        # tuple per source.
        if (params, log) != self.bound:
            self.bound = params, log
            if self.draws:
                buffers.source = _Source(*params)
                buffers.log, buffers.log_data = log
            else:
                buffers.log = None

    def _grow(self) -> None:
        """Double ``capacity``, up to ``limit``, in sections cut anew that
        keep every entry, those of the ``KEPT`` ones in their rows."""
        buffers, old, capacity = self.buffers, self.views, self.buffers.capacity
        grown = min(2 * capacity, self.limit)
        self.views = _sections(buffers, *self._layout(self.shape, grown))
        buffers.capacity = grown
        for name, view in old.items():
            new = self.views[name]
            if name in self.KEPT:
                new, view = new.reshape(-1, grown)[:, :capacity], view.reshape(-1, capacity)
            new[: len(view)] = view

    def _queue(self, rows: int = 0) -> None:
        """Point the kernel's next call at the source's index, with the rows
        it lacks queued for it to enter, and, when the kernel draws rows, at
        the free rows of the model's chunk. The index and the chunk are
        given room first for ``rows`` more rows, besides the queued ones: a
        full chunk, or one without that room, is followed by a new one
        (``lm.SequenceModel._room``); a source gets its first table, of
        2^``INDEX_BITS`` slots or more, zeroed, and a table that would be
        more than 3/4 full is replaced by a larger zeroed one, into which
        the kernel moves the old entries before the new ones. With nothing
        pending, no queue is built. The call must follow, or the queued rows are lost to the
        index."""
        index, buffers, model = self.index, self.buffers, self.model
        queued = old = None
        if index.pending:
            pending, index.pending, queued = index.pending, [], array("q")
            for contexts, address in pending:
                queued.extend((len(contexts), address, *map(len, contexts), *chain.from_iterable(contexts)))
                index.count += len(contexts)
            buffers.queued, buffers.n_queued = queued.buffer_info()
        else:
            buffers.n_queued = 0
        if index.table is None or 4 * (index.count + rows) > 3 << index.bits:
            bits, old = max(index.bits, INDEX_BITS), index.table
            while 4 * (index.count + rows) > 3 << bits:
                bits += 1
            buffers.old_bits = index.bits
            index.table, index.bits = array("q", [0]) * ((2 + model.order) << bits), bits
        buffers.old_index = None if old is None else old.buffer_info()[0]
        buffers.index, buffers.bits = index.table.buffer_info()[0], index.bits
        if self.draws:
            model._room(rows or 1)
            buffers.chunk = model._address + 8 * buffers.vocab * model._used
            buffers.chunk_room = len(model._chunk) - model._used
            buffers.index_room = (3 << index.bits >> 2) - index.count
        # Both are read by the kernel's next call.
        self.held = old, queued

    def _kept(self) -> None:
        """Claim the chunk rows the kernel's last call drew, logged and
        entered into the index, those it moved ``chunk`` past, and count
        them into the index, so that no later draw writes over a row the
        index reaches. The index is their only memo: Python reads one of
        them only when it asks for it (``lm.SequenceModel.rows_after``)."""
        if self.draws:
            model, used = self.model, self.model._used
            model._used = (self.buffers.chunk - model._address) // (8 * self.buffers.vocab)
            self.index.count += model._used - used

    def _records(self, name: str, n: int) -> list[tuple[int, ...]]:
        """The first ``n`` ids of the section ``name`` as the records they
        hold, each a length and that many ids. Raises on a length below 0
        or a record past the ``n`` ids, which a faulty kernel would write."""
        ids, at, records = self.views[name][:n].tolist(), 0, []
        while at < n:
            length = ids[at]
            if not 0 <= length < n - at:
                raise ValueError(f"a record of {length} ids at {at} of the {n} in {name}")
            records.append(tuple(ids[at + 1 : at + 1 + length]))
            at += 1 + length
        return records

    def _run(self, kernel) -> tuple[float, tuple[int, ...], tuple[int, int, int]]:
        """Reset the decode to its root, then call ``kernel`` until it is
        done: after each return, claim the rows it drew, and after each
        early one grow the room it lacks, and give it room for the rows it
        wants or draw them with ``_draw``. The context then lets go of the
        model. Returns the best score, its tokens and the counts (forward
        passes, positions scored, emitted steps)."""
        buffers, address, step, returns = self.buffers, self.address, -1, 0
        # The root: one hypothesis or item on side 0, no tokens, log-prob
        # 0.0; and no count or answer yet.
        buffers.size[0] = 1
        buffers.cur = buffers.step = 0
        buffers.forward_passes = buffers.positions = buffers.emitted = 0
        buffers.best, buffers.best_step = -math.inf, 0
        self.views["lp"][0] = 0.0
        try:
            self._queue()
            while status := kernel(address):
                self._kept()
                if status < 0:
                    raise MemoryError(f"{self.NAME} could not allocate its scratch")
                # A step returns at most twice: for room for its tokens, or
                # for a PSGD decode's fixed rows at its first step, then for
                # its rows or room for them, which the next call draws or
                # finds in the index.
                returns, step = (returns + 1 if buffers.step == step else 1), buffers.step
                if returns > 2:
                    raise RuntimeError(f"step {step} returned three times: a row it wanted was left out of the "
                                       "memo's index")
                if step == buffers.capacity < self.limit:
                    self._grow()
                wanted = self._records("wanted", buffers.n_wanted)
                if wanted and not self.draws:
                    self.model._draw(self.source, wanted)
                self._queue(len(wanted) if self.draws else 0)
            self._kept()
        finally:
            self.model = self.index = None
        tokens = tuple(self.views["best_tokens"][: buffers.best_step].tolist())
        return buffers.best, tokens, (buffers.forward_passes, buffers.positions, buffers.emitted)


class CompiledSearch(_Resumable):
    """A model's context for ``decode._python_search`` through
    ``tsd_beam_search`` (``_Resumable``): a call runs one decode of
    ``model`` from ``source`` with the ``kernel``; ``log`` is the log loop
    with which the kernel draws the rows it misses, or None.

    The search lives in the sections of ``_SearchBuffers``. ``lp``,
    ``progress``, ``bank`` and ``tokens`` hold two sides, side s starting at
    s times the decode's side length, so a narrower decode uses the first
    part of each. The kernel breaks a tie on score by the hypotheses'
    tokens, as ``scoring.rank`` does, and keeps only the first-ranked
    finish. A warm decode is one call. The final beam is read only on
    request (``beam``).
    """

    NAME, STRUCT, KEPT = "tsd_beam_search", _SearchBuffers, ("tokens",)

    def __call__(self, kernel, model, source: tuple[int, ...], constraints: tuple[tuple[int, ...], ...],
                 beam_width: int, max_len: int, log: LogLoop | None = None):
        """The best finish's raw score (-inf for none), its tokens and the
        counts, as ``decode._python_search`` returns them."""
        content = model.vocab.content_ids
        lo, hi, flat = content[0], content[-1], [*chain.from_iterable(constraints)]
        # The kernel indexes its rows with these without checking them.
        for tok in flat:
            if not lo <= tok <= hi:
                raise ValueError(f"a phrase of {constraints} holds a non-content id")
        n = len(constraints)
        self._start(model, source, log, (model.order, beam_width, n, len(flat)))
        buffers, views = self.buffers, self.views
        buffers.width, buffers.n_phrases, buffers.complete = beam_width, n, len(flat)
        buffers.max_len = self.limit = max_len
        views["phrases"][: len(flat)] = flat
        views["starts"][: n + 1] = list(accumulate(map(len, constraints), initial=0))
        # The root's progress and bank, and no hard finish yet.
        views["progress"][:n] = 0
        views["bank"][0] = 0
        buffers.hard = buffers.empty_beam = 0
        best, tokens, counts = self._run(kernel)
        return best, tokens, (*counts, STOP_EMPTY_BEAM if buffers.empty_beam else STOP_MAX_LEN)

    @staticmethod
    def _layout(shape, capacity: int) -> tuple:
        """The float64 and the int64 sections for ``shape``, (order, width,
        phrases, phrase tokens), and ``capacity``."""
        order, width, n, complete = shape
        return ((("lp", 2 * width),),
                (("phrases", complete), ("starts", n + 1), ("progress", 2 * width * n), ("bank", 2 * width),
                 ("wanted", width * (1 + order)), ("tokens", 2 * width * capacity), ("best_tokens", capacity)))

    def beam(self):
        """The final beam of the context's last decode, as
        ``decode._python_search`` returns it."""
        buffers, views = self.buffers, self.views
        n, m, width = buffers.n_phrases, buffers.size[buffers.cur], buffers.width
        first = buffers.cur * width
        lps, banks = views["lp"][first : first + m].tolist(), views["bank"][first : first + m].tolist()
        progress = views["progress"][first * n : (first + m) * n].tolist()
        tokens = views["tokens"].reshape(-1, buffers.capacity)[first : first + m, : buffers.step].tolist()
        return [(tuple(t), lps[b], tuple(progress[b * n : (b + 1) * n]), banks[b]) for b, t in enumerate(tokens)]


# Decodes the compiled beam search must reproduce, byte for byte, before it
# is used: (model, source, constraints, beam width, max_len). "ngram" is an
# order-2 n-gram model over vocab 6, "sibling" its perturbed sibling at rate
# 0.5, whose coins land both ways, "tied" an order-1 table model over vocab
# 6 whose rows tie EOS with content ids and content ids with each other,
# "uniform" the uniform model over vocab 5, where every candidate ties, and
# "finish" a table model whose finishes tie (``CHECK_FINISH_TABLE``). The
# last "tied" decode ties children of parents whose scores differ, in the
# order opposite to their tokens'. The last "ngram" decode force-finishes
# nothing: a complete hypothesis alive at its budget would rank first.
CHECK_SEARCHES = (
    ("ngram", (2, 5), (), 2, 10),
    ("ngram", (2, 5, 4), ((3,), (5, 2)), 3, 9),
    ("ngram", (2, 5, 4), ((4, 4),), 2, 6),
    ("ngram", (3, 4), (), 4, 7),
    ("ngram", (3, 4), (), 4, 3),
    ("ngram", (3, 4), (), 1, 5),
    ("ngram", (5,), ((5,),), 2, 0),
    ("ngram", (2, 5, 4), (), 2, 4),
    ("sibling", (2, 5, 4), ((3,),), 3, 6),
    ("tied", (2,), (), 3, 4),
    ("tied", (3,), ((4, 5),), 2, 5),
    ("tied", (3,), ((2, 2), (2,)), 5, 2),
    ("uniform", (2,), ((3,),), 3, 3),
    ("finish", (4,), (), 2, 6),
    ("finish", (5,), (), 2, 3),
)
CHECK_CAPACITY = 4
# Rows of the first chunk of a cold check model: fewer than some steps want.
CHECK_CHUNK_ROWS = 3
# The first index table of a cold check model's source has 2^3 slots: most
# check decodes read more than the 6 rows it takes, and replace it.
CHECK_INDEX_BITS = 3
_A = (0.0, 0.25, 0.25, 0.25, 0.125, 0.125)
_B = (0.0, 0.125, 0.125, 0.25, 0.25, 0.25)
# The "round" check model's rows for source (2,), by the context (BOS, 0,
# or a token): repeated probabilities, so scores tie, whose logs are not
# short binary fractions, so a sum added in another order changes bytes.
CHECK_ROUND_TABLE = {
    0: (0.0, 0.3, 0.3, 0.2, 0.1, 0.1),
    2: (0.0, 0.2, 0.1, 0.2, 0.3, 0.2),
    3: (0.0, 0.1, 0.3, 0.2, 0.1, 0.3),
    4: (0.0, 0.15, 0.2, 0.3, 0.05, 0.3),
    5: (0.0, 0.3, 0.2, 0.1, 0.3, 0.1),
}


# The "finish" check model's rows, by source and context (BOS, 0, or a
# token). After source (4,), (3,) then (2,) finish at step 1 with one score,
# (2,) ranking first; nothing later does, and the decode grows its room.
# After source (5,), the empty finish and (2,) tie exactly.
CHECK_FINISH_TABLE = {
    ((4,), (0,)): (0.0, 0.01, 0.45, 0.45, 0.05, 0.04),
    ((4,), (2,)): (0.0, 0.45, 0.02, 0.02, 0.5, 0.01),
    ((4,), (3,)): (0.0, 0.45, 0.1375, 0.1375, 0.1375, 0.1375),
    **dict.fromkeys([((4,), (4,)), ((4,), (5,))], (0.0, 0.001, 0.0005, 0.0005, 0.499, 0.499)),
    ((5,), (0,)): (0.0, 0.3599999999984, 0.6, *[(1.0 - 0.3599999999984 - 0.6) / 3] * 3),
    ((5,), (2,)): (0.0, 0.6, 0.1, 0.1, 0.1, 0.1),
}


class CheckRows(dict):
    """The finished rows that the search checks' n-gram models draw in
    Python, by their ``_row_params`` and context, each once: by ``block``,
    the compiled row block that passed its check, or else by the Python
    twin; never by ``lm.NgramGenModel._finished_rows``, which would wait for
    the lock the checks run under. Every check model of one load shares
    them. The compiled searches draw rows themselves, with ``log``, numpy's
    checked log loop, when it and ``block`` are both given."""

    def __init__(self, block=None, log: LogLoop | None = None) -> None:
        super().__init__()
        self.block, self.log = block, log if block else None

    def finished(self, model, source: tuple[int, ...], contexts) -> np.ndarray:
        params = model._row_params(source)
        if new := [context for context in contexts if (params, context) not in self]:
            rows = np.empty((len(new), model.vocab.size))
            rows = model._block_rows(self.block, source, new, rows) if self.block else model._python_rows(source, new)
            self.update(zip([(params, context) for context in new], rows))
        return np.array([self[params, context] for context in contexts])


def _check_model(name: str, rows: CheckRows):
    """A new check model ``name``, an n-gram model's rows drawn into
    ``rows``."""
    from .core import Vocab
    from .lm import NgramGenModel, TableModel, UniformModel, make_perturbed_sibling

    if name in ("ngram", "sibling"):
        model = NgramGenModel(Vocab(6), 2, 182, 1.0)
        if name == "sibling":
            model = make_perturbed_sibling(model, 7, 0.5)
        model._finished_rows = partial(rows.finished, model)
        return model
    if name == "tied":
        rows = [_A, _B, _A, _B, _A, _B, _A, _B, _A, _B]
        contexts = [(src, (ctx,)) for src in (2, 3) for ctx in (0, 2, 3, 4, 5)]
        return TableModel(Vocab(6), 1, {((src,), ctx): row for (src, ctx), row in zip(contexts, rows)})
    if name == "round":
        return TableModel(Vocab(6), 1, {((2,), (tok,)): row for tok, row in CHECK_ROUND_TABLE.items()})
    if name == "finish":
        return TableModel(Vocab(6), 1, CHECK_FINISH_TABLE)
    return UniformModel(Vocab(5))


def search_outcome(result) -> tuple:
    """A beam search's ((best, tokens), beam, counts) as plain data, each
    score as its ``float.hex``."""
    (best, tokens), beam, counts = result
    return (best.hex(), tokens), [(t, lp.hex(), progress, bank) for t, lp, progress, bank in beam], counts


def _memo(model) -> dict:
    """The memo of ``model`` as plain data: by source and context, the bytes
    of each row the source's index reaches, read at its address, or of each
    row of its dict when it has no index."""
    size = 8 * model.vocab.size
    return {source: {context: ctypes.string_at(address, size) for context, address in index.entries().items()}
            if (index := model._indexes.get(source)) else
            {context: row.tobytes() for context, row in model._row_cache.get(source, {}).items()}
            for source in {*model._row_cache, *model._indexes}}


def _decodes_match(decodes, python, kernel, kind, compiled, outcome, rows: CheckRows | None) -> bool:
    """Whether each decode ``(model name, *args)`` of ``decodes`` gives the
    ``outcome`` of ``python(model, *args)`` through the compiled search
    ``compiled(context, kernel, model, log, *args)``, on a context of class
    ``kind``, three times: on a cold model, whose rows outgrow the first
    index table of its source, of 2^``CHECK_INDEX_BITS`` slots, so that the
    search returns for rows and resumes; on the same model warm and a new
    context with room for ``CHECK_CAPACITY`` tokens, so that the search
    returns to grow it and resumes, drawing no row (an index that lost a row
    would have it drawn again); and on the model the Python twin filled,
    whose rows the first search of a source indexes. The first and the last
    share one context with every decode: the previous decode left it after
    its first kernel call, which reported a failed allocation, on a model of
    its own, and every section is filled with NaN or -1 before each decode,
    so a state that a decode fails to reset is seen. Each time the index
    must hold as many rows as it counts and be at most 3/4 full, and the rows
    the cold model's index reaches (``_memo``) must then be the filled one's,
    with the same bytes. Its first rows go to a chunk whose first row counts as
    used, with room for ``CHECK_CHUNK_ROWS`` more, cut from a NaN-filled block
    whose later rows must stay NaN: a step that wants more rows returns for a
    new chunk, and a search that draws past the room is seen. Every kernel call
    is refused first when the context holds a NULL pointer, which would crash
    the process rather than fail the check. The searches draw, log and index
    their n-gram rows themselves when ``rows`` holds the row block that passed
    and the log loop; the Python draws go to ``rows``, by the Python twin
    unless given."""
    rows = CheckRows() if rows is None else rows

    def kernel_of(context, abandon: bool = False):
        def call(address):
            if not _pointers_set(context.buffers):
                raise ValueError(f"{context.NAME} was given a NULL section")
            status = kernel(address)
            return -1 if abandon else status

        return call

    shared, left = kind(), None
    for name, source, *args in decodes:
        # The last decode's abandoned model lives on while the shared context
        # may still point into its chunk.
        abandoned, (filled, cold, left) = left, [_check_model(name, rows) for _ in range(3)]
        guarded = np.empty((1 + CHECK_CHUNK_ROWS + CHUNK_ROWS, cold.vocab.size))
        guarded[:] = math.nan
        guard = guarded[1 + CHECK_CHUNK_ROWS :].tobytes()
        cold._new_chunk(guarded[: 1 + CHECK_CHUNK_ROWS])
        cold._used = 1
        index = cold._indexes[source] = _Index([])
        index.table, index.bits = array("q", [0]) * ((2 + cold.order) << CHECK_INDEX_BITS), CHECK_INDEX_BITS
        want = outcome(python(filled, source, *args))
        for model, context, warm in ((cold, shared, False), (cold, kind(CHECK_CAPACITY), True),
                                     (filled, shared, False)):
            for view in context.views.values():
                view.fill(-1 if view.dtype.kind == "i" else math.nan)
            indexed = model._indexes[source].count if warm else None
            if outcome(compiled(context, kernel_of(context), model, rows.log, source, *args)) != want:
                return False
            index = model._indexes[source]
            if warm and index.count > indexed:
                return False
            if not index.count == len(index.entries()) <= 3 << index.bits >> 2:
                return False
        if _memo(cold) != _memo(filled) or guarded[1 + CHECK_CHUNK_ROWS :].tobytes() != guard:
            return False
        try:
            compiled(shared, kernel_of(shared, abandon=True), left, rows.log, source, *args)
        except MemoryError:
            pass
    return True


def beam_search_self_check(beam_search, rows: CheckRows | None = None) -> bool:
    """Whether ``beam_search`` decodes every decode of ``CHECK_SEARCHES``
    exactly as ``decode._python_search`` does (``_decodes_match``)."""

    def compiled(context, kernel, model, log, source, constraints, width, max_len):
        best, tokens, counts = context(kernel, model, source, constraints, width, max_len, log)
        return (best, tokens), context.beam(), counts

    return _decodes_match(CHECK_SEARCHES, _python_search, beam_search, CompiledSearch, compiled, search_outcome,
                          rows)


class CompiledPsgd(_Resumable):
    """A model's context for ``decode._python_psgd`` through
    ``tsd_psgd_search``, called as ``CompiledSearch`` is. It scores as
    ``decode._SpanScorer`` does, but reads every row in the kernel, the
    scorer's fixed terms' too; Python gives it only the ids and the
    scoring's shape (``decode._span_shape``).

    As in ``CompiledSearch``, the sections sized by ``capacity``, the
    spans, their carries (each item's span terms) and the best span, grow
    with the rounds a decode runs, never with ``max_span``. The kernel
    breaks a tie on score by the spans, as ``scoring.rank`` does. The last
    round's children are read only on request (``children``).
    """

    NAME, STRUCT, KEPT = "tsd_psgd_search", _PsgdBuffers, ("carry", "tokens")

    def __call__(self, kernel, model, source: tuple[int, ...], prefix: tuple[int, ...], suffix: tuple[int, ...],
                 params, max_span: int, log: LogLoop | None = None):
        """The best whole-sequence score, its span and the counts, as
        ``decode._python_psgd`` returns them."""
        width = params.beam_width
        pieces, changed, fixed_eos = _span_shape(model.order, len(suffix))
        # The fixed terms: the EOS term when fixed, the prefix terms and the
        # tail terms, each read from a row the first call may miss.
        n_fixed = fixed_eos + len(prefix) + len(suffix) - changed
        self._start(model, source, log, (model.order, width, len(prefix), len(suffix), len(pieces), n_fixed))
        buffers, views = self.buffers, self.views
        buffers.width, buffers.n_prefix, buffers.n_suffix = width, len(prefix), len(suffix)
        buffers.n_pieces, buffers.n_changed, buffers.fixed_eos = len(pieces), changed, fixed_eos
        buffers.mean, buffers.eos_in_len = params.scoring == SCORING_MEAN_LOGPROB, params.include_eos_in_len
        buffers.patience, buffers.max_span, self.limit = params.patience, max_span, max_span
        views["prefix"][: len(prefix)] = prefix
        views["suffix"][: len(suffix)] = suffix
        views["pieces"][: len(pieces)] = pieces
        buffers.at_cap = 0
        best, span, counts = self._run(kernel)
        return best, span, (*counts, STOP_MAX_LEN if buffers.at_cap else STOP_PATIENCE)

    @staticmethod
    def _layout(shape, capacity: int) -> tuple:
        """The float64 and the int64 sections for ``shape``, (order, width,
        prefix tokens, suffix tokens, pieces, fixed terms), and
        ``capacity``."""
        order, width, n_prefix, n_suffix, n_pieces, n_fixed = shape
        missed = max(width * n_pieces, n_fixed)
        return ((("terms", n_fixed), ("lp", 2 * width), ("carry", 2 * width * capacity)),
                (("prefix", n_prefix), ("suffix", n_suffix), ("pieces", n_pieces), ("parent", width),
                 ("token", width), ("wanted", missed * (1 + order)), ("tokens", 2 * width * capacity),
                 ("best_tokens", capacity)))

    def children(self) -> list[tuple[int, int]]:
        """The last round's children of the context's last decode, as
        (parent index, token) pairs."""
        k = self.buffers.size[1 - self.buffers.cur]
        return list(zip(self.views["parent"][:k].tolist(), self.views["token"][:k].tolist()))


# Decodes the compiled PSGD search must reproduce, byte for byte, before it
# is used: (model, source, prefix, suffix, params). Found by search, they
# cover fixed and unfixed EOS terms, both scoring modes, EOS in the length
# or not, tied rows, patience stops (at 0, and after a round that ties the
# best), cap stops and spans past ``CHECK_CAPACITY``, and tell the search
# from copies with one rule of the round, the loop or the fixed terms'
# reading changed. The two after the third "uniform" read prefix terms, a
# fixed EOS term and, in the first, a tail term from n-gram rows that the
# cold model lacks; the last grows the spans of three items twice.
CHECK_DECODES = (
    ("uniform", (2,), (2,), (3, 2, 3), PsgdParams(2, 2, 2, "mean_logprob", False)),
    ("ngram", (2, 5), (), (2,), PsgdParams(3, 3, 2, "mean_logprob", True)),
    ("uniform", (2,), (4,), (2, 3, 4), PsgdParams(2, 2, 6, "mean_logprob", True)),
    ("ngram", (2, 5, 4), (), (), PsgdParams(4, 0, 5, "prob_over_length", False)),
    ("ngram", (3, 4), (), (), PsgdParams(1, 2, 6, "prob_over_length", False)),
    ("round", (2,), (), (2, 5, 5), PsgdParams(3, 4, 2, "mean_logprob", True)),
    ("uniform", (2,), (3,), (), PsgdParams(1, 2, 5, "mean_logprob", False)),
    ("ngram", (3, 4), (4, 2), (4, 5, 2), PsgdParams(2, 1, 3, "mean_logprob", True)),
    ("ngram", (3, 4), (5, 3, 2), (2, 3), PsgdParams(3, 3, 6, "prob_over_length", True)),
    ("ngram", (3, 4), (4,), (2,), PsgdParams(3, 4, 8, "mean_logprob", True)),
)


def psgd_self_check(psgd_search, rows: CheckRows | None = None) -> bool:
    """Whether ``psgd_search`` decodes every decode of ``CHECK_DECODES``
    exactly as ``decode._python_psgd`` does (``_decodes_match``)."""

    def python(model, source, p, s, params):
        return _python_psgd(model, source, p, s, _SpanScorer(model, source, p, s), params, params.max_span_len)

    def compiled(context, kernel, model, log, source, p, s, params):
        return (*context(kernel, model, source, p, s, params, params.max_span_len, log), context.children())

    # (score, span, counts, last round's children), the score as its hex.
    return _decodes_match(CHECK_DECODES, python, psgd_search, CompiledPsgd, compiled,
                          lambda result: (result[0].hex(), *result[1:]), rows)
