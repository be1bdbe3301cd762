"""The compiled kernel: build, cache, load and check ``_rowkernel.c``.

``_rowkernel.c`` exports three functions, each named ``tsd_`` and its
``Functions`` field and each the C twin of Python code: ``tsd_block`` is
``lm.NgramGenModel._python_rows``, the finished rows of a block of contexts
(``_row_keys``, then one ``rng.Stream.dirichlet`` row per key, finished by
``lm._numpy_finalize``), ``tsd_beam_search`` is ``decode._python_search``,
the full-sentence beam search, and ``tsd_psgd_search`` is
``decode._python_psgd``, the PSGD search, each run for one decode by
``CompiledSearch`` or ``CompiledPsgd`` through the resume loop they share
(``_Resumable``). When the row block passed its check and numpy's float64
log loop passed its own (``log_loop``), a search draws the rows a step
misses of an n-gram model itself, with the block's code, writes their log
with that loop and enters them into the memo's index, in that order, and
goes on: it returns to Python only when the model's chunk, the index or
its room for tokens or finishes is full, and Python then memoises the rows
it drew. Otherwise it returns the contexts it misses, Python draws their
rows and its next call enters them into the index. The block adds a row
up in numpy's ``add.reduce`` order, which its check compares rather than
assumes. This module holds no state: ``rng.compiled()`` calls ``log_loop``
and ``load`` once per process, on the first n-gram row block, beam search
or PSGD decode, never on import. ``lm`` and ``decode`` then use each
function that passed its check, and the much slower Python code
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
``CHECK_SEARCHES`` and ``CHECK_DECODES`` with both searches, cold and warm
(``_decodes_match``), and require the same results and the same memo, byte
for byte, over the route a missed row takes, first refusing a take whose
buffers hold a NULL pointer, which would crash the process rather than
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
from functools import partial
from itertools import accumulate, chain
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
    optional = getattr(buffers, "optional", ())
    fields = [field for cls in type(buffers).__mro__ for field in vars(cls).get("_fields_", ())]
    return all(getattr(buffers, name) for name, kind in fields if kind is ctypes.c_void_p and name not in optional)


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

    _fields_ = _fields("vocab bos n_context bits old_bits n_queued step n_wanted chunk_room index_room n_drawn",
                       "index old_index queued wanted chunk drawn log log_data", source=_Source)
    # Pointers that ``_Resumable._queue`` sets for each call, NULL when
    # there is nothing to read, and those of a search that draws no rows.
    optional = ("index", "old_index", "queued", "chunk", "log", "log_data")


class _SearchBuffers(_RowBuffers):
    """``struct tsd_search`` of ``_rowkernel.c``."""

    _fields_ = _fields(
        "width eos lo n_content n_phrases complete max_len capacity finish_room cur forward_passes positions emitted"
        " hard empty_beam n_finished n_finish_ids",
        "phrases starts finished finish_score lp progress bank tokens",
        size=ctypes.c_int64 * 2,
    )


class _PsgdBuffers(_RowBuffers):
    """``struct tsd_psgd`` of ``_rowkernel.c``."""

    _fields_ = _fields(
        "width eos lo n_content n_prefix n_suffix n_pieces n_changed fixed_eos mean eos_in_len"
        " patience max_span capacity cur forward_passes positions emitted at_cap best_step",
        "prefix suffix pieces terms parent token lp carry tokens best_span",
        size=ctypes.c_int64 * 2, best=ctypes.c_double,
    )


# Finishes per beam slot that one call of the beam search can hold before
# it returns for the caller to read them, and the tokens a hypothesis or
# span has room for at first: a longer decode returns to have the room
# doubled.
FINISH_ROOM = 4
INITIAL_CAPACITY = 64


class _Resumable:
    """One decode of ``model`` from ``source`` by a compiled search that
    reads its rows through the source's index (``lm._Index``) and returns
    early when a step needs what Python must give: rows, room for them, or
    room for its tokens. A subclass sets ``buffers``, ``views``, ``limit``
    (the room's cap), ``_sized()`` (the sections sized by ``capacity``),
    ``KEPT`` (those whose rows of ``capacity`` entries outlive a growth) and
    a ``drawn`` section of ``drawn_rows`` records, at least the rows one
    step can miss.

    A missed row takes one of two routes. Given ``log``, numpy's checked
    log loop (``log_loop``), and a model whose rows the kernel draws
    (``_row_params``), the kernel draws the rows a step misses into the
    model's chunk, writes their log and enters them into the index, and
    Python only memoises them when it returns (``_kept``); when the chunk or
    the index lacks room for a step's rows, it returns first and Python
    opens a new chunk or sizes a new table. Otherwise Python draws them
    through ``_draw`` and the next call enters them into the index. Either
    way no row is reachable before its log is written."""

    KEPT: tuple[str, ...] = ()

    def _start(self, kernel, model, source: tuple[int, ...], log: LogLoop | None) -> None:
        self.kernel, self.address, self.model, self.source = kernel, ctypes.addressof(self.buffers), model, source
        self.index, self.table = model._indexes.get(source), None
        if self.index is None:
            # The first search of the source queues each row the memo holds.
            memo = model._row_cache.get(source, {})
            self.index = model._indexes[source] = _Index(
                [((context,), row.__array_interface__["data"][0]) for context, row in memo.items()]
            )
        params = model._row_params(source) if log else None
        self.draws = params is not None
        if self.draws:
            self.buffers.source = _Source(*params)
            self.buffers.log, self.buffers.log_data = log

    def _grow(self) -> None:
        """Double ``capacity``, up to ``limit``, in new sections that keep
        the ``KEPT`` ones' entries."""
        buffers, old, capacity = self.buffers, self.views, self.buffers.capacity
        buffers.capacity = min(2 * capacity, self.limit)
        self.views = {**old, **_sections(buffers, *self._sized())}
        for name in self.KEPT:
            self.views[name].reshape(-1, buffers.capacity)[:, :capacity] = old[name].reshape(-1, capacity)

    def _queue(self, rows: int = 0) -> None:
        """Point the kernel's next call at the source's index, with the rows
        it lacks queued for it to enter, and, when the kernel draws rows, at
        the free rows of the model's chunk. The index and the chunk are
        given room first for ``rows`` more rows, besides the queued ones: a
        full chunk, or one without that room, is followed by a new one, and
        a table that would be more than 3/4 full is replaced by a zeroed
        one, into which the kernel moves the old entries before the new
        ones. The call must follow, or the queued rows are lost to the
        index."""
        index, buffers, model = self.index, self.buffers, self.model
        pending, index.pending = index.pending, []
        queued, old = array("q"), None
        for contexts, address in pending:
            queued.extend((len(contexts), address, *map(len, contexts), *chain.from_iterable(contexts)))
            index.count += len(contexts)
        if index.table is None or 4 * (index.count + rows) > 3 << index.bits:
            # 64 slots at first: room for a decode's first call, its fixed
            # rows and its first steps.
            bits, old = max(index.bits, 6), index.table
            while 4 * (index.count + rows) > 3 << bits:
                bits += 1
            buffers.old_index = None if old is None else old.buffer_info()[0]
            buffers.old_bits = index.bits
            index.table, index.bits = array("q", [0]) * ((2 + model.order) << bits), bits
        if index.table is not self.table:
            self.table = index.table
            buffers.index, buffers.bits = index.table.buffer_info()[0], index.bits
        buffers.queued, buffers.n_queued = queued.buffer_info()
        if self.draws:
            model._room(max(rows, 1))
            buffers.chunk = model._address + 8 * buffers.vocab * model._used
            buffers.chunk_room = min(len(model._chunk) - model._used, self.drawn_rows)
            buffers.index_room = (3 << index.bits >> 2) - index.count
        # Both are read by the kernel's next call.
        self.held = old, queued

    def _kept(self) -> None:
        """Memoise the rows the kernel's last call drew, logged and entered
        into the index: their chunk rows are claimed and counted first, so
        that no later draw writes over a row the index reaches, then each
        context, read from ``drawn`` in chunk order, keeps a read-only view
        of its row."""
        buffers, model = self.buffers, self.model
        if not buffers.n_drawn:
            return
        at, model._used = model._used, (buffers.chunk - model._address) // (8 * buffers.vocab)
        self.index.count += model._used - at
        contexts = self._records("drawn", buffers.n_drawn)
        model._row_cache.setdefault(self.source, {}).update(zip(contexts, model._read_only[at : model._used]))

    def _records(self, name: str, n: int) -> list[tuple[int, ...]]:
        """The first ``n`` ids of the section ``name`` as the records they
        hold, each a length and that many ids."""
        ids, at, records = self.views[name][:n].tolist(), 0, []
        while at < n:
            records.append(tuple(ids[at + 1 : at + 1 + ids[at]]))
            at += 1 + ids[at]
        return records

    def _read(self) -> None:
        """Read what the kernel's last call left, if anything."""

    def _run(self) -> None:
        """Call the kernel until it is done: after each return, memoise the
        rows it drew, and after each early one read what it left, grow the
        room it lacks, and give it room for the rows it wants or draw them
        with ``_draw``, for the next call to draw or to enter them into the
        index."""
        buffers, step, returns = self.buffers, -1, 0
        self._queue()
        while status := self.kernel(self.address):
            self._kept()
            if status < 0:
                raise MemoryError(f"{self.NAME} could not allocate its scratch")
            # A step returns at most twice: for room for its tokens or
            # finishes, or for a PSGD decode's fixed rows at its first step,
            # then for its rows or room for them, which the next call draws
            # or finds in the index.
            returns, step = (returns + 1 if buffers.step == step else 1), buffers.step
            if returns > 2:
                raise RuntimeError(f"step {step} returned three times: a row it wanted was left out of the memo's index")
            self._read()
            if step == buffers.capacity < self.limit:
                self._grow()
            wanted = self._records("wanted", buffers.n_wanted)
            if wanted and not self.draws:
                self.model._draw(self.source, wanted)
            self._queue(len(wanted) if self.draws else 0)
        self._kept()
        self._read()


class CompiledSearch(_Resumable):
    """``decode._python_search`` of one decode of ``model`` from ``source``
    through ``tsd_beam_search``, called with no argument; ``log`` is the log
    loop with which the kernel draws the rows it misses, or None
    (``_Resumable``).

    The search lives in the sections of ``_SearchBuffers`` (``_sections``),
    which each decode allocates once, but for those sized by ``capacity``,
    which double when the hypotheses outgrow them; ``lp``, ``progress``,
    ``bank`` and ``tokens`` hold two sides, side s starting at s times the
    side's length. The kernel breaks a tie on score by the hypotheses'
    tokens, as ``scoring.rank`` does. It also returns when a step needs
    room for its finishes, which Python then reads. A warm decode is one
    call.
    """

    NAME, KEPT = "tsd_beam_search", ("tokens",)

    def __init__(self, kernel, model, source: tuple[int, ...], constraints: tuple[tuple[int, ...], ...],
                 beam_width: int, max_len: int, capacity: int = INITIAL_CAPACITY, log: LogLoop | None = None) -> None:
        vocab, width, n = model.vocab, beam_width, len(constraints)
        content = vocab.content_ids
        flat = [tok for phrase in constraints for tok in phrase]
        # The kernel indexes its rows with these without checking them.
        if any(not content[0] <= tok <= content[-1] for tok in flat):
            raise ValueError(f"a phrase of {constraints} holds a non-content id")
        room = FINISH_ROOM * width
        # The root: one hypothesis, no tokens, log-prob 0.0, no progress.
        buffers = self.buffers = _SearchBuffers(
            vocab=vocab.size, bos=vocab.bos_id, n_context=model.order, width=width, eos=vocab.eos_id, lo=content[0],
            n_content=len(content), n_phrases=n, complete=len(flat), max_len=max_len,
            capacity=min(max_len, capacity), finish_room=room, size=(1, 0),
        )
        self.limit, self.drawn_rows = max_len, max(CHUNK_ROWS, width)
        views = self.views = _sections(
            buffers,
            (("lp", 2 * width), ("finish_score", room)),
            (("phrases", len(flat)), ("starts", n + 1), ("progress", 2 * width * n), ("bank", 2 * width),
             ("wanted", width * (1 + model.order)), ("drawn", self.drawn_rows * (1 + model.order)),
             *self._sized()[1]),
        )
        views["phrases"][:] = flat
        views["starts"][:] = list(accumulate(map(len, constraints), initial=0))
        self._start(kernel, model, source, log)

    def _sized(self) -> tuple:
        """The sections sized by ``capacity``: the finishes' ids and the
        hypotheses' tokens."""
        buffers = self.buffers
        width, capacity = buffers.width, buffers.capacity
        return (), (("finished", buffers.finish_room * (capacity + 1)), ("tokens", 2 * width * capacity))

    def _read(self) -> None:
        buffers = self.buffers
        if buffers.n_finished:
            tokens = self._records("finished", buffers.n_finish_ids)
            for t, score in zip(tokens, self.views["finish_score"][: buffers.n_finished].tolist()):
                self.finished.setdefault(t, score)
            buffers.n_finished = buffers.n_finish_ids = 0

    def __call__(self):
        """The finished sequences with their raw scores, the final beam and
        the counts, as ``decode._python_search`` returns them."""
        self.finished = {}
        self._run()
        buffers, views = self.buffers, self.views
        n, m, width = buffers.n_phrases, buffers.size[buffers.cur], buffers.width
        first = buffers.cur * width
        lps, banks = views["lp"][first : first + m].tolist(), views["bank"][first : first + m].tolist()
        progress = views["progress"][first * n : (first + m) * n].tolist()
        tokens = views["tokens"].reshape(2 * width, buffers.capacity)[first : first + m, : buffers.step].tolist()
        beam = [(tuple(t), lps[b], tuple(progress[b * n : (b + 1) * n]), banks[b]) for b, t in enumerate(tokens)]
        stop = STOP_EMPTY_BEAM if buffers.empty_beam else STOP_MAX_LEN
        return self.finished, beam, (buffers.forward_passes, buffers.positions, buffers.emitted, stop)


# Decodes the compiled beam search must reproduce, byte for byte, before it
# is used: (model, source, constraints, beam width, max_len). "ngram" is an
# order-2 n-gram model over vocab 6, "sibling" its perturbed sibling at rate
# 0.5, whose coins land both ways, "tied" an order-1 table model over vocab
# 6 whose rows tie EOS with content ids and content ids with each other, and
# "uniform" the uniform model over vocab 5, where every candidate ties. The
# last "tied" decode ties children of parents whose scores differ, in the
# order opposite to their tokens'.
CHECK_SEARCHES = (
    ("ngram", (2, 5), (), 2, 10),
    ("ngram", (2, 5, 4), ((3,), (5, 2)), 3, 9),
    ("ngram", (2, 5, 4), ((4, 4),), 2, 6),
    ("ngram", (3, 4), (), 4, 7),
    ("ngram", (3, 4), (), 4, 3),
    ("ngram", (3, 4), (), 1, 5),
    ("ngram", (5,), ((5,),), 2, 0),
    ("sibling", (2, 5, 4), ((3,),), 3, 6),
    ("tied", (2,), (), 3, 4),
    ("tied", (3,), ((4, 5),), 2, 5),
    ("tied", (3,), ((2, 2), (2,)), 5, 2),
    ("uniform", (2,), ((3,),), 3, 3),
)
CHECK_CAPACITY = 4
# Rows of the first chunk of a cold check model: fewer than some steps want.
CHECK_CHUNK_ROWS = 3
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


def _memo(model) -> dict:
    """The memo of ``model`` as plain data: each row's bytes, by source and
    context."""
    return {source: {context: row.tobytes() for context, row in rows.items()}
            for source, rows in model._row_cache.items()}


def _decodes_match(decodes, python, compiled, outcome, rows: CheckRows | None) -> bool:
    """Whether each decode ``(model name, *args)`` of ``decodes`` gives the
    ``outcome`` of ``python(model, *args)`` through the compiled search
    ``compiled(model, capacity, log, *args)`` three times: on a cold model
    with room for ``CHECK_CAPACITY`` tokens, so that the search returns to
    grow it and for rows, and resumes; on the same model warm, drawing no
    row, in one call that reads every row it indexed (an index that lost a
    row would have it drawn again); and on the model the Python twin
    filled, whose rows the first search of a source indexes. Each time the
    index must hold as many rows as it counts and be at most 3/4 full, and
    the cold model's memo must then hold the filled one's contexts with the
    same bytes. Its first rows go to a chunk whose first row counts as used,
    with room for ``CHECK_CHUNK_ROWS`` more, cut from a NaN-filled block
    whose later rows must stay NaN: a step that wants more rows returns for
    a new chunk, and a search that draws past the room is seen. The searches draw, log and
    index their n-gram rows themselves when ``rows`` holds the row block
    that passed and the log loop; the Python draws go to ``rows``, by the
    Python twin unless given."""
    rows = CheckRows() if rows is None else rows
    for name, *args in decodes:
        filled, cold = _check_model(name, rows), _check_model(name, rows)
        guarded = np.empty((1 + CHECK_CHUNK_ROWS + CHUNK_ROWS, cold.vocab.size))
        guarded[:] = math.nan
        guard = guarded[1 + CHECK_CHUNK_ROWS :].tobytes()
        cold._new_chunk(guarded[: 1 + CHECK_CHUNK_ROWS])
        cold._used = 1
        want = outcome(python(filled, *args))
        for model, capacity in ((cold, CHECK_CAPACITY), (cold, INITIAL_CAPACITY), (filled, INITIAL_CAPACITY)):
            take = compiled(model, capacity, rows.log, *args)
            if not _pointers_set(take.buffers):
                return False
            index = take.index
            indexed = index.count
            if outcome(take()) != want or (model is cold and capacity != CHECK_CAPACITY and index.count > indexed):
                return False
            if not index.count == sum(map(bool, index.table[:: 2 + model.order])) <= 3 << index.bits >> 2:
                return False
        if _memo(cold) != _memo(filled) or guarded[1 + CHECK_CHUNK_ROWS :].tobytes() != guard:
            return False
    return True


def beam_search_self_check(beam_search, rows: CheckRows | None = None) -> bool:
    """Whether ``beam_search`` decodes every decode of ``CHECK_SEARCHES``
    exactly as ``decode._python_search`` does (``_decodes_match``)."""

    def compiled(model, capacity, log, source, constraints, width, max_len):
        return CompiledSearch(beam_search, model, source, constraints, width, max_len, capacity, log)

    return _decodes_match(CHECK_SEARCHES, _python_search, compiled, search_outcome, rows)


class CompiledPsgd(_Resumable):
    """``decode._python_psgd`` of one decode of ``model`` from ``source``
    through ``tsd_psgd_search``, called with no argument; ``log`` as in
    ``CompiledSearch``. It scores as ``decode._SpanScorer`` does, but reads
    every row in the kernel, the scorer's fixed terms' too; Python gives it
    only the ids and the scoring's shape (``decode._span_shape``).

    As in ``CompiledSearch``; the sections sized by ``capacity``, the
    spans, their carries (each item's span terms) and the best span, grow
    with the rounds the decode runs, never with ``max_span``. The kernel
    breaks a tie on score by the spans, as ``scoring.rank`` does.
    """

    NAME, KEPT = "tsd_psgd_search", ("carry", "tokens", "best_span")

    def __init__(self, kernel, model, source: tuple[int, ...], prefix: tuple[int, ...], suffix: tuple[int, ...],
                 params, max_span: int, capacity: int = INITIAL_CAPACITY, log: LogLoop | None = None) -> None:
        vocab, width = model.vocab, params.beam_width
        content = vocab.content_ids
        pieces, changed, fixed_eos = _span_shape(model.order, suffix)
        pieces = [*map(len, pieces)]
        # The fixed terms: the EOS term when fixed, the prefix terms and the
        # tail terms, each read from a row the first call may miss.
        n_fixed = fixed_eos + len(prefix) + len(suffix) - changed
        # The root: one item, the empty span, log-prob 0.0.
        buffers = self.buffers = _PsgdBuffers(
            vocab=vocab.size, bos=vocab.bos_id, n_context=model.order, width=width, eos=vocab.eos_id, lo=content[0],
            n_content=len(content), n_prefix=len(prefix), n_suffix=len(suffix), n_pieces=len(pieces),
            n_changed=changed, fixed_eos=fixed_eos, mean=params.scoring == SCORING_MEAN_LOGPROB,
            eos_in_len=params.include_eos_in_len, patience=params.patience, max_span=max_span,
            capacity=min(max_span, capacity), size=(1, 0), best=-math.inf,
        )
        missed = max(width * len(pieces), n_fixed)
        self.limit, self.drawn_rows = max_span, max(CHUNK_ROWS, missed)
        reals, ints = self._sized()
        views = self.views = _sections(
            buffers,
            (("terms", n_fixed), ("lp", 2 * width), *reals),
            (("prefix", len(prefix)), ("suffix", len(suffix)), ("pieces", len(pieces)), ("parent", width),
             ("token", width), ("wanted", missed * (1 + model.order)),
             ("drawn", self.drawn_rows * (1 + model.order)), *ints),
        )
        views["prefix"][:] = prefix
        views["suffix"][:] = suffix
        views["pieces"][:] = pieces
        self._start(kernel, model, source, log)

    def _sized(self) -> tuple:
        """The sections sized by ``capacity``: the carries, the spans and
        the best span."""
        buffers = self.buffers
        side = 2 * buffers.width * buffers.capacity
        return (("carry", side),), (("tokens", side), ("best_span", buffers.capacity))

    def __call__(self):
        """The best whole-sequence score, its span, the counts and the last
        round's children, as ``decode._python_psgd`` returns them."""
        self._run()
        buffers, views = self.buffers, self.views
        k = buffers.size[1 - buffers.cur]
        last = list(zip(views["parent"][:k].tolist(), views["token"][:k].tolist()))
        span = tuple(views["best_span"][: buffers.best_step].tolist())
        stop = STOP_MAX_LEN if buffers.at_cap else STOP_PATIENCE
        return buffers.best, span, (buffers.forward_passes, buffers.positions, buffers.emitted, stop), last


# Decodes the compiled PSGD search must reproduce, byte for byte, before it
# is used: (model, source, prefix, suffix, params). Found by search, they
# cover fixed and unfixed EOS terms, both scoring modes, EOS in the length
# or not, tied rows, patience stops (at 0, and after a round that ties the
# best), cap stops and spans past ``CHECK_CAPACITY``, and tell the search
# from copies with one rule of the round, the loop or the fixed terms'
# reading changed. The last two read prefix terms, a fixed EOS term and,
# in the first, a tail term from n-gram rows that the cold model lacks.
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
)


def psgd_self_check(psgd_search, rows: CheckRows | None = None) -> bool:
    """Whether ``psgd_search`` decodes every decode of ``CHECK_DECODES``
    exactly as ``decode._python_psgd`` does (``_decodes_match``)."""

    def python(model, source, p, s, params):
        return _python_psgd(model, source, p, s, _SpanScorer(model, source, p, s), params, params.max_span_len)

    def compiled(model, capacity, log, source, p, s, params):
        return CompiledPsgd(psgd_search, model, source, p, s, params, params.max_span_len, capacity, log)

    # (score, span, counts, last round's children), the score as its hex.
    return _decodes_match(CHECK_DECODES, python, compiled, lambda result: (result[0].hex(), *result[1:]), rows)
