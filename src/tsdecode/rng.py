"""Platform-stable seeded randomness.

Every stochastic choice in this library flows through a counter-based
uniform stream keyed by a 64-bit hash, so identical seeds give bit-identical
results on every platform and Python build (unlike the built-in ``hash``).

The chain is: key = fold of integer parts through a splitmix64-style mixer;
uniforms = mixed (key, counter) pairs mapped into (0, 1); gamma variates via
Marsaglia-Tsang squeeze rejection on Box-Muller normals (with the usual
power-of-uniform boost for shape < 1); Dirichlet rows by normalizing gamma
draws.

Draw ``i`` of a stream depends only on (key, i), as in the counter-based
generators of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC 2011), so a ``Stream`` holds nothing but its key and counter, and a
Dirichlet row is a pure function of its key, its starting counter, its
concentration and its length. The scalar methods compute each draw alone.

A row's gamma variates are drawn by one of two loops that give the same
bytes and consume the same draws. The compiled row kernel (``rowkernel``,
``_rowkernel.c``) is built and loaded when a process draws its first row,
and used only if it draws a fixed set of rows exactly as the Python loop
does. Otherwise ``Stream._gammas``, the Python loop and the reference the
kernel is checked against, draws every row; ``row_path()`` says which. The
transcendentals of both loops are scalar libm calls, the ones CPython's
``math.log``, ``math.cos``, ``math.sqrt`` and float ``**`` make, on the
same operands in the same order, and never numpy's: ``np.log`` does not
round like ``math.log`` on every input, and rows must not depend on which
is used. The kernel is compiled without floating-point contraction or
fast-math for the same reason.

Without the kernel, Dirichlet rows take their uniforms from the one numpy
path, ``_uniform_block``: a run of counters for several keys as one
``uint64`` block. Draw i is ``mix64(key ^ mix64(i))``, so the block is given
the mixed counter column ``mix64(i)`` (``counter_column``) as data and only
XORs in each key and mixes. A row of n entries needs about 4n draws, while a
harness stream needs about a dozen, too few for a numpy pass to pay for
itself. ``dirichlet_rows`` draws the rows of many fresh streams from one
block; a caller that draws many rows of one length, like
``lm.NgramGenModel``, keeps their column (``row_counters(n)``) and hands it
over. ``Stream.dirichlet`` alone, and a row's extension on overrun, are
blocks of one that compute their own column. The block math uses the same
integer and IEEE float64 operations as ``mix64`` and the scalar uniform
formula, so every draw is bit-identical to the scalar definition, whatever
block it is drawn in. The kernel computes each draw on its own, in C, with
the same operations, and needs no block.

``hash_key`` mixes each integer part alone, and a sequence part's length
(``mix_length``) before its items, so a caller that folds many short
sequences of small ids, like ``lm.NgramGenModel``, can keep those mixes in
a table and fold with them, bit for bit the same.

``Stream._gammas`` fuses the ``n`` gamma variates of a row into one loop.
It reads the uniforms it expects to need from one list computed up front,
extends that list when a run of rejections overruns it, and indexes it
directly. Per variate the loop does exactly what the one-variate sampler
does, in the same order: the boost uniform, then per attempt two uniforms
for the normal and one for the squeeze, and the same ``math`` calls on the
same operands. So its rows are bit-identical to ``n`` calls of that
sampler, ``gamma`` in ``tests/util.py``, which the tests keep as the
reference.
Vectorising the transcendentals would cost more, not less: which draw
starts an attempt depends on every earlier rejection, so a vectorised pass
must score an attempt at every counter or restart after each rejection.
Both designs were tried and both were slower than the scalar loop, because
speculation does about twice the needed ``math`` work. The kernel runs the
same scalar loop, without the interpreter.
"""

from __future__ import annotations

import math
import threading
from ctypes import c_double
from typing import Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ULP = 2.0 ** -53

# Draws by which ``dirichlet`` extends its uniform list when a run of
# rejections overruns it.
BLOCK = 128

# Draws a Dirichlet row of n variates computes up front: 4n + 16, extended
# by BLOCK when a run of rejections overruns it. At concentration 0.2 the
# boosted Marsaglia-Tsang sampler takes ~4.11 draws per variate (407.23 per
# vocab-100 row of 99): the boost uniform, then three per attempt, two when
# v <= 0. So 1 in 3000 vocab-20 rows extends, and about 1 vocab-100 row in 6.
_ROW_DRAWS_PER_VARIATE = 4
_ROW_EXTRA_DRAWS = 16

# numpy scalar constants, so uint64 arrays stay uint64 under any numpy's
# casting rules. The arithmetic runs on arrays, which wrap mod 2**64
# silently (numpy scalars would warn on overflow).
_U11, _U27, _U30, _U31 = (np.uint64(n) for n in (11, 27, 30, 31))
_GOLDEN_U64 = np.uint64(_GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit bijective mixer."""
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_block(x: np.ndarray) -> None:
    """``mix64`` over a ``uint64`` array, in place."""
    x += _GOLDEN_U64
    x ^= x >> _U30
    x *= _M1
    x ^= x >> _U27
    x *= _M2
    x ^= x >> _U31


def mix_length(n: int) -> int:
    """What ``hash_key`` folds in for the length ``n`` of a sequence part."""
    return mix64(n ^ 0xA5A5A5A5)


def hash_key(*parts: int | Iterable[int]) -> int:
    """Fold integers (or iterables of integers) into one 64-bit key.

    Sequence boundaries are folded in via the length, so ((1, 2), (3,)) and
    ((1,), (2, 3)) hash differently.
    """
    h = 0x100F0E0D0C0B0A09
    for part in parts:
        if isinstance(part, int):
            h = mix64(h ^ mix64(part & _MASK64))
        else:
            items = tuple(part)
            h = mix64(h ^ mix_length(len(items)))
            for v in items:
                h = mix64(h ^ mix64(int(v) & _MASK64))
    return h


def counter_column(start: int, count: int) -> np.ndarray:
    """``mix64(i)`` for draws i = ``start + 1 .. start + count``: the mixed
    counter column of a block, shared by every key, as ``uint64``."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    _mix64_block(counters)
    return counters


def row_counters(n: int) -> np.ndarray:
    """The counter column a fresh Dirichlet row of ``n`` variates reads up
    front: ``mix64(i)`` for i = 1 .. 4n + 16, read-only."""
    counters = counter_column(0, _ROW_DRAWS_PER_VARIATE * n + _ROW_EXTRA_DRAWS)
    counters.setflags(write=False)
    return counters


def _uniform_block(keys: Sequence[int], counters: np.ndarray) -> np.ndarray:
    """The draws at ``counters`` (a ``counter_column``) of the stream of each
    key, as uniforms: a (keys, len(counters)) float64 array computed as one
    ``uint64`` block.

    Draw i is ``mix64(key ^ mix64(i))``, so each key is XORed into the mixed
    counter column and the block mixed. Each draw's top 53 bits are shifted
    into (0, 1); int -> float64 is exact below 2**53, so this is the scalar
    formula's rounding, one IEEE operation at a time. Callers turn a row into
    Python floats (``tolist``) just before they read it, so only one row's
    floats are alive at a time: converting a whole block at once raised the
    wide-mt benchmark's peak RSS by about 0.3 MB.
    """
    block = np.array(keys, dtype=np.uint64)[:, None] ^ counters
    _mix64_block(block)
    block >>= _U11
    uniforms = block.astype(np.float64)
    uniforms += 0.5
    uniforms *= _ULP
    return uniforms


# The compiled row kernel's function once the first row is drawn, or False
# when it is unavailable; None before.
_kernel = None
_kernel_lock = threading.Lock()


def _loaded_kernel():
    """``_kernel``, loaded first (under the lock) if no row has been drawn yet."""
    global _kernel
    if _kernel is None:
        with _kernel_lock:
            if _kernel is None:
                from . import rowkernel

                _kernel = rowkernel.load() or False
    return _kernel


def row_path() -> str:
    """Which loop draws Dirichlet rows in this process: ``"kernel"``, the
    compiled ``_rowkernel.c``, or ``"python"``, ``Stream._gammas``. Loads
    the kernel if no row has been drawn yet."""
    return "kernel" if _loaded_kernel() else "python"


def dirichlet_rows(keys: Sequence[int], concentration: float, n: int, counters: np.ndarray) -> list[np.ndarray]:
    """``Stream(key).dirichlet(concentration, n)`` for each key. Without the
    kernel, the uniforms every row expects to need are computed in one
    block; ``counters`` is ``row_counters(n)``, kept by a caller that draws
    many blocks."""
    if _loaded_kernel():
        return [Stream(key).dirichlet(concentration, n) for key in keys]
    block = _uniform_block(keys, counters)
    return [Stream(key).dirichlet(concentration, n, us.tolist()) for key, us in zip(keys, block)]


class Stream:
    """Deterministic random stream for a fixed 64-bit key.

    Draw ``i`` (counting from 1) is ``mix64(key ^ mix64(i))``. ``_counter``
    is the number of draws consumed so far, and the stream's only state.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64(self._key ^ mix64(self._counter))

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) * _ULP

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def choice(self, items):
        return items[self.randint(0, len(items) - 1)]

    def dirichlet(self, concentration: float, n: int, uniforms: list[float] | None = None) -> np.ndarray:
        """Symmetric Dirichlet draw of length ``n``: ``n`` unit-scale gamma
        variates, normalized.

        Each variate takes the draws, and does the arithmetic, of one call
        of the one-variate sampler (``gamma`` in ``tests/util.py``) at shape
        ``concentration``, in the same order. The compiled kernel draws the
        variates when it is loaded (``row_path()``), ``_gammas`` otherwise.
        ``uniforms``, when given, is the list ``_gammas`` reads: this
        stream's next draws, as ``dirichlet_rows`` hands them over. The row
        is normalized in place in its own buffer, summed by ``np.add.reduce``
        (``ndarray.sum`` without its Python wrapper, so the same bytes).
        """
        if n < 1:
            raise ValueError(f"dirichlet length must be >= 1, got {n}")
        if not 0.0 < concentration < math.inf:
            raise ValueError(f"dirichlet concentration must be finite and > 0, got {concentration}")
        kernel = _kernel if _kernel is not None else _loaded_kernel()
        if kernel:
            gammas = (c_double * n)()
            self._counter += kernel(self._key, self._counter, n, concentration, gammas)
            row = np.frombuffer(gammas)
        else:
            row = np.array(self._gammas(concentration, n, uniforms), dtype=np.float64)
        total = np.add.reduce(row)
        if total <= 0.0:
            # All-zero underflow is possible for very small concentrations.
            return np.full(n, 1.0 / n, dtype=np.float64)
        row /= total
        return row

    def _gammas(self, concentration: float, n: int, uniforms: list[float] | None) -> list[float]:
        """The ``n`` gamma variates of a row, drawn by the pure-Python loop
        that ``_rowkernel.c`` compiles: the reference the kernel is checked
        against, and the path taken when the kernel is not loaded. It reads
        ``uniforms``, or computes the 4n + 16 draws a row expects to need,
        and extends the list by ``BLOCK`` when a run of rejections overruns
        it."""
        # Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a).
        boost = 1 if concentration < 1.0 else 0
        shape = concentration + 1.0 if boost else concentration
        power = 1.0 / concentration
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        two_pi = 2.0 * math.pi
        log, cos, sqrt = math.log, math.cos, math.sqrt
        start = self._counter
        key = (self._key,)
        us = uniforms
        if us is None:
            size = _ROW_DRAWS_PER_VARIATE * n + _ROW_EXTRA_DRAWS
            us = _uniform_block(key, counter_column(start, size))[0].tolist()
        size = len(us)
        draws: list[float] = []
        append = draws.append
        i = 0
        for _ in range(n):
            b = i  # the boost uniform precedes the variate's attempts
            i += boost
            while True:
                if i + 3 > size:
                    us = us + _uniform_block(key, counter_column(start + size, BLOCK))[0].tolist()
                    size += BLOCK
                x = sqrt(-2.0 * log(us[i])) * cos(two_pi * us[i + 1])
                v = 1.0 + c * x
                if v <= 0.0:
                    i += 2
                    continue
                v = v * v * v
                u = us[i + 2]
                i += 3
                if u < 1.0 - 0.0331 * x * x * x * x or log(u) < 0.5 * x * x + d * (1.0 - v + log(v)):
                    break
            append(d * v * us[b] ** power if boost else d * v)
        # The list's unread tail is dropped: draws consumed are start + i.
        self._counter = start + i
        return draws
