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
concentration and its length; an n-gram model's row always starts at
counter 0. Every draw is computed alone, a uniform always by ``_uniform``.

A Dirichlet row is drawn by one of two paths that give the same bytes.
``Stream.dirichlet`` is the Python path: ``Stream._gammas``, the Python
loop, draws the variates and ``_normalized`` divides them by numpy's
``add.reduce`` sum. The compiled kernel (``rowkernel``, ``_rowkernel.c``)
returns the finished rows of a whole block of an n-gram model's contexts
in one call, ``tsd_block``, which folds each row's key, draws the row on a
fresh stream, the gamma variates divided by their sum, and finishes it as
``lm._numpy_finalize`` does. The kernel is built and loaded when a process
first draws an n-gram model's rows, runs a beam search or scores a PSGD
round, and its block is used only if it finishes a fixed set of blocks
(``lm.CHECK_BLOCKS``) exactly as the Python path does; their rows cover a
long run of rejections, the shape 1.0 edge, a boost power of 20, a row
whose every variate underflows, every branch of numpy's pairwise sum and a
row wide enough to tell that sum from any one of its rules changed. The
kernel adds a row up in the order numpy's pairwise sum does, and its check
compares bytes, so a numpy that sums otherwise only sends rows back to
Python. ``compiled()`` loads the kernel once per process, for row blocks,
beam searches and PSGD decodes alike. The transcendentals of both loops are
scalar libm calls, the ones CPython's ``math.log``, ``math.cos``,
``math.sqrt`` and float ``**`` make, on the same operands in the same
order, and never numpy's: ``np.log`` does not round like ``math.log`` on
every input, and rows must not depend on which is used. The kernel is
compiled without floating-point contraction or fast-math for the same
reason. The log of a finished row, which the memo keeps, is the other way
round: it is always numpy's float64 log, ``np.log`` in Python and the same
loop called from the kernel (``rowkernel.log_loop``), which is checked
against ``np.log``'s bytes before the kernel uses it.

``hash_key`` mixes each integer part alone, and a sequence part's length
before its items, so a key can be folded in steps: ``lm.NgramGenModel``
folds a row key's (seed, tag, source) part once per source in Python, and
the kernel's ``tsd_block`` folds each context onto it, bit for bit as
``hash_key`` would.

``Stream._gammas`` fuses the ``n`` gamma variates of a row into one loop,
the kernel's loop written in Python. It computes each uniform when it
needs it, from the key and the draw's counter, as the kernel does, so a
run of rejections of any length needs no special case. Per variate the
loop does exactly what the one-variate sampler does, in the same order:
the boost uniform, then per attempt two uniforms for the normal and one
for the squeeze, and the same ``math`` calls on the same operands. So its
rows are bit-identical to ``n`` calls of that sampler, ``gamma`` in
``tests/util.py``, which the tests keep as the reference.
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
from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ULP = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit bijective mixer."""
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniform(key: int, i: int) -> float:
    """Draw ``i`` of the stream keyed by ``key`` as a uniform in (0, 1): its
    top 53 bits, offset by half a step."""
    return ((mix64(key ^ mix64(i)) >> 11) + 0.5) * _ULP


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
            h = mix64(h ^ mix64(len(items) ^ 0xA5A5A5A5))
            for v in items:
                h = mix64(h ^ mix64(int(v) & _MASK64))
    return h


# This process's compiled kernel, a ``rowkernel.Functions``, once the first
# n-gram row block, beam search or PSGD decode has loaded it; None before.
# Next to it, set by the same load, numpy's float64 log loop that passed its
# check (``rowkernel.log_loop``), with which the compiled searches log the
# rows they draw; None when it did not, or before the load.
_compiled = _log = None
_lock = threading.Lock()


def compiled():
    """The compiled kernel's functions for this process, None for each that
    runs in Python: the first call, from the first n-gram row block, beam
    search or PSGD decode, finds numpy's float64 log loop, then builds or
    finds the kernel and opens it (``rowkernel.load``), and sets ``_log``;
    every later call returns the same functions."""
    global _compiled, _log
    with _lock:
        if _compiled is None:
            from . import rowkernel

            _log = rowkernel.log_loop()
            _compiled = rowkernel.load(log=_log)
        return _compiled


def _normalized(gammas: list[float]) -> np.ndarray:
    """The Dirichlet row of the variates ``gammas``: each divided by their
    ``np.add.reduce`` sum (``ndarray.sum`` without its Python wrapper, so the
    same bytes), in place in a new array, or uniform if every variate
    underflowed to 0, as at very small concentrations."""
    row = np.array(gammas, dtype=np.float64)
    total = np.add.reduce(row)
    if total <= 0.0:
        return np.full(len(row), 1.0 / len(row), dtype=np.float64)
    row /= total
    return row


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
        self._counter += 1
        return _uniform(self._key, self._counter)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def choice(self, items):
        return items[self.randint(0, len(items) - 1)]

    def dirichlet(self, concentration: float, n: int) -> np.ndarray:
        """Symmetric Dirichlet draw of length ``n``: ``n`` unit-scale gamma
        variates, normalized.

        Each variate takes the draws, and does the arithmetic, of one call of
        the one-variate sampler (``gamma`` in ``tests/util.py``) at shape
        ``concentration``, in the same order: ``_gammas`` draws the
        variates and ``_normalized`` divides them by their sum. If every
        variate underflows to 0, as at very small concentrations, the row is
        uniform. The compiled ``tsd_block`` draws each row of a block as
        this does on a fresh stream, and is checked against it.
        """
        if n < 1:
            raise ValueError(f"dirichlet length must be >= 1, got {n}")
        if not 0.0 < concentration < math.inf:
            raise ValueError(f"dirichlet concentration must be finite and > 0, got {concentration}")
        return _normalized(self._gammas(concentration, n))

    def _gammas(self, concentration: float, n: int) -> list[float]:
        """The ``n`` gamma variates of a row: ``_rowkernel.c``'s loop written
        in Python, the reference the kernel is checked against and the path
        taken when the kernel's row block is not loaded. Like the kernel,
        it draws each uniform when it needs it, ``_uniform(key, i)`` at the
        same counter ``i``."""
        # Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a).
        boost = 1 if concentration < 1.0 else 0
        shape = concentration + 1.0 if boost else concentration
        power = 1.0 / concentration
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        two_pi = 2.0 * math.pi
        log, cos, sqrt, uniform = math.log, math.cos, math.sqrt, _uniform
        key, i = self._key, self._counter
        draws: list[float] = []
        append = draws.append
        for _ in range(n):
            b = uniform(key, i + 1) if boost else 0.0  # precedes the attempts
            i += boost
            while True:
                x = sqrt(-2.0 * log(uniform(key, i + 1))) * cos(two_pi * uniform(key, i + 2))
                v = 1.0 + c * x
                if v <= 0.0:
                    i += 2
                    continue
                v = v * v * v
                u = uniform(key, i + 3)
                i += 3
                if u < 1.0 - 0.0331 * x * x * x * x or log(u) < 0.5 * x * x + d * (1.0 - v + log(v)):
                    break
            append(d * v * b ** power if boost else d * v)
        self._counter = i
        return draws

