"""Platform-stable seeded randomness.

Every stochastic choice in this library flows through a counter-based
uniform stream keyed by a 64-bit hash, so identical seeds give bit-identical
results on every platform and Python build (unlike the built-in ``hash``).

The chain is: key = fold of integer parts through a splitmix64-style mixer;
uniforms = mixed (key, counter) pairs mapped into (0, 1); normals via
Box-Muller; gamma variates via Marsaglia-Tsang squeeze rejection (with the
usual power-of-uniform boost for shape < 1); Dirichlet rows by normalizing
gamma draws.

Draw ``i`` of a stream depends only on (key, i), as in the counter-based
generators of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC 2011). So a ``Stream`` computes its draws ``BLOCK`` at a time: one numpy
``uint64`` pass mixes a block of consecutive counters and maps it to
uniforms, and the scalar methods hand the results out one by one. The first
draw is still computed alone, because many streams (the sibling coin, most
harness streams) draw once or a few times and a block would cost them more
than it saves. The block math uses the same integer and IEEE float64
operations as ``mix64`` and the scalar uniform formula, so every draw is
bit-identical to the scalar definition. The transcendentals of ``normal``
and ``gamma`` stay scalar ``math`` calls: ``np.log`` does not round like
``math.log`` on every input, and rows must not depend on which is used.

``Stream.dirichlet`` fuses the ``n`` gamma variates of a row into one loop.
It computes the uniforms it expects to need in one numpy pass, extends that
list when a run of rejections overruns it, and indexes it directly. Per
variate the loop does exactly what ``gamma`` does, in the same order: the
boost uniform, then per attempt two uniforms for the normal and one for the
squeeze, and the same ``math`` calls on the same operands. So its rows are
bit-identical to ``n`` calls of ``gamma``, which stays as the reference.
Vectorising the transcendentals would cost more, not less: which draw
starts an attempt depends on every earlier rejection, so a vectorised pass
must score an attempt at every counter or restart after each rejection.
Both designs were tried and both were slower than the scalar loop, because
speculation does about twice the needed ``math`` work.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ULP = 2.0 ** -53

# Draws computed per numpy pass once a stream has drawn once. A Dirichlet
# row takes about four draws per entry (~400 at vocab 100), and one pass
# over 128 counters costs about as much as a dozen scalar draws.
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


def fold(h: int, *parts: int | Iterable[int]) -> int:
    """Continue a key: fold ``parts`` into the state ``h``.

    ``fold(hash_key(*a), *b) == hash_key(*a, *b)``, so a caller that keys
    many streams by one common prefix can fold the prefix once.
    """
    for part in parts:
        if isinstance(part, int):
            h = mix64(h ^ mix64(part & _MASK64))
        else:
            items = tuple(part)
            h = mix64(h ^ mix64(len(items) ^ 0xA5A5A5A5))
            for v in items:
                h = mix64(h ^ mix64(int(v) & _MASK64))
    return h


def hash_key(*parts: int | Iterable[int]) -> int:
    """Fold integers (or nested iterables of integers) into one 64-bit key.

    Sequence boundaries are folded in via the length, so ((1, 2), (3,)) and
    ((1,), (2, 3)) hash differently.
    """
    return fold(0x100F0E0D0C0B0A09, *parts)


def _to_uniforms(block: np.ndarray) -> list[float]:
    """Each draw's top 53 bits shifted into the open interval (0, 1).

    int -> float64 is exact below 2**53, so this is the scalar formula's
    rounding, one IEEE operation at a time.
    """
    return (((block >> _U11).astype(np.float64) + 0.5) * _ULP).tolist()


class Stream:
    """Deterministic random stream for a fixed 64-bit key.

    Draw ``i`` (counting from 1) is ``mix64(key ^ mix64(i))``. The first draw
    is computed alone; later draws are served from blocks of ``BLOCK``, and
    ``dirichlet`` computes a row's draws in one pass of its own.
    ``_counter`` is the number of draws consumed so far.
    """

    __slots__ = ("_key", "_counter", "_start", "_u64s", "_uniforms")

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        self._counter = 0
        # Draws _start + 1 .. _start + len(_uniforms) are buffered.
        self._start = 0
        self._u64s: tuple[int, ...] | np.ndarray = ()
        self._uniforms: list[float] = []

    def _block(self, start: int, count: int) -> np.ndarray:
        """Draws ``start + 1 .. start + count``, mixed in one ``uint64`` pass."""
        block = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        _mix64_block(block)
        block ^= np.uint64(self._key)
        _mix64_block(block)
        return block

    def _refill(self) -> None:
        """Buffer the draws that follow the ``_counter`` consumed ones, each
        also as a uniform."""
        start = self._counter
        if start == 0:
            u = mix64(self._key ^ mix64(1))
            self._u64s = (u,)
            self._uniforms = [((u >> 11) + 0.5) * _ULP]
        else:
            self._u64s = self._block(start, BLOCK)
            self._uniforms = _to_uniforms(self._u64s)
        self._start = start

    def next_u64(self) -> int:
        i = self._counter - self._start
        if i == len(self._uniforms):
            self._refill()
            i = 0
        self._counter += 1
        return int(self._u64s[i])

    def uniform(self) -> float:
        i = self._counter - self._start
        if i == len(self._uniforms):
            self._refill()
            i = 0
        self._counter += 1
        return self._uniforms[i]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def choice(self, items):
        return items[self.randint(0, len(items) - 1)]

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gamma(self, shape: float) -> float:
        """Marsaglia-Tsang gamma variate with unit scale; shape > 0.

        The one-variate definition that ``dirichlet`` fuses; tests compare
        the two.
        """
        if shape <= 0.0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        if shape < 1.0:
            # Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
            u = self.uniform()
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        uniform = self.uniform
        while True:
            # self.normal(), inlined: u1 is drawn before u2.
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

    def dirichlet(self, concentration: float, n: int) -> np.ndarray:
        """Symmetric Dirichlet draw of length ``n``: ``n`` unit-scale gamma
        variates, normalized.

        Each variate takes the draws, and does the arithmetic, of one
        ``gamma(concentration)`` call, in the same order; the loop reads its
        uniforms from one list computed up front.
        """
        if n < 1:
            raise ValueError(f"dirichlet length must be >= 1, got {n}")
        if not 0.0 < concentration < math.inf:
            raise ValueError(f"dirichlet concentration must be finite and > 0, got {concentration}")
        # Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a).
        boost = 1 if concentration < 1.0 else 0
        shape = concentration + 1.0 if boost else concentration
        power = 1.0 / concentration
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        two_pi = 2.0 * math.pi
        log, cos, sqrt = math.log, math.cos, math.sqrt
        start = self._counter
        size = _ROW_DRAWS_PER_VARIATE * n + _ROW_EXTRA_DRAWS
        us = _to_uniforms(self._block(start, size))
        draws: list[float] = []
        append = draws.append
        i = 0
        for _ in range(n):
            b = i  # the boost uniform precedes the variate's attempts
            i += boost
            while True:
                if i + 3 > size:
                    us += _to_uniforms(self._block(start + size, BLOCK))
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
        # The list's unread tail is dropped; the next draw refills from here.
        self._counter = self._start = start + i
        self._u64s = ()
        self._uniforms = []
        row = np.array(draws, dtype=np.float64)
        total = row.sum()
        if total <= 0.0:
            # All-zero underflow is possible for very small concentrations.
            return np.full(n, 1.0 / n, dtype=np.float64)
        return row / total
