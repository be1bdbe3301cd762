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
(SC 2011), so a ``Stream`` holds nothing but its key and counter. The scalar
methods compute each draw alone. ``dirichlet`` is the one numpy path: it
mixes a block of consecutive counters in one ``uint64`` pass, because a row
of n entries needs about 4n draws, while a harness stream needs about a
dozen, too few for a numpy pass to pay for itself. The block math uses the
same integer and IEEE float64 operations as ``mix64`` and the scalar uniform
formula, so every draw is bit-identical to the scalar definition. The
transcendentals of ``gamma`` and ``dirichlet`` stay scalar ``math`` calls:
``np.log`` does not round like ``math.log`` on every input, and rows must
not depend on which is used.

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


class Stream:
    """Deterministic random stream for a fixed 64-bit key.

    Draw ``i`` (counting from 1) is ``mix64(key ^ mix64(i))``. ``_counter``
    is the number of draws consumed so far, and the stream's only state.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        self._counter = 0

    def _uniforms(self, start: int, count: int) -> list[float]:
        """Draws ``start + 1 .. start + count`` as uniforms, in one ``uint64``
        pass.

        Each draw's top 53 bits are shifted into (0, 1); int -> float64 is
        exact below 2**53, so this is the scalar formula's rounding, one IEEE
        operation at a time.
        """
        block = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        _mix64_block(block)
        block ^= np.uint64(self._key)
        _mix64_block(block)
        return (((block >> _U11).astype(np.float64) + 0.5) * _ULP).tolist()

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

    def gamma(self, shape: float) -> float:
        """Marsaglia-Tsang gamma variate with unit scale; shape > 0.

        The one-variate definition that ``dirichlet`` fuses; tests compare
        the two.
        """
        if not 0.0 < shape < math.inf:
            raise ValueError(f"gamma shape must be finite and > 0, got {shape}")
        if shape < 1.0:
            # Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
            u = self.uniform()
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        uniform = self.uniform
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
        us = self._uniforms(start, size)
        draws: list[float] = []
        append = draws.append
        i = 0
        for _ in range(n):
            b = i  # the boost uniform precedes the variate's attempts
            i += boost
            while True:
                if i + 3 > size:
                    us += self._uniforms(start + size, BLOCK)
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
        row = np.array(draws, dtype=np.float64)
        total = row.sum()
        if total <= 0.0:
            # All-zero underflow is possible for very small concentrations.
            return np.full(n, 1.0 / n, dtype=np.float64)
        return row / total
