"""Conditional autoregressive sequence models over integer vocabularies.

Build a model with its class constructor: ``UniformModel(vocab)``,
``TableModel(vocab, order, table)`` or ``NgramGenModel(vocab, order, seed,
concentration)``; ``make_perturbed_sibling`` derives an n-gram model's
sibling, and ``model_from_spec``/``load_model_spec`` read the spec schema.
A model's ``name`` (its spec kind), ``vocab``, context ``order`` and
``seed`` are plain attributes.

A model maps (source sequence, target prefix) to a normalized next-token
distribution. Every query is served from one memo of finalized log rows,
one dict per source keyed by context, read by one lookup that checks
nothing, ``rows_after``: the log rows after each of a batch of prefixes of
one source, whose contexts one ``_contexts`` call computes. The log rows
sit in the model's row store, float64 chunks that never move, and each
memo row is a read-only view of its chunk: every decoder scores with
log-probabilities only, and a row's log is numpy's float64 log. A missed
row takes one of two routes. ``_draw`` is the route in Python: it takes
the finished rows of the contexts a batch misses as one block from
``_finished_rows``, each distinct context once, writes their log into the
chunk's next rows with ``np.log`` and keeps a view per context. A source
that a compiled search reads also has an index (``_Index``), through which
the search reads rows by context, without Python. The search draws the
``NgramGenModel`` rows a step misses itself, into the chunk's free rows,
with the source's ``_row_params``, writes their log with the loop
``np.log`` runs on float64 (``rowkernel.log_loop``), enters them into the
index and goes on; Python keeps a view per context when it returns. When
the chunk lacks room for a step's rows, Python opens a new one
(``_room``). A table or uniform model, or a search without the checked row
block or log loop, hands the contexts to ``_draw`` instead, and the rows
enter the index on the search's next call. Either way no row is reachable
before its log is written. Row bytes do not depend on the block
or the route: an ``NgramGenModel`` row is a pure function of its key,
``hash_key(seed, tag, source, context)``, and finishing acts on each row
alone, in place. The compiled kernel returns an ``NgramGenModel`` block's
finished rows in one call (``tsd_block``), which folds each context onto
the source's keys, tosses a sibling's coins, draws the rows and finishes
them, when it passed its check (``block_self_check``); otherwise
``_python_rows`` does the same in Python: ``_row_keys`` folds each key,
``Stream.dirichlet`` draws each row with the Python loop and
``_numpy_finalize`` finishes the block. The kernel adds each row up in the
order numpy's ``add.reduce`` does, and the check compares the bytes of both
paths rather than assume they match. The rows of the other models are
finished in numpy.

The one checked query, ``forced_pass``, checks its tokens with
``core.check_tokens`` (BOS and EOS are allowed in the source only) and
reads the rows at every position of a target with one ``rows_after`` call;
its ``log_rows`` hold the log distribution at every position
(``seq_logprob``, the PSGD two-pass reference). Its probability rows are
finished again by ``_finished_rows``, outside the memo, when first read. The
decoders check their inputs once per decode; the Python searches then call
``rows_after`` directly, once per round or step.

All rows are post-processed the same way: BOS gets probability exactly 0,
and every other entry is floored at ``EPS_FLOOR`` (by mixing in that much
uniform mass), so scoring an arbitrary constraint token can never produce
-inf. Rows that are uniform over non-BOS ids are unchanged by the mix.
"""

from __future__ import annotations

import json
import math
from ctypes import addressof, c_char, c_double
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from struct import pack
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import TokenSeq, TsError, Vocab, check_float, check_int, check_tokens
from . import rng
from .rng import Stream, hash_key, mix64

EPS_FLOOR = 1e-12
_NO_MASS = "row has no probability mass outside BOS"

_KIND_UNIFORM = "uniform"
_KIND_TABLE = "table"
_KIND_NGRAM = "ngram_gen"

# Key tags of an n-gram model's rows and of a perturbed sibling's coins.
_ROW_TAG = 0x6E6772616D
_COIN_TAG = 0x636F696E


class UnnormalizedRow(TsError):
    """A supplied probability row does not sum to 1 within 1e-9."""


class InvalidModelSpec(TsError, ValueError):
    """A model spec is not JSON, lacks a key or holds an invalid value."""


Tokens = tuple[int, ...]


def as_tokens(seq: TokenSeq | Sequence[int]) -> Tokens:
    if isinstance(seq, TokenSeq):
        return seq.tokens
    return tuple(map(int, seq))


@dataclass(frozen=True)
class StepDistribution:
    """A normalized next-token distribution at one target position."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ValueError("probs must be a vector")
        if probs.min() < 0.0 or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probs must be non-negative and sum to 1 within 1e-9")


@dataclass(frozen=True)
class ForcedPassResult:
    """Distributions for every position of one scored target sequence.

    ``distributions[t]`` is the next-token distribution given BOS plus the
    first ``t`` target tokens; there are ``len(target) + 1`` entries.
    ``log_rows[t]`` is the log of that distribution, the memo's read-only
    row. The memo holds no probability rows: ``_prob_rows`` builds them
    again, and ``distributions`` (and so ``matrix``) calls it and builds and
    validates the ``StepDistribution`` objects on first read only.
    """

    _prob_rows: Callable[[], Sequence[np.ndarray]] = field(repr=False)
    log_rows: tuple = field(repr=False, compare=False)

    @cached_property
    def distributions(self) -> tuple[StepDistribution, ...]:
        return tuple(StepDistribution(probs) for probs in self._prob_rows())

    def __len__(self) -> int:
        return len(self.log_rows)

    def matrix(self) -> np.ndarray:
        return np.stack([d.probs for d in self.distributions])


def _numpy_finalize(rows: np.ndarray, bos_id: int) -> np.ndarray:
    """Zero BOS, renormalize each raw row of the (R, V) float64 block
    ``rows``, mix in the EPS_FLOOR uniform floor, in place; returns the
    block, BOS exactly 0. Each row comes out as it would alone: the sum runs
    along the contiguous axis, as a 1-D row's does, and every other step is
    elementwise. ``tsd_block`` finishes each row it draws as this does."""
    rows[:, bos_id] = 0.0
    total = np.add.reduce(rows, axis=1)
    if min(total.tolist()) <= 0.0:
        raise ValueError(_NO_MASS)
    rows /= total[:, None]
    k = rows.shape[1] - 1
    rows *= 1.0 - k * EPS_FLOOR
    rows += EPS_FLOOR
    rows[:, bos_id] = 0.0
    return rows


# Rows per chunk of the row store, unless one block needs more.
CHUNK_ROWS = 64


class _Index:
    """The index the compiled searches probe for one source's memo rows.

    ``table`` is an int64 ``array`` of ``2 ** bits`` slots of 2 + the
    model's order ids, each ``[row address, context length, context ids]``
    or 0s; ``rowkernel._Resumable`` sizes it for ``count`` rows and the
    kernel enters the rows into it. A source has an index from its first
    compiled search on; ``_draw`` then queues each block it adds in
    ``pending``, as ``(contexts, address of the first row)``, and a search
    enters the rows it draws itself as it draws them.
    """

    __slots__ = ("pending", "count", "table", "bits")

    def __init__(self, pending: list[tuple[Sequence[Tokens], int]]) -> None:
        self.pending, self.count = pending, 0
        self.table, self.bits = None, 0


class SequenceModel:
    """Base class: subclasses provide the raw rows of contexts of one source,
    or their finished rows.

    ``name`` is the spec kind, ``order`` the context length; ``seed`` is the
    row seed of models that draw their rows (0 for the others). Finalized
    log rows are memoized per source, then per context; their data sit in
    the model's row store, float64 chunks of ``CHUNK_ROWS`` rows
    that never move, filled in the order the rows are drawn. The model
    holds every chunk it has filled, so a row an index reaches lives as
    long as the model, even if no memo view of it was kept. It also holds
    one compiled decode context per search kind (``rowkernel``), made on
    its first compiled decode of that kind and reused by the later ones. A
    model runs one decode at a time, as its memo and its chunk already
    require: two threads may not decode on one model at once.
    """

    seed = 0

    def __init__(self, name: str, vocab: Vocab, order: int) -> None:
        if order < 1:
            raise ValueError("context_order must be >= 1")
        self.name = name
        self.vocab = vocab
        self.order = order
        self._row_cache: dict[Tokens, dict[Tokens, np.ndarray]] = {}
        self._indexes: dict[Tokens, _Index] = {}
        # Every chunk filled; the chunk being filled, its read-only view, its
        # address and the rows used.
        self._chunks: list[np.ndarray] = []
        self._chunk = self._read_only = np.empty((0, vocab.size))
        self._address = self._used = 0
        # Per compiled search kind, its decode context (``rowkernel``).
        self._decoders: dict[type, object] = {}

    def _contexts(self, prefixes: Sequence[Tokens]) -> list[Tokens]:
        """The conditioning context of each target prefix: the last
        ``order`` tokens of BOS + prefix.

        A subclass may condition on less, but never on more: rows that only
        depend on the last ``order`` tokens are what lets PSGD score a span
        without re-reading the rows it cannot change."""
        order, bos = self.order, (self.vocab.bos_id,)
        return [prefix[-order:] if len(prefix) >= order else bos + prefix for prefix in prefixes]

    def _raw_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> Sequence[np.ndarray]:
        """The raw rows of ``contexts`` of one source, which the caller only
        reads."""
        raise NotImplementedError

    def _finished_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> np.ndarray:
        """The probability rows of ``contexts`` of one source: a new (R, V)
        float64 block, BOS exactly 0, each row finished from its raw row by
        ``_numpy_finalize``. The raw rows are copied first, never written."""
        return _numpy_finalize(np.array(self._raw_rows(source, contexts), dtype=np.float64), self.vocab.bos_id)

    def _row_params(self, source: Tokens) -> tuple | None:
        """The parameters with which the compiled row block draws the rows
        of ``source``, in the order of ``_rowkernel.c``'s ``struct
        tsd_source``; None for a model whose rows it does not draw."""
        return None

    def _draw(self, source: Tokens, contexts: Sequence[Tokens]) -> None:
        """Memoise the log rows of distinct uncached contexts of one source,
        from one block of ``_finished_rows``: the memo's miss path in Python.
        Their log is written into the chunk's next rows, in a new chunk when
        they do not fit (``_room``), each context keeps a read-only view of
        its row, and the block is queued for the source's index once it has
        one."""
        n, size, bos = len(contexts), self.vocab.size, self.vocab.bos_id
        rows = self._finished_rows(source, contexts)
        self._room(n)
        at = self._used
        logs = self._chunk[at : at + n]
        # The log of BOS's exact 0 is -inf, written after the log: with a
        # 1.0 there, np.log meets no zero (every other entry is at least
        # EPS_FLOOR) and needs no np.errstate.
        rows[:, bos] = 1.0
        np.log(rows, out=logs)
        logs[:, bos] = -math.inf
        self._row_cache.setdefault(source, {}).update(zip(contexts, self._read_only[at : at + n]))
        self._used = at + n
        index = self._indexes.get(source)
        if index is not None:
            index.pending.append((contexts, self._address + 8 * size * at))

    def _room(self, n: int) -> None:
        """Give the chunk room for ``n`` more rows: when it lacks it, fill a
        new chunk of ``CHUNK_ROWS`` rows, or ``n`` if more, next."""
        if self._used + n > len(self._chunk):
            self._new_chunk(np.empty((max(CHUNK_ROWS, n), self.vocab.size)))

    def _new_chunk(self, chunk: np.ndarray) -> None:
        """Fill the C-contiguous float64 (R, V) array ``chunk`` next, from
        its first row."""
        self._chunks.append(chunk)
        self._chunk, self._read_only = chunk, chunk.view()
        self._read_only.setflags(write=False)
        self._address, self._used = addressof(c_char.from_buffer(chunk)), 0

    def rows_after(self, source: Tokens, prefixes: Sequence[Tokens]) -> list[np.ndarray]:
        """The memoised log rows of the next-token distribution given BOS +
        each of ``prefixes``: the memo's one reader. The source's memo is
        looked up once, one pass over the prefixes' contexts finds those it
        misses, and every row the batch misses is drawn in one block, each
        distinct context once. Nothing is checked: the source and prefixes
        must be int tuples whose ids ``check_tokens`` accepts (the source
        with BOS and EOS allowed)."""
        memo = self._row_cache.setdefault(source, {})
        contexts = self._contexts(prefixes)
        missing = [c for c in contexts if c not in memo]
        if missing:
            self._draw(source, tuple(dict.fromkeys(missing)))
        return [memo[c] for c in contexts]

    def _prob_rows(self, source: Tokens, prefixes: Sequence[Tokens]) -> np.ndarray:
        """The probability rows after each of ``prefixes``, finished again by
        ``_finished_rows``; the memo is neither read nor written."""
        return self._finished_rows(source, self._contexts(prefixes))

    def forced_pass(self, source: TokenSeq | Sequence[int], target: TokenSeq | Sequence[int]) -> ForcedPassResult:
        """The rows at every position of ``target``, from one ``rows_after``
        batch, after checking both sequences with ``check_tokens``."""
        src = as_tokens(source)
        tgt = as_tokens(target)
        check_tokens(src, self.vocab, "source", content=False)
        check_tokens(tgt, self.vocab, "target")
        prefixes = [tgt[:t] for t in range(len(tgt) + 1)]
        return ForcedPassResult(partial(self._prob_rows, src, prefixes), tuple(self.rows_after(src, prefixes)))


def seq_logprob(model: SequenceModel, source, target, include_eos: bool = True) -> float:
    """Natural-log probability of ``target`` given ``source`` via one forced pass."""
    tgt = as_tokens(target)
    log_rows = model.forced_pass(source, tgt).log_rows
    total = 0.0
    for row, tok in zip(log_rows, tgt):
        total += float(row[tok])
    if include_eos:
        total += float(log_rows[len(tgt)][model.vocab.eos_id])
    return total


def _uniform_row(vocab: Vocab) -> np.ndarray:
    """The distribution uniform over all non-BOS ids."""
    row = np.full(vocab.size, 1.0 / (vocab.size - 1), dtype=np.float64)
    row[vocab.bos_id] = 0.0
    return row


class UniformModel(SequenceModel):
    """Every distribution is uniform over all non-BOS ids."""

    def __init__(self, vocab: Vocab) -> None:
        super().__init__(_KIND_UNIFORM, vocab, 1)
        self._row = _uniform_row(vocab)

    def _raw_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> list[np.ndarray]:
        return [self._row] * len(contexts)


class TableModel(SequenceModel):
    """A lookup model: explicit rows per (source, context), uniform fallback.

    Table keys are (source tokens, context tokens) pairs where the context
    is the last ``order`` tokens of the BOS-prefixed target (so BOS ids
    appear in contexts near the sequence start). Rows must be normalized;
    positions without a row fall back to uniform over non-BOS ids.
    """

    def __init__(
        self,
        vocab: Vocab,
        order: int,
        table: Mapping[tuple[Tokens, Tokens], Sequence[float]],
    ) -> None:
        super().__init__(_KIND_TABLE, vocab, order)
        self._table: dict[tuple[Tokens, Tokens], np.ndarray] = {}
        for (src, ctx), row in table.items():
            arr = np.asarray(row, dtype=np.float64)
            if arr.shape != (vocab.size,):
                raise ValueError(f"row for {(src, ctx)} has wrong length {arr.shape}")
            if arr.min() < 0.0:
                raise UnnormalizedRow(f"row for {(src, ctx)} has negative entries")
            if abs(float(arr.sum()) - 1.0) > 1e-9:
                raise UnnormalizedRow(
                    f"row for {(src, ctx)} sums to {float(arr.sum())}, expected 1"
                )
            if len(ctx) > order:
                raise ValueError(f"context {ctx} longer than order {order}")
            if not all(0 <= t < vocab.size for t in (*src, *ctx)):
                raise ValueError(
                    f"table key {_encode_table_key(src, ctx)!r} has an id outside [0, {vocab.size})"
                )
            self._table[(tuple(src), tuple(ctx))] = arr
        self._fallback = _uniform_row(vocab)

    def _raw_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> list[np.ndarray]:
        return [self._table.get((source, context), self._fallback) for context in contexts]


class NgramGenModel(SequenceModel):
    """Deterministic synthetic n-gram model with Dirichlet-distributed rows.

    Each (source, context) row is drawn lazily from a symmetric
    Dirichlet(concentration) over non-BOS ids, keyed by a platform-stable
    hash of (seed, source, context), then memoized. An optional perturbation
    redraws a fraction of contexts under a second seed, which yields a
    "sibling" model that mostly agrees with the base one but makes plausible
    errors elsewhere.
    """

    def __init__(
        self,
        vocab: Vocab,
        order: int,
        seed: int,
        concentration: float,
        perturb_seed: int | None = None,
        perturb_rate: float = 0.0,
    ) -> None:
        if not 0.0 < concentration < math.inf:
            raise ValueError(f"concentration must be finite and > 0, got {concentration}")
        if not 0.0 <= perturb_rate <= 1.0:
            raise ValueError("perturb_rate must be in [0, 1]")
        super().__init__(_KIND_NGRAM, vocab, order)
        self.seed = seed
        self.concentration = float(concentration)
        self.perturb_seed = perturb_seed
        self.perturb_rate = float(perturb_rate)
        # A sibling tosses a coin per context, keyed by ``perturb_seed``, and
        # redraws the row under ``_perturbed_seed`` when it lands below the rate.
        self._rate = self.perturb_rate if perturb_seed is not None else 0.0
        if perturb_seed is not None:
            self._perturbed_seed = mix64(seed ^ mix64(perturb_seed))
        # Per source seen, its ``_row_params``.
        self._source_params: dict[Tokens, tuple] = {}

    def _finished_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> np.ndarray:
        """The contexts' finished rows from one ``tsd_block`` call when the
        compiled block passed its check, otherwise from ``_python_rows``."""
        block = (rng._compiled or rng.compiled()).block
        if block:
            return self._block_rows(block, source, contexts, np.empty((len(contexts), self.vocab.size)))
        return self._python_rows(source, contexts)

    def _python_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> np.ndarray:
        """The Python twin of ``tsd_block``: one ``Stream.dirichlet`` row per
        key of ``_row_keys``, in every column but BOS (id 0), finished by
        ``_numpy_finalize``."""
        rows = np.zeros((len(contexts), self.vocab.size), dtype=np.float64)
        keys = self._row_keys(source, contexts)
        rows[:, 1:] = [Stream(key).dirichlet(self.concentration, self.vocab.size - 1) for key in keys]
        return _numpy_finalize(rows, 0)

    def _row_keys(self, source: Tokens, contexts: Sequence[Tokens]) -> list[int]:
        """Each context's row key: ``hash_key(seed, _ROW_TAG, source,
        context)``, under ``_perturbed_seed`` where a sibling's coin lands
        below the rate. The Python twin of ``tsd_block``'s fold."""
        keys = []
        for context in contexts:
            seed = self.seed
            if self._rate > 0.0:
                if Stream(hash_key(self.perturb_seed, _COIN_TAG, source, context)).uniform() < self._rate:
                    seed = self._perturbed_seed
            keys.append(hash_key(seed, _ROW_TAG, source, context))
        return keys

    def _row_params(self, source: Tokens) -> tuple:
        """``hash_key(seed, tag, source)`` for the source's rows, its
        sibling's rows and its coins (0 for a model with no sibling), onto
        which the compiled block folds each context, then the rate, the
        concentration, and the scale and the floor of ``_numpy_finalize``."""
        params = self._source_params.get(source)
        if params is None:
            alt = coin = 0
            if self.perturb_seed is not None:
                alt = hash_key(self._perturbed_seed, _ROW_TAG, source)
                coin = hash_key(self.perturb_seed, _COIN_TAG, source)
            size = self.vocab.size
            params = self._source_params[source] = (
                hash_key(self.seed, _ROW_TAG, source), alt, coin, self._rate, self.concentration,
                1.0 - (size - 1) * EPS_FLOOR, EPS_FLOOR,
            )
        return params

    def _block_rows(self, block, source: Tokens, contexts: Sequence[Tokens], rows: np.ndarray) -> np.ndarray:
        """The contexts' finished rows, written over every entry of the
        C-contiguous float64 block ``rows`` by the compiled ``block``
        (``tsd_block``) with the source's ``_row_params``."""
        h_row, h_alt, h_coin, rate, concentration, scale, eps = self._row_params(source)
        # The contexts' lengths, then their ids one after another, as int64
        # bytes: ``struct`` packs them faster than a ctypes array is built.
        n = len(contexts)
        lengths = [*map(len, contexts)]
        packed = pack(f"{n + sum(lengths)}q", *lengths, *chain.from_iterable(contexts))
        block(h_row, h_alt, h_coin, rate, packed, n, self.vocab.size, concentration, scale, eps,
              c_double.from_buffer(rows))
        return rows


def make_perturbed_sibling(model: NgramGenModel, perturb_seed: int, rate: float = 0.3) -> NgramGenModel:
    """A sibling of ``model`` whose rows differ on ~``rate`` of contexts."""
    return NgramGenModel(
        vocab=model.vocab,
        order=model.order,
        seed=model.seed,
        concentration=model.concentration,
        perturb_seed=perturb_seed,
        perturb_rate=rate,
    )


# Blocks the compiled ``tsd_block`` must finish byte for byte as
# ``_python_rows`` does: (vocab size, concentration, rate, source, contexts)
# of a sibling with seed 41 and perturb_seed 7 at that rate. The first holds
# a context of every length from 0 to 6 on the empty source; at rate 0.5
# three of its coins land below the rate and four above, and three would
# land otherwise if drawn at counter 0. In the second every coin lands below
# rate 1.0, and the row's boost power is 20. The last three rows were found
# by search: a boosted row with a long run of rejections, 98 draws where
# 4n + 16 is 96; a row whose every variate underflows to 0, so it comes out
# uniform; and a 258-wide row at the shape 1.0 edge, which does not boost.
# numpy sums that row's 257 variates in parts of 128 and 129 entries, the
# second split again, and the finished row's 258 entries in parts of 128
# and 130, the second split again; so the rows' two sums, of V - 1 and V
# entries, take every branch of numpy's pairwise sum between them: below 8
# entries, 8 accumulators with and without a remainder, and parts split
# once and twice. The wide row's bytes change with any one rule of that sum
# changed (added left to right, in one part up to 256 entries, split off a
# multiple of 8, the accumulators added in order, the remainder added
# first), when it is multiplied by the reciprocal of its Dirichlet sum, and
# with any one rule of the finish changed (BOS in the sum, BOS left at the
# floor, the row multiplied by the scale over its sum). The check fills
# each block with NaN first, so an entry the kernel leaves unwritten
# changes bytes too.
CHECK_BLOCKS = (
    (3, 2.5, 0.5, (), ((), (0,), (0, 2), (2, 2, 0), (0, 2, 2, 2), (2, 0, 2, 2, 0), (2, 2, 2, 0, 0, 2))),
    (10, 0.05, 1.0, (2,), ((0, 2),)),
    (21, 0.2, 0.0, (), ((10, 13, 4),)),
    (4, 0.001, 0.0, (), ((0, 2, 2, 2),)),
    (258, 1.0, 0.0, (), ((43,),)),
)


def block_self_check(block) -> bool:
    """Whether the compiled ``block`` (``tsd_block``) finishes every block
    of ``CHECK_BLOCKS`` with the bytes of ``_python_rows``, writing every
    entry of a block that holds NaN before the call."""
    for size, concentration, rate, source, contexts in CHECK_BLOCKS:
        model = NgramGenModel(Vocab(size), 6, 41, concentration, 7, rate)
        got = model._block_rows(block, source, contexts, np.full((len(contexts), size), math.nan))
        if got.tobytes() != model._python_rows(source, contexts).tobytes():
            return False
    return True


# ---------------------------------------------------------------------------
# Model spec files
# ---------------------------------------------------------------------------

def _encode_table_key(src: Tokens, ctx: Tokens) -> str:
    return "src:%s|ctx:%s" % (",".join(map(str, src)), ",".join(map(str, ctx)))


def _decode_table_key(key: str) -> tuple[Tokens, Tokens]:
    """The (source, context) pair a ``src:…|ctx:…`` table key names."""
    parts = key.split("|") if isinstance(key, str) else []
    if [part[:4] for part in parts] == ["src:", "ctx:"]:
        try:
            return tuple(tuple(int(v) for v in part[4:].split(",") if v != "") for part in parts)
        except ValueError:
            pass
    raise ValueError(f"malformed table key {key!r}")


def _table_from_spec(table) -> dict[tuple[Tokens, Tokens], list[float]]:
    """A spec's ``table``: null, or an object mapping ``src:…|ctx:…`` keys
    to rows of numbers."""
    if table is None:
        return {}
    if not isinstance(table, Mapping):
        raise ValueError(f"table must be an object or null, got {type(table).__name__}")
    rows = {}
    for key, row in table.items():
        name = f"table[{key!r}]"
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{name} must be a list of numbers, got {row!r}")
        rows[_decode_table_key(key)] = [check_float(name, v) for v in row]
    return rows


def model_to_spec(model: SequenceModel) -> dict:
    """Serialize a model to the JSON spec schema."""
    spec = {
        "kind": model.name,
        "vocab_size": model.vocab.size,
        "order": model.order,
        "seed": model.seed,
        "concentration": 0.0,
        "table": None,
    }
    if isinstance(model, NgramGenModel):
        if model.perturb_seed is not None:
            raise ValueError("perturbed sibling models are not serializable")
        spec["concentration"] = model.concentration
    elif isinstance(model, TableModel):
        spec["table"] = {
            _encode_table_key(src, ctx): [float(v) for v in row]
            for (src, ctx), row in sorted(model._table.items())
        }
    elif not isinstance(model, UniformModel):
        raise ValueError(f"cannot serialize model kind {model.name!r}")
    return spec


def model_from_spec(spec: Mapping) -> SequenceModel:
    """Build the model a spec describes; InvalidModelSpec if it cannot."""
    try:
        vocab = Vocab(size=check_int("vocab_size", spec["vocab_size"]))
        kind = spec["kind"]
        if kind == _KIND_UNIFORM:
            return UniformModel(vocab)
        if kind == _KIND_TABLE:
            return TableModel(vocab, check_int("order", spec["order"]), _table_from_spec(spec["table"]))
        if kind == _KIND_NGRAM:
            return NgramGenModel(
                vocab,
                check_int("order", spec["order"]),
                check_int("seed", spec["seed"]),
                check_float("concentration", spec["concentration"]),
            )
    except KeyError as exc:
        raise InvalidModelSpec(f"model spec lacks key {exc}") from exc
    except (TypeError, ValueError, UnnormalizedRow) as exc:
        raise InvalidModelSpec(f"invalid model spec: {exc}") from exc
    raise InvalidModelSpec(f"unknown model kind {kind!r}")


def save_model_spec(path: str | Path, model: SequenceModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_spec(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_spec(path: str | Path) -> SequenceModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return model_from_spec(json.load(fh))
    except ValueError as exc:  # not JSON, or an InvalidModelSpec
        raise InvalidModelSpec(f"{path}: {exc}") from exc
