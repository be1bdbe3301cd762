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
one source, whose contexts one ``_contexts`` call computes. Its one miss
path, ``_draw``, draws the rows a batch misses as one block, each distinct
context once, and keeps one read-only log row per context: every decoder
scores with log-probabilities only. Row bytes do not depend on the block:
an ``NgramGenModel`` row is a pure function of its key, ``hash_key(seed,
tag, source, context)``, and finalizing acts on each row alone, in place in
the block. The compiled kernel draws an ``NgramGenModel`` block in one call
(``tsd_block``), which folds each context onto the source's keys, tosses a
sibling's coins and draws the rows, when it passed its check
(``block_self_check``); otherwise
``_row_keys`` folds each key in Python and ``Stream.dirichlet`` draws
each row with the Python loop. The kernel finalizes a
block in one call (``tsd_finalize``) when it passed its check
(``finalize_self_check``), and numpy does otherwise (``_numpy_finalize``);
the kernel adds each row up in the order numpy's ``add.reduce`` does, and
each check compares the bytes of both paths rather than assume they match.

The one checked query, ``forced_pass``, checks its tokens with
``core.check_tokens`` (BOS and EOS are allowed in the source only) and
reads the rows at every position of a target with one ``rows_after`` call;
its ``log_rows`` hold the log distribution at every position
(``seq_logprob``, the PSGD two-pass reference). Its probability rows are
finalized again from the raw rows, outside the memo, when first read. The
decoders check their inputs once per decode and then call ``rows_after``
directly: PSGD once per scoring round for the few rows its items' spans
change, the beam core once per step for one row per hypothesis.

All rows are post-processed the same way: BOS gets probability exactly 0,
and every other entry is floored at ``EPS_FLOOR`` (by mixing in that much
uniform mass), so scoring an arbitrary constraint token can never produce
-inf. Rows that are uniform over non-BOS ids are unchanged by the mix.
"""

from __future__ import annotations

import json
import math
from ctypes import c_double
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from struct import pack
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import TokenSeq, TsError, Vocab, check_float, check_int, check_tokens
from . import rng
from .rng import Stream, _normalized, hash_key, mix64

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


def _finalize_rows(raws: np.ndarray | Sequence[np.ndarray], bos_id: int) -> np.ndarray:
    """Zero BOS, renormalize each raw row, mix in the EPS_FLOOR uniform
    floor. Returns the (R, V) block of probability rows, BOS exactly 0.

    An (R, V) float64 array is finalized in place; a list of rows is first
    stacked into a fresh array, so the rows it holds are never written. The
    compiled kernel finalizes a C-contiguous block when it passed its check
    (``rng.compiled().finalize``, through ``_compiled_finalize``), and
    ``_numpy_finalize`` does otherwise; both give the same bytes. ``_draw``
    copies each memo row out of its block: memo rows kept as views of their
    blocks raised the ratio-sweep benchmark's peak RSS by about 0.6 MB
    (1.5%)."""
    rows = np.asarray(raws, dtype=np.float64)
    finalize = (rng._compiled or rng.compiled()).finalize
    if finalize and rows.flags.c_contiguous:
        return _compiled_finalize(finalize, rows, bos_id)
    return _numpy_finalize(rows, bos_id)


def _numpy_finalize(rows: np.ndarray, bos_id: int) -> np.ndarray:
    """``_finalize_rows`` of an (R, V) float64 block in numpy, in place: the
    reference ``tsd_finalize`` is checked against. Each row comes out as it
    would alone: the sum runs along the contiguous axis, as a 1-D row's
    does, and every other step is elementwise."""
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


def _compiled_finalize(finalize, rows: np.ndarray, bos_id: int) -> np.ndarray:
    """``_numpy_finalize`` of a C-contiguous (R, V) float64 block by the
    compiled ``finalize`` (``tsd_finalize``), in place, with the same
    bytes and the same ``ValueError``."""
    n_rows, size = rows.shape
    # ``from_buffer`` takes the block's address faster than ``ndarray.ctypes``.
    if finalize(c_double.from_buffer(rows), n_rows, size, bos_id, 1.0 - (size - 1) * EPS_FLOOR, EPS_FLOOR) >= 0:
        raise ValueError(_NO_MASS)
    return rows


# Widths of the blocks the compiled ``tsd_finalize`` must reproduce, byte
# for byte: every branch of numpy's pairwise sum (below 8 entries, 8
# accumulators with and without a remainder, parts split once and twice),
# odd widths and 8k +- 1, and the rows of vocab 20 and vocab 100.
CHECK_WIDTHS = (2, 7, 9, 17, 20, 100, 127, 128, 129, 300)


def check_blocks() -> list[np.ndarray]:
    """A raw block of three rows for each width in ``CHECK_WIDTHS``, BOS
    (column 0) included, whose sums depend on the order they are added in;
    the middle row has no mass outside BOS. The values are Python floats:
    numpy's remainder and power loops would page in code that nothing else
    runs, about 0.2 MB of peak RSS."""
    values = [(k * 0.6180339887498949 % 1.0) ** 4 for k in range(1, 3 * max(CHECK_WIDTHS) + 1)]
    blocks = []
    for width in CHECK_WIDTHS:
        block = np.array(values[: 3 * width]).reshape(3, width)
        block[1, 1:] = 0.0
        blocks.append(block)
    return blocks


def finalize_self_check(finalize) -> bool:
    """Whether the compiled ``finalize`` (``tsd_finalize``) finalizes a block
    of every width in ``CHECK_WIDTHS`` as ``_numpy_finalize`` does: the
    first and last rows of each of ``check_blocks`` to the same bytes, and
    all three to the same ``ValueError``."""
    compiled = partial(_compiled_finalize, finalize)
    for block in check_blocks():
        for rows in (block[::2], block):
            if _outcome(_numpy_finalize, rows) != _outcome(compiled, rows):
                return False
    return True


def _outcome(finalize, rows: np.ndarray) -> bytes | str:
    """The bytes ``finalize`` makes of a copy of ``rows``, or its error."""
    try:
        return finalize(rows.copy(), 0).tobytes()
    except ValueError as exc:
        return repr(exc)


class SequenceModel:
    """Base class: subclasses provide the raw rows of contexts of one source.

    ``name`` is the spec kind, ``order`` the context length; ``seed`` is the
    row seed of models that draw their rows (0 for the others). Finalized
    log rows are memoized per source, then per context.
    """

    seed = 0

    def __init__(self, name: str, vocab: Vocab, order: int) -> None:
        if order < 1:
            raise ValueError("context_order must be >= 1")
        self.name = name
        self.vocab = vocab
        self.order = order
        self._row_cache: dict[Tokens, dict[Tokens, np.ndarray]] = {}

    def _contexts(self, prefixes: Sequence[Tokens]) -> list[Tokens]:
        """The conditioning context of each target prefix: the last
        ``order`` tokens of BOS + prefix.

        A subclass may condition on less, but never on more: rows that only
        depend on the last ``order`` tokens are what lets PSGD score a span
        without re-reading the rows it cannot change."""
        order, bos = self.order, (self.vocab.bos_id,)
        return [prefix[-order:] if len(prefix) >= order else bos + prefix for prefix in prefixes]

    def _raw_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> np.ndarray | Sequence[np.ndarray]:
        """The raw rows of ``contexts`` of one source: an (R, V) float64
        array that the caller may overwrite, or a list of rows, which the
        caller only reads."""
        raise NotImplementedError

    def _draw(self, source: Tokens, contexts: Sequence[Tokens]) -> None:
        """Build, finalize and memoise the log rows of distinct uncached
        contexts of one source, as one block: the memo's one miss path."""
        bos = self.vocab.bos_id
        rows = _finalize_rows(self._raw_rows(source, contexts), bos)
        # The log of BOS's exact 0 is -inf, written after the log: with a
        # 1.0 there, np.log meets no zero (every other entry is at least
        # EPS_FLOOR) and needs no np.errstate.
        rows[:, bos] = 1.0
        np.log(rows, out=rows)
        rows[:, bos] = -math.inf
        memo = self._row_cache.setdefault(source, {})
        for context, row in zip(contexts, rows):
            row = row.copy()
            row.setflags(write=False)
            memo[context] = row

    def rows_after(self, source: Tokens, prefixes: Sequence[Tokens]) -> list[np.ndarray]:
        """The memoised log rows of the next-token distribution given BOS +
        each of ``prefixes``: the memo's one reader. The source's memo is
        looked up once and then each prefix's context. Every row the batch
        misses is drawn in one block, each distinct context once. Nothing is
        checked: the source and prefixes must be int tuples whose ids
        ``check_tokens`` accepts (the source with BOS and EOS allowed)."""
        memo = self._row_cache.get(source, {})
        contexts = self._contexts(prefixes)
        try:
            return [memo[c] for c in contexts]
        except KeyError:
            self._draw(source, tuple(dict.fromkeys(c for c in contexts if c not in memo)))
            memo = self._row_cache[source]
            return [memo[c] for c in contexts]

    def _prob_rows(self, source: Tokens, prefixes: Sequence[Tokens]) -> np.ndarray:
        """The probability rows after each of ``prefixes``, finalized again
        from the raw rows; the memo is neither read nor written."""
        return _finalize_rows(self._raw_rows(source, self._contexts(prefixes)), self.vocab.bos_id)

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


class UniformModel(SequenceModel):
    """Every distribution is uniform over all non-BOS ids."""

    def __init__(self, vocab: Vocab) -> None:
        super().__init__(_KIND_UNIFORM, vocab, 1)
        row = np.full(vocab.size, 1.0 / (vocab.size - 1), dtype=np.float64)
        row[vocab.bos_id] = 0.0
        self._row = row

    def _contexts(self, prefixes: Sequence[Tokens]) -> list[Tokens]:
        # Position-independent model: one cache entry per source.
        return [()] * len(prefixes)

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
        uniform = np.full(vocab.size, 1.0 / (vocab.size - 1), dtype=np.float64)
        uniform[vocab.bos_id] = 0.0
        self._fallback = uniform

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
        # Per source seen, hash_key(seed, tag, source) for its rows, its
        # sibling's rows and its coins (0 for a model with no sibling): the
        # compiled block folds each context onto these.
        self._source_keys: dict[Tokens, tuple[int, int, int]] = {}

    def _raw_rows(self, source: Tokens, contexts: Sequence[Tokens]) -> np.ndarray:
        """The contexts' rows in one ``tsd_block`` call when the compiled
        block passed its check, otherwise one ``Stream.dirichlet`` per row,
        keyed by ``_row_keys``."""
        rows = np.zeros((len(contexts), self.vocab.size), dtype=np.float64)
        block = (rng._compiled or rng.compiled()).block
        if block:
            return self._block_rows(block, source, contexts, rows)
        # Every id but Vocab.bos_id, which is 0.
        keys = self._row_keys(source, contexts)
        rows[:, 1:] = [Stream(key).dirichlet(self.concentration, self.vocab.size - 1) for key in keys]
        return rows

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

    def _block_rows(self, block, source: Tokens, contexts: Sequence[Tokens], rows: np.ndarray) -> np.ndarray:
        """The contexts' raw rows drawn into the zeroed block ``rows`` by the
        compiled ``block`` (``tsd_block``), which folds each context onto the
        source's keys."""
        keys = self._source_keys.get(source)
        if keys is None:
            alt = coin = 0
            if self.perturb_seed is not None:
                alt = hash_key(self._perturbed_seed, _ROW_TAG, source)
                coin = hash_key(self.perturb_seed, _COIN_TAG, source)
            keys = self._source_keys[source] = (hash_key(self.seed, _ROW_TAG, source), alt, coin)
        # The contexts' ids one after another, and their lengths, as int64
        # bytes: ``struct`` packs them faster than a ctypes array is built.
        lengths = [*map(len, contexts)]
        tokens = pack(f"{sum(lengths)}q", *chain.from_iterable(contexts))
        n = len(lengths)
        block(*keys, self._rate, tokens, pack(f"{n}q", *lengths), n, self.vocab.size, self.concentration,
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


# Blocks the compiled ``tsd_block`` must draw byte for byte as ``_row_keys``
# and the Python row loop do: (vocab size, concentration, rate, source,
# contexts) of a sibling with seed 41 and perturb_seed 7 at that rate. The
# first holds a context of every length from 0 to 6 on the empty source; at
# rate 0.5 three of its coins land below the rate and four above, and three
# would land otherwise if drawn at counter 0. In the second every coin lands
# below rate 1.0, and the row's boost power is 20. The last three rows were
# found by search: a boosted row with a long run of rejections, 98 draws
# where 4n + 16 is 96; a row whose every variate underflows to 0, so it
# comes out uniform; and a 131-wide row at the shape 1.0 edge, which does
# not boost. numpy sums that row in two parts of 64 and 67 entries, and its
# bytes change with any one rule of that sum changed (added left to right,
# in one part up to 256 entries, split off a multiple of 8, the accumulators
# added in order, the remainder added first) and when it is multiplied by
# the reciprocal of its sum.
CHECK_BLOCKS = (
    (3, 2.5, 0.5, (), ((), (0,), (0, 2), (2, 2, 0), (0, 2, 2, 2), (2, 0, 2, 2, 0), (2, 2, 2, 0, 0, 2))),
    (10, 0.05, 1.0, (2,), ((0, 2),)),
    (21, 0.2, 0.0, (), ((10, 13, 4),)),
    (4, 0.001, 0.0, (), ((0, 2, 2, 2),)),
    (132, 1.0, 0.0, (), ((82,),)),
)


def block_self_check(block) -> bool:
    """Whether the compiled ``block`` (``tsd_block``) draws every block of
    ``CHECK_BLOCKS`` with the bytes of ``_row_keys``, ``Stream._gammas``
    and ``rng._normalized``."""
    for size, concentration, rate, source, contexts in CHECK_BLOCKS:
        model = NgramGenModel(Vocab(size), 6, 41, concentration, 7, rate)
        want = np.zeros((len(contexts), size))
        want[:, 1:] = [_normalized(Stream(key)._gammas(concentration, size - 1))
                       for key in model._row_keys(source, contexts)]
        if model._block_rows(block, source, contexts, np.zeros_like(want)).tobytes() != want.tobytes():
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
