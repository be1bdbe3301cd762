"""Conditional autoregressive sequence models over integer vocabularies.

Build a model with its class constructor: ``UniformModel(vocab)``,
``TableModel(vocab, order, table)`` or ``NgramGenModel(vocab, order, seed,
concentration)``; ``make_perturbed_sibling`` derives an n-gram model's
sibling, and ``model_from_spec``/``load_model_spec`` read the spec schema.
A model's ``name`` (its spec kind), ``vocab``, context ``order`` and
``seed`` are plain attributes.

A model maps (source sequence, target prefix) to a normalized next-token
distribution. It answers two queries, both served from one memo of
finalized rows per (source, context), and both check their tokens with
``core.check_tokens`` (BOS and EOS are allowed in the source only):

- ``forced_pass`` scores a whole target sequence and returns the
  distribution at every position, which is how a single call can serve
  both sequence scoring and next-token selection (PSGD, ``seq_logprob``).
- ``next_log_row`` returns only the log distribution after a prefix, the
  one row a left-to-right beam step reads (``beam_search``, DBA).

All rows are post-processed the same way: BOS gets probability exactly 0,
and every other entry is floored at ``EPS_FLOOR`` (by mixing in that much
uniform mass), so scoring an arbitrary constraint token can never produce
-inf. Rows that are uniform over non-BOS ids are unchanged by the mix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import TokenSeq, TsError, Vocab, check_tokens
from .rng import Stream, hash_key, mix64

EPS_FLOOR = 1e-12

_KIND_UNIFORM = "uniform"
_KIND_TABLE = "table"
_KIND_NGRAM = "ngram_gen"


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
    first ``t`` target tokens; there are ``len(target) + 1`` entries. The
    finalized probability and log rows are kept as the memo returned them;
    ``distributions`` (and so ``matrix``) builds and validates the
    ``StepDistribution`` objects on first read only.
    """

    _prob_rows: tuple = field(repr=False)
    _log_rows: tuple = field(repr=False, compare=False)

    @cached_property
    def distributions(self) -> tuple[StepDistribution, ...]:
        return tuple(StepDistribution(probs) for probs in self._prob_rows)

    def __len__(self) -> int:
        return len(self._prob_rows)

    def matrix(self) -> np.ndarray:
        return np.stack([d.probs for d in self.distributions])

    def log_matrix(self) -> np.ndarray:
        return np.stack(self._log_rows)


def _finalize_row(raw: np.ndarray, bos_id: int) -> np.ndarray:
    """Zero BOS, renormalize, and mix in the EPS_FLOOR uniform floor."""
    row = np.asarray(raw, dtype=np.float64).copy()
    row[bos_id] = 0.0
    total = row.sum()
    if total <= 0.0:
        raise ValueError("row has no probability mass outside BOS")
    row /= total
    k = row.size - 1
    row *= 1.0 - k * EPS_FLOOR
    row += EPS_FLOOR
    row[bos_id] = 0.0
    row.setflags(write=False)
    return row


class SequenceModel:
    """Base class: subclasses provide one raw row per (source, context).

    ``name`` is the spec kind, ``order`` the context length; ``seed`` is the
    row seed of models that draw their rows (0 for the others). Finalized
    rows and their logs are memoized per (source, context).
    """

    seed = 0

    def __init__(self, name: str, vocab: Vocab, order: int) -> None:
        if order < 1:
            raise ValueError("context_order must be >= 1")
        self.name = name
        self.vocab = vocab
        self.order = order
        self._row_cache: dict[tuple[Tokens, Tokens], tuple[np.ndarray, np.ndarray]] = {}

    def _context(self, target_prefix: Tokens) -> Tokens:
        """The conditioning context: last ``order`` tokens of BOS + prefix."""
        return ((self.vocab.bos_id,) + target_prefix)[-self.order:]

    def _raw_row(self, source: Tokens, context: Tokens) -> np.ndarray:
        raise NotImplementedError

    def _finalized(self, source: Tokens, context: Tokens) -> tuple[np.ndarray, np.ndarray]:
        key = (source, context)
        hit = self._row_cache.get(key)
        if hit is None:
            probs = _finalize_row(self._raw_row(source, context), self.vocab.bos_id)
            with np.errstate(divide="ignore"):
                logs = np.log(probs)
            logs.setflags(write=False)
            hit = (probs, logs)
            self._row_cache[key] = hit
        return hit

    def forced_pass(self, source: TokenSeq | Sequence[int], target: TokenSeq | Sequence[int]) -> ForcedPassResult:
        src = as_tokens(source)
        tgt = as_tokens(target)
        check_tokens(src, self.vocab, "source", content=False)
        check_tokens(tgt, self.vocab, "target")
        pairs = [self._finalized(src, self._context(tgt[:t])) for t in range(len(tgt) + 1)]
        return ForcedPassResult(
            tuple(probs for probs, _ in pairs), tuple(logs for _, logs in pairs)
        )

    def next_log_row(self, source: TokenSeq | Sequence[int], prefix: TokenSeq | Sequence[int]) -> np.ndarray:
        """The log next-token distribution given BOS + ``prefix``: the last
        row of ``forced_pass(source, prefix).log_matrix()``, with the same
        input checks, without building the earlier rows."""
        src = as_tokens(source)
        pre = as_tokens(prefix)
        check_tokens(src, self.vocab, "source", content=False)
        check_tokens(pre, self.vocab, "target")
        return self._finalized(src, self._context(pre))[1]


def seq_logprob(model: SequenceModel, source, target, include_eos: bool = True) -> float:
    """Natural-log probability of ``target`` given ``source`` via one forced pass."""
    tgt = as_tokens(target)
    result = model.forced_pass(source, tgt)
    log_probs = result.log_matrix()
    total = 0.0
    for t, tok in enumerate(tgt):
        total += float(log_probs[t, tok])
    if include_eos:
        total += float(log_probs[len(tgt), model.vocab.eos_id])
    return total


class UniformModel(SequenceModel):
    """Every distribution is uniform over all non-BOS ids."""

    def __init__(self, vocab: Vocab) -> None:
        super().__init__(_KIND_UNIFORM, vocab, 1)
        row = np.full(vocab.size, 1.0 / (vocab.size - 1), dtype=np.float64)
        row[vocab.bos_id] = 0.0
        self._row = row

    def _context(self, target_prefix: Tokens) -> Tokens:
        # Position-independent model: one cache entry per source.
        return ()

    def _raw_row(self, source: Tokens, context: Tokens) -> np.ndarray:
        return self._row


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
            self._table[(tuple(src), tuple(ctx))] = arr
        uniform = np.full(vocab.size, 1.0 / (vocab.size - 1), dtype=np.float64)
        uniform[vocab.bos_id] = 0.0
        self._fallback = uniform

    def _raw_row(self, source: Tokens, context: Tokens) -> np.ndarray:
        return self._table.get((source, context), self._fallback)


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
        if concentration <= 0.0:
            raise ValueError("concentration must be > 0")
        if not 0.0 <= perturb_rate <= 1.0:
            raise ValueError("perturb_rate must be in [0, 1]")
        super().__init__(_KIND_NGRAM, vocab, order)
        self.seed = seed
        self.concentration = float(concentration)
        self.perturb_seed = perturb_seed
        self.perturb_rate = float(perturb_rate)

    def _draw_row(self, seed: int, source: Tokens, context: Tokens) -> np.ndarray:
        stream = Stream(hash_key(seed, 0x6E6772616D, source, context))
        weights = stream.dirichlet(self.concentration, self.vocab.size - 1)
        row = np.zeros(self.vocab.size, dtype=np.float64)
        row[1:] = weights  # every id but Vocab.bos_id, which is 0
        return row

    def _raw_row(self, source: Tokens, context: Tokens) -> np.ndarray:
        seed = self.seed
        if self.perturb_seed is not None and self.perturb_rate > 0.0:
            coin = Stream(hash_key(self.perturb_seed, 0x636F696E, source, context)).uniform()
            if coin < self.perturb_rate:
                seed = mix64(seed ^ mix64(self.perturb_seed))
        return self._draw_row(seed, source, context)


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


# ---------------------------------------------------------------------------
# Model spec files
# ---------------------------------------------------------------------------

def _encode_table_key(src: Tokens, ctx: Tokens) -> str:
    return "src:%s|ctx:%s" % (",".join(map(str, src)), ",".join(map(str, ctx)))


def _decode_table_key(key: str) -> tuple[Tokens, Tokens]:
    src_part, ctx_part = key.split("|")
    if not src_part.startswith("src:") or not ctx_part.startswith("ctx:"):
        raise ValueError(f"malformed table key {key!r}")

    def ints(text: str) -> Tokens:
        return tuple(int(v) for v in text.split(",") if v != "")

    return ints(src_part[4:]), ints(ctx_part[4:])


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
        vocab = Vocab(size=int(spec["vocab_size"]))
        kind = spec["kind"]
        if kind == _KIND_UNIFORM:
            return UniformModel(vocab)
        if kind == _KIND_TABLE:
            table = {
                _decode_table_key(key): row for key, row in (spec["table"] or {}).items()
            }
            return TableModel(vocab, int(spec["order"]), table)
        if kind == _KIND_NGRAM:
            return NgramGenModel(
                vocab, int(spec["order"]), int(spec["seed"]), float(spec["concentration"])
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
