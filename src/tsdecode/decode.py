"""The three decoders: prefix-suffix guided span decoding (PSGD), dynamic
beam allocation (DBA) for lexically constrained decoding, and plain beam
search.

PSGD fills the masked span directly: the beam holds span candidates only,
and each step scores every item's whole sequence, prefix + span + suffix
(used for the stopping rule), and reads its next-token row at the span
position (used to extend the beam). Under an order-k model a span changes
only the next-token row, the first k suffix rows and, for a suffix shorter
than k, the EOS row; every other term of the score is computed once per
task or carried from parent to child, so a step costs a few memo lookups
per item, not a forced pass. Decoding stops once the best whole-sequence
score has not improved for ``patience`` consecutive steps, and the answer
is the span prefix at the best-scoring step. The step that trips the
patience rule counts in ``emitted_steps`` but is never expanded, since it
would never be scored. ``forward_passes`` and ``positions_scored`` count
the logical forced passes over each scored sequence all the same. The
reference ``psgd_two_pass`` runs the same loop with ``_ForcedPassScorer``,
which gets both values from forced passes.

The PSGD search runs one of two ways that give the same results (see
``_psgd_run``): ``rowkernel.CompiledPsgd``, ``_rowkernel.c``'s
``tsd_psgd_search``, the whole loop in one compiled call; and
``_python_psgd``, a loop holding one list of ``(span, lp, carry)`` items,
the counts, the best so far and the stopping rule, which scores each round
with ``_psgd_round``. A round gives each item's score, the first-ranked item
and, only when the loop will score another round, the next list.

DBA decodes the whole sentence left to right under hard phrasal
constraints, dividing the beam into banks by constraint progress so that
partially-satisfied hypotheses survive pruning. Plain beam search is the same
search with no constraints: both run the one full-sentence beam loop in
``_beam_core``, which selects by length-normalized score. Each step of it
ranks every candidate once, in one list sorted by ``scoring.rank``, and
reads the global window, each bank's slots, the backfill and the next beam
from that one order.

The beam loop runs one of two ways that give the same results:
``rowkernel.CompiledSearch``, ``_rowkernel.c``'s ``tsd_beam_search``, the
whole loop in one compiled call that reads its rows from the memo's index
and returns to Python only for rows the memo lacks, when the kernel builds,
loads and passes its check (``rng.compiled().beam_search``) and the model
takes its contexts by ``SequenceModel``'s rule; and ``_python_search``
otherwise, which is also the reference the compiled search is checked
against: a loop holding one list of ``(tokens, lp, progress, bank)``
hypotheses, the first-ranked finish, the counts and the stop reasons, which
takes each step with ``_beam_step``. Like PSGD, each keeps one answer.

Every decoder checks its inputs once per decode and then reads memoised
log rows, the Python loops through ``SequenceModel.rows_after`` once per
round or step, the compiled searches through the memo's index, the
compiled PSGD search also for the terms no span changes. A compiled
search draws, logs and indexes the n-gram rows a step misses itself, or
hands the contexts to ``SequenceModel._draw``. ``dba_suggest`` scores an
output that is prefix + span + suffix from the search's own finish, so on
the compiled path neither decoder reads a row in Python.

The Python round and step order all candidates with ``scoring.rank`` and
extend their beams with one expansion step, ``_expand``. It works on
arrays, like the vectorised DBA of Hu et al. (NAACL 2019), which builds on
Post & Vilar (NAACL 2018): it scores all beam x content candidates in one
numpy add and builds candidate tuples only for those scoring at least the
k-th best score, ties included, so the cut never changes which candidates
win. The compiled searches keep the same top k in C, with one helper, and
break a tie on score by comparing the tokens, as ``scoring.rank`` does.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .core import (
    STOP_EMPTY_BEAM,
    STOP_MAX_LEN,
    STOP_PATIENCE,
    DecodeStats,
    Suggestion,
    TokenSeq,
    TsError,
    TsTask,
    check_tokens,
    validate_task,
)
from .lm import SequenceModel, as_tokens
from .scoring import SCORING_MEAN_LOGPROB, SCORING_MODES, filled_score, normalized_score, rank

Tokens = tuple[int, ...]


class InvalidParams(TsError):
    """Decoder parameters violate their invariants."""


class ConstraintsUnsatisfiable(TsError):
    """No constraint-complete hypothesis finished within the length budget."""


def default_max_span_len(source_len: int) -> int:
    """Generous span cap preventing runaway decoding loops."""
    return 2 * (source_len + 4)


@dataclass(frozen=True)
class PsgdParams:
    beam_width: int = 5
    patience: int = 5
    max_span_len: int | None = None
    scoring: str = SCORING_MEAN_LOGPROB
    include_eos_in_len: bool = False


@dataclass(frozen=True)
class DbaParams:
    beam_width: int
    max_len: int
    constraints: tuple[Tokens, ...] = ()


@dataclass(frozen=True)
class BeamSearchResult:
    tokens: TokenSeq
    score: float
    finished: bool


def _wall_us(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1e6)


def _expand(beam, rows, content, k: int) -> list[tuple[float, Tokens, tuple]]:
    """The ``k`` best one-token content expansions of ``beam`` (entries
    ``(tokens, lp, ...)``, ``rows[i]`` the log next-token row of ``beam[i]``)
    as ``(score, child, parent entry)`` in ``rank`` order.

    ``content`` is the vocabulary's content ids, a run of consecutive ids.
    All B x |content| scores ``lp + row[tok]`` come from one numpy add, the
    same IEEE float64 operation as Python's ``+``. Partitioning a copy finds
    the k-th best score, and only candidates scoring at least that much
    become tuples. The cut is exact: a candidate below it has k candidates
    ranked before it, and every candidate tied with the k-th score is kept,
    so sorting the survivors by ``rank`` and keeping k picks and orders the
    winners as over the full set. Every child of one step has the same
    length, so ``rank`` breaks a score tie on (parent tokens, tok).

    The cut is kept for memory, not speed. A full sort by ``rank`` gives the
    same order (``tests/test_ties.py`` checks that), but it builds a child
    tuple for every one of the B x |content| candidates: a vocab-20 PSGD
    decode grown to a 400-token cap then peaked at about 342,000 traced
    bytes instead of 43,000, over the 300,000 that ``tests/test_psgd.py``'s
    ``test_a_decode_to_the_cap_holds_only_its_beam`` allows.
    """
    lo = content[0]
    width = content[-1] + 1 - lo
    lps = np.array([entry[1] for entry in beam])
    flat = (np.asarray(rows)[:, lo : lo + width] + lps[:, None]).ravel()
    keep = range(flat.size)
    if k < flat.size:
        kth = flat.copy()
        kth.partition(flat.size - k)
        keep = (flat >= kth.item(flat.size - k)).nonzero()[0].tolist()
    candidates = [(flat.item(i), beam[i // width][0] + (lo + i % width,), beam[i // width]) for i in keep]
    candidates.sort(key=rank)
    return candidates[:k]


# ---------------------------------------------------------------------------
# PSGD
# ---------------------------------------------------------------------------

def _check_scoring(scoring: str) -> None:
    if scoring not in SCORING_MODES:
        raise InvalidParams(f"unknown scoring mode {scoring!r}, expected one of {SCORING_MODES}")


def _resolve_psgd_params(params: PsgdParams, source_len: int) -> tuple[int, int, int]:
    if params.beam_width < 1:
        raise InvalidParams(f"beam_width must be >= 1, got {params.beam_width}")
    if params.patience < 0:
        raise InvalidParams(f"patience must be >= 0, got {params.patience}")
    _check_scoring(params.scoring)
    max_span = params.max_span_len
    if max_span is None:
        max_span = default_max_span_len(source_len)
    if max_span < 1:
        raise InvalidParams(f"max_span_len must be >= 1, got {max_span}")
    return params.beam_width, params.patience, max_span


def _span_shape(order: int, s: Tokens) -> tuple[list[Tokens], int, bool]:
    """The shape of a task's PSGD scoring under an order-``order`` model,
    from its suffix ``s`` alone: the pieces (see ``_SpanScorer``), how many
    suffix terms a span changes, the first ``min(order, len(s))``, and
    whether the suffix fixes the EOS row, having at least ``order`` tokens."""
    k = min(order, len(s))
    fixed_eos = len(s) >= order
    return [s[:j] for j in range(max(k, 1))] + ([s] if s and not fixed_eos else []), k, fixed_eos


class _SpanScorer:
    """Incremental scoring of prefix + span + suffix for one task: the
    scorer of ``_python_psgd``, whose scoring ``tsd_psgd_search`` does in C.

    ``pieces`` are what each item's heads append to prefix + span: the rows
    after them are its next-token row (the first), the rows of the suffix
    terms the span changes and its EOS row (the last) unless that is fixed;
    with no suffix the EOS row is the next-token row. ``total(rows, span,
    carry)`` is an item's summed log-probability of the whole sequence with
    its EOS, from its rows and ``carry``, its span's terms (each token's
    term in its parent's next-token row), with its next-token row.

    The sum is added in the order ``_ForcedPassScorer`` sums its forced
    pass, EOS term first and then the target left to right, so both give the
    same float. Under an order-k model the prefix rows and the suffix rows from
    position k on never see the span, so their terms are read once here, in
    one batch: ``head_terms`` are the prefix terms, after the EOS term when
    the suffix has at least k tokens and so fixes the EOS row too, and
    ``tail_terms`` the suffix terms from position k on. An unfixed EOS term
    is read from each item's last row.
    """

    def __init__(self, model: SequenceModel, src: Tokens, p: Tokens, s: Tokens) -> None:
        self.eos = eos = model.vocab.eos_id
        self.pieces, k, fixed_eos = _span_shape(model.order, s)
        self.fixed_eos = fixed_eos
        fixed = (
            [p[:t] for t in range(len(p))]
            + [p + s[:j] for j in range(k, len(s))]
            + ([p + s] if fixed_eos else [])
        )
        fixed_rows = model.rows_after(src, fixed)
        prefix_terms = [float(row[tok]) for row, tok in zip(fixed_rows, p)]
        self.head_terms = ([float(fixed_rows[-1][eos])] if fixed_eos else []) + prefix_terms
        self.tail_terms = [float(row[tok]) for row, tok in zip(fixed_rows[len(p) :], s[k:])]
        self.suffix = s[:k]

    def total(self, rows, span: Tokens, carry) -> tuple[float, np.ndarray]:
        # -0.0 + x is x for every x, so a fixed EOS term starts the sum as
        # the item's own EOS term does.
        total = -0.0 if self.fixed_eos else float(rows[-1][self.eos])
        for term in self.head_terms:
            total += term
        for term in carry:
            total += term
        for log_row, tok in zip(rows, self.suffix):
            total += float(log_row[tok])
        for term in self.tail_terms:
            total += term
        return total, rows[0]


class _ForcedPassScorer:
    """``_SpanScorer``'s interface with no pieces, the carry unread: per
    item, one forced pass over prefix + span + suffix for the score and one
    over prefix + span for the next-token row."""

    pieces = ()

    def __init__(self, model: SequenceModel, src: Tokens, p: Tokens, s: Tokens) -> None:
        self.model, self.src, self.p, self.s = model, src, p, s

    def total(self, rows, span: Tokens, carry) -> tuple[float, np.ndarray]:
        head = self.p + span
        target = head + self.s
        log_rows = self.model.forced_pass(self.src, target).log_rows
        total = float(log_rows[-1][self.model.vocab.eos_id])
        for log_row, tok in zip(log_rows, target):
            total += float(log_row[tok])
        return total, self.model.forced_pass(self.src, head).log_rows[-1]


# Whether a scoring round expands its items: never, only when its
# first-ranked item scores above the best so far, or always.
EXPAND_NEVER, EXPAND_IF_BETTER, EXPAND_ALWAYS = 0, 1, 2


PsgdItem = tuple[Tokens, float, tuple[float, ...]]


def _psgd_round(scorer, content, params: PsgdParams, items: list[PsgdItem], rows, length: int, expand: int,
                best: float):
    """One PSGD scoring round of ``_python_psgd``, which ``_rowkernel.c``'s
    ``psgd_round`` reproduces, over its ``(span, lp, carry)`` items, the
    carry being the span's terms: the empty span's is ``()`` and a child
    appends its token's term in its parent's next-token row.

    Given the items' rows (``len(scorer.pieces)`` per item), their
    whole-sequence length, an ``EXPAND_*`` and the best score so far, it
    returns ``(scores, top, children, items)``: each item's normalised
    score, the round's first-ranked (score, span) and, when the round
    expands, the ``beam_width`` best children in ``rank`` order, as (parent
    index, token) pairs and as the next items; else none.
    """
    per_item = len(scorer.pieces)
    scores, heads = [], []
    for i, (span, _, carry) in enumerate(items):
        total, head = scorer.total(rows[i * per_item : (i + 1) * per_item], span, carry)
        scores.append(normalized_score(total, length, params.scoring, params.include_eos_in_len))
        heads.append(head)
    top = min(zip(scores, [item[0] for item in items]), key=rank)
    if not (expand == EXPAND_ALWAYS or (expand == EXPAND_IF_BETTER and top[0] > best)):
        return scores, top, [], []
    parents = [(*item, head, i) for i, (item, head) in enumerate(zip(items, heads))]
    children = _expand(parents, heads, content, params.beam_width)
    return scores, top, [(parent[4], child[-1]) for _, child, parent in children], [
        (child, lp, parent[2] + (float(parent[3][child[-1]]),)) for lp, child, parent in children
    ]


def _python_psgd(model: SequenceModel, src: Tokens, p: Tokens, s: Tokens, scorer, params: PsgdParams,
                 max_span: int, trace: list | None = None):
    """The PSGD search in Python, one ``_psgd_round`` and one ``rows_after``
    call per round: the fallback and the reference of ``tsd_psgd_search``.
    Returns the best score, its span, the counts and the last round's
    children as (parent index, token) pairs, which only the check reads (a
    round the rule stops after changes nothing by expanding)."""
    patience = params.patience
    rows_after, pieces, content = model.rows_after, scorer.pieces, model.vocab.content_ids
    fw = 0
    pos_scored = 0
    emitted = 0
    stop_reason = STOP_PATIENCE
    # The first-ranked (whole-sequence score, span, step) so far.
    best: tuple[float, Tokens, int] = (float("-inf"), (), 0)
    items: list[PsgdItem] = [((), 0.0, ())]
    n = 0
    while True:
        # Round n + 1 is scored unless the cap or the patience rule stops
        # first; the rule stops after round n unless round n beats the best
        # (and round n + 1 then comes 1 round after the best).
        if n == max_span or patience <= 1:
            expand = EXPAND_NEVER
        elif n + 1 - best[2] < patience:
            expand = EXPAND_ALWAYS
        else:
            expand = EXPAND_IF_BETTER
        # One scoring round: each item's whole-sequence score, the best and,
        # if the search goes on, the children.
        length = len(p) + n + len(s)
        rows = rows_after(src, [p + item[0] + piece for item in items for piece in pieces])
        scores, (score, span), children, expanded = _psgd_round(scorer, content, params, items, rows, length,
                                                                expand, best[0])
        fw += len(items)
        pos_scored += (length + 1) * len(items)
        # Spans grow by one token a round, so on a tie the earlier best
        # ranks first.
        if score > best[0]:
            best = (score, span, n)
        if trace is not None:
            trace.append([(item[0], item_score) for item, item_score in zip(items, scores)])
        if patience == 0:  # the empty span's score only, no expansion
            break
        if n == max_span:
            stop_reason = STOP_MAX_LEN
            break
        # Step n + 1 is emitted (the logical count) but expanded only if it
        # will be scored: patience stops before its scoring round.
        emitted += 1
        if n + 1 - best[2] >= patience:
            break
        # Never empty: every vocabulary has a content id.
        items = expanded
        n += 1
    return best[0], best[1], (fw, pos_scored, emitted, stop_reason), children


def _indexed(model: SequenceModel) -> bool:
    """Whether ``model`` takes its contexts by the rule the compiled
    searches follow, ``SequenceModel``'s."""
    return getattr(type(model), "_contexts", None) is SequenceModel._contexts


def _psgd_run(
    model: SequenceModel, task: TsTask, params: PsgdParams, scorer, trace: list | None = None
) -> Suggestion:
    """The PSGD search, scoring with the class ``scorer`` (``_SpanScorer``
    or ``_ForcedPassScorer``); appends to ``trace``, when given, each
    scoring round's (span, score) pairs. The search is
    ``rowkernel.CompiledPsgd``'s when the scorer is ``_SpanScorer``, no
    trace is asked for (the kernel keeps no round's scores), the model is
    ``_indexed`` and the kernel passed its check: it reads every row itself,
    the fixed terms' too, and no scorer is made. Otherwise it is
    ``_python_psgd``'s, with a scorer made for the task."""
    validate_task(task, model.vocab)
    _, _, max_span = _resolve_psgd_params(params, len(task.source))
    src = as_tokens(task.source)
    p = as_tokens(task.prefix)
    s = as_tokens(task.suffix)

    t0 = time.perf_counter()
    functions = trace is None and scorer is _SpanScorer and _indexed(model) and rng.compiled()
    if functions and functions.psgd_search:
        from .rowkernel import CompiledPsgd

        score, span, counts = CompiledPsgd.of(model)(functions.psgd_search, model, src, p, s, params, max_span,
                                                     functions.block and rng._log)
    else:
        score, span, counts, _ = _python_psgd(model, src, p, s, scorer(model, src, p, s), params, max_span, trace)
    fw, pos_scored, emitted, stop_reason = counts
    stats = DecodeStats(
        forward_passes=fw,
        positions_scored=pos_scored,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=_wall_us(t0),
    )
    return Suggestion(span=TokenSeq(span), whole_seq_score=score, stats=stats)


def psgd(model: SequenceModel, task: TsTask, params: PsgdParams | None = None) -> Suggestion:
    """Prefix-suffix guided span decoding. Each beam item's whole-sequence
    score (the stopping rule) and its next-token row (the expansion) come
    from the memo rows the span changes plus terms computed once per task,
    with no forced pass; the statistics count one logical forced pass per
    item all the same."""
    return _psgd_run(model, task, params or PsgdParams(), _SpanScorer)


def psgd_two_pass(model: SequenceModel, task: TsTask, params: PsgdParams | None = None) -> Suggestion:
    """Reference implementation that fetches the stopping score with a
    forced pass over the whole sequence and the next-token row with a second
    forced pass, over prefix + span, per beam item. Must produce
    bit-identical spans and scores to ``psgd`` with exactly twice the forward
    passes."""
    suggestion = _psgd_run(model, task, params or PsgdParams(), _ForcedPassScorer)
    # The search counts one pass per item; the second, over prefix + span,
    # covers len(suffix) fewer positions.
    fw, pos = suggestion.stats.forward_passes, suggestion.stats.positions_scored
    stats = replace(suggestion.stats, forward_passes=2 * fw, positions_scored=2 * pos - len(task.suffix) * fw)
    return replace(suggestion, stats=stats)


def psgd_with_trace(
    model: SequenceModel, task: TsTask, params: PsgdParams | None = None
) -> tuple[Suggestion, list[list[tuple[Tokens, float]]]]:
    """Like ``psgd`` but also returns, per scoring round, the (span, score)
    pairs examined. Useful for verifying the stopping rule against oracles."""
    trace: list[list[tuple[Tokens, float]]] = []
    return _psgd_run(model, task, params or PsgdParams(), _SpanScorer, trace), trace


# ---------------------------------------------------------------------------
# Full-sentence beam search: one core for DBA and for plain beam search
# ---------------------------------------------------------------------------

def _advance_progress(progress: tuple[int, ...], constraints: tuple[Tokens, ...], tok: int) -> tuple[int, ...]:
    """Per-phrase matcher state update. Completed phrases stay completed;
    partial progress resets on mismatch (and may restart on the phrase's
    first token)."""
    out = []
    for pos, phrase in zip(progress, constraints):
        if pos == len(phrase):
            out.append(pos)
        elif tok == phrase[pos]:
            out.append(pos + 1)
        elif tok == phrase[0]:
            out.append(1)
        else:
            out.append(0)
    return tuple(out)


Beam = list[tuple[Tokens, float, tuple[int, ...], int]]


def _pick_best(entries) -> tuple[float, Tokens]:
    """The first-ranked (length-normalized score, tokens) of non-empty
    (tokens, raw score) entries."""
    return min(((normalized_score(raw, len(tokens)), tokens) for tokens, raw in entries), key=rank)


def _beam_step(beam: Beam, rows, vocab, constraints: tuple[Tokens, ...], beam_width: int, last: bool):
    """One step of ``_python_search``, which ``_rowkernel.c``'s
    ``beam_step`` reproduces, from ``beam``, its (tokens, raw score,
    constraint progress, bank) hypotheses, each one's log row and whether
    this is the step at the length budget. Returns ``(survivors, finishes,
    hard)``:
    - ``survivors``, the next beam in ``rank`` order, none when ``last``;
    - ``finishes``, the (tokens, EOS score) of each finish in the order it
      was marked, the same tokens possibly twice;
    - ``hard``, how many EOS candidates ranked inside the global window or
      their bank's slots (0 when ``last``).
    """
    eos = vocab.eos_id
    # A hypothesis's bank is its summed progress; it is constraint-complete
    # exactly in the bank of every phrase token.
    complete = sum(map(len, constraints))
    rows = np.array(rows)
    # EOS candidates of the complete hypotheses, which never enter the alive
    # beam, and the forced child of every unfinished phrase, as _expand's
    # (score, child, parent); a complete hypothesis finishes when EOS is its
    # argmax and, under constraints, at the length budget (a forced finish,
    # rather than return nothing).
    cands, forced, finishes = [], [], []
    for b, entry in enumerate(beam):
        t, lp, progress, bank = entry
        if bank == complete:
            score = lp + rows.item(b, eos)
            cands.append((score, t, progress, bank, None))
            if rows[b].argmax() == eos or (constraints and last):
                finishes.append((t, score))
        for pos, phrase in zip(progress, constraints):
            if pos < len(phrase):
                forced.append((lp + rows.item(b, phrase[pos]), t + (phrase[pos],), entry))
    if last:
        return [], finishes, 0

    # The content pool: the top-k expansions and the forced children, each
    # child once, with its new progress and bank.
    pool = set()
    for lp_c, child, parent in _expand(beam, rows, vocab.content_ids, beam_width) + forced:
        if child in pool:
            continue
        pool.add(child)
        tok = child[-1]
        progress = _advance_progress(parent[2], constraints, tok)
        cands.append((lp_c, child, progress, sum(progress), tok))
    cands.sort(key=rank)  # the one sort of the step (see dba_decode)

    # EOS candidates finish by ranking inside the global window, the first
    # beam_width candidates, or inside their own bank's slots (without which
    # finishing would have to outrank every unconstrained hypothesis
    # globally). A forced-only candidate ranks after all beam_width top
    # ones, so it never enters the window. Slots are split evenly over the
    # non-empty banks, remainders to higher banks; each bank keeps its best
    # content candidates in its slots.
    banks = sorted({cand[3] for cand in cands}, reverse=True)
    base, rem = divmod(beam_width, len(banks))
    slots = {bank: base + (i < rem) for i, bank in enumerate(banks)}
    seen = dict.fromkeys(banks, 0)
    kept = dict.fromkeys(banks, 0)
    alive = []
    hard = 0
    # Slots a bank cannot fill go to the best leftover candidates.
    spare = beam_width
    for i, cand in enumerate(cands):
        bank = cand[3]
        if cand[4] is None:
            if i < beam_width or seen[bank] < slots[bank]:
                finishes.append((cand[1], cand[0]))
                hard += 1
        else:
            in_slot = kept[bank] < slots[bank]
            spare -= in_slot
            alive.append((cand, in_slot))
            kept[bank] += 1
        seen[bank] += 1
    survivors = []
    for (lp_c, child, progress, bank, _), in_slot in alive:
        if not in_slot:
            if spare == 0:
                continue
            spare -= 1
        survivors.append((child, lp_c, progress, bank))
    return survivors, finishes, hard


def _python_search(model: SequenceModel, src: Tokens, constraints: tuple[Tokens, ...], beam_width: int,
                   max_len: int) -> tuple[tuple[float, Tokens], Beam, tuple[int, int, int, str]]:
    """``_beam_core``'s search in Python, one ``_beam_step`` per step and
    one ``rows_after`` call per step for one row per hypothesis: the search
    taken when the compiled ``tsd_beam_search`` cannot be, and the
    reference it is checked against. Returns the first-ranked finish under
    ``_pick_best``'s rule as (raw score, tokens), ``(-inf, ())`` when
    nothing finished, the final beam and the counts (forward passes,
    positions scored, emitted steps, stop reason). This loop holds the
    beam, the best finish, the counts and the stop reasons."""
    fw = pos_scored = emitted = hard_finishes = 0
    stop_reason = STOP_MAX_LEN
    beam: Beam = [((), 0.0, tuple(0 for _ in constraints), 0)]
    # The first-ranked (normalized score, tokens, raw score) so far; scores
    # are finite, so -inf stands for none. min keeps the first of equals.
    best = (-math.inf, (), -math.inf)

    for step in range(max_len + 1):
        last = step == max_len
        # One memoised row per hypothesis, from one batched lookup; the
        # statistics still count the logical forced pass over BOS + tokens
        # that each row ends.
        rows = model.rows_after(src, [entry[0] for entry in beam])
        fw += len(beam)
        pos_scored += len(beam) * (step + 1)  # every hypothesis holds step tokens
        survivors, finishes, hard = _beam_step(beam, rows, model.vocab, constraints, beam_width, last)
        best = min([best, *((normalized_score(score, len(t)), t, score) for t, score in finishes)], key=rank)
        if last:
            break
        hard_finishes += hard
        if hard_finishes >= beam_width:
            stop_reason = STOP_EMPTY_BEAM
            break
        beam = survivors
        emitted += 1
    return (best[2], best[1]), beam, (fw, pos_scored, emitted, stop_reason)


def _check_beam_params(beam_width: int, max_len: int) -> None:
    if beam_width < 1:
        raise InvalidParams(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 0:
        raise InvalidParams(f"max_len must be >= 0, got {max_len}")


def _search(model: SequenceModel, src: Tokens, constraints: tuple[Tokens, ...], beam_width: int,
            max_len: int) -> tuple[tuple[float, Tokens], Callable[[], Beam], tuple[int, int, int, str]]:
    """``_beam_core``'s search over inputs already checked: the first-ranked
    finish as (raw score, tokens), ``(-inf, ())`` when nothing finished, a
    function that returns the final beam until the model's next search, and
    the counts. It is
    ``rowkernel.CompiledSearch``'s, one compiled call on the model's context
    that returns to Python only for rows the memo lacks, when the kernel
    loads and passes its check and the model takes its contexts by
    ``SequenceModel``'s rule; otherwise ``_python_search``'s. Both give the
    same results."""
    functions = rng.compiled()
    if functions.beam_search and _indexed(model):
        from .rowkernel import CompiledSearch

        search = CompiledSearch.of(model)
        best, tokens, counts = search(functions.beam_search, model, src, constraints, beam_width, max_len,
                                      functions.block and rng._log)
        return (best, tokens), search.beam, counts
    best, beam, counts = _python_search(model, src, constraints, beam_width, max_len)
    return best, lambda: beam, counts


def _beam_core(model: SequenceModel, source,
               params: DbaParams) -> tuple[tuple[float, Tokens], Callable[[], Beam], DecodeStats]:
    """Full-sentence beam search from BOS under ``params.constraints``.

    Returns the first-ranked finish as (raw score with EOS, tokens),
    ``(-inf, ())`` when nothing finished, a function that returns the final
    beam as (tokens, raw score, constraint progress, bank) entries until the
    model's next search, and the decode statistics. See ``dba_decode`` for
    the search itself, and ``_search`` for the two ways it runs.
    """
    _check_beam_params(params.beam_width, params.max_len)
    # Inputs are checked once here: every later row is read unchecked, and
    # hypotheses hold only content ids and constraint tokens.
    src = as_tokens(source)
    check_tokens(src, model.vocab, "source", content=False)
    constraints = tuple(as_tokens(c) for c in params.constraints)
    for c in constraints:
        if len(c) == 0:
            raise InvalidParams("constraint phrases must be non-empty")
        check_tokens(c, model.vocab, "constraint")
    t0 = time.perf_counter()
    best, beam, (fw, pos_scored, emitted, stop_reason) = _search(
        model, src, constraints, params.beam_width, params.max_len
    )
    stats = DecodeStats(
        forward_passes=fw,
        positions_scored=pos_scored,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=_wall_us(t0),
    )
    return best, beam, stats


def beam_search(model: SequenceModel, source, beam_width: int, max_len: int) -> BeamSearchResult:
    """Standard beam search from BOS over content tokens: the DBA search
    with no constraints, so it finishes and stops as ``dba_decode`` does
    with a single bank. Without constraints nothing is force-finished at
    ``max_len``: a hypothesis still alive there finishes only when EOS is
    its argmax.

    Returns the best finished sequence by length-normalized score; if
    nothing finished, the best unfinished hypothesis with ``finished=False``.
    """
    (raw, tokens), beam, _stats = _beam_core(model, source, DbaParams(beam_width, max_len))
    finished = raw > -math.inf
    score, tokens = _pick_best([(tokens, raw)] if finished else [entry[:2] for entry in beam()])
    return BeamSearchResult(TokenSeq(tokens), score, finished)


def dba_decode(model: SequenceModel, source, params: DbaParams) -> tuple[TokenSeq, float, DecodeStats]:
    """Full-sequence beam search with hard phrasal constraints.

    Beam slots are divided as evenly as possible among banks indexed by the
    number of satisfied constraint tokens (partial phrase progress counts),
    with remainders and unfillable slots going to higher banks / the best
    remaining candidates. The per-step candidate pool is the global top-k
    expansion set plus, for every hypothesis, the forced next token of each
    unfinished phrase. Only constraint-complete hypotheses may finish, so
    every returned sequence contains every phrase contiguously.

    Each step sorts the pool and the EOS candidates once by ``rank`` into
    one list. The global window is its first beam-width entries, a bank's
    slots are its first entries of that bank, and the backfill takes the
    first leftovers. ``rank`` is a total order on the list, since every
    child is distinct and one token longer than every EOS candidate, so each
    of these reads the order that sorting it on its own would give.

    A hypothesis finishes (its EOS completion becomes a candidate answer)
    when EOS is its argmax extension or its EOS candidate ranks inside the
    global beam window or its bank's slots; under constraints, every
    complete hypothesis alive at ``max_len`` finishes too. Termination: the
    length cap (``max_len``), or beam-width many EOS candidates having
    ranked inside the beam window or their bank's slots, which reports
    ``empty_beam``. The answer is the finished sequence of best
    length-normalized score.

    Raises ``ConstraintsUnsatisfiable`` when nothing finished.
    """
    (raw, tokens), _beam, stats = _beam_core(model, source, params)
    _check_finished(raw, params.max_len)
    return TokenSeq(tokens), normalized_score(raw, len(tokens)), stats


def _check_finished(raw: float, max_len: int) -> None:
    """Raise ``ConstraintsUnsatisfiable`` when nothing finished (-inf)."""
    if raw == -math.inf:
        raise ConstraintsUnsatisfiable(f"no constraint-complete hypothesis finished within max_len={max_len}")


def _find(hay: Tokens, needle: Tokens, last: bool = False) -> int | None:
    """Start of the first (or last) occurrence of ``needle`` in ``hay``;
    an empty needle occurs at 0 (or ``len(hay)``); None when absent."""
    starts = range(len(hay) - len(needle) + 1)
    if last:
        starts = reversed(starts)
    for i in starts:
        if hay[i : i + len(needle)] == needle:
            return i
    return None


def extract_span(output: Tokens, prefix: Tokens, suffix: Tokens) -> Tokens:
    """Span between the end of the first prefix occurrence and the start of
    the last suffix occurrence; if that window is ill-formed, fall back to
    deleting the matched constraint tokens and returning the remainder.

    An absent prefix or suffix counts as an empty one, matched with zero
    length at 0 or at the end, so it drops no token. dba_decode outputs
    always contain both; this keeps the function total for direct callers.
    """
    p_start = _find(output, prefix)
    if p_start is None:
        prefix, p_start = (), 0
    s_start = _find(output, suffix, last=True)
    if s_start is None:
        suffix, s_start = (), len(output)
    p_end = p_start + len(prefix)
    if p_end <= s_start:
        return output[p_end:s_start]
    drop = set(range(p_start, p_end)) | set(range(s_start, s_start + len(suffix)))
    return tuple(tok for i, tok in enumerate(output) if i not in drop)


def dba_suggest(
    model: SequenceModel,
    task: TsTask,
    beam_width: int,
    max_len: int | None = None,
    scoring: str = SCORING_MEAN_LOGPROB,
    include_eos_in_len: bool = False,
) -> Suggestion:
    """Generate a span suggestion with DBA: decode the full sentence under
    prefix/suffix phrase constraints, then cut the span out of the output.

    Selection is always length-normalized, the usual convention for
    full-sentence translation decoding. The reported score is the same
    whole-sequence score PSGD reports for prefix + span + suffix, so results
    from both decoders are directly comparable. When the output is exactly
    prefix + span + suffix, it is the output's own finish score, which the
    search keeps with its tokens, normalized: the search added the same
    memo rows' terms in the order ``filled_score`` adds them, ``0.0`` + each
    token's term + the EOS term, so the bytes are the same. Otherwise it
    takes one forced pass (``filled_score``).
    Either way the statistics count that pass as one more logical forced
    pass, and ``wall_time_us`` covers the whole suggestion. The task is
    checked once, by ``validate_task``.
    """
    validate_task(task, model.vocab)
    _check_scoring(scoring)
    t0 = time.perf_counter()
    src = as_tokens(task.source)
    p = as_tokens(task.prefix)
    s = as_tokens(task.suffix)
    if max_len is None:
        max_len = len(p) + len(s) + default_max_span_len(len(src))
    _check_beam_params(beam_width, max_len)
    constraints = tuple(c for c in (p, s) if c)
    (raw, output), _beam, (fw, pos_scored, emitted, stop_reason) = _search(model, src, constraints, beam_width,
                                                                           max_len)
    _check_finished(raw, max_len)
    span = extract_span(output, p, s)
    if p + span + s == output:
        whole = normalized_score(raw, len(output), scoring, include_eos_in_len)
    else:
        whole = filled_score(model, src, p, span, s, scoring, include_eos_in_len)
    stats = DecodeStats(
        forward_passes=fw + 1,
        positions_scored=pos_scored + len(p) + len(span) + len(s) + 1,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=_wall_us(t0),
    )
    return Suggestion(span=TokenSeq(span), whole_seq_score=whole, stats=stats)
