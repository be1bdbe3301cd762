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

The PSGD loop, ``_psgd_run``, holds the spans, the counts, the best so far
and the stopping rule, and looks up each round's rows. It scores each round
with one of two rounds that give the same results:
``rowkernel.CompiledRound``, ``_rowkernel.c``'s ``tsd_psgd_round`` on
buffers each decode allocates once, when the scorer is ``_SpanScorer`` and
the compiled round is loaded and passed its check
(``rng.compiled().psgd_round``), and ``_PythonRound`` otherwise, which is
also the reference the compiled round is checked against. A round gives
each item's score, the first-ranked item and, only when the loop will score
another round, the children.

DBA decodes the whole sentence left to right under hard phrasal
constraints, dividing the beam into banks by constraint progress so that
partially-satisfied hypotheses survive pruning. Plain beam search is the same
search with no constraints: both run the one full-sentence beam loop in
``_beam_core``, which selects by length-normalized score. Each step of it
ranks every candidate once, in one list sorted by ``scoring.rank``, and
reads the global window, each bank's slots, the backfill and the next beam
from that one order.

The beam loop takes each step with one of two steps that give the same
results: ``rowkernel.CompiledStep``, ``_rowkernel.c``'s ``tsd_beam_step``
on buffers each decode allocates once, when the kernel builds, loads and
passes its check (``rng.compiled().beam_step``), and ``_PythonStep``
otherwise, which is also the reference the compiled step is checked
against. The loop itself holds the tokens, the finishes, the counts and the
stop reasons, the same for both.

Every decoder checks its inputs once per decode and then reads memoised
log rows through the model's one unchecked batched lookup,
``SequenceModel.rows_after``, which draws the rows a batch misses in one
block: PSGD makes one call per scoring round, the beam loop one per step.

The Python round and step order all candidates with ``scoring.rank`` and
extend their beams with one expansion step, ``_expand``. It works on
arrays, like the vectorised DBA of Hu et al. (NAACL 2019), which builds on
Post & Vilar (NAACL 2018): it scores all beam x content candidates in one
numpy add and builds candidate tuples only for those scoring at least the
k-th best score, ties included, so the cut never changes which candidates
win. The compiled round and step keep the same top k in C, with one helper.
"""

from __future__ import annotations

import time
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


class _SpanScorer:
    """Incremental scoring of prefix + span + suffix for one task.

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
        k = min(model.order, len(s))
        self.fixed_eos = fixed_eos = len(s) >= model.order
        fixed = (
            [p[:t] for t in range(len(p))]
            + [p + s[:j] for j in range(k, len(s))]
            + ([p + s] if fixed_eos else [])
        )
        fixed_rows = model.rows_after(src, fixed)
        prefix_terms = [float(row[tok]) for row, tok in zip(fixed_rows, p)]
        self.head_terms = ([float(fixed_rows[-1][eos])] if fixed_eos else []) + prefix_terms
        self.tail_terms = [float(row[tok]) for row, tok in zip(fixed_rows[len(p) :], s[k:])]
        self.pieces = [s[:j] for j in range(max(k, 1))] + ([s] if s and not fixed_eos else [])
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


class _PythonRound:
    """One decode's PSGD scoring round in Python: the round taken when the
    compiled ``tsd_psgd_round`` is not loaded or the scorer is not a
    ``_SpanScorer``, and the reference the compiled round is checked
    against.

    It holds each item's (span log-prob, carry), the carry being its span's
    terms: the empty span starts at ``()`` and a child appends its token's
    term in its parent's next-token row. The caller holds their spans.
    Called with the items' rows (``len(scorer.pieces)`` per item), their
    spans, their whole-sequence length, an ``EXPAND_*`` and the best score
    so far, it returns ``(top, score, children)``: the index and normalised
    score of the round's first-ranked item, and, when the round expands, the
    ``beam_width`` best children as (parent index, token) pairs in ``rank``
    order, else none. ``scores()`` gives every item's score, ``advance()``
    makes the children the beam and ``beam()`` gives its (span log-prob,
    carry) entries.
    """

    def __init__(self, scorer, vocab, params: PsgdParams) -> None:
        self.scorer = scorer
        self.content = vocab.content_ids
        self.params = params
        self.state = [(0.0, ())]
        self.next: list = []
        self.round_scores: list[float] = []

    def __call__(self, rows, spans: list[Tokens], length: int, expand: int, best: float):
        scorer, params = self.scorer, self.params
        per_item = len(scorer.pieces)
        entries = []
        scores = self.round_scores = []
        for i, (span, (lp, carry)) in enumerate(zip(spans, self.state)):
            total, row = scorer.total(rows[i * per_item : (i + 1) * per_item], span, carry)
            scores.append(normalized_score(total, length, params.scoring, params.include_eos_in_len))
            entries.append((span, lp, carry, row, i))
        score, _, top = min(zip(scores, spans, range(len(spans))), key=rank)
        if not (expand == EXPAND_ALWAYS or (expand == EXPAND_IF_BETTER and score > best)):
            return top, score, []
        children = _expand(entries, [entry[3] for entry in entries], self.content, params.beam_width)
        self.next = [(lp_c, parent[2] + (float(parent[3][child[-1]]),)) for lp_c, child, parent in children]
        return top, score, [(parent[4], child[-1]) for _, child, parent in children]

    def scores(self) -> list[float]:
        return self.round_scores

    def advance(self) -> None:
        self.state = self.next

    def beam(self) -> list:
        return self.state


def _psgd_run(
    model: SequenceModel, task: TsTask, params: PsgdParams, scorer, trace: list | None = None
) -> Suggestion:
    """The PSGD search, scoring with ``scorer`` (``_SpanScorer`` or
    ``_ForcedPassScorer``); appends to ``trace``, when given, each scoring
    round's (span, score) pairs.

    Each round goes to ``rowkernel.CompiledRound`` when the scorer is a
    ``_SpanScorer`` and the compiled round is loaded
    (``rng.compiled().psgd_round``), and to ``_PythonRound`` otherwise; both
    give the same results. This loop holds the spans, the counts, the best
    and the stopping rule."""
    validate_task(task, model.vocab)
    beam_width, patience, max_span = _resolve_psgd_params(params, len(task.source))
    src = as_tokens(task.source)
    p = as_tokens(task.prefix)
    s = as_tokens(task.suffix)

    t0 = time.perf_counter()
    scorer = scorer(model, src, p, s)
    kernel = rng.compiled().psgd_round if isinstance(scorer, _SpanScorer) else None
    if kernel:
        from .rowkernel import CompiledRound

        take = CompiledRound(kernel, scorer, model.vocab, params)
    else:
        take = _PythonRound(scorer, model.vocab, params)
    rows_after, pieces = model.rows_after, scorer.pieces
    fw = 0
    pos_scored = 0
    emitted = 0
    stop_reason = STOP_PATIENCE
    # The first-ranked (whole-sequence score, span, step) so far.
    best: tuple[float, Tokens, int] = (float("-inf"), (), 0)
    spans: list[Tokens] = [()]
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
        rows = rows_after(src, [head + piece for head in [p + span for span in spans] for piece in pieces])
        top, score, children = take(rows, spans, length, expand, best[0])
        fw += len(spans)
        pos_scored += (length + 1) * len(spans)
        # Spans grow by one token a round, so on a tie the earlier best
        # ranks first.
        if score > best[0]:
            best = (score, spans[top], n)
        if trace is not None:
            trace.append(list(zip(spans, take.scores())))
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
        spans = [spans[parent] + (tok,) for parent, tok in children]
        take.advance()
        n += 1

    stats = DecodeStats(
        forward_passes=fw,
        positions_scored=pos_scored,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=_wall_us(t0),
    )
    return Suggestion(span=TokenSeq(best[1]), whole_seq_score=best[0], stats=stats)


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


class _PythonStep:
    """One decode's beam step in Python: the step taken when the compiled
    ``tsd_beam_step`` is not loaded, and the reference it is checked against.

    It holds the beam's (raw score, constraint progress, bank) entries; the
    caller holds their tokens. Called with each hypothesis's log row, the
    beam's tokens and whether this is the step at the length budget, it
    returns ``(survivors, finishes, hard)``:
    - ``survivors``, the next beam as (parent index, token) pairs in ``rank``
      order, none when ``last``;
    - ``finishes``, the (parent index, EOS score) of each finish in the order
      it was marked, a parent possibly twice;
    - ``hard``, how many EOS candidates ranked inside the global window or
      their bank's slots (0 when ``last``).
    ``advance()`` makes the survivors the beam; ``beam(tokens)`` gives the
    beam's (tokens, raw score, progress, bank) entries.
    """

    def __init__(self, vocab, constraints: tuple[Tokens, ...], beam_width: int, beam: Beam) -> None:
        self.eos = vocab.eos_id
        self.content = vocab.content_ids
        self.constraints = constraints
        # A hypothesis's bank is its summed progress; it is constraint-complete
        # exactly in the bank of every phrase token.
        self.complete = sum(len(c) for c in constraints)
        self.beam_width = beam_width
        self.state = [entry[1:] for entry in beam]
        self.next: list[tuple[float, tuple[int, ...], int]] = []

    def __call__(self, rows, tokens: list[Tokens], last: bool):
        eos, constraints, complete, beam_width = self.eos, self.constraints, self.complete, self.beam_width
        rows = np.array(rows)
        beam = [(t, lp, progress, bank, b) for b, (t, (lp, progress, bank)) in enumerate(zip(tokens, self.state))]
        # EOS candidates of the complete hypotheses, which never enter the
        # alive beam, and the forced child of every unfinished phrase, as
        # _expand's (score, child, parent); a complete hypothesis finishes
        # when EOS is its argmax and, under constraints, at the length
        # budget (a forced finish, rather than return nothing).
        cands, forced, finishes = [], [], []
        for t, lp, progress, bank, b in beam:
            if bank == complete:
                score = lp + rows.item(b, eos)
                cands.append((score, t, progress, bank, b, None))
                if rows[b].argmax() == eos or (constraints and last):
                    finishes.append((b, score))
            for pos, phrase in zip(progress, constraints):
                if pos < len(phrase):
                    forced.append((lp + rows.item(b, phrase[pos]), t + (phrase[pos],), beam[b]))
        if last:
            return [], finishes, 0

        # The content pool: the top-k expansions and the forced children,
        # each child once, with its new progress and bank.
        pool = set()
        for lp_c, child, parent in _expand(beam, rows, self.content, beam_width) + forced:
            if child in pool:
                continue
            pool.add(child)
            tok = child[-1]
            progress = _advance_progress(parent[2], constraints, tok)
            cands.append((lp_c, child, progress, sum(progress), parent[4], tok))
        cands.sort(key=rank)  # the one sort of the step (see dba_decode)

        # EOS candidates finish by ranking inside the global window, the
        # first beam_width candidates, or inside their own bank's slots
        # (without which finishing would have to outrank every unconstrained
        # hypothesis globally). A forced-only candidate ranks after all
        # beam_width top ones, so it never enters the window. Slots are split
        # evenly over the non-empty banks, remainders to higher banks; each
        # bank keeps its best content candidates in its slots.
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
            if cand[5] is None:
                if i < beam_width or seen[bank] < slots[bank]:
                    finishes.append((cand[4], cand[0]))
                    hard += 1
            else:
                in_slot = kept[bank] < slots[bank]
                spare -= in_slot
                alive.append((cand, in_slot))
                kept[bank] += 1
            seen[bank] += 1
        survivors, self.next = [], []
        for (lp_c, _, progress, bank, parent, tok), in_slot in alive:
            if not in_slot:
                if spare == 0:
                    continue
                spare -= 1
            survivors.append((parent, tok))
            self.next.append((lp_c, progress, bank))
        return survivors, finishes, hard

    def advance(self) -> None:
        self.state = self.next

    def beam(self, tokens: list[Tokens]) -> Beam:
        return [(t, *entry) for t, entry in zip(tokens, self.state)]


def _beam_core(model: SequenceModel, source, params: DbaParams) -> tuple[dict[Tokens, float], Beam, DecodeStats]:
    """Full-sentence beam search from BOS under ``params.constraints``.

    Returns the finished sequences with their raw scores (EOS included), the
    final beam as (tokens, raw score, constraint progress, bank) entries, and
    the decode statistics. See ``dba_decode`` for the search itself. Each
    step's selection is ``rowkernel.CompiledStep``'s or ``_PythonStep``'s,
    which give the same results; this loop holds the tokens, the finishes, the counts
    and the stop reasons.
    """
    if params.beam_width < 1:
        raise InvalidParams(f"beam_width must be >= 1, got {params.beam_width}")
    if params.max_len < 0:
        raise InvalidParams(f"max_len must be >= 0, got {params.max_len}")
    # Inputs are checked once here: every later row is read unchecked, and
    # hypotheses hold only content ids and constraint tokens.
    src = as_tokens(source)
    check_tokens(src, model.vocab, "source", content=False)
    constraints = tuple(as_tokens(c) for c in params.constraints)
    for c in constraints:
        if len(c) == 0:
            raise InvalidParams("constraint phrases must be non-empty")
        check_tokens(c, model.vocab, "constraint")
    rows_after = model.rows_after
    beam_width = params.beam_width
    # The step, compiled when the kernel loads and passes its check.
    kernel = rng.compiled().beam_step
    start = [((), 0.0, tuple(0 for _ in constraints), 0)]
    if kernel:
        from .rowkernel import CompiledStep

        take = CompiledStep(kernel, model.vocab, constraints, beam_width, start)
    else:
        take = _PythonStep(model.vocab, constraints, beam_width, start)

    t0 = time.perf_counter()
    fw = 0
    pos_scored = 0
    emitted = 0
    stop_reason = STOP_MAX_LEN
    hard_finishes = 0

    tokens: list[Tokens] = [()]
    finished: dict[Tokens, float] = {}

    for step in range(params.max_len + 1):
        last = step == params.max_len
        # One memoised row per hypothesis, from one batched lookup; the
        # statistics still count the logical forced pass over BOS + tokens
        # that each row ends.
        rows = rows_after(src, tokens)
        fw += len(tokens)
        pos_scored += len(tokens) * (step + 1)  # every hypothesis holds step tokens
        survivors, finishes, hard = take(rows, tokens, last)
        for parent, score in finishes:
            finished.setdefault(tokens[parent], score)
        if last:
            break
        hard_finishes += hard
        if hard_finishes >= beam_width:
            stop_reason = STOP_EMPTY_BEAM
            break
        tokens = [tokens[parent] + (tok,) for parent, tok in survivors]
        take.advance()
        emitted += 1

    stats = DecodeStats(
        forward_passes=fw,
        positions_scored=pos_scored,
        emitted_steps=emitted,
        stop_reason=stop_reason,
        wall_time_us=_wall_us(t0),
    )
    return finished, take.beam(tokens), stats


def beam_search(model: SequenceModel, source, beam_width: int, max_len: int) -> BeamSearchResult:
    """Standard beam search from BOS over content tokens: the DBA search
    with no constraints, so it finishes and stops as ``dba_decode`` does
    with a single bank. Without constraints nothing is force-finished at
    ``max_len``: a hypothesis still alive there finishes only when EOS is
    its argmax.

    Returns the best finished sequence by length-normalized score; if
    nothing finished, the best unfinished hypothesis with ``finished=False``.
    """
    finished, beam, _stats = _beam_core(model, source, DbaParams(beam_width, max_len))
    entries = finished.items() if finished else [entry[:2] for entry in beam]
    score, tokens = _pick_best(entries)
    return BeamSearchResult(TokenSeq(tokens), score, bool(finished))


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
    finished, _beam, stats = _beam_core(model, source, params)
    if not finished:
        raise ConstraintsUnsatisfiable(
            f"no constraint-complete hypothesis finished within max_len={params.max_len}"
        )
    score, tokens = _pick_best(finished.items())
    return TokenSeq(tokens), score, stats


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
    whole-sequence score PSGD reports for prefix + span + suffix, computed
    with one extra forced pass so results from both decoders are directly
    comparable; ``wall_time_us`` covers that pass too.
    """
    validate_task(task, model.vocab)
    _check_scoring(scoring)
    t0 = time.perf_counter()
    p = as_tokens(task.prefix)
    s = as_tokens(task.suffix)
    if max_len is None:
        max_len = len(p) + len(s) + default_max_span_len(len(task.source))
    constraints = tuple(c for c in (p, s) if c)
    output, _sel, stats = dba_decode(model, task.source, DbaParams(beam_width, max_len, constraints))
    span = extract_span(output.tokens, p, s)
    whole = filled_score(model, task.source, p, span, s, scoring, include_eos_in_len)
    stats = replace(
        stats,
        forward_passes=stats.forward_passes + 1,
        positions_scored=stats.positions_scored + len(p) + len(span) + len(s) + 1,
        wall_time_us=_wall_us(t0),
    )
    return Suggestion(span=TokenSeq(span), whole_seq_score=whole, stats=stats)

