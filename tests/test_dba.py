import time

import pytest
from hypothesis import given, settings, strategies as st

from tsdecode import decode
from tsdecode.core import ReservedTokenInContent, TokenOutOfRange, TokenSeq, TsTask, Vocab
from tsdecode.decode import (
    ConstraintsUnsatisfiable,
    _find,
    DbaParams,
    InvalidParams,
    beam_search,
    dba_decode,
    dba_suggest,
    extract_span,
)
from tsdecode.lm import NgramGenModel, UniformModel, make_perturbed_sibling
from tsdecode.rng import Stream, hash_key
from tsdecode.scoring import SCORING_MODES, filled_score

from util import (
    contains_phrase,
    enumerate_best,
    kernel_paths,
    over_paths,
    random_phrases,
    random_table_model,
    random_task,
    record_token_checks,
    reference_extract_span,
    run_by,
    table_model,
)


class TestDegenerateEquivalence:
    def test_no_constraints_equals_beam_search(self):
        # Same outputs when something finishes; when nothing does, the two
        # surfaces diverge by contract (warning flag vs error).
        for seed in range(30):
            vocab, src, model = random_table_model(seed, vocab_size=4 + seed % 4)
            want = beam_search(model, src, beam_width=4, max_len=10)
            try:
                out, score, _ = dba_decode(model, src, DbaParams(beam_width=4, max_len=10))
            except ConstraintsUnsatisfiable:
                assert not want.finished
                continue
            assert want.finished
            assert out.tokens == want.tokens.tokens
            assert score == want.score


def test_single_constraint_on_uniform_model():
    model = UniformModel(Vocab(6))
    out, _, _ = dba_decode(model, (2,), DbaParams(beam_width=3, max_len=8, constraints=((4,),)))
    assert 4 in out.tokens


def test_m1_ts_shaped_constraints_golden(m1, m1_src):
    out, score, stats = dba_decode(
        m1, m1_src, DbaParams(beam_width=4, max_len=6, constraints=((2,), (3,)))
    )
    assert out.tokens == (2, 3)
    assert contains_phrase(out.tokens, (2,)) and contains_phrase(out.tokens, (3,))


def test_hard_constraint_guarantee_random():
    for seed in range(60):
        vocab, src, model = random_table_model(seed, vocab_size=4 + seed % 5)
        phrases = random_phrases(seed, vocab)
        try:
            out, _, _ = dba_decode(
                model, src, DbaParams(beam_width=5, max_len=16, constraints=phrases)
            )
        except ConstraintsUnsatisfiable:
            continue
        for phrase in phrases:
            assert contains_phrase(out.tokens, phrase)


def test_constrained_matches_enumeration_when_exhaustive():
    # Vocab of 4 has 2 content tokens, so width 8 keeps every candidate to
    # depth 3: the search must find the best constraint-complete sequence,
    # and fail exactly when no sequence of length <= 3 holds every phrase.
    unsatisfiable = 0
    for seed in range(60):
        vocab, src, model = random_table_model(seed, vocab_size=4)
        phrases = random_phrases(seed, vocab)
        want_tokens, want_score = enumerate_best(model, src, 3, phrases)
        params = DbaParams(beam_width=8, max_len=3, constraints=phrases)
        if want_tokens is None:
            unsatisfiable += 1
            with pytest.raises(ConstraintsUnsatisfiable):
                dba_decode(model, src, params)
            continue
        out, score, _ = dba_decode(model, src, params)
        assert out.tokens == want_tokens
        assert abs(score - want_score) < 1e-12
    assert 0 < unsatisfiable < 60


def test_unsatisfiable_when_budget_too_small(m1, m1_src):
    with pytest.raises(ConstraintsUnsatisfiable):
        dba_decode(m1, m1_src, DbaParams(beam_width=2, max_len=1, constraints=((2, 3, 2),)))


def test_empty_phrase_rejected(m1, m1_src):
    with pytest.raises(InvalidParams):
        dba_decode(m1, m1_src, DbaParams(beam_width=2, max_len=4, constraints=((),)))


TOKENS = st.lists(st.integers(min_value=2, max_value=4), max_size=5).map(tuple)


class TestExtractSpan:
    def test_clean_window(self):
        assert extract_span((7, 8, 5, 6, 9), (7, 8), (9,)) == (5, 6)

    def test_empty_prefix_and_suffix(self):
        assert extract_span((5, 6), (), ()) == (5, 6)

    def test_suffix_before_prefix_falls_back_to_removal(self):
        # Window is ill-formed: last suffix occurrence starts before the
        # prefix match ends, so matched constraint tokens are deleted.
        assert extract_span((9, 7, 8, 5), (7, 8), (9,)) == (5,)

    def test_overlapping_matches_drop_union(self):
        assert extract_span((7, 8, 5), (7, 8), (8, 5)) == ()

    def test_multiple_occurrences_first_prefix_last_suffix(self):
        assert extract_span((7, 5, 7, 6, 9), (7,), (9,)) == (5, 7, 6)

    def test_absent_suffix_counts_as_matched_at_the_end(self):
        assert extract_span((7, 5, 6), (7,), (9,)) == (5, 6)

    def test_absent_prefix_counts_as_matched_at_0(self):
        assert extract_span((5, 6, 9), (7,), (9,)) == (5, 6)

    def test_absent_prefix_keeps_its_partial_match(self):
        # Only part of the prefix occurs, so it is content: the window runs
        # from 0 to the suffix at 1.
        assert extract_span((5, 6), (5, 6, 7), (6,)) == (5,)

    @given(*[TOKENS] * 5, st.one_of(st.none(), TOKENS))
    @settings(max_examples=300)
    def test_equals_its_two_scans(self, prefix, span, suffix, lead, trail, other):
        # Over a small alphabet the prefix and suffix recur and overlap. The
        # output is prefix + span + suffix, as DBA's nearly always is, with
        # tokens before and after it, or any other sequence.
        output = lead + prefix + span + suffix + trail if other is None else other
        assert extract_span(output, prefix, suffix) == reference_extract_span(output, prefix, suffix)

    def test_find_first_and_last_occurrence(self):
        assert _find((1, 2, 1, 2), (1, 2)) == 0
        assert _find((1, 2, 1, 2), (1, 2), last=True) == 2
        assert _find((1, 2), ()) == 0
        assert _find((1, 2), (), last=True) == 2
        assert _find((), ()) == 0
        assert _find((1,), (2,)) is None
        assert _find((1,), (1, 1), last=True) is None


class TestDbaSuggest:
    def test_exact_fill_extraction(self, m1, m1_task):
        got = dba_suggest(m1, m1_task, beam_width=4)
        # Pinned golden: the modal sentence is exactly prefix ++ suffix.
        assert got.span.tokens == ()

    def test_score_matches_shared_scoring(self, m1, m1_task):
        got = dba_suggest(m1, m1_task, beam_width=4)
        want = filled_score(m1, m1_task.source, m1_task.prefix, got.span.tokens, m1_task.suffix)
        assert got.whole_seq_score.hex() == want.hex()

    def test_propagates_unsatisfiable(self, m1, m1_task):
        with pytest.raises(ConstraintsUnsatisfiable):
            dba_suggest(m1, m1_task, beam_width=2, max_len=1)

    def test_empty_constraints_omitted(self, m1, m1_task_empty):
        got = dba_suggest(m1, m1_task_empty, beam_width=4)
        assert got.span.tokens == (2, 3)

    def test_wall_time_covers_the_rescoring_pass(self, monkeypatch, m1, m1_task):
        # m1_task's output is prefix + span + suffix, scored from its own
        # finish; with prefix (3,) alone the output starts before the
        # prefix, and its score takes the forced pass.
        def slow(real, calls):
            def slowed(*args):
                calls.append(args)
                time.sleep(0.05)
                return real(*args)
            return slowed

        cut, rescored = [], []
        monkeypatch.setattr(decode, "extract_span", slow(decode.extract_span, cut))
        monkeypatch.setattr(decode, "filled_score", slow(decode.filled_score, rescored))
        assert dba_suggest(m1, m1_task, beam_width=4).stats.wall_time_us >= 50_000
        assert (len(cut), len(rescored)) == (1, 0)
        forced = TsTask("m1p", m1_task.source, TokenSeq((3,)), TokenSeq(()))
        assert dba_suggest(m1, forced, beam_width=4).stats.wall_time_us >= 100_000
        assert (len(cut), len(rescored)) == (2, 1)

    def test_output_reconstructs_with_constraints(self):
        for seed in range(20):
            vocab, src, model = random_table_model(seed + 700, vocab_size=6)
            task = random_task(seed + 700, vocab, src)
            try:
                got = dba_suggest(model, task, beam_width=5)
            except ConstraintsUnsatisfiable:
                continue
            assert all(t in vocab.content_ids for t in got.span.tokens)


# Read from the search when it still ran one forced pass per hypothesis per
# step: constraints -> (tokens, forward_passes, positions_scored).
PINNED_BEAM_CORE = {
    (): ((5, 2, 11, 7, 2, 7, 4), 33, 177),
    ((4,), (6, 2)): ((5, 2, 11, 7, 2, 7, 4, 11, 6, 2), 41, 261),
}


# Ids as pytest gave them when the keys also held the raw-score mode.
@over_paths(
    "beam_search", "constraints", [(c,) for c in sorted(PINNED_BEAM_CORE)], ["constraints1-True", "constraints3-True"]
)
def test_beam_core_queries_last_rows_and_keeps_logical_counts(monkeypatch, beam_path, constraints):
    # The beam core reads one row per hypothesis per step through the
    # unchecked batched lookup; forward_passes and positions_scored stay
    # the counts of the forced passes that row stands for.
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    calls = []
    forced_pass = model.forced_pass
    monkeypatch.setattr(model, "forced_pass", lambda *a: calls.append(a) or forced_pass(*a))
    src = (3, 7, 5, 9)
    want_tokens, want_fw, want_pos = PINNED_BEAM_CORE[constraints]
    out, _, stats = dba_decode(model, src, DbaParams(4, 10, constraints))
    assert out.tokens == want_tokens
    assert (stats.forward_passes, stats.positions_scored) == (want_fw, want_pos)
    if not constraints:
        got = beam_search(model, src, beam_width=4, max_len=10)
        assert got.finished and got.tokens.tokens == want_tokens
    assert calls == []


@pytest.mark.parametrize(
    "source, constraints, error",
    [
        ((2, 5, 4), ((3, 9),), TokenOutOfRange),
        ((2, 5, 4), ((3, -1),), TokenOutOfRange),
        ((2, 5, 4), ((3, 1),), ReservedTokenInContent),
        ((2, 5, 4), ((0,),), ReservedTokenInContent),
        ((2, 8), (), TokenOutOfRange),
        ((2, -1), (), TokenOutOfRange),
    ],
    ids=["phrase-past-vocab", "phrase-negative", "phrase-eos", "phrase-bos", "source-past-vocab", "source-negative"],
)
def test_bad_tokens_raise_typed_errors_before_any_row(monkeypatch, source, constraints, error):
    # Inputs are checked once, up front: an id the unchecked row lookup
    # would index with (a -1 reads the last entry) never reaches it.
    model = NgramGenModel(Vocab(8), 2, seed=3, concentration=0.5)
    looked_up = []
    monkeypatch.setattr(model, "rows_after", lambda *a: looked_up.append(a))
    with pytest.raises(error):
        dba_decode(model, source, DbaParams(3, 6, constraints))
    if not constraints:
        with pytest.raises(error):
            beam_search(model, source, beam_width=3, max_len=6)
    assert looked_up == []


def test_unknown_scoring_mode_is_rejected_before_decoding(monkeypatch, m1, m1_task):
    monkeypatch.setattr(decode, "dba_decode", lambda *a: pytest.fail("decoded"))
    with pytest.raises(InvalidParams, match="scoring"):
        dba_suggest(m1, m1_task, beam_width=2, scoring="mean")


@pytest.mark.parametrize("constraints", [(), ((4,), (6, 2))], ids=["plain", "constrained"])
def test_beam_core_checks_its_inputs_once_per_decode(monkeypatch, constraints):
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    checked = record_token_checks(monkeypatch)
    _, _, stats = dba_decode(model, (3, 7, 5, 9), DbaParams(4, 10, constraints))
    assert stats.forward_passes > 1
    assert checked == ["source"] + ["constraint"] * len(constraints)
    if not constraints:
        checked.clear()
        beam_search(model, (3, 7, 5, 9), beam_width=4, max_len=10)
        assert checked == ["source"]


# The models of the score tests by kind: an order-2 n-gram model, its
# perturbed sibling, an order-2 table model whose rows tie and the uniform
# model, each over vocab 7.
SCORED_MODELS = {
    "ngram": lambda seed: NgramGenModel(Vocab(7), 2, seed, 0.3),
    "sibling": lambda seed: make_perturbed_sibling(NgramGenModel(Vocab(7), 2, seed, 0.3), seed + 1, 0.5),
    "tied": lambda seed: table_model(seed, 7, 2, True),
    "uniform": lambda seed: UniformModel(Vocab(7)),
}


def scored(path, kind, seed, task, width, scoring, eos_in_len):
    """A DBA suggestion's score on the ``path`` search and ``filled_score``
    of its span, both as hex, and whether its output is other than prefix
    + span + suffix, so that its score took the forced pass; None when
    nothing finished."""
    p, s = task.prefix.tokens, task.suffix.tokens
    with run_by("beam_search", path):
        model = SCORED_MODELS[kind](seed)
        try:
            got = dba_suggest(model, task, width, scoring=scoring, include_eos_in_len=eos_in_len)
        except ConstraintsUnsatisfiable:
            return None
        max_len = len(p) + len(s) + decode.default_max_span_len(len(task.source))
        output, _, _ = dba_decode(model, task.source, DbaParams(width, max_len, tuple(c for c in (p, s) if c)))
    want = filled_score(model, task.source, p, got.span.tokens, s, scoring, eos_in_len)
    return got.whole_seq_score.hex(), want.hex(), output.tokens != p + got.span.tokens + s


@st.composite
def scored_suggestions(draw):
    """(model kind, seed, task, width, scoring, include_eos_in_len): a
    prefix and a suffix of 0-3 tokens over the first content ids, so that
    they recur and overlap in outputs."""
    affix = st.lists(st.sampled_from(Vocab(7).content_ids[:3]), max_size=3).map(TokenSeq)
    task = TsTask("t", TokenSeq(draw(st.sampled_from([(2,), (3,)]))), draw(affix), draw(affix))
    return (draw(st.sampled_from(sorted(SCORED_MODELS))), draw(st.integers(0, 2**32 - 1)), task,
            draw(st.integers(1, 5)), draw(st.sampled_from(SCORING_MODES)), draw(st.booleans()))


@pytest.mark.parametrize("path", kernel_paths("beam_search"))
@given(scored_suggestions())
@settings(max_examples=150, deadline=None)
def test_the_score_has_the_bytes_of_the_forced_pass(path, case):
    got = scored(path, *case)
    assert got is None or got[0] == got[1]


@pytest.mark.parametrize("path", kernel_paths("beam_search"))
def test_the_score_takes_the_finish_and_the_forced_pass_with_the_same_bytes(path):
    # Seeded tasks on every model kind: outputs that are prefix + span +
    # suffix, scored from the finish, and outputs with a token outside the
    # prefix ... suffix window, scored by the forced pass.
    forced = {kind: set() for kind in SCORED_MODELS}
    for seed in range(40):
        stream = Stream(hash_key(seed, 0xD8A))
        affix = [tuple(stream.choice((2, 3, 4)) for _ in range(stream.randint(0, 2))) for _ in range(2)]
        task = TsTask("t", TokenSeq((2 + seed % 2,)), TokenSeq(affix[0]), TokenSeq(affix[1]))
        for kind in SCORED_MODELS:
            got = scored(path, kind, seed, task, 1 + seed % 4, SCORING_MODES[seed % 2], seed % 3 == 0)
            if got is not None:
                assert got[0] == got[1]
                forced[kind].add(got[2])
    assert forced == {kind: {False, True} for kind in SCORED_MODELS}
