import tracemalloc
from dataclasses import replace

import pytest

from tsdecode import decode, harness, rowkernel
from tsdecode.core import STOP_EMPTY_BEAM, STOP_MAX_LEN, STOP_PATIENCE, TokenSeq, TsTask, Vocab
from tsdecode.decode import (
    InvalidParams,
    PsgdParams,
    beam_search,
    dba_suggest,
    psgd,
    psgd_two_pass,
    psgd_with_trace,
)
from tsdecode.lm import NgramGenModel, SequenceModel, TableModel, model_from_spec
from tsdecode.oracle import exhaustive_best_prefix, exhaustive_best_span
from tsdecode.rng import Stream, hash_key
from tsdecode.scoring import SCORING_MODES, SCORING_PROB_OVER_LENGTH, filled_score

from util import (kernel_paths, on_every_path, over_paths, random_table_model, random_task, record_token_checks,
                  run_by)


@pytest.fixture(scope="module")
def peaked_model():
    """Near-deterministic chain bos -> a -> b -> eos; any detour is ruinous."""
    vocab = Vocab(4)
    rows = {
        ((2,), (0,)): [0.0, 0.01, 0.98, 0.01],
        ((2,), (2,)): [0.0, 0.01, 0.01, 0.98],
        ((2,), (3,)): [0.0, 0.98, 0.01, 0.01],
    }
    return vocab, TableModel(vocab, 1, rows)


class TestEmptySpanOptimum:
    def test_returns_empty_span_after_exactly_pt_steps(self, peaked_model):
        vocab, model = peaked_model
        task = TsTask("peak", TokenSeq((2,)), TokenSeq((2,)), TokenSeq((3,)))
        # The un-filled sentence is already the modal one.
        oracle = exhaustive_best_span(model, task, 3)
        assert oracle.best_span.tokens == ()
        for pt in (1, 2, 4):
            got = psgd(model, task, PsgdParams(beam_width=2, patience=pt, max_span_len=8))
            assert got.span.tokens == ()
            assert got.stats.stop_reason == STOP_PATIENCE
            assert got.stats.emitted_steps == pt
            assert abs(got.whole_seq_score - oracle.best_score) < 1e-9


class TestOracleAgreement:
    def test_exhaustive_beam_matches_oracle(self):
        for seed in range(15):
            vocab, src, model = random_table_model(seed)
            task = random_task(seed, vocab, src)
            oracle = exhaustive_best_span(model, task, 2)
            got = psgd(model, task, PsgdParams(beam_width=9, patience=3, max_span_len=2))
            assert got.span.tokens == oracle.best_span.tokens
            assert abs(got.whole_seq_score - oracle.best_score) < 1e-9

    def test_prob_over_length_scoring_also_agrees(self):
        for seed in range(10):
            vocab, src, model = random_table_model(seed + 100)
            task = random_task(seed + 100, vocab, src)
            oracle = exhaustive_best_span(model, task, 2, scoring=SCORING_PROB_OVER_LENGTH)
            params = PsgdParams(
                beam_width=9, patience=3, max_span_len=2, scoring=SCORING_PROB_OVER_LENGTH
            )
            got = psgd(model, task, params)
            assert got.span.tokens == oracle.best_span.tokens


def test_unconstrained_task_matches_plain_beam_search(m1, m1_task_empty, m1_src):
    # With no constraints the span search walks the same greedy path as beam
    # search; on M1 the stopping rule lands on the same sentence.
    got = psgd(m1, m1_task_empty, PsgdParams(beam_width=1, patience=5))
    want = beam_search(m1, m1_src, beam_width=1, max_len=20)
    assert got.span.tokens == want.tokens.tokens == (2, 3)


def test_greedy_emitted_path_matches_greedy_argmax(m1, m1_task_empty, m1_src):
    _, trace = psgd_with_trace(m1, m1_task_empty, PsgdParams(beam_width=1, patience=3))
    path = trace[-1][0][0]
    # Reconstruct the greedy content walk by hand.
    want = []
    for _ in range(len(path)):
        row = m1.forced_pass(m1_src, tuple(want)).distributions[-1].probs
        best = max(m1.vocab.content_ids, key=lambda t: (row[t], -t))
        want.append(best)
    assert path == tuple(want)


@on_every_path("psgd_search")
class TestStopping:
    def test_patience_accounting(self):
        for seed in range(10):
            vocab, src, model = random_table_model(seed + 50)
            task = random_task(seed + 50, vocab, src)
            got = psgd(model, task, PsgdParams(beam_width=3, patience=2, max_span_len=12))
            if got.stats.stop_reason == STOP_PATIENCE:
                assert got.stats.emitted_steps == len(got.span) + 2

    def test_expands_only_before_a_scoring_round(self, monkeypatch, round_path):
        # A patience stop counts its last step in emitted_steps but does not
        # expand the beam for it: one expansion per scoring round but the
        # last. The traced decode runs the Python round, which shows every
        # expansion; the untraced one, compiled on the kernel path, ends
        # with no children and the same results.
        calls, lasts = [], []
        expand, search = decode._psgd_round, rowkernel.CompiledPsgd.__call__

        def counted(*args):
            scores, top, children, items = expand(*args)
            if children:
                calls.append(args)
            return scores, top, children, items

        def recorded(self, *args):
            result = search(self, *args)
            lasts.append(self.children())
            return result

        monkeypatch.setattr(decode, "_psgd_round", counted)
        monkeypatch.setattr(rowkernel.CompiledPsgd, "__call__", recorded)
        stops = set()
        for seed in range(10):
            vocab, src, model = random_table_model(seed + 50)
            task = random_task(seed + 50, vocab, src)
            for patience, max_span in ((1, 12), (2, 12), (3, 2)):
                calls.clear()
                params = PsgdParams(beam_width=3, patience=patience, max_span_len=max_span)
                got, trace = psgd_with_trace(model, task, params)
                assert len(calls) == len(trace) - 1
                lasts.clear()
                untraced = psgd(model, task, params)
                assert lasts == ([[]] if round_path == "kernel" else [])
                assert replace(untraced, stats=replace(untraced.stats, wall_time_us=0)) == replace(
                    got, stats=replace(got.stats, wall_time_us=0)
                )
                stops.add(got.stats.stop_reason)
                if got.stats.stop_reason == STOP_PATIENCE:
                    assert got.stats.emitted_steps == len(trace) == len(got.span) + patience
                else:
                    assert got.stats.emitted_steps == len(trace) - 1 == max_span
        assert stops == {STOP_PATIENCE, STOP_MAX_LEN}

    def test_best_step_equals_oracle_prefix_rule(self):
        for seed in range(30):
            vocab, src, model = random_table_model(seed + 200)
            task = random_task(seed + 200, vocab, src)
            max_span = 4
            got, trace = psgd_with_trace(
                model, task, PsgdParams(beam_width=1, patience=max_span, max_span_len=max_span)
            )
            path = trace[-1][0][0]
            n_hat, score = exhaustive_best_prefix(model, task, path)
            assert n_hat == len(got.span)
            assert abs(score - got.whole_seq_score) < 1e-12

    def test_pt_zero_returns_empty_span_with_real_score(self, m1, m1_task):
        got = psgd(m1, m1_task, PsgdParams(beam_width=3, patience=0, max_span_len=4))
        assert got.span.tokens == ()
        assert got.stats.emitted_steps == 0
        assert got.stats.forward_passes == 1
        assert got.stats.stop_reason == STOP_PATIENCE
        want = filled_score(m1, m1_task.source, m1_task.prefix, (), m1_task.suffix)
        assert abs(got.whole_seq_score - want) < 1e-12

    def test_max_span_cap(self, m1, m1_task_empty):
        got = psgd(m1, m1_task_empty, PsgdParams(beam_width=1, patience=50, max_span_len=3))
        assert got.stats.stop_reason == STOP_MAX_LEN
        assert got.stats.emitted_steps == 3

    def test_a_decode_to_the_cap_holds_only_its_beam(self):
        # Task r0.80_n0000 of `gen --vocab-size 20 --n-tasks 2 --seed 3`
        # grows its span to the cap. Had psgd kept every round's spans, as
        # psgd_with_trace does, its peak would grow with the square of the
        # cap: about 3.5 MB at 400.
        cfg = harness.GenConfig(vocab_size=20, n_tasks=2, seed=3)
        model = model_from_spec(cfg.resolved_model_spec())
        task = {t.task_id: t for t in harness.gen_dataset(cfg, model)}["r0.80_n0000"]
        params = PsgdParams(max_span_len=400)
        psgd(model, task, params)  # draws the rows before measuring
        tracemalloc.start()
        try:
            got = psgd(model, task, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.stats.stop_reason == STOP_MAX_LEN
        assert peak < 300_000

    def test_a_huge_cap_changes_nothing_when_patience_stops(self, pinned_setup):
        # Nothing is sized by the cap, so a cap never reached costs nothing;
        # the suffix (6,) keeps each span's terms, past 8 of them.
        model, task = pinned_setup
        for suffix, patience in (((6, 2), 3), ((6,), 3), ((), 2)):
            task = replace(task, suffix=TokenSeq(suffix))
            default, huge = (
                psgd(model, task, PsgdParams(beam_width=3, patience=patience, max_span_len=cap))
                for cap in (None, 10**9)
            )
            assert default.stats.stop_reason == STOP_PATIENCE
            assert replace(huge, stats=replace(huge.stats, wall_time_us=0)) == replace(
                default, stats=replace(default.stats, wall_time_us=0)
            )


@pytest.mark.parametrize("decoder", ["psgd", "dba"])
def test_a_huge_cap_sizes_no_room_by_it(decoder):
    # PSGD stops on patience and DBA on an empty beam long before a cap of
    # 10**9, the same way on every path. Token room sized for the cap would
    # take gigabytes: the peak shows that it follows the decode instead. The
    # kernel is loaded and the rows drawn before measuring.
    cfg = harness.GenConfig(vocab_size=20, n_tasks=2, seed=3)
    model = model_from_spec(cfg.resolved_model_spec())
    task = {t.task_id: t for t in harness.gen_dataset(cfg, model)}["r0.10_n0001"]
    function, stop, run = {
        "psgd": ("psgd_search", STOP_PATIENCE, lambda: psgd(model, task, PsgdParams(max_span_len=10**9, patience=2))),
        "dba": ("beam_search", STOP_EMPTY_BEAM, lambda: dba_suggest(model, task, beam_width=5, max_len=10**9)),
    }[decoder]
    results = []
    for path in kernel_paths(function):
        with run_by(function, path):
            run()
            tracemalloc.start()
            try:
                got = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got.stats.stop_reason == stop
        assert peak < 50_000, path
        results.append(replace(got, stats=replace(got.stats, wall_time_us=0)))
    assert all(result == results[0] for result in results)


class TestScoreConsistency:
    def test_reported_score_recomputable(self):
        for seed in range(20):
            vocab, src, model = random_table_model(seed + 300)
            task = random_task(seed + 300, vocab, src)
            got = psgd(model, task, PsgdParams(beam_width=3, patience=3, max_span_len=6))
            again = filled_score(model, task.source, task.prefix, got.span.tokens, task.suffix)
            assert abs(got.whole_seq_score - again) < 1e-9


def _affix_tasks(order: int, vocab: Vocab, seed: int):
    """Tasks over every suffix length 0..order + 1 and prefix length 0..3,
    so each side of the fixed-EOS-row case (suffix length >= order) shows."""
    stream = Stream(hash_key(seed, order))
    content = vocab.content_ids
    for n_suffix in range(order + 2):
        for n_prefix in range(4):
            source = tuple(stream.choice(content) for _ in range(stream.randint(1, 3)))
            prefix = tuple(stream.choice(content) for _ in range(n_prefix))
            suffix = tuple(stream.choice(content) for _ in range(n_suffix))
            yield TsTask(
                f"p{n_prefix}s{n_suffix}",
                TokenSeq(source),
                TokenSeq(prefix),
                TokenSeq(suffix),
            )


@on_every_path("psgd_search")
class TestTwoPassReference:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_incremental_scores_equal_forced_passes_bit_for_bit(self, order):
        # The incremental scorer keeps a running sum per hypothesis; the
        # two-pass reference re-sums a forced pass over the whole sequence.
        # Both add the EOS term first, then the target terms in order.
        vocab = Vocab(7)
        model = NgramGenModel(vocab, order, seed=11 + order, concentration=0.3)
        for i, task in enumerate(_affix_tasks(order, vocab, seed=5)):
            params = PsgdParams(
                beam_width=1 + i % 3,
                patience=1 + i % 3,
                max_span_len=2 + i % 4,
                scoring=SCORING_MODES[i % 2],
                include_eos_in_len=bool(i % 3 == 1),
            )
            single, trace = psgd_with_trace(model, task, params)
            two_trace = []
            decode._psgd_run(model, task, params, decode._ForcedPassScorer, two_trace)
            double = psgd_two_pass(model, task, params)
            assert single.span.tokens == double.span.tokens, task.task_id
            assert single.whole_seq_score == double.whole_seq_score, task.task_id
            assert trace == two_trace, task.task_id
            assert single.stats.emitted_steps == double.stats.emitted_steps
            assert single.stats.stop_reason == double.stats.stop_reason
            assert double.stats.forward_passes == 2 * single.stats.forward_passes
            # A traced decode takes the Python search on either path; the
            # untraced one is compiled on the kernel path.
            untraced = psgd(model, task, params)
            assert replace(untraced, stats=replace(untraced.stats, wall_time_us=0)) == replace(
                single, stats=replace(single.stats, wall_time_us=0)
            ), task.task_id

    def test_counts_exactly_the_forced_passes_it_makes(self, monkeypatch, pinned_setup):
        # psgd_two_pass derives its counts from the search's one pass per
        # item; they must equal the forced passes it runs and their rows.
        made = []
        forced_pass = SequenceModel.forced_pass

        def counted(self, source, target):
            result = forced_pass(self, source, target)
            made.append(len(result.log_rows))
            return result

        monkeypatch.setattr(SequenceModel, "forced_pass", counted)
        vocab = Vocab(7)
        cases = [
            (NgramGenModel(vocab, order, seed=11 + order, concentration=0.3), task)
            for order in (1, 2, 3)
            for task in _affix_tasks(order, vocab, seed=5)
        ]
        for i, (model, task) in enumerate(cases + [pinned_setup]):
            params = PsgdParams(beam_width=1 + i % 3, patience=i % 4, max_span_len=2 + i % 4)
            made.clear()
            got = psgd_two_pass(model, task, params)
            assert (got.stats.forward_passes, got.stats.positions_scored) == (len(made), sum(made)), task.task_id
            # The reference takes the Python search on either path; the
            # untraced decode, compiled on the kernel path, makes half its
            # passes and finds the same span.
            untraced = psgd(model, task, params)
            assert (untraced.span, untraced.whole_seq_score) == (got.span, got.whole_seq_score), task.task_id
            assert 2 * untraced.stats.forward_passes == got.stats.forward_passes, task.task_id

    def test_bit_identical_with_double_passes(self):
        for seed in range(15):
            vocab, src, model = random_table_model(seed + 400)
            task = random_task(seed + 400, vocab, src)
            params = PsgdParams(beam_width=3, patience=3, max_span_len=5)
            single = psgd(model, task, params)
            double = psgd_two_pass(model, task, params)
            assert single.span.tokens == double.span.tokens
            assert single.whole_seq_score == double.whole_seq_score
            assert double.stats.forward_passes == 2 * single.stats.forward_passes
            assert double.stats.emitted_steps == single.stats.emitted_steps


def test_monotone_beam_at_exhaustive_widths(m1, m1_task):
    narrow = psgd(m1, m1_task, PsgdParams(beam_width=4, patience=3, max_span_len=2))
    wide = psgd(m1, m1_task, PsgdParams(beam_width=9, patience=3, max_span_len=2))
    assert wide.whole_seq_score >= narrow.whole_seq_score


def test_positions_scored_accounting(m1, m1_task):
    # pt=1: a single scoring round on the empty span, then one extension and
    # a patience stop. Target is prefix+span+suffix = 2 tokens -> 3 positions.
    got = psgd(m1, m1_task, PsgdParams(beam_width=1, patience=1, max_span_len=4))
    assert got.stats.forward_passes == 1
    assert got.stats.positions_scored == 3
    assert got.stats.emitted_steps == 1


class TestParamValidation:
    def test_bad_beam(self, m1, m1_task):
        with pytest.raises(InvalidParams):
            psgd(m1, m1_task, PsgdParams(beam_width=0))

    def test_bad_patience(self, m1, m1_task):
        with pytest.raises(InvalidParams):
            psgd(m1, m1_task, PsgdParams(patience=-1))

    def test_bad_max_span(self, m1, m1_task):
        with pytest.raises(InvalidParams):
            psgd(m1, m1_task, PsgdParams(max_span_len=0))

    def test_unknown_scoring_mode(self, m1, m1_task):
        with pytest.raises(InvalidParams, match="scoring"):
            psgd(m1, m1_task, PsgdParams(scoring="mean"))


class TestNoForcedPass:
    def test_psgd_never_runs_a_forced_pass(self, monkeypatch):
        # The speed property: PSGD scores spans from memo rows, never with a
        # forced pass over the whole sequence; dba_suggest's single
        # re-scoring pass still may.
        def refuse(*args):
            raise AssertionError("forced_pass called")

        monkeypatch.setattr(SequenceModel, "forced_pass", refuse)
        vocab = Vocab(7)
        for order in (1, 2, 3):
            model = NgramGenModel(vocab, order, seed=order, concentration=0.3)
            for task in _affix_tasks(order, vocab, seed=9):
                got = psgd(model, task, PsgdParams(beam_width=3, patience=2, max_span_len=4))
                assert got.stats.forward_passes >= 1
        with pytest.raises(AssertionError, match="forced_pass"):
            decode.dba_suggest(model, task, beam_width=3)

    def test_psgd_checks_the_task_once(self, monkeypatch):
        checked = record_token_checks(monkeypatch)
        model = NgramGenModel(Vocab(9), 2, seed=4, concentration=0.3)
        task = TsTask("t", TokenSeq((2, 5)), TokenSeq((3,)), TokenSeq((6, 2)))
        got = psgd(model, task, PsgdParams(beam_width=3, patience=3, max_span_len=5))
        assert got.stats.forward_passes > 3
        assert checked == ["task t source", "task t prefix", "task t suffix"]


# Pinned spans, exact scores, counts and traces of all three entry points.
# Each run is (label, params, span, (forward_passes, positions_scored) of
# psgd and psgd_with_trace, the same of psgd_two_pass, emitted_steps,
# stop_reason, the spans of each trace round). psgd_two_pass adds one pass
# of len(prefix) + len(span) + 1 positions per scored item. At patience 1
# the one expansion is counted though its children are never scored.
_PIN_SCORES = {
    (): -2.3846603524236047,
    (6,): -2.0998652092384824,
    (4,): -2.8352224099324292,
    (7,): -3.6521886074697822,
    (6, 2): -2.6899321105782956,
    (4, 3): -2.121760272483983,
}
PINNED_RUNS = [
    ("pt0", PsgdParams(beam_width=3, patience=0), (), (1, 4), (2, 6), 0, STOP_PATIENCE, [[()]]),
    ("pt1", PsgdParams(beam_width=3, patience=1), (), (1, 4), (2, 6), 1, STOP_PATIENCE, [[()]]),
    (
        "span1",
        PsgdParams(beam_width=3, patience=5, max_span_len=1),
        (6,), (4, 19), (8, 30), 1, STOP_MAX_LEN,
        [[()], [(6,), (4,), (7,)]],
    ),
    (
        "pt2",
        PsgdParams(beam_width=2, patience=2),
        (6,), (5, 26), (10, 42), 3, STOP_PATIENCE,
        [[()], [(6,), (4,)], [(6, 2), (4, 3)]],
    ),
]


@pytest.fixture(scope="module")
def pinned_setup():
    model = NgramGenModel(Vocab(8), 2, seed=3, concentration=0.5)
    task = TsTask("pin", TokenSeq((2, 5, 4)), TokenSeq((3,)), TokenSeq((6, 2)))
    return model, task


@over_paths("psgd_search", "run", [(r,) for r in PINNED_RUNS], [r[0] for r in PINNED_RUNS])
def test_entry_points_are_pinned(round_path, pinned_setup, run):
    model, task = pinned_setup
    _label, params, span, one, two, emitted, stop, trace_spans = run
    single = psgd(model, task, params)
    double = psgd_two_pass(model, task, params)
    traced, trace = psgd_with_trace(model, task, params)
    for got, (fw, pos) in ((single, one), (double, two), (traced, one)):
        assert got.span.tokens == span
        assert got.whole_seq_score == _PIN_SCORES[span]
        assert (got.stats.forward_passes, got.stats.positions_scored) == (fw, pos)
        assert got.stats.emitted_steps == emitted
        assert got.stats.stop_reason == stop
    assert trace == [[(sp, _PIN_SCORES[sp]) for sp in rnd] for rnd in trace_spans]
    # The traced decode takes the Python search on either path; the untraced
    # one is compiled on the kernel path.
    assert replace(traced, stats=replace(traced.stats, wall_time_us=0)) == replace(
        single, stats=replace(single.stats, wall_time_us=0)
    )
