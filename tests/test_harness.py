from dataclasses import replace

import pytest

from tsdecode import harness
from tsdecode.core import TokenSeq, TsError, write_tasks_jsonl
from tsdecode.decode import PsgdParams
from tsdecode.harness import (
    CONSTRAINT_MT,
    GenConfig,
    _mask,
    gen_config_from_dict,
    gen_dataset,
    make_task_id,
    parse_task_ratio,
    run_pt_sweep,
    run_ratio_sweep,
    split_by_ratio,
    sweep_config_from_dict,
)
from tsdecode.lm import model_from_spec
from tsdecode.metrics import format_metrics_csv
from tsdecode.rng import Stream, hash_key


SMALL_SPEC = {"kind": "ngram_gen", "vocab_size": 12, "order": 2, "seed": 5, "concentration": 0.2, "table": None}


def small_config(**overrides):
    base = dict(
        vocab_size=12,
        n_tasks=4,
        source_len_range=(4, 7),
        seed=5,
        model_spec=SMALL_SPEC,
        mask_ratio_list=(0.3, 0.6),
    )
    base.update(overrides)
    return GenConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    return gen_dataset(small_config())


@pytest.fixture(scope="module")
def small_model():
    return model_from_spec(SMALL_SPEC)


class TestGenConfig:
    def test_ratio_out_of_range_names_field(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            small_config(mask_ratio_list=(1.5,))

    def test_bad_source_range(self):
        with pytest.raises(ValueError, match="source_len_range"):
            small_config(source_len_range=(0, 4))

    def test_unknown_constraint_source(self):
        with pytest.raises(ValueError, match="constraint_source"):
            small_config(constraint_source="oracle")

    def test_from_dict_ignores_unknown_keys(self):
        cfg = gen_config_from_dict({"vocab_size": 8, "n_tasks": 2, "comment": "x"})
        assert cfg.vocab_size == 8 and cfg.n_tasks == 2

    def test_sweep_config_validation(self):
        with pytest.raises(ValueError):
            sweep_config_from_dict({"decoders": ["hmm"]})
        with pytest.raises(ValueError):
            sweep_config_from_dict({"pt_values": []})


class TestMasking:
    def test_half_of_ten(self):
        stream = Stream(hash_key(1))
        start, length = _mask(tuple(range(10)), 0.5, stream)
        assert length == 5
        assert 0 <= start <= 5

    def test_small_ratio_clamps_to_one(self):
        stream = Stream(hash_key(2))
        start, length = _mask((7, 8, 9), 0.2, stream)
        assert length == 1  # round(0.6) clamped up to 1

    def test_huge_ratio_clamps_to_all(self):
        stream = Stream(hash_key(3))
        start, length = _mask((7, 8), 0.99, stream)
        assert length == 2
        assert start == 0


class TestGenDataset:
    def test_deterministic_bytes(self, tmp_path, small_dataset):
        again = gen_dataset(small_config())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_tasks_jsonl(a, small_dataset)
        write_tasks_jsonl(b, again)
        assert a.read_bytes() == b.read_bytes()

    def test_reconstruction_fidelity(self, small_dataset):
        for task in small_dataset:
            assert (
                task.prefix.tokens + task.gold_span.tokens + task.suffix.tokens
                == task.gold_full.tokens
            )

    def test_task_count_and_ids(self, small_dataset):
        assert len(small_dataset) == 8  # 4 per ratio, 2 ratios
        assert small_dataset[0].task_id == make_task_id(0.3, 0)
        assert parse_task_ratio(small_dataset[0]) == 0.3

    def test_split_by_ratio(self, small_dataset):
        groups = split_by_ratio(small_dataset)
        assert sorted(groups) == [0.3, 0.6]
        assert all(len(tasks) == 4 for tasks in groups.values())

    def test_mt_mode_has_full_reference_only(self):
        tasks = gen_dataset(small_config(constraint_source=CONSTRAINT_MT))
        assert all(t.gold_span is None for t in tasks)
        assert all(t.gold_full is not None for t in tasks)

    def test_mt_constraints_can_disagree_with_reference(self):
        # The perturbed sibling must inject at least one divergent constraint
        # somewhere in the dataset.
        tasks = gen_dataset(small_config(constraint_source=CONSTRAINT_MT, n_tasks=8))
        divergent = 0
        for task in tasks:
            full = task.gold_full.tokens
            if task.prefix.tokens != full[: len(task.prefix)]:
                divergent += 1
            elif task.suffix.tokens and task.suffix.tokens != full[len(full) - len(task.suffix):]:
                divergent += 1
        assert divergent > 0

    def test_mt_empty_translation_falls_back_to_reference(self, monkeypatch, small_dataset):
        # With every sibling translation empty, MT mode masks the reference
        # itself, drawing the same mask as gold mode.
        real = harness.beam_search

        def empty_for_sibling(model, *args, **kwargs):
            result = real(model, *args, **kwargs)
            if getattr(model, "perturb_seed", None) is None:
                return result
            return replace(result, tokens=TokenSeq(()))

        monkeypatch.setattr(harness, "beam_search", empty_for_sibling)
        tasks = gen_dataset(small_config(constraint_source=CONSTRAINT_MT))
        assert len(tasks) == len(small_dataset)
        for mt, gold in zip(tasks, small_dataset):
            assert mt.gold_span is None
            assert (mt.task_id, mt.source, mt.gold_full) == (gold.task_id, gold.source, gold.gold_full)
            assert (mt.prefix, mt.suffix) == (gold.prefix, gold.suffix)


class TestPtSweep:
    def test_pt_zero_yields_empty_spans(self, small_dataset, small_model):
        bench, rows = run_pt_sweep(small_dataset, small_model, [0], beam_width=3)
        assert all(row.span == () for row in rows)
        assert all(row.emitted_steps == 0 for row in rows)

    def test_saturated_pt_matches_larger_pt(self, small_dataset, small_model):
        # Both values exceed every span cap, so the runs are identical.
        bench_a, rows_a = run_pt_sweep(small_dataset, small_model, [60], beam_width=3)
        bench_b, rows_b = run_pt_sweep(small_dataset, small_model, [80], beam_width=3)
        assert [r.span for r in rows_a] == [r.span for r in rows_b]
        assert [b.bleu.score for b in bench_a] == [b.bleu.score for b in bench_b]

    def test_requires_gold_spans(self, small_model):
        tasks = gen_dataset(small_config(constraint_source=CONSTRAINT_MT))
        with pytest.raises(TsError):
            run_pt_sweep(tasks, small_model, [5], beam_width=3)

    def test_decoder_labels_carry_pt(self, small_dataset, small_model):
        bench, _ = run_pt_sweep(small_dataset, small_model, [1, 3], beam_width=2)
        assert {b.decoder for b in bench} == {"psgd_pt1", "psgd_pt3"}


def test_pt_sweep_pinned_golden(small_dataset, small_model):
    bench, rows = run_pt_sweep(small_dataset, small_model, [2], beam_width=3)
    lines = format_metrics_csv(bench).splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "mean_wall_time_us"]
    masked = [",".join(line.split(",")[i] for i in keep) for line in lines]
    assert masked == [
        "decoder,mask_ratio,bleu,bp,p1,p2,p3,p4,mean_forward_passes,n_tasks",
        "psgd_pt2,0.3000,0.0000,0.4724,1.0000,1.0000,0.0000,0.0000,7.0000,4",
        "psgd_pt2,0.6000,0.0000,0.6703,0.8000,0.6667,0.5000,0.0000,11.5000,4",
    ]
    first = rows[0]
    assert first.task_id == "r0.30_n0000"
    assert first.span == (9,)
    assert first.stop_reason == "patience"
    assert (first.forward_passes, first.emitted_steps, first.positions_scored) == (7, 3, 37)
    assert abs(first.score - (-0.7699401329400072)) < 1e-12


def test_mt_mode_gap_narrows_at_extreme_ratio():
    # Constraints from a perturbed sibling: full-sentence quality of both
    # decoders converges as the mask covers almost everything, so the gap at
    # 0.9 sits below (and tighter than) the gap at 0.4.
    spec = {"kind": "ngram_gen", "vocab_size": 16, "order": 2, "seed": 13, "concentration": 0.2, "table": None}
    cfg = GenConfig(
        vocab_size=16,
        n_tasks=25,
        source_len_range=(5, 9),
        seed=13,
        model_spec=spec,
        mask_ratio_list=(0.4, 0.9),
        constraint_source=CONSTRAINT_MT,
    )
    tasks = gen_dataset(cfg)
    model = model_from_spec(spec)
    bench, rows = run_ratio_sweep(
        split_by_ratio(tasks), model, ["psgd", "dba"], PsgdParams(beam_width=5, patience=5)
    )
    by = {}
    for b in bench:
        by.setdefault(b.mask_ratio, {})[b.decoder] = b
    gap_mid = by[0.4]["psgd"].bleu.score - by[0.4]["dba"].bleu.score
    gap_high = by[0.9]["psgd"].bleu.score - by[0.9]["dba"].bleu.score
    assert gap_high < gap_mid
    assert abs(gap_high) < abs(gap_mid)
    assert all(r.error is None for r in rows)


class TestRatioSweep:
    def test_rows_per_decoder_and_ratio(self, small_dataset, small_model):
        bench, rows = run_ratio_sweep(
            split_by_ratio(small_dataset), small_model, ["psgd", "dba"], PsgdParams(beam_width=3)
        )
        assert {(b.decoder, b.mask_ratio) for b in bench} == {
            ("psgd", 0.3),
            ("psgd", 0.6),
            ("dba", 0.3),
            ("dba", 0.6),
        }
        assert len(rows) == 2 * len(small_dataset)

    def test_deterministic_modulo_wall_time(self, small_dataset, small_model):
        def run():
            bench, _ = run_ratio_sweep(
                split_by_ratio(small_dataset), small_model, ["psgd"], PsgdParams(beam_width=3)
            )
            csv = format_metrics_csv(bench).splitlines()
            header = csv[0].split(",")
            keep = [i for i, name in enumerate(header) if name != "mean_wall_time_us"]
            return ["".join(line.split(",")[i] for i in keep) for line in csv]

        assert run() == run()

    def test_step_accounting_identity(self, small_dataset, small_model):
        # One scoring pass for the empty span, then beam_width passes per
        # extension round; max_len stops score one extra round.
        k = 3
        _, rows = run_ratio_sweep(
            split_by_ratio(small_dataset), small_model, ["psgd"], PsgdParams(beam_width=k)
        )
        for row in rows:
            assert row.error is None
            rounds = row.emitted_steps + (1 if row.stop_reason == "max_len" else 0)
            want = 1 + k * (rounds - 1) if rounds >= 1 else 1
            assert row.forward_passes == want
