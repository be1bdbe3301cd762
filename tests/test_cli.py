import json
from dataclasses import replace

import pytest

from tsdecode.cli import main
from tsdecode.core import read_results_jsonl, read_tasks_jsonl, write_results_jsonl, write_tasks_jsonl
from tsdecode.core import ResultRow, TokenSeq, TsTask
from tsdecode.decode import PsgdParams
from tsdecode.harness import run_ratio_sweep, split_by_ratio
from tsdecode.lm import load_model_spec
from tsdecode.metrics import format_metrics_csv


GEN_CONFIG = {
    "vocab_size": 12,
    "n_tasks": 3,
    "source_len_range": [4, 7],
    "seed": 9,
    "mask_ratio_list": [0.4],
    "model_spec": {
        "kind": "ngram_gen",
        "vocab_size": 12,
        "order": 2,
        "seed": 9,
        "concentration": 0.2,
        "table": None,
    },
}

SWEEP_CONFIG = dict(
    GEN_CONFIG,
    decoders=["psgd", "dba"],
    pt_values=[2],
    beam_width=3,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_gen(tmp_path):
    cfg = write_config(tmp_path, GEN_CONFIG)
    tasks_path = tmp_path / "tasks.jsonl"
    model_path = tmp_path / "model.json"
    code = main(["gen", "--config", cfg, "--out", str(tasks_path), "--model-spec", str(model_path)])
    assert code == 0
    return tasks_path, model_path


class TestGen:
    def test_writes_expected_line_count(self, tmp_path):
        tasks_path, model_path = run_gen(tmp_path)
        assert len(tasks_path.read_text().splitlines()) == 3
        spec = json.loads(model_path.read_text())
        assert spec["kind"] == "ngram_gen"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, _ = run_gen(tmp_path)
        first = a.read_bytes()
        b, _ = run_gen(tmp_path)
        assert b.read_bytes() == first

    @pytest.mark.parametrize(
        "command, field, bad",
        [
            ("gen", "mask_ratio_list", [1.5]),
            ("gen", "n_tasks", 2.5),
            ("gen", "seed", 1.5),
            ("gen", "vocab_size", 12.0),
            ("gen", "source_len_range", [4.5, 7]),
            ("gen", "source_len_range", [4, 7.5]),
            ("gen", "model_spec", 5),
            ("sweep-pt", "pt_values", [2.5]),
            ("sweep-pt", "pt_values", [-1]),
            ("sweep-pt", "pt_values", ["a"]),
            ("sweep-ratio", "pt_values", [2.5]),
            ("sweep-ratio", "pt_values", [-1]),
            ("sweep-ratio", "pt_values", ["a"]),
            ("sweep-ratio", "beam_width", 2.5),
            ("sweep-pt", "output_path", 7),
        ],
    )
    def test_bad_config_value_exits_2_naming_field(self, tmp_path, capsys, command, field, bad):
        cfg = write_config(tmp_path, dict(SWEEP_CONFIG, **{field: bad}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, GEN_CONFIG)
        out = tmp_path / "more.jsonl"
        code = main(["gen", "--config", cfg, "--n-tasks", "5", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5


    @pytest.mark.parametrize(
        "command, flags",
        [("gen", ["--vocab-size", "50"]), ("gen", []), ("sweep-pt", []), ("sweep-ratio", [])],
    )
    def test_vocab_size_differing_from_model_spec_exits_2(self, tmp_path, capsys, command, flags):
        # Without the flag, the config file itself names vocab_size 50.
        cfg = write_config(tmp_path, SWEEP_CONFIG if flags else dict(SWEEP_CONFIG, vocab_size=50))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
        assert "vocab_size" in capsys.readouterr().err
        assert not out.exists()

    def test_incomplete_model_spec_still_reported_as_such(self, tmp_path, capsys):
        spec = {k: v for k, v in GEN_CONFIG["model_spec"].items() if k != "vocab_size"}
        cfg = write_config(tmp_path, dict(GEN_CONFIG, model_spec=spec))
        code = main(["gen", "--config", cfg, "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "model spec lacks key 'vocab_size'" in capsys.readouterr().err


class TestSuggest:
    def test_one_result_per_task_order_preserved(self, tmp_path):
        tasks_path, model_path = run_gen(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "suggest",
                "--tasks", str(tasks_path),
                "--model-spec", str(model_path),
                "--decoder", "psgd",
                "--beam-width", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_results_jsonl(out)
        tasks = read_tasks_jsonl(tasks_path)
        assert [r.task_id for r in rows] == [t.task_id for t in tasks]
        assert all(r.error is None for r in rows)

    def test_end_to_end_pinned_golden(self, tmp_path):
        tasks_path, model_path = run_gen(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "suggest",
                "--tasks", str(tasks_path),
                "--model-spec", str(model_path),
                "--decoder", "psgd",
                "--beam-width", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        got = []
        for line in out.read_text().splitlines():
            d = json.loads(line)
            d.pop("wall_time_us")
            got.append(d)
        want = [
            {"decoder": "psgd", "emitted_steps": 7, "forward_passes": 19, "positions_scored": 139,
             "score": -0.6455265772360601, "span": [10, 11], "stop_reason": "patience", "task_id": "r0.40_n0000"},
            {"decoder": "psgd", "emitted_steps": 7, "forward_passes": 19, "positions_scored": 158,
             "score": -0.6796347132331934, "span": [10, 2], "stop_reason": "patience", "task_id": "r0.40_n0001"},
            {"decoder": "psgd", "emitted_steps": 11, "forward_passes": 31, "positions_scored": 444,
             "score": -0.8660605597929466, "span": [10, 6, 3, 10, 2, 9], "stop_reason": "patience", "task_id": "r0.40_n0002"},
        ]
        assert got == want

    def test_unsatisfiable_recorded_inline(self, tmp_path):
        tasks_path, model_path = run_gen(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "suggest",
                "--tasks", str(tasks_path),
                "--model-spec", str(model_path),
                "--decoder", "dba",
                "--beam-width", "1",
                "--max-span-len", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_results_jsonl(out)
        assert len(rows) == 3
        assert all(len(row.span) <= 1 for row in rows)

    def test_task_line_missing_key_exits_2(self, tmp_path, capsys):
        _, model_path = run_gen(tmp_path)
        tasks_path = tmp_path / "bad.jsonl"
        tasks_path.write_text('{"task_id":"a","source":[2],"prefix":[]}\n')
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tasks_path}:1" in err and "suffix" in err
        assert "Traceback" not in err

    # An edit to None drops the key.
    @pytest.mark.parametrize("edit, named", [({"order": 0}, "context_order"), ({"seed": None}, "seed")])
    def test_invalid_model_spec_exits_2(self, tmp_path, capsys, edit, named):
        tasks_path, model_path = run_gen(tmp_path)
        spec = dict(json.loads(model_path.read_text()), **edit)
        model_path.write_text(json.dumps({k: v for k, v in spec.items() if v is not None}))
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert named in capsys.readouterr().err

    def test_missing_task_file_exits_2(self, tmp_path, capsys):
        _, model_path = run_gen(tmp_path)
        code = main(
            ["suggest", "--tasks", str(tmp_path / "nope.jsonl"), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("decoder", ["psgd", "dba"])
    @pytest.mark.parametrize("flag, value", [("--beam-width", "0"), ("--pt", "-1"), ("--max-span-len", "0")])
    def test_out_of_range_decoder_flag_exits_2(self, tmp_path, capsys, decoder, flag, value):
        tasks_path, model_path = run_gen(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "suggest",
                "--tasks", str(tasks_path),
                "--model-spec", str(model_path),
                "--decoder", decoder,
                flag, value,
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not out.exists()


class TestEval:
    def test_identity_suggestions_score_100(self, tmp_path):
        tasks_path, model_path = run_gen(tmp_path)
        tasks = read_tasks_jsonl(tasks_path)
        rows = [
            ResultRow(t.task_id, "psgd", t.gold_span.tokens, -1.0, 4, 9, 2, "patience", 10)
            for t in tasks
        ]
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(results_path, rows)
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("decoder,mask_ratio,bleu")
        assert lines[1].split(",")[2] == "100.0000"

    def test_unknown_task_id_exits_1(self, tmp_path, capsys):
        tasks_path, model_path = run_gen(tmp_path)
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(
            results_path, [ResultRow("ghost", "psgd", (), 0.0, 0, 0, 0, "max_len", 0)]
        )
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_result_line_not_json_exits_2(self, tmp_path, capsys):
        tasks_path, _ = run_gen(tmp_path)
        results_path = tmp_path / "results.jsonl"
        results_path.write_text("not json\n")
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert f"{results_path}:1" in capsys.readouterr().err


class TestSweeps:
    def test_sweep_pt_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "metrics.csv"
        code = main(["sweep-pt", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("decoder,mask_ratio")
        assert len(lines) == 2  # one pt value, one ratio

    def test_sweep_ratio_writes_csv_and_results(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "metrics.csv"
        results = tmp_path / "rows.jsonl"
        code = main(
            ["sweep-ratio", "--config", cfg, "--out", str(out), "--results-out", str(results)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header + psgd + dba
        assert len(results.read_text().splitlines()) == 6  # 3 tasks x 2 decoders

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["sweep-pt", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "m.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["gen", "sweep-pt", "sweep-ratio"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command):
        # A combined Gen/Sweep config is valid for every command; a key
        # that is neither (a misspelt beam_width, or the removed
        # repetitions) is not.
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, SWEEP_CONFIG), "--out", str(out)]) == 0
        out.unlink()
        for key in ("beam_widht", "repetitions"):
            cfg = write_config(tmp_path, dict(SWEEP_CONFIG, **{key: 1}), name=f"{key}.json")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert f"'{key}'" in capsys.readouterr().err
            assert not out.exists()

    def test_sweep_pt_without_psgd_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SWEEP_CONFIG, decoders=["dba"]))
        out = tmp_path / "metrics.csv"
        assert main(["sweep-pt", "--config", cfg, "--out", str(out)]) == 2
        assert "psgd" in capsys.readouterr().err
        assert not out.exists()


# DBA finds no constraint-complete sentence for this task at beam width 3.
UNSATISFIABLE_FOR_DBA = TsTask(
    task_id="r0.40_n0003",
    source=TokenSeq((2, 3, 5, 8, 8), "source"),
    prefix=TokenSeq((2, 4, 11), "prefix"),
    suffix=TokenSeq((6, 2, 11), "suffix"),
    gold_span=TokenSeq((10,), "span"),
    gold_full=TokenSeq((2, 4, 11, 10, 6, 2, 11), "target"),
)


def test_suggest_and_eval_build_the_rows_and_metrics_of_the_sweep(tmp_path):
    """suggest + eval and run_ratio_sweep share one row and one record builder."""
    tasks_path, model_path = run_gen(tmp_path)
    tasks = read_tasks_jsonl(tasks_path) + [UNSATISFIABLE_FOR_DBA]
    write_tasks_jsonl(tasks_path, tasks)
    bench, sweep_rows = run_ratio_sweep(
        split_by_ratio(tasks), load_model_spec(model_path), ["psgd", "dba"], PsgdParams(beam_width=3, patience=2)
    )
    cli_rows = []
    for decoder in ("psgd", "dba"):
        out = tmp_path / f"{decoder}.jsonl"
        argv = ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path),
                "--decoder", decoder, "--beam-width", "3", "--pt", "2", "--out", str(out)]
        assert main(argv) == 0
        cli_rows += read_results_jsonl(out)
    assert [r.error for r in cli_rows].count("ConstraintsUnsatisfiable") == 1
    assert [replace(r, wall_time_us=0) for r in cli_rows] == [replace(r, wall_time_us=0) for r in sweep_rows]

    results_path = tmp_path / "results.jsonl"
    write_results_jsonl(results_path, cli_rows)
    metrics = tmp_path / "metrics.csv"
    assert main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(metrics)]) == 0

    def masked(text):
        lines = text.splitlines()
        keep = [i for i, name in enumerate(lines[0].split(",")) if name != "mean_wall_time_us"]
        return [",".join(line.split(",")[i] for i in keep) for line in lines]

    assert masked(metrics.read_text()) == masked(format_metrics_csv(bench))


def mask_wall(lines):
    out = []
    for line in lines:
        d = json.loads(line)
        d.pop("wall_time_us", None)
        out.append(json.dumps(d, sort_keys=True))
    return out


def test_pipeline_determinism_end_to_end(tmp_path):
    """gen -> suggest -> eval twice: byte-identical outputs, timing masked."""
    snapshots = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        cfg = write_config(d, GEN_CONFIG)
        tasks = d / "tasks.jsonl"
        model = d / "model.json"
        results = d / "results.jsonl"
        metrics = d / "metrics.csv"
        assert main(["gen", "--config", cfg, "--out", str(tasks), "--model-spec", str(model)]) == 0
        assert main(
            ["suggest", "--tasks", str(tasks), "--model-spec", str(model), "--decoder", "psgd", "--out", str(results)]
        ) == 0
        assert main(["eval", "--tasks", str(tasks), "--results", str(results), "--out", str(metrics)]) == 0
        header, *rows = metrics.read_text().splitlines()
        keep = [i for i, name in enumerate(header.split(",")) if name != "mean_wall_time_us"]
        masked_csv = [",".join(line.split(",")[i] for i in keep) for line in rows]
        snapshots.append(
            (tasks.read_bytes(), model.read_bytes(), mask_wall(results.read_text().splitlines()), masked_csv)
        )
    assert snapshots[0] == snapshots[1]
