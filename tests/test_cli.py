import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tsdecode import cli, harness
from tsdecode.cli import main
from tsdecode.core import read_results_jsonl, read_tasks_jsonl, write_results_jsonl, write_tasks_jsonl
from tsdecode.core import MAX_VOCAB_SIZE, ResultRow, TokenSeq, TsTask
from tsdecode.decode import PsgdParams
from tsdecode.harness import (
    gen_config_from_dict,
    gen_dataset,
    run_pt_sweep,
    run_ratio_sweep,
    split_by_ratio,
    sweep_config_from_dict,
)
from tsdecode.lm import load_model_spec, model_from_spec, save_model_spec
from tsdecode.metrics import format_metrics_csv, write_metrics_csv


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
            ("gen", "mask_ratio_list", ["0.5"]),
            ("gen", "mask_ratio_list", [True]),
            ("gen", "mask_ratio_list", 0.5),
            ("gen", "source_len_range", 5),
            ("gen", "source_len_range", [3]),
            ("gen", "source_len_range", [3, 4, 5]),
            ("sweep-pt", "pt_values", 3),
            ("sweep-pt", "decoders", "psgd"),
            ("sweep-ratio", "decoders", "psgd"),
            ("gen", "mask_ratio_list", [0.12, 0.125]),
            ("gen", "mask_ratio_list", [0.5, 0.5]),
            ("sweep-ratio", "decoders", ["psgd", "psgd"]),
            ("sweep-pt", "pt_values", [5, 5]),
        ],
    )
    def test_bad_config_value_exits_2_naming_field(self, tmp_path, capsys, command, field, bad):
        cfg = write_config(tmp_path, dict(SWEEP_CONFIG, **{field: bad}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--mask-ratios", "a"), ("--mask-ratios", "0.5,x"), ("--source-len-range", "a,b")]
    )
    def test_non_numeric_list_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
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


# Runs ``main`` on its arguments in a process whose address space is then
# limited to 1 GiB, so an input that makes the program allocate without
# bound fails the test rather than exhaust the runner's memory.
LIMITED_MAIN = (
    "import resource, sys\n"
    "from tsdecode.cli import main\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("given", ["spec", "flag", "config"])
def test_vocab_size_above_the_bound_exits_2_naming_it(tmp_path, given):
    # 10**12 ids would be 8 TB per row; the bound refuses the size first.
    size = 10**12
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({"task_id": "a", "source": [2], "prefix": [], "suffix": []}) + "\n")
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(dict(GEN_CONFIG["model_spec"], vocab_size=size)))
    out = tmp_path / "out.jsonl"
    argv = {
        "spec": ["suggest", "--tasks", str(tasks), "--model-spec", str(spec)],
        "flag": ["gen", "--vocab-size", str(size)],
        "config": ["gen", "--config", write_config(tmp_path, {"vocab_size": size})],
    }[given] + ["--out", str(out)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "vocab_size" in proc.stderr and f"[3, {MAX_VOCAB_SIZE}], got {size}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("bad", ["tasks", "results", "spec", "gen-config", "sweep-config"])
def test_a_byte_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, bad):
    # The byte starts the second line of a JSONL file, which the message
    # names, and starts any other file.
    tasks, spec = run_gen(tmp_path)
    results, config, out = tmp_path / "results.jsonl", Path(write_config(tmp_path, SWEEP_CONFIG)), tmp_path / "out"
    suggest = ["suggest", "--tasks", str(tasks), "--model-spec", str(spec), "--out"]
    assert main([*suggest, str(results)]) == 0
    argv, path = {
        "tasks": (suggest, tasks),
        "results": (["eval", "--tasks", str(tasks), "--results", str(results), "--out"], results),
        "spec": (suggest, spec),
        "gen-config": (["gen", "--config", str(config), "--out"], config),
        "sweep-config": (["sweep-ratio", "--config", str(config), "--out"], config),
    }[bad]
    data = path.read_bytes()
    at = data.index(b"\n") + 1 if path.suffix == ".jsonl" else 0
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    capsys.readouterr()
    assert main([*argv, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (f"{path}:2:" if at else str(path)) in err
    assert not out.exists()


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

    @pytest.mark.parametrize("key, bad", [("source", [2.7, 3]), ("prefix", [True]), ("suffix", ["3"])])
    def test_task_line_bad_token_exits_2(self, tmp_path, capsys, key, bad):
        _, model_path = run_gen(tmp_path)
        tasks_path = tmp_path / "bad.jsonl"
        line = dict({"task_id": "a", "source": [2], "prefix": [], "suffix": []}, **{key: bad})
        tasks_path.write_text(json.dumps(line) + "\n")
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tasks_path}:1" in err and key in err
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

    # Spec ints are read as ints: a float, a string or a bool is not silently
    # converted, and the error names the field.
    @pytest.mark.parametrize(
        "field, bad",
        [("vocab_size", 20.9), ("order", 2.7), ("seed", 3.5), ("vocab_size", "20"), ("vocab_size", True)],
        ids=["vocab-float", "order-float", "seed-float", "vocab-string", "vocab-bool"],
    )
    def test_non_int_model_spec_field_exits_2_naming_it(self, tmp_path, capsys, field, bad):
        tasks_path, model_path = run_gen(tmp_path)
        spec = dict(json.loads(model_path.read_text()), **{field: bad})
        model_path.write_text(json.dumps(spec))
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{field} must be an int, got {bad!r}" in err
        assert "Traceback" not in err

    # The concentration is read as a number: a string or a bool is not
    # converted by float().
    @pytest.mark.parametrize("bad", ["0.3", True, [0.3]], ids=["string", "bool", "list"])
    def test_non_number_concentration_exits_2_naming_it(self, tmp_path, capsys, bad):
        tasks_path, model_path = run_gen(tmp_path)
        spec = dict(json.loads(model_path.read_text()), concentration=bad)
        model_path.write_text(json.dumps(spec))
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"concentration must be a finite number, got {bad!r}" in err
        assert "Traceback" not in err

    # A table spec is read as strictly: the table is an object or null, each
    # key a src:…|ctx:… string and each entry a number, never converted.
    @pytest.mark.parametrize(
        "table, named",
        [
            ([1], "table must be an object or null, got list"),
            ("x", "table must be an object or null, got str"),
            ({"src:2|ctx:0": ["0", "1"] + ["0"] * 10}, "table['src:2|ctx:0'] must be a finite number, got '0'"),
            ({"src:2|ctx:0": [False, True] + [False] * 10}, "table['src:2|ctx:0'] must be a finite number, got False"),
            ({"src:2|ctx:0": 1}, "table['src:2|ctx:0'] must be a list of numbers, got 1"),
            ({"src:2|ctx:a": [0.0, 1.0] + [0.0] * 10}, "malformed table key 'src:2|ctx:a'"),
            ({"src:12|ctx:0": [0.0, 1.0] + [0.0] * 10}, "table key 'src:12|ctx:0' has an id outside [0, 12)"),
            ({"src:2|ctx:-5": [0.0, 1.0] + [0.0] * 10}, "table key 'src:2|ctx:-5' has an id outside [0, 12)"),
        ],
        ids=["list", "string", "string-entries", "bool-entries", "number-row", "non-int-key",
             "source-id-past-vocab", "negative-context-id"],
    )
    def test_malformed_table_exits_2_naming_it(self, tmp_path, capsys, table, named):
        tasks_path, model_path = run_gen(tmp_path)
        spec = dict(json.loads(model_path.read_text()), kind="table", order=1, table=table)
        model_path.write_text(json.dumps(spec))
        code = main(
            ["suggest", "--tasks", str(tasks_path), "--model-spec", str(model_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["suggest", "eval"])
    def test_repeated_task_id_exits_2(self, tmp_path, capsys, command):
        tasks_path, model_path = run_gen(tmp_path)
        lines = tasks_path.read_text().splitlines()
        tasks_path.write_text("\n".join(lines + lines[:1]) + "\n")
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(results_path, [])
        out = tmp_path / "out"
        flags = ["--model-spec", str(model_path)] if command == "suggest" else ["--results", str(results_path)]
        code = main([command, "--tasks", str(tasks_path), *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tasks_path}:{len(lines) + 1}: repeated task_id" in err
        assert not out.exists()

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

    # eval_record skips error rows, so a file of only error rows leaves
    # nothing to score; the message says how many of the rows were errors.
    def test_only_error_rows_exits_1_counting_them(self, tmp_path, capsys):
        tasks_path, _ = run_gen(tmp_path)
        error = "ConstraintsUnsatisfiable: no constraint-complete hypothesis finished within max_len=3"
        row = ResultRow(read_tasks_jsonl(tasks_path)[0].task_id, "dba", (), 0.0, 0, 0, 0, "max_len", 0, error)
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(results_path, [row])
        out = tmp_path / "m.csv"
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(out)])
        assert code == 1
        assert "error: EmptyCorpus: no result row to score: 1 of 1 rows hold an error" in capsys.readouterr().err
        assert not out.exists()

    def test_result_line_not_json_exits_2(self, tmp_path, capsys):
        tasks_path, _ = run_gen(tmp_path)
        results_path = tmp_path / "results.jsonl"
        results_path.write_text("not json\n")
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert f"{results_path}:1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("forward_passes", 3.9),
            ("positions_scored", -9),
            ("wall_time_us", True),
            ("span", [2.5]),
            ("span", [False]),
            ("stop_reason", "bogus"),
            ("score", True),
            ("score", "1.5"),
            ("score", float("nan")),
            ("score", float("inf")),
            ("score", float("-inf")),
            pytest.param("score", 10**400, id="score-int_beyond_float_range"),
            ("error", 12),
            ("task_id", 7),
            ("decoder", 5),
            # The metrics CSV writes the label as one unquoted field.
            pytest.param("decoder", "ps,gd", id="decoder-comma"),
            pytest.param("decoder", "psgd\n", id="decoder-newline"),
            pytest.param("decoder", "psgd\r", id="decoder-carriage_return"),
        ],
    )
    def test_result_line_bad_value_exits_2(self, tmp_path, capsys, key, bad):
        tasks_path, _ = run_gen(tmp_path)
        row = ResultRow(read_tasks_jsonl(tasks_path)[0].task_id, "psgd", (2,), -1.0, 4, 9, 2, "patience", 10)
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(results_path, [row])
        line = dict(json.loads(results_path.read_text()), **{key: bad})
        results_path.write_text(json.dumps(line) + "\n")
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{results_path}:1" in err and key in err
        assert not (tmp_path / "m.csv").exists()

    def test_repeated_task_and_decoder_exits_2(self, tmp_path, capsys):
        tasks_path, _ = run_gen(tmp_path)
        rows = [
            ResultRow(t.task_id, "psgd", t.gold_span.tokens, -1.0, 4, 9, 2, "patience", 10)
            for t in read_tasks_jsonl(tasks_path)
        ]
        results_path = tmp_path / "results.jsonl"
        out = tmp_path / "m.csv"
        argv = ["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(out)]
        # The same task under another decoder is no repeat.
        write_results_jsonl(results_path, rows + [replace(rows[0], decoder="dba")])
        assert main(argv) == 0
        out.unlink()
        write_results_jsonl(results_path, rows + rows[:1])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{results_path}:{len(rows) + 1}: repeated task_id {rows[0].task_id!r}, decoder 'psgd'" in err
        assert not out.exists()

    def test_task_line_non_string_task_id_exits_2(self, tmp_path, capsys):
        tasks_path, _ = run_gen(tmp_path)
        task = json.loads(tasks_path.read_text().splitlines()[0])
        tasks_path.write_text(json.dumps(dict(task, task_id=7)) + "\n")
        results_path = tmp_path / "results.jsonl"
        write_results_jsonl(results_path, [ResultRow("7", "psgd", (2,), -1.0, 4, 9, 2, "patience", 10)])
        code = main(["eval", "--tasks", str(tasks_path), "--results", str(results_path), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tasks_path}:1" in err and "task_id" in err
        assert not (tmp_path / "m.csv").exists()


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

    @pytest.mark.parametrize("command", ["gen", "sweep-pt", "sweep-ratio"])
    @pytest.mark.parametrize("payload", [None, 7, [1, 2], "abc"], ids=["null", "number", "array", "string"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_pt_without_psgd_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SWEEP_CONFIG, decoders=["dba"]))
        out = tmp_path / "metrics.csv"
        assert main(["sweep-pt", "--config", cfg, "--out", str(out)]) == 2
        assert "psgd" in capsys.readouterr().err
        assert not out.exists()


def _masked_outputs(paths):
    """Output file texts, with the timing fields of result rows and metrics
    masked."""
    out = []
    for path in paths:
        text = path.read_text()
        if path.name == "rows.jsonl":
            out.append(mask_wall(text.splitlines()))
        elif path.suffix == ".csv":
            header, *rows = text.splitlines()
            keep = [i for i, name in enumerate(header.split(",")) if name != "mean_wall_time_us"]
            out.append([",".join(line.split(",")[i] for i in keep) for line in [header, *rows]])
        else:
            out.append(text)
    return out


def _old_path_outputs(command, d):
    """The outputs of ``command`` as written when gen built its own model and
    the command built a second one from the same spec."""
    config = SWEEP_CONFIG if command.startswith("sweep") else GEN_CONFIG
    gen_cfg = gen_config_from_dict(config)
    tasks = gen_dataset(gen_cfg)
    model = model_from_spec(gen_cfg.resolved_model_spec())
    if command == "gen":
        write_tasks_jsonl(d / "tasks.jsonl", tasks)
        save_model_spec(d / "model.json", model)
        return [d / "tasks.jsonl", d / "model.json"]
    sweep_cfg = sweep_config_from_dict(config)
    if command == "sweep-pt":
        bench, rows = run_pt_sweep(tasks, model, sweep_cfg.pt_values, sweep_cfg.beam_width)
    else:
        params = PsgdParams(beam_width=sweep_cfg.beam_width, patience=sweep_cfg.pt_values[0])
        bench, rows = run_ratio_sweep(split_by_ratio(tasks), model, sweep_cfg.decoders, params)
    write_metrics_csv(d / "metrics.csv", bench)
    write_results_jsonl(d / "rows.jsonl", rows)
    return [d / "metrics.csv", d / "rows.jsonl"]


@pytest.mark.parametrize("command", ["gen", "sweep-pt", "sweep-ratio"])
def test_one_model_per_command(tmp_path, monkeypatch, command):
    """gen and the sweeps build one model, shared by gen and the decoding,
    and write what they wrote with a model each."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    want = _masked_outputs(_old_path_outputs(command, old))

    built = []

    def counting_model_from_spec(spec):
        built.append(spec)
        return model_from_spec(spec)

    monkeypatch.setattr(cli, "model_from_spec", counting_model_from_spec)
    monkeypatch.setattr(harness, "model_from_spec", counting_model_from_spec)
    if command == "gen":
        cfg = write_config(new, GEN_CONFIG)
        outs = [new / "tasks.jsonl", new / "model.json"]
        argv = ["gen", "--config", cfg, "--out", str(outs[0]), "--model-spec", str(outs[1])]
    else:
        cfg = write_config(new, SWEEP_CONFIG)
        outs = [new / "metrics.csv", new / "rows.jsonl"]
        argv = [command, "--config", cfg, "--out", str(outs[0]), "--results-out", str(outs[1])]
    assert main(argv) == 0
    assert len(built) == 1
    assert _masked_outputs(outs) == want


# DBA finds no constraint-complete sentence for this task at beam width 3.
UNSATISFIABLE_FOR_DBA = TsTask(
    task_id="r0.40_n0003",
    source=TokenSeq((2, 3, 5, 8, 8)),
    prefix=TokenSeq((2, 4, 11)),
    suffix=TokenSeq((6, 2, 11)),
    gold_span=TokenSeq((10,)),
    gold_full=TokenSeq((2, 4, 11, 10, 6, 2, 11)),
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


# Argument lists that argparse ends itself: help, usage errors, an unknown
# command. main builds only the named command's parser, so each is checked
# against the parser of all five.
PARSE_EXITS = [
    ["-h"],
    [],
    ["frobnicate"],
    ["--version"],
    ["gen", "-h"],
    ["suggest", "-h"],
    ["eval", "-h"],
    ["sweep-pt", "-h"],
    ["sweep-ratio", "-h"],
    ["suggest"],
    ["eval", "--tasks", "a"],
    ["sweep-ratio", "--out", "m.csv"],
    ["suggest", "--tasks", "a", "--model-spec", "b", "--out", "c", "--decoder", "x"],
    ["gen", "--out", "o", "--constraint-source", "x"],
    ["gen", "--out", "o", "--n-tasks", "x"],
    ["gen", "--out", "o", "--mask-ratios", "a"],
    ["suggest", "--tasks", "a", "--model-spec", "b", "--out", "c", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    assert outcome(main) == outcome(cli.build_parser().parse_args)


def test_module_entry_point_reads_sys_argv(monkeypatch, capsys):
    """``python -m tsdecode.cli``, like the ``tsdecode`` script, calls
    main() with no argv."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tsdecode.cli", "suggest", "-h"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["suggest", "-h"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
