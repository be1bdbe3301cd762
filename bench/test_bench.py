"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench/
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

run.import_program()
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_p99_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        stats.checked_percentile(range(999), 99)
    assert stats.checked_percentile(range(1000), 99) == 989


def test_p90_needs_a_hundred_samples():
    with pytest.raises(ValueError):
        stats.checked_percentile(range(99), 90)
    assert stats.checked_percentile(range(100), 90) == 89


def test_a_missing_trace_point_is_refused_and_nothing_stays_patched():
    class Owner:
        @staticmethod
        def present():
            return 1

    t = tracer.Tracer()
    points = [(Owner, "present", "x", {}), (Owner, "gone", "y", {})]
    assert tracer.missing(points) == ["Owner.gone"]
    with pytest.raises(AttributeError):
        t.install(points)
    assert Owner.present() == 1 and not hasattr(Owner.present, "__wrapped__")


def test_metric_and_workload_names():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracer.Span(1, "parent", 0.0, 10.0, None, None, None),
        tracer.Span(2, "child", 1.0, 4.0, 1, None, None),
        tracer.Span(3, "child", 3.0, 6.0, 1, None, None),
        tracer.Span(4, "grandchild", 1.0, 2.0, 2, None, None),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_slowdown_keeps_each_probe_slot_fastest_over_the_passes():
    def one_round(probes):
        return workloads.Round(0.0, {}, 1, [], {}, probes)

    b = speed.BASELINE_S
    passes = [[one_round([2 * b, b])], [one_round([b, 4 * b])]]
    assert run.slowdown(passes) == pytest.approx(1.0)
    passes = [[one_round([3 * b])], [one_round([2 * b])]]
    assert run.slowdown(passes) == pytest.approx(2.0)


def _traced_objects():
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in tracer.trace_points()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    before = _traced_objects()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size=workloads.TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in expected.items():
        assert (name, unit) in printed
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    after = _traced_objects()
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_exits_nonzero_without_output_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
