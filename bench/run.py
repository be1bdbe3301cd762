"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it runs every round once more under
a tracer, reports the per-layer metrics, including the tracing overhead,
and writes the spans of the traced pass to ``.bench_out/``. Every run
checks the program's outputs; a failed check exits 1 and prints no numbers.
Exit code 2 means the benchmark could not start (no program to import, no
``BENCHMARK.json``, a traced name the program no longer has).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Every run makes at least this many passes, so each round is checked to
# repeat. No further pass starts once CAP times --seconds have passed.
MIN_PASSES = 2
CAP = 2.0
# At least this many fresh-interpreter imports are timed per run, spread
# over its passes.
IMPORT_SAMPLES = 8
# Imports what the benchmark imports, in a fresh interpreter, and prints
# how long that took.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import checks, tracer, workloads; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import tsdecode from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tsdecode

    found = Path(tsdecode.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise ImportError(f"tsdecode imported from {found}, not from {SRC}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    benchmark's modules."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def measure(workload, seconds: float, trace: bool):
    """``workload.passes`` passes over rounds 0..``workload.rounds``-1, each
    pass after timing the imports a few times; with tracing, one more pass
    under a single tracer. Returns the passes, the import times, the traced
    rounds and the tracer.

    Rounds and passes are fixed, so every run with a seed decodes the same
    tasks whatever the speed of the program or the machine; ``seconds``
    only caps a run that is far slower than planned. The runs of one round
    lie far apart in time. On a machine shared with other tenants a run
    can slow down by 40% for seconds at a time (see bench/README.md), and
    nothing makes a run faster than the program allows: each timed part's
    fastest run counts. Slow phases that outlast a run are what
    ``slowdown`` is for.
    """
    from tracer import Tracer

    start = time.perf_counter()
    passes, imports = [], []
    per_pass = -(-IMPORT_SAMPLES // workload.passes)
    while len(passes) < workload.passes:
        if len(passes) >= MIN_PASSES and time.perf_counter() - start > CAP * seconds:
            break
        imports += [import_seconds() for _ in range(per_pass)]
        passes.append([workload.round(k) for k in range(workload.rounds)])
    tracer = Tracer() if trace else None
    traced = [workload.round(k, tracer) for k in range(workload.rounds)] if trace else []
    return passes, imports, traced, tracer


def fastest_parts(passes) -> list[dict[str, float]]:
    """Per round, each timed part's fastest run over the passes."""
    return [{key: min(r.parts[key] for r in runs) for key in runs[0].parts}
            for runs in zip(*passes)]


def fastest_latencies(passes, decoder: str) -> list[float]:
    """Each request's latency: the lowest over the passes."""
    return [
        min(lat)
        for runs in zip(*passes)
        for lat in zip(*(r.latencies[decoder] for r in runs))
    ]


def slowdown(passes) -> float:
    """How many times slower than on the baseline machine the machine ran:
    the fastest run over the passes of each probe slot (the n-th probe of a
    round), averaged over the slots, over ``speed.BASELINE_S``. Probes are
    taken like the timed parts and right after them, so this filters the
    same short slow phases and keeps the long ones."""
    import speed

    fastest = [min(samples) for runs in zip(*passes)
               for samples in zip(*(r.probes for r in runs))]
    return statistics.fmean(fastest) / speed.BASELINE_S


def measured_tasks_per_s(passes) -> float:
    """Tasks of all rounds over the sum of the fastest runs of the timed parts."""
    tasks = sum(r.tasks for r in passes[0])
    return tasks / sum(sum(best.values()) for best in fastest_parts(passes))


def measured_setup_s(passes, imports) -> float:
    """The fastest import plus the mean over rounds of each round's fastest
    set-up."""
    return min(imports) + statistics.fmean(min(r.setup_s for r in runs) for runs in zip(*passes))


def end_to_end(passes, imports):
    scale = slowdown(passes)
    return {
        "setup_s": measured_setup_s(passes, imports) / scale,
        "tasks_per_s": measured_tasks_per_s(passes) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_lines(passes, imports, references):
    """Figures printed beside the gated metrics: set-up time and throughput
    as measured and the slowdown that scales them, per-stage throughput,
    per-decoder latency (mean, median and a tail percentile with the sample
    count) and pooled BLEU over every round."""
    from checks import pooled_bleu
    from stats import checked_percentile
    from workloads import DECODERS

    lines = [f"  round walls s, pass {i}: {' '.join(f'{r.wall_s:.3f}' for r in p)}"
             for i, p in enumerate(passes)]
    lines.append(f"  measured_setup_s {measured_setup_s(passes, imports)!r} s"
                 " (setup_s before scaling by the slowdown)")
    lines.append(f"  measured_tasks_per_s {measured_tasks_per_s(passes)!r} 1/s"
                 " (tasks_per_s before scaling by the slowdown)")
    lines.append(f"  slowdown {slowdown(passes)!r} x (speed.probe against the baseline machine)")
    tasks = sum(r.tasks for r in passes[0])
    by_stage: dict[str, float] = {}
    for best in fastest_parts(passes):
        for key, value in best.items():
            stage = key.split("/")[0]
            by_stage[stage] = by_stage.get(stage, 0.0) + value
    for stage, wall in by_stage.items():
        lines.append(f"  {stage}_tasks_per_s {tasks / wall!r} 1/s")
    for d in DECODERS:
        lat = fastest_latencies(passes, d)
        lines.append(f"  {d}_ms_per_task {statistics.fmean(lat) * 1e3!r} ms (mean, n={len(lat)})")
        lines.append(f"  {d}_latency_p50_ms {statistics.median(lat) * 1e3!r} ms (n={len(lat)})")
        for q in (99, 90):
            try:
                value = checked_percentile(lat, q)
            except ValueError:
                continue
            lines.append(f"  {d}_latency_p{q}_ms {value * 1e3!r} ms (n={len(lat)})")
            break
        else:
            lines.append(f"  {d}_latency_tail: n={len(lat)}, too few samples for p90")
    rounds = [(r.rows, tasks) for r, (tasks, _) in zip(passes[0], references)]
    for d in DECODERS:
        lines.append(f"  {d}_bleu {pooled_bleu(rounds, d)!r} BLEU")
    return lines


def per_layer(traced, tracer, passes):
    """The per-layer metrics of the traced pass, over all its rounds."""
    from tracer import layer_metrics

    values = layer_metrics(tracer.spans)
    values["trace.overhead_s"] = sum(
        rnd.wall_s - statistics.median(r.wall_s for r in runs)
        for rnd, runs in zip(traced, zip(*passes))
    )
    return values


def main(argv=None, size=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
        import checks
        import tracer as tracer_mod
        import workloads
    except (OSError, ValueError, ImportError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    absent = tracer_mod.missing(tracer_mod.trace_points()) if args.trace else []
    if absent:
        print(f"bench: cannot start: no such names to trace: {', '.join(absent)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, size or workloads.FULL, OUT)
    try:
        passes, imports, traced, tracer = measure(workload, args.seconds, bool(args.trace))
        runs_of = list(zip(*(passes + ([traced] if traced else []))))
        problems = [
            f"round {k} gave other result rows when run again"
            for k, runs in enumerate(runs_of)
            if len({checks.rows_digest(r.rows) for r in runs}) != 1
        ]
        references = [workload.reference(k) for k in range(workload.rounds)]
        for k, (tasks, model) in enumerate(references):
            problems += [f"round {k}: {problem}" for problem in
                         checks.check_rows(passes[0][k].rows, tasks, workloads.DECODERS, model)]
    except workloads.BenchFailure as exc:
        problems = [str(exc)]
    if problems:
        for problem in problems:
            print(f"bench: check failed: {problem}", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        values = per_layer(traced, tracer, passes)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer_mod.write_spans(span_file, tracer.spans, min(s.start for s in tracer.spans))
        lines = [f"  spans of the traced pass: {len(tracer.spans)} in {span_file.relative_to(ROOT)}"]
    else:
        values = end_to_end(passes, imports)
        lines = report_lines(passes, imports, references)
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    rounds = [r for runs in runs_of for r in runs]
    attempted = sum(len(r.rows) for r in rounds)
    failed = sum(1 for r in rounds for row in r.rows if row.get("error") is not None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(runs_of)} rounds"
          f" of {passes[0][0].tasks} tasks, {len(passes)} untraced passes"
          f"{', 1 traced pass' if traced else ''}")
    print(f"  result sha256 {checks.rows_digest([row for r in passes[0] for row in r.rows])}"
          " (rows of every round in order, wall_time_us removed)")
    print(f"  error_rate {failed / attempted!r} ({failed} error rows of {attempted} decodes)")
    for name in units:
        print(f"  {name} {values[name]!r} {units[name]}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
