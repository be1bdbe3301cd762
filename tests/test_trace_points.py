"""The benchmark's tracer patches program functions by name, so every name
it traces must exist: ``bench/run.py --trace 1`` refuses to start otherwise.
This keeps a rename or deletion of a traced function from passing unseen."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_trace_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.missing(tracer.trace_points()) == []
