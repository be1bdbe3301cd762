"""Span tracing from outside the program.

A ``Tracer`` replaces named functions of the tsdecode modules with wrappers
that record one span per call: name, start, end, parent span, request id
(the task id of the enclosing decode) and a small per-call count. Names are
patched where callers look them up: ``harness`` and ``cli`` bind ``psgd``,
``dba_suggest``, ``beam_search``, ``decode_task`` and friends at import, so
patching only the defining module would miss their calls. Spans stay in
memory; ``layer_metrics`` turns them into the per-layer table and
``write_spans`` saves them when the run ends. ``uninstall`` puts every
original object back and checks that it did. A trace point whose name the
program no longer has is an error, not a silent zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "sid name start end parent request info")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = []
        # The stack of the thread that drives the workload. A pool worker
        # whose own stack is empty adopts its innermost span as parent, so
        # the decodes the sweep hands to its threads nest under the sweep.
        self._root_stack = self._local.stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, pre=None, post=None, request=None):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            top = stack or self._root_stack
            parent, req = top[-1] if top else (None, None)
            if request is not None:
                req = request(args, kwargs)
            sid = next(ids)
            token = pre(args) if pre is not None else None
            stack.append((sid, req))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                info = {"error": type(exc).__name__}
                spans.append(Span(sid, name, start, end, parent, req, info))
                raise
            end = time.perf_counter()
            stack.pop()
            info = post(args, result, token) if post is not None else None
            spans.append(Span(sid, name, start, end, parent, req, info))
            return result

        return wrapper

    def install(self, points) -> None:
        absent = missing(points)
        if absent:
            raise AttributeError(f"cannot trace absent names: {', '.join(absent)}")
        wrappers = {}
        for owner, attr, name, hooks in points:
            original = vars(owner)[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, **hooks)
            setattr(owner, attr, wrappers[id(original)])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._patched.clear()

    @contextmanager
    def active(self):
        self.install(trace_points())
        try:
            yield self
        finally:
            self.uninstall()


def missing(points) -> list[str]:
    """The trace points whose owner has no attribute of that name."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in points if attr not in vars(owner)]


def _task_id(args, kwargs):
    task = args[1] if len(args) > 1 else kwargs.get("task")
    return getattr(task, "task_id", None)


def _stream_counter(args):
    return getattr(args[0], "_counter", None)


def _u64_drawn(args, result, before):
    after = getattr(args[0], "_counter", None)
    return None if before is None or after is None else after - before


def _positions(args, result, token):
    return len(result)


def _decode_stats(args, result, token):
    stats = result.stats
    return (stats.forward_passes, stats.emitted_steps, stats.stop_reason)


def trace_points():
    """(owner, attribute, span name, hooks) for every traced call site."""
    from tsdecode import cli, decode, harness, lm, metrics, rng, scoring

    decoder = {"post": _decode_stats, "request": _task_id}
    points = [
        (rng.Stream, "dirichlet", "rng.dirichlet", {"pre": _stream_counter, "post": _u64_drawn}),
        (lm.SequenceModel, "forced_pass", "lm.forced_pass", {"post": _positions}),
        (decode, "psgd", "decode.psgd", decoder),
        (harness, "psgd", "decode.psgd", decoder),
        (decode, "dba_suggest", "decode.dba", decoder),
        (harness, "dba_suggest", "decode.dba", decoder),
        (decode, "beam_search", "decode.beam_search", {}),
        (harness, "beam_search", "decode.beam_search", {}),
        (scoring, "filled_score", "scoring.filled_score", {}),
        (decode, "filled_score", "scoring.filled_score", {}),
        (harness, "decode_task", "harness.decode_task", {"request": _task_id}),
        (cli, "decode_task", "harness.decode_task", {"request": _task_id}),
        (harness, "gen_dataset", "harness.gen_dataset", {}),
        (cli, "gen_dataset", "harness.gen_dataset", {}),
        (cli, "run_ratio_sweep", "harness.run_ratio_sweep", {}),
        (metrics, "corpus_bleu", "metrics.corpus_bleu", {}),
        (metrics, "aggregate", "metrics.aggregate", {}),
        (harness, "aggregate", "metrics.aggregate", {}),
        (cli, "aggregate", "metrics.aggregate", {}),
        (cli, "main", "cli.main", {}),
    ]
    for kind in ("tasks", "results"):
        for verb in ("read", "write"):
            points.append((cli, f"{verb}_{kind}_jsonl", "core.jsonl", {}))
    return points


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children from two pool threads may overlap, so the covered time is the
    union of their intervals, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - _covered(children.get(sp.sid, ()), sp.start, sp.end)
        for sp in spans
    }


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced round (tracing overhead excluded)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for sp in spans:
        calls[sp.name] = calls.get(sp.name, 0) + 1
        total[sp.name] = total.get(sp.name, 0.0) + (sp.end - sp.start)
        own[sp.name] = own.get(sp.name, 0.0) + selfs[sp.sid]

    def infos(name):
        return [sp.info for sp in spans if sp.name == name]

    rows_drawn = calls.get("rng.dirichlet", 0)
    u64 = sum(i for i in infos("rng.dirichlet") if isinstance(i, int))
    positions = sum(infos("lm.forced_pass"))
    out = {
        "rng.rows_drawn": rows_drawn,
        "rng.draw_s": total.get("rng.dirichlet", 0.0),
        "rng.u64_per_row": u64 / rows_drawn if rows_drawn else 0.0,
        "lm.forced_pass.calls": calls.get("lm.forced_pass", 0),
        "lm.forced_pass.positions": positions,
        "lm.forced_pass.self_s": own.get("lm.forced_pass", 0.0),
        "lm.row_hit_ratio": 1.0 - rows_drawn / positions if positions else 0.0,
    }
    for key, name in (("psgd", "decode.psgd"), ("dba", "decode.dba")):
        done = [i for i in infos(name) if isinstance(i, tuple)]
        out[f"decode.{key}.self_s"] = own.get(name, 0.0)
        out[f"decode.{key}.forward_passes"] = sum(i[0] for i in done)
        out[f"decode.{key}.emitted_steps"] = sum(i[1] for i in done)
        if key == "psgd":
            for reason in ("patience", "max_len", "empty_beam"):
                out[f"decode.psgd.stop.{reason}"] = sum(1 for i in done if i[2] == reason)
        else:
            out["decode.dba.errors"] = sum(1 for i in infos(name) if isinstance(i, dict))
    out.update({
        "decode.beam_search.calls": calls.get("decode.beam_search", 0),
        "decode.beam_search.self_s": own.get("decode.beam_search", 0.0),
        "scoring.filled_score.calls": calls.get("scoring.filled_score", 0),
        "scoring.filled_score.s": total.get("scoring.filled_score", 0.0),
        "harness.gen_dataset.self_s": own.get("harness.gen_dataset", 0.0),
        "harness.run_ratio_sweep.self_s": own.get("harness.run_ratio_sweep", 0.0),
        "metrics.corpus_bleu.s": total.get("metrics.corpus_bleu", 0.0),
        "metrics.aggregate.s": total.get("metrics.aggregate", 0.0),
        "core.jsonl_s": total.get("core.jsonl", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    })
    return out


def write_spans(path, spans, origin: float) -> None:
    """One JSON object per span, times in seconds from ``origin``."""
    with open(path, "w", encoding="utf-8") as fh:
        for sp in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({
                "id": sp.sid,
                "name": sp.name,
                "start": round(sp.start - origin, 9),
                "end": round(sp.end - origin, 9),
                "parent": sp.parent,
                "request": sp.request,
                "info": sp.info,
            }))
            fh.write("\n")
