"""Output checks run on every benchmark run, and the result digest.

A run whose outputs fail any check exits non-zero and prints no numbers.
"""

from __future__ import annotations

import hashlib
import json

# The bound of acceptance criterion 06: a reported score must re-score
# from scratch to within this.
RESCORE_TOL = 1e-9


def rows_digest(rows) -> str:
    """SHA-256 of the result rows in order, with ``wall_time_us`` removed."""
    h = hashlib.sha256()
    for row in rows:
        kept = {k: v for k, v in row.items() if k != "wall_time_us"}
        h.update(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_rows(rows, tasks, decoders, model) -> list[str]:
    """Problems with one round's result rows; an empty list means they pass.

    Every decoder must answer every task exactly once, every stop reason
    must be one the program defines, and every reported score must re-score
    with ``filled_score`` within ``RESCORE_TOL``.
    """
    from tsdecode.core import STOP_REASONS
    from tsdecode.scoring import filled_score

    problems = []
    by_id = {task.task_id: task for task in tasks}
    for decoder in decoders:
        ids = sorted(r["task_id"] for r in rows if r["decoder"] == decoder)
        if ids != sorted(by_id):
            problems.append(f"{decoder}: {len(ids)} result rows for {len(by_id)} tasks")
    for row in rows:
        where = f"{row['decoder']} {row['task_id']}"
        if row["decoder"] not in decoders:
            problems.append(f"{where}: unexpected decoder")
            continue
        if row["stop_reason"] not in STOP_REASONS:
            problems.append(f"{where}: invalid stop_reason {row['stop_reason']!r}")
        task = by_id.get(row["task_id"])
        if task is None or row.get("error") is not None:
            continue
        score = filled_score(model, task.source, task.prefix, tuple(row["span"]), task.suffix)
        if not abs(score - row["score"]) <= RESCORE_TOL:
            problems.append(f"{where}: score {row['score']!r} re-scores to {score!r}")
    return problems


def pooled_bleu(rounds, decoder: str) -> float:
    """Corpus BLEU of one decoder's non-error rows over ``rounds``, a list
    of (rows, tasks) pairs, pooled as ``eval`` pools one file."""
    from tsdecode.harness import resolve_pair
    from tsdecode.metrics import corpus_bleu

    cands, refs = [], []
    for rows, tasks in rounds:
        by_id = {task.task_id: task for task in tasks}
        for row in rows:
            if row["decoder"] != decoder or row.get("error") is not None:
                continue
            pair = resolve_pair(by_id[row["task_id"]], tuple(row["span"]))
            if pair is not None:
                cands.append(pair[0])
                refs.append(pair[1])
    return corpus_bleu(cands, refs).score if cands else 0.0
