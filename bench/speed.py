"""How fast the machine is running right now, from a fixed kernel.

On a host shared with other tenants the same code runs up to 60% slower
for tens of seconds at a time (see BASELINE.md). Taking each timed part's
fastest run over the passes filters short slow phases, but not one that
covers a whole run. So every workload times this kernel right after each
timed part, and the run scales its times by how much slower the kernel
ran than on the baseline machine (see ``run.slowdown``). The kernel
is the benchmark's own code, so no change to the program can change it;
like the program it is mostly dictionary lookups on tuple keys, tuple
building and indexing small numpy rows, on one thread, as the workloads
decode.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's fastest time on the baseline machine (see BASELINE.md).
BASELINE_S = 1.0e-3

# A small working set, so that the probe evicts little of the program's
# data from the caches between two timed parts.
_KEYS = tuple((i % 4, (i % 8, i % 3)) for i in range(96))
_ROWS = {key: np.full(8, 0.125) for key in _KEYS}


def probe() -> float:
    """Seconds one run of the fixed kernel takes."""
    rows = _ROWS
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        for key in _KEYS:
            total += rows[key][key[0]]
            key[1] + (key[0],)
    elapsed = time.perf_counter() - start
    if total <= 0.0:
        raise AssertionError("reference kernel summed to nothing")
    return elapsed
