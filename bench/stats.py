"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer than that and the value is one or two outliers.
MIN_BEYOND = 10


def checked_percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100); refuses a sample with
    fewer than ten values beyond it, such as a p99 of fewer than 1000 values."""
    ordered = sorted(values)
    # Rounding first keeps 99% of 1000 at rank 990, not 991.
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 9)))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    return ordered[rank - 1]
