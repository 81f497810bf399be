"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math

# a tail percentile is reported only when at least this many samples
# lie beyond it (below that, the "p90" of a run is one or two outliers)
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``.

    The median (q = 50) needs one sample. A tail percentile (q > 50)
    is refused unless at least ``MIN_BEYOND`` samples lie beyond it,
    i.e. ``len(values) * (1 - q/100) >= MIN_BEYOND`` — p90 needs 100
    samples, p99 needs 1000. Linear interpolation between order
    statistics (numpy's default method).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 50:
        beyond = n * (1 - q / 100)
        if beyond + 1e-9 < MIN_BEYOND:
            raise TooFewSamples(
                f"p{q:g} of {n} samples leaves {beyond:.1f} beyond it; "
                f"need at least {MIN_BEYOND} "
                f"({math.ceil(MIN_BEYOND / (1 - q / 100))} samples)")
    s = sorted(values)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)

