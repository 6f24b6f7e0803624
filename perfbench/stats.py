"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q`` rank."""
    return n - math.ceil(q * n)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q`` percentile."""
    return n > 0 and samples_beyond(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile of ``values``.

    Raises:
        TooFewSamples: fewer than :data:`MIN_BEYOND` samples lie beyond
            the percentile, so it would be decided by a handful of
            outliers.
    """
    n = len(values)
    if not supported(n, q):
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; have {n} samples"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartile(values: Sequence[float], which: int) -> float:
    """First (``which=1``) or third (``which=3``) quartile; a lone value is its own."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[which - 1])
