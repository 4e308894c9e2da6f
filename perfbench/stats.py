"""Percentiles that refuse to report from too few samples."""

from __future__ import annotations

import math
import typing

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def samples_needed(q: float) -> int:
    """Smallest sample count leaving ``MIN_BEYOND`` samples above the
    ``q``-th percentile (``q`` in percent)."""
    if not 0.0 <= q < 100.0:
        raise ValueError("q must be in [0, 100)")
    n = MIN_BEYOND
    while n - math.ceil(n * q / 100.0) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: typing.Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (numpy's default).  Raises :class:`TooFewSamples` when
    fewer than ``MIN_BEYOND`` samples lie beyond it."""
    n = len(values)
    if n < samples_needed(q):
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples for {MIN_BEYOND} beyond it, got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
