"""Small statistics used by the benchmark: medians, the tail rule, failures."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

# Percentiles tried from the highest down; the reported one is the highest
# that still has at least TAIL_MIN samples beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    return xs[_rank(len(xs), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with >= TAIL_MIN samples beyond.

    None when the sample is too small for even the median to qualify.
    """
    for p in PERCENTILES:
        if beyond(len(values), p) >= TAIL_MIN:
            return p, percentile(values, p)
    return None


def describe(values, unit: str) -> str:
    """'median X unit, pNN Y unit, n=N' with the tail rule applied."""
    med = statistics.median(values)
    t = tail(values)
    tail_txt = (f"p{t[0]:g} {t[1]:.6g} {unit}" if t else
                f"no percentile has {TAIL_MIN} samples beyond it")
    return f"median {med:.6g} {unit}, {tail_txt}, n={len(values)}"


def spread(values) -> float:
    """Interquartile range over the median, as the acceptance check computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Tally:
    """Solves attempted and failed; an error and a wrong answer both fail."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
