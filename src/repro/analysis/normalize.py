"""Normalization helpers for the evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= value
    return product ** (1.0 / len(values))


@dataclass
class NormalizedResult:
    """One normalized-execution-time bar of a paper figure."""

    label: str
    baseline_cycles: float
    protected_cycles: float

    @property
    def normalized(self) -> float:
        return self.protected_cycles / self.baseline_cycles

    @property
    def overhead(self) -> float:
        return self.normalized - 1.0


def summarize(results: Sequence[NormalizedResult]) -> Dict[str, float]:
    """Aggregate statistics over a set of normalized results."""
    ratios = [r.normalized for r in results]
    return {
        "mean_normalized": mean(ratios),
        "geomean_normalized": geometric_mean(ratios),
        "max_overhead": max(r.overhead for r in results),
        "min_overhead": min(r.overhead for r in results),
    }
