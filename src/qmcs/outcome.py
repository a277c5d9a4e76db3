"""Finite discrete output distributions and the resource ledger.

A randomized (or quantum) subroutine is modelled by the distribution of its
real-valued output.  Distributions are finite, explicit and immutable;
truncation and value-transformation operators mirror the derived algorithms
built on top of them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Tuple

import numpy as np

__all__ = [
    "DistributionError",
    "ValueDistribution",
    "QueryLedger",
    "from_arrays",
    "make_distribution",
    "truncate",
    "transform",
    "moments",
    "classical_sample",
    "classical_sample_block",
]

_NORM_TOL = 1e-9
SAMPLE_CAP = 10**7  # classical samples per block; the suite draws <= 120,000


class DistributionError(ValueError):
    """Invalid probability data for a ValueDistribution."""


@dataclass(frozen=True)
class ValueDistribution:
    """Finite real-valued distribution: sorted distinct values with probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.probs.setflags(write=False)

    @property
    def support_size(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.values - m) ** 2, self.probs))

    def l2norm(self) -> float:
        with np.errstate(over="ignore"):  # a norm beyond float range is inf
            return float(np.sqrt(np.dot(self.values**2, self.probs)))

    def to_pairs(self) -> list:
        return [(float(v), float(p)) for v, p in zip(self.values, self.probs)]


@dataclass(slots=True)  # callers keep one per estimate: no per-instance dict
class QueryLedger:
    """Counters for every metered resource of one estimation run."""

    a_uses: int = 0
    a_inv_uses: int = 0
    reflection_uses: int = 0
    walk_steps: int = 0
    classical_samples: int = 0

    def snapshot(self) -> "QueryLedger":
        return replace(self)

    def total_quantum(self) -> int:
        return self.reflection_uses + self.walk_steps

    def merge(self, other: "QueryLedger") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return asdict(self)


def from_arrays(values, probs) -> ValueDistribution:
    """Build a distribution from parallel value and probability arrays.

    Duplicate values are merged and the support sorted; probabilities must be
    finite, nonnegative and sum to 1 within 1e-9 (drift below that is
    silently renormalized).
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.size == 0:
        raise DistributionError("empty support")
    if not np.all(np.isfinite(values)):
        raise DistributionError("non-finite support value")
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise DistributionError("probabilities must be finite and nonnegative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= _NORM_TOL:
        raise DistributionError(f"probabilities sum to {total}, not 1")
    uniq, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=probs, minlength=len(uniq))
    merged = merged / merged.sum()
    return ValueDistribution(uniq, merged)


def make_distribution(pairs: Iterable[Tuple[float, float]]) -> ValueDistribution:
    """Adapter for (value, prob) pair input: from_arrays on the two columns."""
    pairs = list(pairs)
    return from_arrays([v for v, _ in pairs], [p for _, p in pairs])


def truncate(d: ValueDistribution, mode: str, x: float = None, y: float = None) -> ValueDistribution:
    """Move probability mass outside a half-open window to the value 0.

    mode "below":   keep v < x, else output 0.
    mode "range":   keep x <= v < y, else output 0.
    mode "atleast": keep v >= y, else output 0.
    """
    windows = {"below": (-np.inf, x), "range": (x, y), "atleast": (y, np.inf)}
    if mode not in windows:
        raise DistributionError(f"unknown truncation mode {mode!r}")
    lo, hi = windows[mode]
    if lo is None or hi is None:
        raise DistributionError(f"mode {mode!r} is missing a window bound")
    if mode == "range" and not x < y:
        raise DistributionError("invalid window: need x < y")
    keep = (d.values >= lo) & (d.values < hi)
    return from_arrays(np.where(keep, d.values, 0.0), d.probs)


def transform(d: ValueDistribution, f: Callable[[float], float]) -> ValueDistribution:
    """Apply f to every support value, merging equal images."""
    with np.errstate(all="ignore"):  # a non-finite image is reported below
        values = np.array([f(v) for v in d.values], dtype=float)
    if not np.all(np.isfinite(values)):
        raise DistributionError("transform produced non-finite value")
    return from_arrays(values, d.probs)


def moments(d: ValueDistribution) -> Tuple[float, float, float]:
    """Exact (mean, variance, l2norm) where l2norm = sqrt(E[v^2])."""
    return d.mean(), d.variance(), d.l2norm()


def classical_sample(d: ValueDistribution, rng: np.random.Generator,
                     ledger: QueryLedger) -> float:
    """Draw one value; charges one classical sample."""
    ledger.classical_samples += 1
    idx = rng.choice(d.support_size, p=d.probs)
    return float(d.values[idx])


def _sample_count(n) -> int:
    """ceil(n), or an error before any draw if n exceeds SAMPLE_CAP or is nan."""
    if not n <= SAMPLE_CAP:
        raise ValueError(f"{n:g} classical samples exceed the cap {SAMPLE_CAP:g}")
    return math.ceil(n)


def classical_sample_block(d: ValueDistribution, n: float, rng: np.random.Generator,
                           ledger: QueryLedger) -> np.ndarray:
    """Draw ceil(n) iid values at once; charges that many classical samples."""
    n = _sample_count(n)
    ledger.classical_samples += n
    idx = rng.choice(d.support_size, size=n, p=d.probs)
    return d.values[idx]
