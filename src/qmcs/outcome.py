"""Finite discrete output distributions and the resource ledger.

A randomized (or quantum) subroutine is modelled by the distribution of its
real-valued output.  Distributions are finite, explicit and immutable;
truncation to a window lo <= v < hi (the rest moved to 0) and value
transformation mirror the derived algorithms built on top of them, and
median_law gives the exact law of a median of iid draws (the powering
lemma's amplification), from the exact binomial tail binom_upper_tail,
evaluated only on the window of the CDF where a median mass can pass the
pruning level (median_laws: for a stream of laws).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
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
    "binom_upper_tail",
    "median_law",
    "median_laws",
    "classical_sample_block",
]

_NORM_TOL = 1e-9
_PRUNE = 1e-16  # median-law mass below this is dropped
_TAIL_BLOCK = 4096  # CDF points per binomial-tail pass: bounds its temporaries
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


@dataclass(slots=True)  # callers keep one per estimate: no per-instance dict
class QueryLedger:
    """Counters for every metered resource of one estimation run."""

    a_uses: int = 0
    a_inv_uses: int = 0
    reflection_uses: int = 0
    walk_steps: int = 0
    classical_samples: int = 0

    def snapshot(self) -> "QueryLedger":
        # by the constructor, a fifth of dataclasses.replace's cost: every
        # estimate takes one
        return QueryLedger(self.a_uses, self.a_inv_uses, self.reflection_uses,
                           self.walk_steps, self.classical_samples)

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


def truncate(d: ValueDistribution, lo: float, hi: float) -> ValueDistribution:
    """Keep lo <= v < hi and move every other value to 0; +-inf leave a side open."""
    if not lo < hi:  # NaN fails too
        raise DistributionError(f"empty window [{lo}, {hi})")
    keep = (d.values >= lo) & (d.values < hi)
    return from_arrays(np.where(keep, d.values, 0.0), d.probs)


def transform(d: ValueDistribution, f: Callable[[float], float]) -> ValueDistribution:
    """Apply f to every support value, merging equal images."""
    with np.errstate(all="ignore"):  # a non-finite image is reported below
        values = np.array([f(v) for v in d.values], dtype=float)
    if not np.all(np.isfinite(values)):
        raise DistributionError("transform produced non-finite value")
    return from_arrays(values, d.probs)


def binom_upper_tail(n: int, k: int, p):
    """Pr[Bin(n, p) >= k] for a scalar or an array p in [0, 1].

    Summed from k away from the mean n p, where the terms fall: the upper
    terms when k > n p, else 1 minus those of Bin(n, 1-p) from n-k+1, so a
    tail near 1 is as accurate as one near 0.  A lead term with a factor
    out of normal float range is taken through logs, with one final exp.
    """
    p = np.asarray(p, dtype=float)
    if not 0 < k <= n:
        return np.full(p.shape, float(k <= 0))[()]

    def upper(k, p):  # the lead term times 1 + running products of ratios
        r, rest = p / (1.0 - p), np.zeros_like(p)
        for j in range(n - 1, k - 1, -1):  # by Horner, smallest terms first
            rest = (1.0 + rest) * (r * ((n - j) / (j + 1)))
        with np.errstate(under="ignore"):
            lead = p**k * (1.0 - p) ** (n - k)
        tail = (math.comb(n, k) if n <= 1020 else 0) * lead * (1.0 + rest)
        # by logs if a lead factor is subnormal or C(n, k) may pass 2^1024
        far = ~(lead >= np.finfo(float).tiny) | (n > 1020)
        if far.any():
            with np.errstate(divide="ignore"):  # log(0) = -inf: a zero tail
                tail[far] = np.exp(math.log(math.comb(n, k)) + k * np.log(p[far])
                                   + (n - k) * np.log1p(-p[far])
                                   + np.log1p(rest[far]))
        return tail

    beyond = k > n * p
    out = np.empty(p.shape)
    if beyond.any():  # a side of n p that holds no p is skipped
        out[beyond] = upper(k, p[beyond])
    if not beyond.all():
        out[~beyond] = 1.0 - upper(n - k + 1, 1.0 - p[~beyond])
    return out[()]


@lru_cache(maxsize=256)
def _tail_floor(m: int) -> float:
    """c with C(m, h) c^h = 1e-18, h = (m+1)/2, taken in logs: by the union
    bound, Pr[Bin(m, p) >= h] <= 1e-18 for every p <= c."""
    h = (m + 1) // 2
    log_comb = math.lgamma(m + 1) - math.lgamma(h + 1) - math.lgamma(m - h + 1)
    return math.exp((math.log(1e-18) - log_comb) / h)


def _window_laws(values: list, cdfs: list, m: int) -> list:
    """Median laws on CDF windows (cdfs over values), from one tail pass."""
    tail = binom_upper_tail(m, (m + 1) // 2, np.concatenate(cdfs))
    starts = np.cumsum([0] + [len(v) for v in values[:-1]])
    pmf = np.diff(tail, prepend=0.0)
    pmf[starts] = tail[starts]  # = tail - 0.0; at lo > 0 a tail <= ~1e-18: pruned
    laws = []
    for v, w in zip(values, np.split(pmf, starts[1:])):
        keep = w > _PRUNE  # the window is sorted and distinct: from_arrays' divisions, no merge
        probs = w[keep] / w[keep].sum()
        laws.append(ValueDistribution(v[keep], probs / probs.sum()))
    return laws


def median_laws(ds: Iterable[ValueDistribution], m: int) -> list:
    """Exact law of the median of m iid draws (m odd) from each d in ds.

    Pr[median <= v_k] = Pr[Bin(m, F_k) >= (m+1)/2] on the CDF F of d, taken
    only where a mass can pass the pruning level, plus one neighbour below:
    a tail is about 1e-18 at most while F_k <= c = _tail_floor(m), and rounds
    to exactly 1 once 1 - F_k <= c (the same bound, on the lower tail).  Each
    d is dropped once its window is cut; one tail pass serves _TAIL_BLOCK
    or more CDF points of windows, so a stream of laws is never held at once."""
    if m < 1 or m % 2 == 0:
        raise ValueError("median of an even sample is ambiguous; m must be odd")
    if m == 1:
        return list(ds)
    c = _tail_floor(m)
    laws, values, cdfs, pending = [], [], [], 0
    for d in ds:
        cdf = np.clip(np.cumsum(d.probs), 0.0, 1.0)
        lo = max(int(np.searchsorted(cdf, c, side="right")) - 1, 0)
        hi = int(np.searchsorted(cdf, 1.0 - c)) + 1  # through the first tail of 1
        values.append(d.values[lo:hi])  # a view: outcome laws of one t share theirs
        cdfs.append(cdf[lo:hi].copy())
        if (pending := pending + hi - lo) >= _TAIL_BLOCK:
            laws += _window_laws(values, cdfs, m)
            values, cdfs, pending = [], [], 0
    return laws + _window_laws(values, cdfs, m) if cdfs else laws


def median_law(d: ValueDistribution, m: int) -> ValueDistribution:
    """Exact law of the median of m iid draws from d (m odd): median_laws of one."""
    return median_laws([d], m)[0]


def _sample_count(n) -> int:
    """ceil(n), or an error before any draw if n exceeds SAMPLE_CAP or is nan."""
    if not n <= SAMPLE_CAP:
        raise ValueError(f"{n:g} classical samples exceed the cap {SAMPLE_CAP:g}")
    return math.ceil(n)


def classical_sample_block(d: ValueDistribution, n: float, rng: np.random.Generator,
                           ledger: QueryLedger) -> np.ndarray:
    """Draw ceil(n) iid values at once; charges that many classical samples.

    Generator.choice(size, n, p=probs)'s inverse CDF, its draws and its
    indices, without its per-call check of probs (a distribution's are)."""
    n = _sample_count(n)
    ledger.classical_samples += n
    cdf = d.probs.cumsum()
    cdf /= cdf[-1]
    return d.values[cdf.searchsorted(rng.random(n), side="right")]
