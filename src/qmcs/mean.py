"""Mean estimation with quadratic accuracy speedup.

Four estimators, layered:

  * estimate_mean_bounded  -- output in [0, 1]; a median of amplitude
    estimates of a = E[v(A)], accurate to C(sqrt(a)/t + 1/t^2).
  * estimate_mean_l2       -- output >= 0 with bounded second moment;
    dyadic truncation into k+1 bands, each estimated by the bounded
    routine, recombined as mu0 + sum_l 2^l mu_l.
  * estimate_mean_variance -- Var <= sigma^2; rescale by sigma, subtract a
    proxy sample m~, estimate the negative and positive parts separately.
  * estimate_mean_relative -- relative second moment E[Y^2]/E[Y]^2 <= B;
    normalize by a k-sample proxy mean, then the l2 routine.

Plus the generic median-amplification wrapper (power_median / powering_reps)
with the exact binomial tail rather than an asymptotic constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.stats import binom

from .amplitude import (AE_FAIL_PROB, AE_SUCCESS_PROB, ae_median,
                        ae_outcome_distribution)
from .outcome import (
    QueryLedger,
    ValueDistribution,
    classical_sample,
    classical_sample_block,
    transform,
    truncate,
)

__all__ = [
    "Estimate",
    "powering_reps",
    "power_median",
    "bounded_mean_constant",
    "l2_constant",
    "t_for_additive_error",
    "estimate_mean_bounded",
    "estimate_mean_l2",
    "estimate_mean_variance",
    "estimate_mean_relative",
    "classical_mean_chebyshev",
]


@dataclass
class Estimate:
    value: float
    target_error: float
    error_kind: str  # "additive" | "relative"
    confidence: float
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def __post_init__(self):
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")
        if self.error_kind not in ("additive", "relative"):
            raise ValueError("error_kind must be 'additive' or 'relative'")


@lru_cache(maxsize=256)
def powering_reps(gamma: float, delta: float) -> int:
    """Smallest odd n with Pr[Bin(n, gamma) >= ceil(n/2)] <= delta (memoized)."""
    if not 0.0 <= gamma < 0.5:
        raise ValueError("per-run failure probability must be < 1/2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    n = 1
    while True:
        tail = binom.sf(math.ceil(n / 2) - 1, n, gamma)
        if tail <= delta:
            return n
        n += 2


def power_median(run: Callable[[], "Estimate | float"], gamma: float,
                 delta: float) -> float:
    """Median of enough runs to push failure probability gamma down to delta."""
    reps = powering_reps(gamma, delta)
    vals = []
    for _ in range(reps):
        out = run()
        vals.append(out.value if isinstance(out, Estimate) else float(out))
    return sorted(vals)[reps // 2]


@lru_cache(maxsize=1)
def bounded_mean_constant() -> float:
    """Calibrated constant C for the bounded-mean error bound C(sqrt(a)/t + 1/t^2).

    Smallest C such that, over a dense amplitude grid and a spread of t values,
    the exact outcome kernel puts mass >= 8/pi^2 inside |a~ - a| <= C(sqrt(a)/t
    + 1/t^2).  A 2% safety margin is applied; 2*pi + pi^2 is an analytic cap.
    """
    amps = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 201),
        np.geomspace(1e-6, 1e-2, 25),
        1.0 - np.geomspace(1e-6, 1e-2, 25),
    ]))
    cap = 2.0 * math.pi + math.pi**2
    worst = 0.0
    for t in (4, 8, 16, 32, 64, 128):
        for a in amps:
            d = ae_outcome_distribution(float(a), t)
            err = np.abs(d.values - a)
            order = np.argsort(err)
            cum = np.cumsum(d.probs[order])
            idx = int(np.searchsorted(cum, AE_SUCCESS_PROB - 1e-12))
            idx = min(idx, len(err) - 1)
            radius = err[order][idx]
            denom = math.sqrt(a) / t + 1.0 / t**2
            need = radius / denom if denom > 0 else 0.0
            worst = max(worst, need)
    return min(worst * 1.02, cap)


def l2_constant() -> float:
    """Universal constant D = max(4C, 10) for the dyadic-truncation estimator."""
    return max(4.0 * bounded_mean_constant(), 10.0)


def t_for_additive_error(epsilon: float) -> int:
    """Smallest t with C(1/t + 1/t^2) <= epsilon (worst case over amplitudes)."""
    C = bounded_mean_constant()
    t = max(1, int(C / epsilon))
    while C * (1.0 / t + 1.0 / t**2) > epsilon:
        t += 1
    return t


def estimate_mean_bounded(d: ValueDistribution, t: int, delta: float,
                          rng: np.random.Generator,
                          ledger: QueryLedger) -> Estimate:
    """Mean of a [0,1]-valued distribution via median-amplified amplitude estimation.

    The controlled-rotation construction encodes E[v(A)] directly as an
    amplitude, so the estimator is ae_median at a = mean(d).
    """
    if d.values.min() < 0.0 or d.values.max() > 1.0:
        raise ValueError("support must lie in [0, 1]")
    a = d.mean()
    reps = powering_reps(AE_FAIL_PROB, delta)
    value = ae_median(a, t, reps, rng, ledger)
    C = bounded_mean_constant()
    err = C * (math.sqrt(a) / t + 1.0 / t**2)
    return Estimate(value=value, target_error=err, error_kind="additive",
                    confidence=1.0 - delta, ledger=ledger.snapshot())


def estimate_mean_l2(d: ValueDistribution, epsilon: float,
                     rng: np.random.Generator, ledger: QueryLedger) -> Estimate:
    """Mean of a nonnegative distribution, error eps*(||v||_2 + 1)^2 w.p. >= 4/5."""
    if d.values.min() < 0.0:
        raise ValueError("support must be nonnegative")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    D = l2_constant()
    k = math.ceil(math.log2(1.0 / epsilon))
    t0 = math.ceil(D * math.sqrt(math.log2(1.0 / epsilon)) / epsilon)

    d0 = truncate(d, "range", 0.0, 1.0)
    reps0 = powering_reps(AE_FAIL_PROB, 1.0 / 10.0)
    total = ae_median(d0.mean(), t0, reps0, rng, ledger)

    reps_l = powering_reps(AE_FAIL_PROB, 1.0 / (10.0 * k)) if k >= 1 else 0
    for ell in range(1, k + 1):
        lo, hi = 2.0 ** (ell - 1), 2.0**ell
        band = transform(truncate(d, "range", lo, hi), lambda v: v / hi)
        mu_l = ae_median(band.mean(), t0, reps_l, rng, ledger)
        total += hi * mu_l

    err = epsilon * (d.l2norm() + 1.0) ** 2
    return Estimate(value=float(total), target_error=err, error_kind="additive",
                    confidence=0.8, ledger=ledger.snapshot())


def estimate_mean_variance(d: ValueDistribution, sigma: float, epsilon: float,
                           rng: np.random.Generator,
                           ledger: QueryLedger) -> Estimate:
    """Mean with additive error epsilon when Var <= sigma^2; success >= 2/3."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if epsilon >= 4.0 * sigma:
        raise ValueError("epsilon must be < 4*sigma")
    scaled = transform(d, lambda v: v / sigma)
    m = classical_sample(scaled, rng, ledger)
    ledger.a_uses += 1
    centered = transform(scaled, lambda v: v - m)
    neg_part = transform(truncate(centered, "below", 0.0), lambda v: -v / 4.0)
    pos_part = transform(truncate(centered, "atleast", None, 0.0), lambda v: v / 4.0)
    eps_sub = epsilon / (32.0 * sigma)

    def run(part):
        return estimate_mean_l2(part, eps_sub, rng, ledger)

    mu_neg = power_median(lambda: run(neg_part), gamma=1.0 / 5.0, delta=1.0 / 9.0)
    mu_pos = power_median(lambda: run(pos_part), gamma=1.0 / 5.0, delta=1.0 / 9.0)
    value = sigma * (m - 4.0 * mu_neg + 4.0 * mu_pos)
    return Estimate(value=float(value), target_error=epsilon,
                    error_kind="additive", confidence=2.0 / 3.0,
                    ledger=ledger.snapshot())


def estimate_mean_relative(d: ValueDistribution, B: float, epsilon: float,
                           rng: np.random.Generator,
                           ledger: QueryLedger) -> Estimate:
    """Mean with relative error epsilon when E[Y^2]/E[Y]^2 <= B; success >= 3/4."""
    if B < 1.0:
        raise ValueError("B must be >= 1 (Cauchy-Schwarz lower bound)")
    if epsilon >= 27.0 * B / 4.0:
        raise ValueError("epsilon must be < 27B/4")
    if d.values.min() < 0.0:
        raise ValueError("support must be nonnegative")
    k = math.ceil(32.0 * B)
    samples = classical_sample_block(d, k, rng, ledger)
    m = float(np.mean(samples))
    if m == 0.0:
        raise ArithmeticError("proxy mean is zero; relative estimation undefined")
    normalized = transform(d, lambda v: v / m)
    eps_sub = 2.0 * epsilon / (3.0 * (2.0 * math.sqrt(B) + 1.0) ** 2)

    def run():
        return estimate_mean_l2(normalized, eps_sub, rng, ledger)

    mu = power_median(run, gamma=1.0 / 5.0, delta=1.0 / 8.0)
    return Estimate(value=float(m * mu), target_error=epsilon,
                    error_kind="relative", confidence=0.75,
                    ledger=ledger.snapshot())


def classical_mean_chebyshev(d: ValueDistribution, sigma: float, epsilon: float,
                             rng: np.random.Generator,
                             ledger: QueryLedger) -> Estimate:
    """Baseline: empirical mean of ceil(3 sigma^2 / eps^2) classical samples."""
    n = math.ceil(3.0 * sigma**2 / epsilon**2)
    samples = classical_sample_block(d, n, rng, ledger)
    return Estimate(value=float(np.mean(samples)), target_error=epsilon,
                    error_kind="additive", confidence=2.0 / 3.0,
                    ledger=ledger.snapshot())
