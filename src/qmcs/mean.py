"""Mean estimation with quadratic accuracy speedup.

Four estimators, layered:

  * estimate_mean_bounded  -- output in [0, 1]; a median of amplitude
    estimates of a = E[v(A)], accurate to C(sqrt(a)/t + 1/t^2).
  * estimate_mean_l2       -- output >= 0 with bounded second moment;
    dyadic truncation into k+1 bands, each estimated by the bounded
    routine, recombined as mu0 + sum_l 2^l mu_l.  The band amplitudes
    are read from the law in one pass, without building the band laws.
  * estimate_mean_variance -- Var <= sigma^2; rescale by sigma, subtract a
    proxy sample m~, estimate the negative and positive parts separately.
  * estimate_mean_relative -- relative second moment E[Y^2]/E[Y]^2 <= B;
    normalize by a ceil(32B)-sample proxy mean, then the l2 routine.

An l2 estimate is a plan, checked from epsilon alone (k, t0 and the median
sizes: _l2_plan), the band amplitudes of its law (_band_amplitudes), and a
run of k+1 medians (_l2_run, the one band sum, over a median source: ae_median
with rng and ledger).  The variance estimator checks the plan before its
proxy draw, reads each part's bands once, and hands power_median runs of it:
no Estimate per repetition.  A relative estimate is a plan of (B, epsilon)
alone (_relative_plan: every check but the support's, the proxy size, the l2
plan, the median size and the draws per run), which estimate_partition runs
on every ratio, and a run on a law (_relative_run): the proxy draw, then
_l2_runs whose medians come from one block of uniforms (_next_median:
amplitude._median_from_uniforms on the block's next reps), with the same
draws, values and charges as one ae_median per band.

Plus the generic median-amplification wrapper (power_median / powering_reps)
with the exact binomial tail (outcome.binom_upper_tail) rather than an
asymptotic constant.  The constant C is a committed literal, which the test
oracle recomputes from the exact outcome laws and checks bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .amplitude import AE_FAIL_PROB, _check_t, _median_from_uniforms, ae_median
from .outcome import (
    QueryLedger,
    ValueDistribution,
    _sample_count,
    binom_upper_tail,
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

_BOUNDED_MEAN_C = 5.080015067216502  # see bounded_mean_constant


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
    """Smallest odd n with Pr[Bin(n, gamma) >= ceil(n/2)] <= delta (memoized).

    The tail falls as n grows, so this bisects up to Hoeffding's n, which
    bounds the tail by exp(-2 n (1/2 - gamma)^2) <= delta."""
    if not 0.0 <= gamma < 0.5:
        raise ValueError("per-run failure probability must be < 1/2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    hoeffding = math.ceil(-math.log(delta) / (2.0 * (0.5 - gamma) ** 2)) // 2
    i = bisect.bisect_left(range(hoeffding), True, key=lambda i: (
        binom_upper_tail(2 * i + 1, i + 1, gamma) <= delta))
    return 2 * i + 1


def power_median(run: Callable[[], float], gamma: float, delta: float) -> float:
    """Median of enough runs to push failure probability gamma down to delta."""
    reps = powering_reps(gamma, delta)
    return sorted(run() for _ in range(reps))[reps // 2]


def bounded_mean_constant() -> float:
    """Constant C of the bounded-mean error bound C(sqrt(a)/t + 1/t^2).

    A committed literal: the smallest C such that, over a dense amplitude
    grid and t in {4, ..., 128}, the exact outcome law puts mass >= 8/pi^2
    inside |a~ - a| <= C(sqrt(a)/t + 1/t^2), times a 2% safety margin and
    capped at 2*pi + pi^2.  The test oracle recomputes it from the exact
    laws and checks the literal bit for bit.
    """
    return _BOUNDED_MEAN_C


def l2_constant() -> float:
    """Universal constant D = max(4C, 10) for the dyadic-truncation estimator."""
    return max(4.0 * bounded_mean_constant(), 10.0)


def _check_positive(**settings) -> None:
    for name, value in settings.items():
        if not value > 0.0:  # NaN fails too
            raise ValueError(f"{name} must be positive")


def t_for_additive_error(epsilon: float) -> int:
    """Smallest t with C(1/t + 1/t^2) <= epsilon (worst case over amplitudes)."""
    _check_positive(epsilon=epsilon)
    C = bounded_mean_constant()
    _check_t(max(1.0, C / epsilon))  # before int(): C / 5e-324 is inf
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


class _L2Plan(NamedTuple):
    """The epsilon-only part of an l2 estimate."""

    k: int       # bands 1..k above band 0
    t0: int      # amplitude-estimation iterations per median
    reps_0: int  # draws in band 0's median
    reps_l: int  # draws in each other band's median


def _l2_plan(epsilon: float) -> _L2Plan:
    """The l2 plan at epsilon, checked."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    t0 = l2_constant() * math.sqrt(math.log2(1.0 / epsilon)) / epsilon
    _check_t(t0)  # before ceil: a tiny epsilon makes t0 (and k) infinite
    k = math.ceil(math.log2(1.0 / epsilon))
    return _L2Plan(k, math.ceil(t0), powering_reps(AE_FAIL_PROB, 1.0 / 10.0),
                   powering_reps(AE_FAIL_PROB, 1.0 / (10.0 * k)))


def _band_amplitudes(values: np.ndarray, probs: np.ndarray,
                     k: int) -> np.ndarray:
    # band l (1 <= l <= k) holds 2^(l-1) <= v < 2^l, band 0 holds v < 1;
    # amplitude E[v/2^l; v in band l], clipped to 1 against rounding
    band = np.searchsorted(2.0 ** np.arange(k + 1), values, side="right")
    return np.minimum(1.0, np.bincount(band, weights=values / 2.0**band * probs,
                                       minlength=k + 1)[: k + 1])


def _l2_run(plan: _L2Plan, amps, median: Callable, source, ledger) -> float:
    """One l2 estimate mu0 + sum_l 2^l mu_l: median(a, t0, reps, source, ledger)
    per band, band 0 first; ae_median with a generator for source, or
    _next_median with an iterator of uniforms.  Fixed arity, not *args:
    CPython 3.11 does not inline a starred call, and its per-band cost
    showed in the mean benchmark."""
    k, t0, reps_0, reps_l = plan
    total = median(amps[0], t0, reps_0, source, ledger)
    for ell in range(1, k + 1):
        total += 2.0**ell * median(amps[ell], t0, reps_l, source, ledger)
    return float(total)


def _next_median(a: float, t: int, reps: int, us, ledger) -> float:
    """ae_median's value on the next reps uniforms of the iterator us,
    uncharged: the relative run charges ledger once for the whole block."""
    return _median_from_uniforms(a, t, list(islice(us, reps)))


def estimate_mean_l2(d: ValueDistribution, epsilon: float,
                     rng: np.random.Generator, ledger: QueryLedger) -> Estimate:
    """Mean of a nonnegative distribution, error eps*(||v||_2 + 1)^2 w.p. >= 4/5."""
    if d.values.min() < 0.0:
        raise ValueError("support must be nonnegative")
    plan = _l2_plan(epsilon)
    amps = _band_amplitudes(d.values, d.probs, plan.k)
    value = _l2_run(plan, amps, ae_median, rng, ledger)
    err = epsilon * (d.l2norm() + 1.0) ** 2
    return Estimate(value=value, target_error=err, error_kind="additive",
                    confidence=0.8, ledger=ledger.snapshot())


def estimate_mean_variance(d: ValueDistribution, sigma: float, epsilon: float,
                           rng: np.random.Generator,
                           ledger: QueryLedger) -> Estimate:
    """Mean with additive error epsilon when Var <= sigma^2; success >= 2/3."""
    _check_positive(sigma=sigma, epsilon=epsilon)
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite")
    if not epsilon < 4.0 * sigma:
        raise ValueError("epsilon must be < 4*sigma")
    eps_l2 = epsilon / (32.0 * sigma)
    if eps_l2 == 0.0:  # a subnormal epsilon, or a huge sigma
        raise ValueError(f"epsilon/(32 sigma) underflows to 0 at epsilon = "
                         f"{epsilon:g}, sigma = {sigma:g}")
    plan = _l2_plan(eps_l2)  # checked before any draw
    scaled = transform(d, lambda v: v / sigma)
    m = float(classical_sample_block(scaled, 1, rng, ledger)[0])
    ledger.a_uses += 1
    centered = transform(scaled, lambda v: v - m)
    neg_part = transform(truncate(centered, -np.inf, 0.0), lambda v: -v / 4.0)
    pos_part = transform(truncate(centered, 0.0, np.inf), lambda v: v / 4.0)

    def median_of(part):  # its bands read once, for all its l2 estimates
        amps = _band_amplitudes(part.values, part.probs, plan.k)
        return power_median(lambda: _l2_run(plan, amps, ae_median, rng, ledger),
                            gamma=1.0 / 5.0, delta=1.0 / 9.0)

    mu_neg, mu_pos = median_of(neg_part), median_of(pos_part)
    value = sigma * (m - 4.0 * mu_neg + 4.0 * mu_pos)
    return Estimate(value=float(value), target_error=epsilon,
                    error_kind="additive", confidence=2.0 / 3.0,
                    ledger=ledger.snapshot())


class _RelativePlan(NamedTuple):
    """The law-free part of a relative estimate, checked."""

    n: int        # proxy samples, ceil(32B)
    l2: _L2Plan   # of the normalized law
    reps: int     # l2 runs in the median
    draws: int    # uniforms per run, reps*(reps_0 + k*reps_l)


def _relative_plan(B: float, epsilon: float) -> _RelativePlan:
    """The relative plan at (B, epsilon): every check but the support's."""
    if not B >= 1.0:
        raise ValueError("B must be >= 1 (Cauchy-Schwarz lower bound)")
    _check_positive(epsilon=epsilon)
    n = _sample_count(32.0 * B)  # both caps are checked before any draw
    scale = 3.0 * (2.0 * math.sqrt(B) + 1.0) ** 2
    eps_l2 = 2.0 * epsilon / scale
    if not eps_l2 < 0.5:  # the l2 plan's own bound
        raise ValueError(f"epsilon must be < 3(2 sqrt(B) + 1)^2/4 = "
                         f"{scale / 4.0:g} at B = {B:g}")
    if eps_l2 == 0.0:  # a subnormal epsilon
        raise ValueError(f"2 epsilon/(3(2 sqrt(B) + 1)^2) underflows to 0 at "
                         f"epsilon = {epsilon:g}, B = {B:g}")
    l2, reps = _l2_plan(eps_l2), powering_reps(1.0 / 5.0, 1.0 / 8.0)
    return _RelativePlan(n, l2, reps, reps * (l2.reps_0 + l2.k * l2.reps_l))


def _relative_run(plan: _RelativePlan, d: ValueDistribution,
                  rng: np.random.Generator, ledger: QueryLedger) -> float:
    """One relative estimate m * mu of the law d: the proxy draw, then every
    median of its l2 runs from one block of plan.draws uniforms, charged once."""
    n, l2, _, draws = plan
    m = float(np.mean(classical_sample_block(d, n, rng, ledger)))
    if m == 0.0:
        raise ArithmeticError("proxy mean is zero; relative estimation undefined")
    # a positive scale keeps the support sorted: while it stays distinct and
    # finite, these are transform's arrays, without its merge
    with np.errstate(over="ignore"):  # an infinite image raises in transform
        values, probs = d.values / m, d.probs / d.probs.sum()
    if not (np.all(values[1:] > values[:-1]) and math.isfinite(values[-1])):
        normalized = transform(d, lambda v: v / m)  # merges, or raises
        values, probs = normalized.values, normalized.probs
    amps = _band_amplitudes(values, probs, l2.k).tolist()
    us = iter(rng.random(draws).tolist())  # ae_median's draws, in its order
    ledger.a_uses += draws
    ledger.a_inv_uses += draws
    ledger.reflection_uses += draws * l2.t0
    return m * power_median(lambda: _l2_run(l2, amps, _next_median, us, ledger),
                            gamma=1.0 / 5.0, delta=1.0 / 8.0)


def estimate_mean_relative(d: ValueDistribution, B: float, epsilon: float,
                           rng: np.random.Generator,
                           ledger: QueryLedger) -> Estimate:
    """Mean with relative error epsilon when E[Y^2]/E[Y]^2 <= B; success >= 3/4.

    Checks the support, then B >= 1 and 0 < epsilon < 3(2 sqrt(B) + 1)^2/4
    (27B/4 at B = 1, below it for B > 1): the inner l2 accuracy
    2 epsilon/(3(2 sqrt(B) + 1)^2) must stay under 1/2, and above 0 (a
    subnormal epsilon underflows it)."""
    if d.values.min() < 0.0:
        raise ValueError("support must be nonnegative")
    value = _relative_run(_relative_plan(B, epsilon), d, rng, ledger)
    return Estimate(value=value, target_error=epsilon, error_kind="relative",
                    confidence=0.75, ledger=ledger.snapshot())


def classical_mean_chebyshev(d: ValueDistribution, sigma: float, epsilon: float,
                             rng: np.random.Generator,
                             ledger: QueryLedger) -> Estimate:
    """Baseline: empirical mean of ceil(3 sigma^2 / eps^2) classical samples."""
    _check_positive(sigma=sigma, epsilon=epsilon)
    try:
        n = 3.0 * sigma**2 / epsilon**2
    except ArithmeticError:  # sigma^2 overflowed, or epsilon^2 underflowed to 0
        n = 3.0 * (sigma / epsilon) * (sigma / epsilon)  # inf past float range
    samples = classical_sample_block(d, max(1, n), rng, ledger)
    return Estimate(value=float(np.mean(samples)), target_error=epsilon,
                    error_kind="additive", confidence=2.0 / 3.0,
                    ledger=ledger.snapshot())
