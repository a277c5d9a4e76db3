"""Total variation distance estimation with amplitude-estimated probabilities.

The subroutine draws x from r = (p+q)/2, produces median-amplified
amplitude estimates p~(x), q~(x) with t = ceil(20*pi*sqrt(n/eps)) iterations,
and outputs |p~ - q~| / (p~ + q~).  Its exact output law is a finite mixture
(over x, and over the two median laws), so the subroutine mean E~ is
computable in closed form; the top-level estimator then runs bounded-mean
estimation on that amplitude.  Internal accuracy is eps/8, making the
subroutine bias |E~ - ||p-q||| at most eps/2; the outer estimation
contributes the other eps/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .amplitude import AE_FAIL_PROB, ae_median, ae_outcome_distribution
from .mean import Estimate, powering_reps, t_for_additive_error
from .outcome import QueryLedger, ValueDistribution, from_arrays

__all__ = [
    "TvdInstance",
    "exact_tvd",
    "median_law",
    "tvd_subroutine_distribution",
    "tvd_query_budget",
    "estimate_tvd",
    "ratio_stability_check",
]

_PRUNE = 1e-16
_LAW_CACHE_SIZE = 64  # exact subroutine laws kept; the oldest goes first


def _inner_t(n: int, epsilon: float) -> int:
    """Iterations t = ceil(20 pi sqrt(n/eps)) of each inner estimation."""
    return math.ceil(20.0 * math.pi * math.sqrt(n / epsilon))


@dataclass(frozen=True)
class TvdInstance:
    p: np.ndarray
    q: np.ndarray
    epsilon: float  # internal accuracy parameter of the subroutine

    def __post_init__(self):
        p, q = np.asarray(self.p, float), np.asarray(self.q, float)
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be 1-d over the same index set")
        for arr in (p, q):
            if not (arr.min() >= 0 and abs(arr.sum() - 1.0) <= 1e-9):
                raise ValueError("inputs must be probability distributions")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def r(self) -> np.ndarray:
        return (self.p + self.q) / 2.0

    @property
    def t(self) -> int:
        return _inner_t(self.n, self.epsilon)

    @property
    def reps(self) -> int:
        """Median amplification per probability estimate (failure eps each)."""
        return powering_reps(AE_FAIL_PROB, self.epsilon)


def exact_tvd(p, q) -> float:
    p, q = np.asarray(p, float), np.asarray(q, float)
    if p.shape != q.shape:
        raise ValueError("mismatched index sets")
    return float(0.5 * np.abs(p - q).sum())


def median_law(d: ValueDistribution, m: int) -> ValueDistribution:
    """Exact law of the median of m iid draws from d (m odd)."""
    if m < 1 or m % 2 == 0:
        raise ValueError("median of an even sample is ambiguous; m must be odd")
    if m == 1:
        return d
    cdf = np.cumsum(d.probs)
    need = (m + 1) // 2
    tail = binom.sf(need - 1, m, np.clip(cdf, 0.0, 1.0))  # Pr[median <= v_k]
    pmf = np.diff(np.concatenate([[0.0], tail]))
    pmf = np.clip(pmf, 0.0, None)
    keep = pmf > _PRUNE
    return from_arrays(d.values[keep], pmf[keep] / pmf[keep].sum())


def _ratio_values(vp: np.ndarray, vq: np.ndarray) -> np.ndarray:
    num = np.abs(vp[:, None] - vq[None, :])
    den = vp[:, None] + vq[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return out


_LAW_CACHE: dict = {}


def tvd_subroutine_distribution(inst: TvdInstance) -> ValueDistribution:
    """Exact output law of one subroutine call (memoized per instance)."""
    key = (inst.p.tobytes(), inst.q.tobytes(), inst.epsilon)
    cached = _LAW_CACHE.get(key)
    if cached is not None:
        return cached
    t, reps = inst.t, inst.reps
    r = inst.r
    values, probs = [], []
    laws = {}
    for x in range(inst.n):
        if r[x] <= 0.0:
            continue
        for a in (inst.p[x], inst.q[x]):
            if a not in laws:
                laws[a] = median_law(ae_outcome_distribution(a, t), reps)
        lp, lq = laws[inst.p[x]], laws[inst.q[x]]
        vals = _ratio_values(lp.values, lq.values)
        w = r[x] * np.outer(lp.probs, lq.probs)
        keep = w > _PRUNE
        values.append(vals[keep])
        probs.append(w[keep])
    values = np.concatenate(values)
    probs = np.concatenate(probs)
    law = from_arrays(values, probs / probs.sum())
    if len(_LAW_CACHE) >= _LAW_CACHE_SIZE:
        del _LAW_CACHE[next(iter(_LAW_CACHE))]
    _LAW_CACHE[key] = law
    return law


def tvd_query_budget(n: int, epsilon: float, delta: float) -> dict:
    """Deterministic query counts of estimate_tvd without running it."""
    eps_int = epsilon / 8.0
    inst_t = _inner_t(n, eps_int)
    reps_in = powering_reps(AE_FAIL_PROB, eps_int)
    t_out = t_for_additive_error(epsilon / 2.0)
    reps_out = powering_reps(AE_FAIL_PROB, delta)
    # each outer iteration invokes the subroutine (and its inverse); each
    # invocation draws one x and runs two median-amplified inner estimations
    invocations = reps_out * (2 * t_out + 1)
    return {
        "t_inner": inst_t, "reps_inner": reps_in, "t_outer": t_out,
        "reps_outer": reps_out, "subroutine_invocations": invocations,
        "ae_iterations": invocations * 2 * reps_in * inst_t,
    }


def estimate_tvd(p, q, epsilon: float, delta: float,
                 rng: np.random.Generator, ledger: QueryLedger) -> Estimate:
    """||p - q|| to additive error epsilon with probability >= 1 - delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    inst = TvdInstance(np.asarray(p, float), np.asarray(q, float), epsilon / 8.0)
    law = tvd_subroutine_distribution(inst)
    budget = tvd_query_budget(inst.n, epsilon, delta)
    scratch = QueryLedger()
    value = ae_median(law.mean(), budget["t_outer"], budget["reps_outer"], rng,
                      scratch)
    ledger.reflection_uses += budget["ae_iterations"]
    ledger.classical_samples += budget["subroutine_invocations"]
    ledger.a_uses += scratch.a_uses
    ledger.a_inv_uses += scratch.a_inv_uses
    return Estimate(value=float(value), target_error=epsilon,
                    error_kind="additive", confidence=1.0 - delta,
                    ledger=ledger.snapshot())


def ratio_stability_check(p: float, q: float, p_t: float, q_t: float,
                          eta: float) -> bool:
    """Does |f(p,q) - f(p_t,q_t)| <= 5*eta hold, f = |p-q|/(p+q)?

    Preconditions |p - p_t| <= eta*(p+q), |q - q_t| <= eta*(p+q), eta <= 1/5
    are enforced, not silently assumed.
    """
    if eta > 0.2 + 1e-15 or eta < 0.0:
        raise ValueError("eta must lie in [0, 1/5]")
    s = p + q
    if abs(p - p_t) > eta * s + 1e-15 or abs(q - q_t) > eta * s + 1e-15:
        raise ValueError("perturbation exceeds eta*(p+q)")

    def f(a, b):
        return abs(a - b) / (a + b) if a + b > 0 else 0.0

    return abs(f(p, q) - f(p_t, q_t)) <= 5.0 * eta + 1e-12
