"""Total variation distance estimation with amplitude-estimated probabilities.

The subroutine draws x from r = (p+q)/2, produces median-amplified
amplitude estimates p~(x), q~(x) with t = ceil(20*pi*sqrt(n/eps)) iterations,
and outputs |p~ - q~| / (p~ + q~).  Its exact output law is a finite mixture
(over x, and over the two median laws), so the subroutine mean E~ is
computable in closed form; the top-level estimator then takes one
bounded-mean median on that amplitude (amplitude._median_from_uniforms on
reps_outer uniforms) and charges every count from tvd_query_budget.
Internal accuracy is eps/8, making the subroutine bias |E~ - ||p-q||| at
most eps/2; the outer estimation contributes the other eps/2.  A fresh law
streams its outcome laws through median_laws and takes each ratio only where
its weight passes the pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amplitude import AE_FAIL_PROB, _median_from_uniforms, ae_outcome_distribution
from .mean import Estimate, powering_reps, t_for_additive_error
from .outcome import (_PRUNE, QueryLedger, ValueDistribution, from_arrays,  # noqa: F401
                      median_law, median_laws)  # median_law: perfbench/tracer.py wraps it here

__all__ = [
    "TvdInstance",
    "exact_tvd",
    "tvd_subroutine_distribution",
    "tvd_query_budget",
    "estimate_tvd",
    "ratio_stability_check",
]


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


def tvd_subroutine_distribution(inst: TvdInstance) -> ValueDistribution:
    """Exact output law of one subroutine call (memoized per instance)."""
    return _subroutine_law(inst.p.tobytes(), inst.q.tobytes(), inst.epsilon)


@lru_cache(maxsize=64)  # exact laws kept; the least recently used goes first
def _subroutine_law(p: bytes, q: bytes, epsilon: float) -> ValueDistribution:
    inst = TvdInstance(np.frombuffer(p), np.frombuffer(q), epsilon)
    r = inst.r
    rows = [x for x in range(inst.n) if r[x] > 0.0]
    amps = list(dict.fromkeys(a for x in rows for a in (inst.p[x], inst.q[x])))
    outcome_laws = (ae_outcome_distribution(a, inst.t) for a in amps)  # one at a time
    laws = dict(zip(amps, median_laws(outcome_laws, inst.reps)))
    values, probs = [], []
    for x in rows:
        lp, lq = laws[inst.p[x]], laws[inst.q[x]]
        w = r[x] * np.outer(lp.probs, lq.probs)
        i, j = np.nonzero(w > _PRUNE)  # the ratio only where weight survives
        vp, vq = lp.values[i], lq.values[j]
        den = vp + vq
        with np.errstate(invalid="ignore", divide="ignore"):
            values.append(np.where(den > 0, np.abs(vp - vq) / np.maximum(den, 1e-300), 0.0))
        probs.append(w[i, j])
    probs = np.concatenate(probs)
    return from_arrays(np.concatenate(values), probs / probs.sum())


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
    budget = tvd_query_budget(inst.n, epsilon, delta)  # checks delta before the law
    law = tvd_subroutine_distribution(inst)
    value = _median_from_uniforms(law.mean(), budget["t_outer"],
                                  rng.random(budget["reps_outer"]).tolist())
    ledger.a_uses += budget["reps_outer"]
    ledger.a_inv_uses += budget["reps_outer"]
    ledger.reflection_uses += budget["ae_iterations"]
    ledger.classical_samples += budget["subroutine_invocations"]
    return Estimate(value=float(value), target_error=epsilon,
                    error_kind="additive", confidence=1.0 - delta,
                    ledger=ledger.snapshot())


def ratio_stability_check(p: float, q: float, p_t: float, q_t: float,
                          eta: float) -> bool:
    """Does |f(p,q) - f(p_t,q_t)| <= 5*eta hold, f = |p-q|/(p+q)?

    Preconditions |p - p_t| <= eta*(p+q), |q - q_t| <= eta*(p+q), eta <= 1/5
    are enforced, not silently assumed.
    """
    if not 0.0 <= eta <= 0.2 + 1e-15:  # NaN fails too
        raise ValueError("eta must lie in [0, 1/5]")
    s = p + q
    if abs(p - p_t) > eta * s + 1e-15 or abs(q - q_t) > eta * s + 1e-15:
        raise ValueError("perturbation exceeds eta*(p+q)")

    def f(a, b):
        return abs(a - b) / (a + b) if a + b > 0 else 0.0

    return abs(f(p, q) - f(p_t, q_t)) <= 5.0 * eta + 1e-12
