"""Total variation distance estimation with amplitude-estimated probabilities.

The subroutine draws x from r = (p+q)/2, produces amplitude estimates p~(x),
q~(x), each a median of reps runs of t = ceil(20*pi*sqrt(n/eps)) iterations
(both from _inner, which refuses a t past the outcome-law cap), and outputs
|p~ - q~| / (p~ + q~).  Its exact output law, a finite mixture over x and the
two median laws, is tvd_subroutine_distribution(p, q, eps); it checks the
pair, whose shape _pair checks at every entry point.  The median laws are
amplitude's law of an ae_median (_ae_median_laws); a ratio is taken only
where its weight passes the pruning.  Internal accuracy is eps/8, so the
law's mean E~ is within eps/2 of ||p-q||; the outer estimation, one
bounded-mean median charged from the memoized tvd_query_budget, contributes
the other eps/2.  Only E~ is cached: estimate_tvd checks epsilon, the
pair's shape, the budget's caps (naming epsilon) and delta on every call,
and p and q as distributions only on a miss, where E~ is computed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .amplitude import AE_FAIL_PROB, _ae_median_laws, _check_law_t, _median_from_uniforms
from .mean import Estimate, powering_reps, t_for_additive_error
from .outcome import (_PRUNE, QueryLedger, ValueDistribution, from_arrays,  # noqa: F401
                      median_law)  # median_law: the tracer wraps it here

__all__ = [
    "exact_tvd",
    "tvd_subroutine_distribution",
    "tvd_query_budget",
    "estimate_tvd",
    "ratio_stability_check",
]


def _inner(n: int, epsilon: float) -> tuple:
    """Iterations t = ceil(20 pi sqrt(n/eps)) of each inner estimation, and
    its median size reps (failure eps each); t's outcome law must be within
    the law cap, or no subroutine law can be built."""
    t = math.ceil(20.0 * math.pi * math.sqrt(n / epsilon))
    _check_law_t(t)
    return t, powering_reps(AE_FAIL_PROB, epsilon)


def _pair(p, q) -> tuple:
    """p and q as float arrays, 1-d over the same non-empty index set."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d over the same index set")
    if p.size == 0:
        raise ValueError("p and q must have at least one index")
    return p, q


def exact_tvd(p, q) -> float:
    p, q = _pair(p, q)
    return float(0.5 * np.abs(p - q).sum())


def tvd_subroutine_distribution(p, q, epsilon: float) -> ValueDistribution:
    """Exact output law of one subroutine call at internal accuracy epsilon,
    built afresh on each call; p and q are checked, and left as they are."""
    p, q = _pair(p, q)
    for arr in (p, q):
        if not (arr.min() >= 0 and abs(arr.sum() - 1.0) <= 1e-9):
            raise ValueError("inputs must be probability distributions")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    r = (p + q) / 2.0
    t, reps = _inner(len(p), epsilon)
    rows = [x for x in range(len(p)) if r[x] > 0.0]
    amps = list(dict.fromkeys(a for x in rows for a in (p[x], q[x])))
    laws = dict(zip(amps, _ae_median_laws(amps, t, reps)))
    values, probs = [], []
    for x in rows:
        lp, lq = laws[p[x]], laws[q[x]]
        # r*(p_i*q_j) rises with p_i and with q_j, rounding included: a row
        # or column that fails against the other law's largest mass has no
        # survivor, and what is left is still r*(p_i*q_j), float for float
        kp = r[x] * (lp.probs * lq.probs.max()) > _PRUNE
        kq = r[x] * (lp.probs.max() * lq.probs) > _PRUNE
        w = r[x] * np.outer(lp.probs[kp], lq.probs[kq])
        i, j = np.nonzero(w > _PRUNE)  # the ratio only where weight survives
        vp, vq = lp.values[kp][i], lq.values[kq][j]
        den = vp + vq
        with np.errstate(invalid="ignore", divide="ignore"):
            values.append(np.where(den > 0, np.abs(vp - vq) / np.maximum(den, 1e-300), 0.0))
        probs.append(w[i, j])
    probs = np.concatenate(probs)
    return from_arrays(np.concatenate(values), probs / probs.sum())


@lru_cache(maxsize=64)  # E~ alone, one float per (p, q, eps); least recently used first
def _subroutine_mean(p: bytes, q: bytes, epsilon: float) -> float:
    return tvd_subroutine_distribution(np.frombuffer(p), np.frombuffer(q), epsilon).mean()


def tvd_query_budget(n: int, epsilon: float, delta: float) -> dict:
    """Deterministic query counts of estimate_tvd without running it."""
    return _budget(n, epsilon, delta).copy()  # a fresh dict: callers keep it


@lru_cache(maxsize=64)  # a counts dict per (n, eps, delta), never handed out
def _budget(n: int, epsilon: float, delta: float) -> dict:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    try:  # a t past a cap is the caller's epsilon's doing: name it
        t_in, reps_in = _inner(n, epsilon / 8.0)  # the law's internal accuracy
        t_out = t_for_additive_error(epsilon / 2.0)
    except ValueError as e:
        raise ValueError(f"epsilon={epsilon:g}: {e}") from e
    reps_out = powering_reps(AE_FAIL_PROB, delta)
    # each outer iteration invokes the subroutine (and its inverse); each
    # invocation draws one x and runs two median-amplified inner estimations
    invocations = reps_out * (2 * t_out + 1)
    return {
        "t_inner": t_in, "reps_inner": reps_in, "t_outer": t_out,
        "reps_outer": reps_out, "subroutine_invocations": invocations,
        "ae_iterations": invocations * 2 * reps_in * t_in,
    }


def estimate_tvd(p, q, epsilon: float, delta: float,
                 rng: np.random.Generator, ledger: QueryLedger) -> Estimate:
    """||p - q|| to additive error epsilon with probability >= 1 - delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    p, q = _pair(p, q)
    budget = _budget(len(p), epsilon, delta)  # checks delta before the law
    # the law checks the pair as distributions on a miss; an exception is
    # never cached, so a bad pair raises on every call
    mean = _subroutine_mean(p.tobytes(), q.tobytes(), epsilon / 8.0)
    value = _median_from_uniforms(mean, budget["t_outer"],
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
