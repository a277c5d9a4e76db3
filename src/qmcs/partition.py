"""Partition-function estimation through Chebyshev cooling schedules.

Z(inf) (or, for matchings, Z(0)) is reached as a telescoping product of
ratios alpha_i = Z(beta_{i+1})/Z(beta_i), each the mean of a ratio random
variable Y_i with relative second moment bounded by the schedule's B.
Schedules are built greedily against the exact Z oracle: from beta_i,
bisect the largest beta_{i+1} keeping the Chebyshev ratio at most B
(monotone in beta_{i+1} because ln Z is convex), terminating as soon as
the pair (beta_i, inf) itself satisfies Z(beta_i)/Z(inf) <= B.

The matchings pipeline runs the schedule in reverse: the anchor is
Z(inf) = 1 (the empty matching) and each Y_i is sampled under the colder
distribution.  The terminal pair (beta_{l-1}, inf) cannot use the reversed
ratio variable (its relative second moment diverges), so that single ratio
is estimated forward -- the ground-state indicator under pi_{beta_{l-1}} --
and inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chains import chain_for, mix_sample, mixing_steps, relaxation_time
from .gibbs import (GibbsModel, chebyshev_ratio, exact_partition,
                    gibbs_distribution, overlap_squared)
from .mean import estimate_mean_relative, power_median, powering_reps
from .outcome import (QueryLedger, ValueDistribution, classical_sample_block,
                      from_arrays)
from .walk import (ReflectionSpec, approx_reflection, reflection_cost,
                   warm_start_cost)

__all__ = [
    "CoolingSchedule",
    "PartitionEstimate",
    "ScheduleError",
    "ratio_variable",
    "reversed_ratio_variable",
    "chebyshev_ratio",
    "build_schedule",
    "verify_schedule",
    "estimate_partition",
    "classical_baseline",
]

BETA_CAP = 1e6
_BISECT_ITERS = 60


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class CoolingSchedule:
    betas: tuple
    B: float
    direction: str = "forward"  # "forward" | "reversed"

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.betas) < 2:
            raise ScheduleError("schedule needs at least two temperatures")
        if any(b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise ScheduleError("betas must be strictly increasing")
        if self.betas[0] != 0.0:
            raise ScheduleError("schedule must start at beta = 0")
        if self.B <= 1.0:
            raise ScheduleError("B must exceed 1")
        if self.direction not in ("forward", "reversed"):
            raise ScheduleError("direction must be 'forward' or 'reversed'")

    @property
    def ell(self) -> int:
        return len(self.betas) - 1


@dataclass
class PartitionEstimate:
    z_value: float
    ratios: list
    epsilon: float
    delta: float
    ledger: QueryLedger = field(default_factory=QueryLedger)
    meta: dict = field(default_factory=dict)


def _state_values(m: GibbsModel, beta_i, beta_j, reverse=False) -> np.ndarray:
    """Per-state value of the (reversed) ratio variable for the pair."""
    if beta_j == math.inf:
        return (m.energies == 0).astype(float)
    return np.exp((beta_j - beta_i if reverse else -(beta_j - beta_i))
                  * m.energies)


def ratio_variable(m: GibbsModel, beta_i, beta_j) -> ValueDistribution:
    """Y(x) = e^{-(beta_j - beta_i) H(x)} with x ~ pi_{beta_i}.

    E[Y] = Z(beta_j)/Z(beta_i); E[Y^2]/E[Y]^2 = Z(2beta_j - beta_i)
    Z(beta_i)/Z(beta_j)^2.  beta_j = inf gives the ground-state indicator.
    """
    if not beta_i < beta_j:
        raise ScheduleError("requires beta_i < beta_j")
    pi = gibbs_distribution(m, beta_i)
    return from_arrays(_state_values(m, beta_i, beta_j), pi)


def reversed_ratio_variable(m: GibbsModel, beta_i, beta_j) -> ValueDistribution:
    """Y(x) = e^{+(beta_j - beta_i) H(x)} with x ~ pi_{beta_j}; E[Y] = Z(beta_i)/Z(beta_j)."""
    if not beta_i < beta_j:
        raise ScheduleError("requires beta_i < beta_j")
    if beta_j == math.inf:
        raise ScheduleError("reversed ratio variable undefined at beta_j = inf")
    pi = gibbs_distribution(m, beta_j)
    return from_arrays(_state_values(m, beta_i, beta_j, True), pi)


def build_schedule(m: GibbsModel, B: float, direction="forward") -> CoolingSchedule:
    if B <= 1.0:
        raise ScheduleError("B must exceed 1")
    if exact_partition(m, math.inf) < 1.0:
        raise ScheduleError("model has no ground states to anchor the schedule")
    betas = [0.0]
    while True:
        b_i = betas[-1]
        if exact_partition(m, b_i) / exact_partition(m, math.inf) <= B:
            betas.append(math.inf)
            return CoolingSchedule(tuple(betas), B, direction)
        lo, hi = b_i, max(2.0 * b_i, 1.0)
        # expand until the monotone ratio crosses B
        while chebyshev_ratio(m, b_i, hi, direction) <= B:
            hi *= 2.0
            if hi > BETA_CAP:
                raise ScheduleError("terminal condition unreachable below beta cap")
        for _ in range(_BISECT_ITERS):
            mid = (lo + hi) / 2.0
            if chebyshev_ratio(m, b_i, mid, direction) <= B:
                lo = mid
            else:
                hi = mid
        if lo <= b_i:
            raise ScheduleError("schedule stalled: no admissible next beta")
        betas.append(lo)


def verify_schedule(m: GibbsModel, s: CoolingSchedule) -> dict:
    """Per-pair Chebyshev ratios, chi-squared values, and overlap checks."""
    pairs = []
    ok = True
    for i in range(s.ell):
        bi, bj = s.betas[i], s.betas[i + 1]
        ratio = chebyshev_ratio(m, bi, bj, s.direction)
        terminal = bj == math.inf
        # the forward ratio minus 1 equals chi^2(pi_j, pi_i)
        chi2 = chebyshev_ratio(m, bi, bj, "forward") - 1.0
        ov = overlap_squared(m, bi, bj)
        pair_ok = ratio <= s.B * (1.0 + 1e-12) and ov >= 1.0 / s.B - 1e-12
        ok = ok and pair_ok
        pairs.append({
            "beta_i": bi, "beta_j": bj, "ratio": ratio, "chi_squared": chi2,
            "overlap_squared": ov, "terminal_pair": terminal, "ok": pair_ok,
        })
    return {"ok": ok, "B": s.B, "direction": s.direction, "ell": s.ell,
            "pairs": pairs}


class _Ratio(NamedTuple):
    """One schedule pair as it is estimated."""

    beta_i: float
    beta_j: float
    rung: int        # schedule index of the Gibbs law the variable samples
    reverse: bool    # reversed variable, E[Y] = Z(beta_i)/Z(beta_j)
    inverted: bool   # E[Y] = Z(inf)/Z(beta_i): the factor is its inverse

    def variable(self, m: GibbsModel) -> ValueDistribution:
        if self.reverse:
            return reversed_ratio_variable(m, self.beta_i, self.beta_j)
        return ratio_variable(m, self.beta_i, self.beta_j)

    def factor(self, alpha: float) -> float:
        """The telescoping factor given an estimate of E[Y]."""
        if not self.inverted:
            return float(alpha)
        if alpha <= 0.0:
            raise ArithmeticError("terminal ratio estimate collapsed to 0")
        return float(1.0 / alpha)


def _rung_plan(m: GibbsModel, s: CoolingSchedule):
    """The verified schedule's pairs as estimated, and the anchor Z(0)
    (forward) or Z(inf) (reversed) that their product multiplies.

    Forward pairs, and the terminal pair (beta, inf) in either direction,
    sample the ratio variable under pi_{beta_i}; other reversed pairs sample
    the reversed variable under pi_{beta_j}.  The reversed schedule's terminal
    estimate is Z(inf)/Z(beta), so it is inverted.
    """
    if not verify_schedule(m, s)["ok"]:
        raise ScheduleError("schedule fails verification")
    reverse = s.direction == "reversed"
    plan = []
    for i in range(s.ell):
        bi, bj = s.betas[i], s.betas[i + 1]
        terminal = bj == math.inf
        rev = reverse and not terminal
        plan.append(_Ratio(bi, bj, i + 1 if rev else i, rev,
                           reverse and terminal))
    anchor = exact_partition(m, math.inf if reverse else 0.0)
    return plan, anchor


def estimate_partition(m: GibbsModel, s: CoolingSchedule, epsilon: float,
                       delta: float, mode: str, rng: np.random.Generator,
                       ledger: QueryLedger) -> PartitionEstimate:
    """Telescoping estimate of Z(inf) (forward) or Z(0) (reversed).

    Each ratio is estimated by the relative-error mean estimator at accuracy
    epsilon/(2*ell), median-amplified from per-run success 3/4 to delta/ell.
    Walk modes convert each ratio's oracle charges into walk steps: every
    state preparation becomes a warm start along the schedule prefix and
    every reflection an approximate reflection on that rung's chain.
    """
    if mode not in ("ideal_sampling", "walk_idealized", "walk_exact_sim"):
        raise ValueError(f"unknown mode {mode!r}")
    plan, anchor = _rung_plan(m, s)
    ell = s.ell
    eps_i = epsilon / (2.0 * ell)
    delta_i = delta / ell
    reps = powering_reps(0.25, delta_i)
    taus = exact_sim_charges = None
    if mode != "ideal_sampling":
        chains = [chain_for(m, beta) for beta in s.betas[:-1]]
        taus = [relaxation_time(c) for c in chains]
    if mode == "walk_exact_sim":
        # per-rung cost (2^b controlled walk powers) of the simulated reflection
        spec = ReflectionSpec(min(0.25, eps_i), "exact_sim")
        exact_sim_charges = [approx_reflection(c, spec, QueryLedger()).charge
                             for c in chains]

    ratios = []
    for r in plan:
        dist = r.variable(m)
        before = ledger.snapshot()

        def run():
            return estimate_mean_relative(dist, s.B, eps_i, rng, ledger)

        alpha = power_median(run, gamma=0.25, delta=delta_i)
        if taus is not None:
            _convert_walk_charges(ledger, before, taus, r.rung, s.B,
                                  exact_sim_charges)
        ratios.append(r.factor(alpha))

    target = "Z(inf)" if s.direction == "forward" else "Z(0)"
    return PartitionEstimate(z_value=anchor * float(np.prod(ratios)),
                             ratios=ratios, epsilon=epsilon,
                             delta=delta, ledger=ledger.snapshot(),
                             meta={"mode": mode, "target": target,
                                   "reps_per_ratio": reps})


def _convert_walk_charges(ledger: QueryLedger, before: QueryLedger, taus,
                          rung: int, B: float, exact_sim_charges):
    """Translate oracle uses into walk steps for one ratio estimation.

    Each A / A^-1 use becomes a warm-start preparation of |pi_rung> along
    the schedule prefix; each reflection becomes an approximate reflection
    on rung's chain.
    """
    da = (ledger.a_uses - before.a_uses) + (ledger.a_inv_uses - before.a_inv_uses)
    dr = ledger.reflection_uses - before.reflection_uses
    tau = taus[min(rung, len(taus) - 1)]
    # reflection accuracy gamma/R: the total coherent error R*eps_r stays a
    # constant slice of the failure budget however many reflections run
    eps_r = 0.1 / max(dr, 1)
    if exact_sim_charges is not None:
        per_reflection = exact_sim_charges[min(rung, len(taus) - 1)]
    else:
        per_reflection = reflection_cost(tau, eps_r)
    prep = warm_start_cost(rung, max(taus[: max(rung, 1)], default=tau),
                           eps_r, B)
    ledger.walk_steps += da * prep + dr * per_reflection


def classical_baseline(m: GibbsModel, s: CoolingSchedule, epsilon: float,
                       rng: np.random.Generator, ledger: QueryLedger,
                       sampling: str = "ideal") -> PartitionEstimate:
    """Product of per-ratio sample means, 16*B*ell/eps^2 samples per ratio."""
    if sampling not in ("ideal", "mix"):
        raise ValueError(f"unknown sampling {sampling!r}")
    plan, anchor = _rung_plan(m, s)
    n = math.ceil(16.0 * s.B * s.ell / epsilon**2)
    ratios = []
    for r in plan:
        if sampling == "ideal":
            draws = classical_sample_block(r.variable(m), n, rng, ledger)
            alpha = float(np.mean(draws))
        else:
            values = _state_values(m, r.beta_i, r.beta_j, r.reverse)
            alpha = _mix_sampled_mean(m, s.betas[r.rung], values, n, rng,
                                      ledger)
        ratios.append(r.factor(alpha))
    return PartitionEstimate(z_value=float(anchor * np.prod(ratios)),
                             ratios=ratios, epsilon=epsilon, delta=0.25,
                             ledger=ledger.snapshot(),
                             meta={"mode": "classical", "sampling": sampling,
                                   "samples_per_ratio": n})


def _mix_sampled_mean(m, beta, values, n, rng, ledger):
    """Mean of per-state values over n finitely-mixed chain samples at beta."""
    chain = chain_for(m, beta)
    steps = mixing_steps(chain, 0.01)
    total = 0.0
    for _ in range(n):
        start = int(rng.integers(chain.n))
        x = mix_sample(chain, start, steps, rng, ledger)
        ledger.classical_samples += 1
        total += float(values[x])
    return total / n
