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
and inverted.  Every schedule runs from beta = 0 to inf.  A ratio variable
sees a state only through H, so its law lives on the occupied energy levels
(gibbs._level_law).

An estimate runs one plan (_partition_plan): every check, one relative plan
for all ratios, each ratio's walk steps in closed form.  What it reads of the
model and schedule alone is memoized on the model (at most gibbs.MEMO_CAP
entries, the oldest evicted) under two keys that only this module knows:
("plan", s), the verified pairs, their anchor and each pair's ratio law (at
most |E|+1 points); and ("rungs", betas below inf), each rung chain's tau
and smallest walk phase, which price the walk modes' reflections at any
epsilon.  No chain or eigenvector is kept, and a failed set-up is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chains import chain_for, relaxation_time
from .gibbs import (GibbsModel, _level_law, chebyshev_ratio, exact_partition,
                    overlap_squared)
from .mean import (_check_positive, _relative_plan, _relative_run,
                   _RelativePlan, power_median, powering_reps)
from .outcome import (QueryLedger, ValueDistribution, _sample_count,
                      classical_sample_block, from_arrays)
from .walk import phase_bits, reflection_cost, walk_phases, warm_start_cost

__all__ = [
    "CoolingSchedule",
    "PartitionEstimate",
    "ScheduleError",
    "ratio_variable",
    "reversed_ratio_variable",
    "build_schedule",
    "verify_schedule",
    "estimate_partition",
    "classical_baseline",
]

BETA_CAP = 1e6
SCHEDULE_CAP = 256  # rungs; the suite's longest schedule has 7
REPS_CAP = 1001  # relative estimates per ratio: delta/ell down to about 1e-64
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
        if (self.betas[0], self.betas[-1]) != (0.0, math.inf):
            raise ScheduleError("schedule must start at beta = 0 and end at "
                                "beta = inf")
        if not self.B > 1.0:  # NaN fails too
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


def _ratio_at_levels(h: np.ndarray, beta_i, beta_j, reverse=False) -> np.ndarray:
    """Value of the (reversed) ratio variable for the pair at the energies h."""
    if beta_j == math.inf:
        return (h == 0).astype(float)
    return np.exp((beta_j - beta_i if reverse else -(beta_j - beta_i)) * h)


def ratio_variable(m: GibbsModel, beta_i, beta_j) -> ValueDistribution:
    """Y(x) = e^{-(beta_j - beta_i) H(x)} with x ~ pi_{beta_i}.

    E[Y] = Z(beta_j)/Z(beta_i); E[Y^2]/E[Y]^2 = Z(2beta_j - beta_i)
    Z(beta_i)/Z(beta_j)^2.  beta_j = inf gives the ground-state indicator.
    """
    if not beta_i < beta_j:
        raise ScheduleError("requires beta_i < beta_j")
    return from_arrays(_ratio_at_levels(m.levels, beta_i, beta_j),
                       _level_law(m, beta_i))


def reversed_ratio_variable(m: GibbsModel, beta_i, beta_j) -> ValueDistribution:
    """Y(x) = e^{+(beta_j - beta_i) H(x)} with x ~ pi_{beta_j}; E[Y] = Z(beta_i)/Z(beta_j)."""
    if not beta_i < beta_j:
        raise ScheduleError("requires beta_i < beta_j")
    if beta_j == math.inf:
        raise ScheduleError("reversed ratio variable undefined at beta_j = inf")
    return from_arrays(_ratio_at_levels(m.levels, beta_i, beta_j, True),
                       _level_law(m, beta_j))


def build_schedule(m: GibbsModel, B: float, direction="forward") -> CoolingSchedule:
    if not B > 1.0:  # NaN fails too
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
        if len(betas) > SCHEDULE_CAP:
            raise ScheduleError(f"schedule at B={B!r} exceeds the {SCHEDULE_CAP}-rung cap")


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

    rung: int        # schedule index of the Gibbs law the variable samples
    inverted: bool   # E[Y] = Z(inf)/Z(beta_i): the factor is its inverse
    law: ValueDistribution  # the ratio variable, on the occupied levels

    def factor(self, alpha: float) -> float:
        """The telescoping factor given an estimate of E[Y]."""
        if not self.inverted:
            return float(alpha)
        if alpha <= 0.0:
            raise ArithmeticError("terminal ratio estimate collapsed to 0")
        return float(1.0 / alpha)


def _rung_plan(m: GibbsModel, s: CoolingSchedule):
    """The verified schedule's pairs as estimated, and the anchor Z(0)
    (forward) or Z(inf) (reversed) that their product multiplies; memoized
    on the model per schedule.

    Forward pairs, and the terminal pair (beta, inf) in either direction,
    sample the ratio variable under pi_{beta_i}; other reversed pairs sample
    the reversed variable under pi_{beta_j}.  The reversed schedule's terminal
    estimate is Z(inf)/Z(beta), so it is inverted.
    """
    def build():
        if not verify_schedule(m, s)["ok"]:
            raise ScheduleError("schedule fails verification")
        reverse = s.direction == "reversed"
        plan = []
        for i in range(s.ell):
            bi, bj = s.betas[i], s.betas[i + 1]
            terminal = bj == math.inf
            rev = reverse and not terminal
            law = (reversed_ratio_variable if rev else ratio_variable)(m, bi, bj)
            plan.append(_Ratio(i + 1 if rev else i, reverse and terminal, law))
        return tuple(plan), exact_partition(m, math.inf if reverse else 0.0)

    return m._memoized(("plan", s), build)


def _rung_spectra(m: GibbsModel, s: CoolingSchedule):
    """Per rung below beta = inf, the chain's tau and its smallest walk phase
    (walk.walk_phases), which price idealized and exact_sim reflections;
    memoized on the model per rung betas, on which alone they depend.  One
    chain is alive at a time, and only the two scalars outlive it."""
    def build():
        out = []
        for beta in s.betas[:-1]:
            c = chain_for(m, beta)
            tau = relaxation_time(c)  # rejects non-ergodic chains
            out.append((tau, float(walk_phases(c).min())))
        return tuple(zip(*out))

    return m._memoized(("rungs", s.betas[:-1]), build)


class _PartitionPlan(NamedTuple):
    """What a partition estimate fixes before its first draw, checked."""

    anchor: float            # Z(0) (forward) or Z(inf) (reversed)
    runs: tuple              # (_Ratio, its walk steps; 0 in ideal_sampling)
    relative: _RelativePlan  # every ratio's, at epsilon/(2*ell)
    reps: int                # relative estimates per ratio


def _partition_plan(m: GibbsModel, s: CoolingSchedule, epsilon: float,
                    delta: float, mode: str) -> _PartitionPlan:
    """Checks mode, epsilon, delta, REPS_CAP and the relative plan before any
    set-up (_rung_plan, then _rung_spectra in the walk modes).  A ratio's
    reps*draws uses of A and of A^-1 are priced as warm starts along the
    schedule prefix, its uses = reps*draws*t0 reflections as approximate ones
    on its rung chain at accuracy 0.1/uses (a constant slice of delta)."""
    if mode not in ("ideal_sampling", "walk_idealized", "walk_exact_sim"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_positive(epsilon=epsilon)  # before the set-up's eigensolves
    eps_i = epsilon / (2.0 * s.ell)
    reps = powering_reps(0.25, delta / s.ell)  # checks delta
    if reps > REPS_CAP:
        raise ValueError(f"delta={delta!r} needs {reps} estimates per ratio, "
                         f"over the cap {REPS_CAP}")
    rp = _relative_plan(s.B, eps_i)
    ratios, anchor = _rung_plan(m, s)
    if mode == "ideal_sampling":
        return _PartitionPlan(anchor, tuple((r, 0) for r in ratios), rp, reps)
    taus, thetas = _rung_spectra(m, s)
    uses = reps * rp.draws * rp.l2.t0
    eps_r = 0.1 / uses
    runs = []
    for r in ratios:
        per_reflection = (2**phase_bits(thetas[r.rung], min(0.25, eps_i))
                          if mode == "walk_exact_sim"
                          else reflection_cost(taus[r.rung], eps_r))
        prep = warm_start_cost(r.rung, max(taus[: max(r.rung, 1)]), eps_r, s.B)
        runs.append((r, 2 * reps * rp.draws * prep + uses * per_reflection))
    return _PartitionPlan(anchor, tuple(runs), rp, reps)


def estimate_partition(m: GibbsModel, s: CoolingSchedule, epsilon: float,
                       delta: float, mode: str, rng: np.random.Generator,
                       ledger: QueryLedger) -> PartitionEstimate:
    """Telescoping estimate of Z(inf) (forward) or Z(0) (reversed): each
    ratio by the relative-error mean estimator at accuracy epsilon/(2*ell),
    median-amplified from per-run success 3/4 to delta/ell, on the caller's
    ledger, to which walk modes add the walk steps the plan prices."""
    p = _partition_plan(m, s, epsilon, delta, mode)
    ratios = []
    for r, steps in p.runs:
        alpha = power_median(lambda: _relative_run(p.relative, r.law, rng, ledger),
                             gamma=0.25, delta=delta / s.ell)
        ledger.walk_steps += steps
        ratios.append(r.factor(alpha))
    target = "Z(inf)" if s.direction == "forward" else "Z(0)"
    return PartitionEstimate(p.anchor * float(np.prod(ratios)), ratios,
                             epsilon, delta, ledger.snapshot(),
                             {"mode": mode, "target": target,
                              "reps_per_ratio": p.reps})


def classical_baseline(m: GibbsModel, s: CoolingSchedule, epsilon: float,
                       rng: np.random.Generator,
                       ledger: QueryLedger) -> PartitionEstimate:
    """Product of per-ratio sample means, max(1, 16*B*ell/eps^2) samples each."""
    _check_positive(epsilon=epsilon)  # before the set-up
    plan, anchor = _rung_plan(m, s)
    try:
        n = 16.0 * s.B * s.ell / epsilon**2
    except ArithmeticError:  # epsilon^2 underflowed to 0
        n = 16.0 * s.B * s.ell / epsilon / epsilon  # inf past float range
    n = _sample_count(max(1.0, n))
    ratios = []
    for r in plan:
        draws = classical_sample_block(r.law, n, rng, ledger)
        ratios.append(r.factor(float(np.mean(draws))))
    return PartitionEstimate(z_value=float(anchor * np.prod(ratios)),
                             ratios=ratios, epsilon=epsilon, delta=0.25,
                             ledger=ledger.snapshot(),
                             meta={"mode": "classical", "sampling": "ideal",
                                   "samples_per_ratio": n})
