"""Exact simulation of the amplitude-estimation primitive.

The estimation procedure with t Grover-type iterations on an amplitude
a = sin^2(pi*omega) draws outcome y in {0, ..., t-1} from the squared
Dirichlet kernel sin^2(pi t D) / (t^2 sin^2(pi D)), D = y/t - omega, mixed
equally over the conjugate phases +-omega, with estimate a~ = sin^2(pi y/t).
With c = round(t omega) and delta = t omega - c, outcome y = c + k,
k in (-t/2, t/2], has t D = k - delta, so its mass is
sin^2(pi delta) / (t sin(pi (k - delta) / t))^2: one sine per outcome.  The
-omega phase puts y's mass on t - y, whose estimate is y's, so the law of a~
is the +omega law folded onto the strictly increasing half grid
sin^2(pi i / t), i = 0..t//2.  The exact law and the sampler both follow this
one construction: the sampler draws a whole median at once, one uniform per
draw, through a single outward inverse-CDF scan of the +omega law in offset
form, and folds each y to min(y, t - y).  A dense circuit simulation of phase
estimation on the two-dimensional rotation cross-validates the closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .outcome import QueryLedger, ValueDistribution

__all__ = [
    "amplitude_phase",
    "ae_measurement_probs",
    "ae_outcome_distribution",
    "ae_sample",
    "ae_median",
    "ae_circuit_distribution",
    "arcsin_gap_bound",
    "measurement_tv_bound",
    "stability_failure_bound",
    "outcome_interval_halfwidth",
    "interval_coverage",
    "AE_SUCCESS_PROB",
    "AE_FAIL_PROB",
    "AE_LAW_T_CAP",
    "AE_T_CAP",
]

AE_SUCCESS_PROB = 8.0 / math.pi**2
AE_FAIL_PROB = 1.0 - AE_SUCCESS_PROB

_CIRCUIT_T_CAP = 2**14
AE_LAW_T_CAP = 2**20  # largest t whose length-t outcome law is materialized
AE_T_CAP = 2**32  # largest t sampled: phase error pi*t*2^-52 under 1e-5 rad


def amplitude_phase(a: float) -> float:
    """Phase omega in [0, 1/2] with sin^2(pi*omega) = a."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    return math.asin(math.sqrt(a)) / math.pi


@lru_cache(maxsize=16)  # one grid per t: a t near the cap holds 4 MB
def _half_grid(t: int) -> np.ndarray:
    """Estimates sin^2(pi*i/t), i = 0..t//2, checked strictly increasing."""
    values = np.sin(np.pi * np.arange(t // 2 + 1) / t) ** 2
    if not np.all(values[1:] > values[:-1]):
        raise ArithmeticError(f"estimate grid of t={t} is not strictly increasing")
    values.setflags(write=False)
    return values


def _grid_offset(omega: float, t: int) -> tuple[int, float]:
    """Grid point c = round(t*omega) and offset delta = t*omega - c of omega."""
    phase = t * omega
    c = round(phase)
    return c, phase - c


def _outcome_kernel(a: float, t: int) -> np.ndarray:
    """Length-t law of y at +omega, in y order, from the offset form."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > AE_LAW_T_CAP:
        raise ValueError(f"t={t} exceeds the outcome-law cap {AE_LAW_T_CAP}")
    c, delta = _grid_offset(amplitude_phase(a), t)
    k0 = -((t - 1) // 2)  # offsets k = k0..t//2 from y = c
    if delta == 0.0:  # on the grid: all mass on y = c
        probs = np.zeros(t)
        probs[-k0] = 1.0
    else:
        k = np.arange(k0, t // 2 + 1) - delta
        probs = (math.sin(math.pi * delta) / (t * np.sin(np.pi / t * k))) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"kernel normalization drifted: {total}")
    cut = t - (c + k0) % t  # into y order: np.roll's two slices, at less cost
    return np.concatenate((probs[cut:], probs[:cut])) / total


def ae_measurement_probs(a: float, t: int) -> np.ndarray:
    """Length-t probability vector over raw outcomes y."""
    probs = _outcome_kernel(a, t)
    return 0.5 * probs + 0.5 * np.roll(probs[::-1], 1)  # -omega puts y's mass on t - y


def _fold(probs: np.ndarray) -> ValueDistribution:
    """Law of a~ = sin^2(pi*y/t) from the length-t law of y.

    Outcomes y and t-y give the same estimate, so y folds onto the half grid
    sin^2(pi*i/t), i = 0..t//2, with mass probs[i] + probs[t-i]."""
    t = len(probs)
    pairs = (t - 1) // 2  # i = 1..pairs meet their conjugate t-i
    merged = probs[: t // 2 + 1].copy()
    merged[1 : pairs + 1] += probs[::-1][:pairs]
    return ValueDistribution(_half_grid(t), merged / merged.sum())


def ae_outcome_distribution(a: float, t: int) -> ValueDistribution:
    """Closed-form distribution of the estimate a~ for amplitude a, t iterations."""
    return _fold(_outcome_kernel(float(a), int(t)))  # checks t before allocating


def _check_t(t) -> None:
    if not 1 <= t <= AE_T_CAP:
        raise ValueError("t must be >= 1" if t < 1 else f"t={t:g} exceeds "
                         f"the amplitude-estimation cap {AE_T_CAP}")


def _draw_outcomes(omega: float, t: int, us) -> list:
    """Outcome y for each u in us (non-empty), by inverse CDF of the +omega law.

    One scan outward from the grid point c (offset k = 0, then +k before -k,
    t/2 once) resolves the u's in ascending order as the running sum of the
    offset-form masses passes each.  On the grid (delta = 0) every u gets c;
    a u never reached (rounding) gets the last y scanned."""
    c, delta = _grid_offset(omega, t)
    if delta == 0.0:
        return [c % t] * len(us)
    s, step = math.sin(math.pi * delta), math.pi / t
    out = [(c - t // 2) % t] * len(us)  # last y scanned, offset t/2 (even t: +t/2 = -t/2)
    todo = sorted(range(len(us)), key=us.__getitem__, reverse=True)  # pop() takes the least u
    u, acc = us[todo[-1]], 0.0
    for k in range(t // 2 + 1):
        for j in (k, -k) if 0 < 2 * k < t else (k,):
            r = s / (t * math.sin(step * (j - delta)))
            acc += r * r
            while acc >= u:
                out[todo.pop()] = (c + j) % t
                if not todo:
                    return out
                u = us[todo[-1]]
    return out


def ae_sample(a: float, t: int, rng: np.random.Generator, ledger: QueryLedger,
              size: int) -> list[float]:
    """A list of size draws of the estimate a~. Each draw charges t reflections
    and one A / A^-1 pair and takes its u from rng.random(size); the +omega
    outcome y gives a~ = sin^2(pi min(y, t - y) / t), as in
    ae_outcome_distribution's fold.  So size=n equals n calls with size=1."""
    _check_t(t)
    if size < 1:
        raise ValueError("size must be >= 1")
    omega = amplitude_phase(a)
    ledger.a_uses += size
    ledger.a_inv_uses += size
    ledger.reflection_uses += size * t
    return [math.sin(math.pi * min(y, t - y) / t) ** 2
            for y in _draw_outcomes(omega, t, rng.random(size).tolist())]


def ae_median(a: float, t: int, reps: int, rng: np.random.Generator,
              ledger: QueryLedger) -> float:
    """Median of one ae_sample(..., size=reps) batch (reps must be odd, t >= 1)."""
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd integer")
    return sorted(ae_sample(a, t, rng, ledger, size=reps))[reps // 2]


def ae_circuit_distribution(a: float, t: int) -> ValueDistribution:
    """Dense phase-estimation simulation on the 2D rotation with phases +-omega.

    Register of size t (general Fourier transform over Z_t), target qubit in
    the rotation plane.  Must match ae_outcome_distribution within 1e-8 TV.
    """
    omega = amplitude_phase(a)
    if t > _CIRCUIT_T_CAP:
        raise ValueError(f"t={t} exceeds dense simulation cap {_CIRCUIT_T_CAP}")
    theta = math.pi * omega
    psi = np.array([math.cos(theta), math.sin(theta)])  # (bad, good) plane
    # controlled powers of the rotation by angle 2*pi*omega
    ys = np.arange(t)
    angles = 2.0 * math.pi * omega * ys
    state = np.empty((t, 2), dtype=complex)
    # rotation^y applied to psi stays real-rotational; build directly
    state[:, 0] = np.cos(angles) * psi[0] - np.sin(angles) * psi[1]
    state[:, 1] = np.sin(angles) * psi[0] + np.cos(angles) * psi[1]
    state /= math.sqrt(t)
    # inverse Fourier transform over Z_t on the register
    f_inv = np.exp(-2j * math.pi * np.outer(ys, ys) / t) / math.sqrt(t)
    state = f_inv @ state
    probs = np.abs(state[:, 0]) ** 2 + np.abs(state[:, 1]) ** 2
    probs = probs / probs.sum()
    return _fold(probs)


def arcsin_gap_bound(x: float, y: float):
    """(|arcsin x - arcsin y|, (pi/2) sqrt(|x^2 - y^2|)); lhs <= rhs always."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    lhs = abs(math.asin(x) - math.asin(y))
    rhs = 0.5 * math.pi * math.sqrt(abs(x * x - y * y))
    return lhs, rhs


def measurement_tv_bound(mu_a: float, mu_b: float, t: int) -> float:
    """Upper bound (pi^2 / (2 sqrt(3))) * t * sqrt(|mu_a - mu_b|) on the outcome TV."""
    return (math.pi**2 / (2.0 * math.sqrt(3.0))) * t * math.sqrt(abs(mu_a - mu_b))


def stability_failure_bound(gamma: float, T: float) -> float:
    """Failure bound 3/10 + (pi^2/sqrt(6)) T sqrt(gamma) under a gamma-TV
    input perturbation after T operator uses."""
    return 0.3 + (math.pi**2 / math.sqrt(6.0)) * T * math.sqrt(gamma)


def outcome_interval_halfwidth(a: float, t: int) -> float:
    """Half-width 2 pi sqrt(a(1-a))/t + pi^2/t^2 of the guaranteed interval."""
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / t + math.pi**2 / t**2


def interval_coverage(a: float, t: int) -> float:
    """Exact kernel mass of the guaranteed interval {|a~ - a| <= halfwidth}."""
    d = ae_outcome_distribution(a, t)
    halfwidth = outcome_interval_halfwidth(a, t)
    inside = np.abs(d.values - a) <= halfwidth * (1.0 + 1e-12) + 1e-15
    return float(d.probs[inside].sum())
