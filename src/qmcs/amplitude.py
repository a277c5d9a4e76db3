"""Exact simulation of the amplitude-estimation primitive.

The estimation procedure with t Grover-type iterations on an amplitude
a = sin^2(pi*omega) induces a closed-form distribution over measurement
outcomes y in {0, ..., t-1}: the squared Dirichlet kernel

    Pr[y | omega] = sin^2(pi t D) / (t^2 sin^2(pi D)),   D = d(y/t, omega),

mixed equally over the conjugate phases +-omega, with estimate
a~ = sin^2(pi y / t).  Here d(x, y) = min_z |z + x - y| is circle distance.

A dense circuit simulation of phase estimation on the two-dimensional
rotation cross-validates the closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .outcome import QueryLedger, ValueDistribution, from_arrays

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
]

AE_SUCCESS_PROB = 8.0 / math.pi**2
AE_FAIL_PROB = 1.0 - AE_SUCCESS_PROB

_CIRCUIT_T_CAP = 2**14
AE_LAW_T_CAP = 2**20  # largest t whose length-t outcome law is materialized


def amplitude_phase(a: float) -> float:
    """Phase omega in [0, 1/2] with sin^2(pi*omega) = a."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    return math.asin(math.sqrt(a)) / math.pi


def _circle_dist(x, y):
    return np.abs(np.mod(x - y + 0.5, 1.0) - 0.5)


def _kernel(delta: np.ndarray, t: int) -> np.ndarray:
    """Squared Dirichlet kernel with the on-grid limit value 1."""
    out = np.ones_like(delta)
    off = delta != 0.0
    s = np.sin(np.pi * delta[off])
    out[off] = (np.sin(np.pi * t * delta[off]) / (t * s)) ** 2
    return out


def ae_measurement_probs(a: float, t: int) -> np.ndarray:
    """Length-t probability vector over raw outcomes y."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > AE_LAW_T_CAP:
        raise ValueError(f"t={t} exceeds the outcome-law cap {AE_LAW_T_CAP}")
    omega = amplitude_phase(a)
    y = np.arange(t) / t
    probs = 0.5 * _kernel(_circle_dist(y, omega), t) + 0.5 * _kernel(_circle_dist(y, -omega), t)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"kernel normalization drifted: {total}")
    return probs / total


def _estimate_values(t: int) -> np.ndarray:
    """a~ = sin^2(pi*y/t), computed from min(y, t-y) so conjugates merge exactly."""
    y = np.arange(t)
    y_eff = np.minimum(y, t - y)
    return np.sin(np.pi * y_eff / t) ** 2


def ae_outcome_distribution(a: float, t: int) -> ValueDistribution:
    """Closed-form distribution of the estimate a~ for amplitude a, t iterations."""
    probs = ae_measurement_probs(float(a), int(t))  # checks t before allocating
    return from_arrays(_estimate_values(int(t)), probs)


def _draw_outcome(omega: float, t: int, rng: np.random.Generator) -> int:
    """Sample y from the kernel at phase omega without materializing all t probs.

    Inverse-CDF scan outward from the nearest grid point (offset 0, then +k
    before -k, t/2 once), so it usually stops after a handful of terms; each
    term is _kernel(_circle_dist(y/t, omega)) in the same float operations.
    """
    u = rng.random()
    center = int(round(t * omega)) % t
    acc = 0.0
    y = center
    for k in range(t // 2 + 1):
        ys = (center + k) % t, (center - k) % t
        for y in ys if 0 < 2 * k < t else ys[:1]:
            dist = abs((y / t - omega + 0.5) % 1.0 - 0.5)
            if dist == 0.0:
                acc += 1.0
            else:
                r = math.sin(math.pi * t * dist) / (t * math.sin(math.pi * dist))
                acc += r * r
            if acc >= u:
                return y
    return y


def ae_sample(a: float, t: int, rng: np.random.Generator, ledger: QueryLedger) -> float:
    """One draw of the estimate a~; charges t reflections and one A / A^-1 pair."""
    if t < 1:
        raise ValueError("t must be >= 1")
    omega = amplitude_phase(a)
    ledger.a_uses += 1
    ledger.a_inv_uses += 1
    ledger.reflection_uses += t
    if rng.random() < 0.5:
        omega = (1.0 - omega) % 1.0  # conjugate phase -omega
    y = _draw_outcome(omega, t, rng)
    y_eff = min(y, t - y)
    return float(math.sin(math.pi * y_eff / t) ** 2)


def ae_median(a: float, t: int, reps: int, rng: np.random.Generator,
              ledger: QueryLedger) -> float:
    """Median of reps independent ae_sample draws (reps must be odd, t >= 1)."""
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd integer")
    draws = sorted(ae_sample(a, t, rng, ledger) for _ in range(reps))
    return draws[reps // 2]


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
    return from_arrays(_estimate_values(t), probs)


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
