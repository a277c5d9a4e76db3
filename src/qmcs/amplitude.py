"""Exact simulation of amplitude estimation: its outcome law, the law of
its median, and the draw and charge of each run.

With t Grover-type iterations on an amplitude a = sin^2(pi*omega), outcome
y in {0, ..., t-1} has the squared Dirichlet kernel law, mixed equally over
the conjugate phases +-omega, and estimate a~ = sin^2(pi y/t).  With
c = round(t omega) and delta = t omega - c, outcome y = c + k, k in
(-t/2, t/2], has mass sin^2(pi delta) / (t sin(pi (k - delta) / t))^2 at
+omega: one sine per outcome, built in one buffer.  The -omega phase puts
y's mass on t - y, whose estimate is y's, so the law of a~ is the +omega law
folded in place onto the strictly increasing half grid sin^2(pi i / t),
i = 0..t//2 (_fold).  The law of a median of reps estimates (_ae_median_laws)
reads only the CDF prefix its median needs.  _ae_uniforms charges each run
and draws its uniform; one outward inverse-CDF scan of the +omega law turns
a median's uniforms into outcomes, and as the half grid rises with i,
_median_from_uniforms takes the estimate of the median folded index, with one
sine.  A dense circuit simulation of phase estimation cross-validates the law.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .outcome import QueryLedger, ValueDistribution, _median_laws, _tail_floor

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
_COUNTS = (int, np.integer)  # the types a t, size or reps may have: one tuple for every call


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
    if not isinstance(t, _COUNTS) or t < 1:
        raise ValueError(f"t must be an integer >= 1, not {t!r}")
    if t > AE_LAW_T_CAP:
        raise ValueError(f"t={t} exceeds the outcome-law cap {AE_LAW_T_CAP}")
    c, delta = _grid_offset(amplitude_phase(a), t)
    k0 = -((t - 1) // 2)  # offsets k = k0..t//2 from y = c
    if delta == 0.0:  # on the grid: all mass on y = c
        probs = np.zeros(t)
        probs[-k0] = 1.0
    else:  # (sin(pi delta) / (t sin(pi (k - delta) / t)))^2, in one buffer
        probs = np.arange(k0, t // 2 + 1, dtype=float) - delta
        np.multiply(np.sin(np.multiply(probs, np.pi / t, out=probs), out=probs), t, out=probs)
        np.square(np.divide(math.sin(math.pi * delta), probs, out=probs), out=probs)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"kernel normalization drifted: {total}")
    cut = t - (c + k0) % t  # into y order, normalized: np.roll's two slices
    out = np.empty(t)
    np.divide(probs[cut:], total, out=out[: t - cut])
    np.divide(probs[:cut], total, out=out[t - cut:])
    return out


def ae_measurement_probs(a: float, t: int) -> np.ndarray:
    """Length-t probability vector over raw outcomes y."""
    probs = _outcome_kernel(a, t)
    return 0.5 * probs + 0.5 * np.roll(probs[::-1], 1)  # -omega puts y's mass on t - y


def _fold(probs: np.ndarray) -> tuple:
    """Masses of a~ = sin^2(pi*i/t), i = 0..t//2, from the length-t law of y,
    folded in place (a view of probs), and their sum: y and t-y give the same
    estimate, so i gets probs[i] + probs[t-i]."""
    t = len(probs)
    pairs = (t - 1) // 2  # i = 1..pairs meet their conjugate t-i
    merged = probs[: t // 2 + 1]
    merged[1 : pairs + 1] += probs[::-1][:pairs]  # disjoint halves: no copy
    return merged, merged.sum()


def ae_outcome_distribution(a: float, t: int) -> ValueDistribution:
    """Closed-form distribution of the estimate a~ for amplitude a, t iterations."""
    masses, total = _fold(_outcome_kernel(float(a), t))  # checks t before allocating
    return ValueDistribution(_half_grid(int(t)), masses / total)


def _ae_median_laws(amps: list, t: int, reps: int) -> list:
    """median_law(ae_outcome_distribution(a, t), reps) for each a in amps,
    float for float, from a CDF prefix: a median reads it only through its
    first point >= 1 - c, c = _tail_floor(reps), near a's grid point plus
    the K where the kernel's tail past +-K, about 2/(pi^2 K), falls under c."""
    if reps == 1:
        return [ae_outcome_distribution(a, t) for a in amps]
    c = _tail_floor(reps)
    reach = math.ceil(2.0 / (math.pi**2 * c)) + 1

    def cdfs():  # one outcome law at a time
        for a in amps:
            masses, total = _fold(_outcome_kernel(float(a), t))
            n = _grid_offset(amplitude_phase(a), t)[0] + reach
            cdf = np.clip(np.cumsum(masses[:n] / total), 0.0, 1.0)
            if cdf[-1] < 1.0 - c:  # stopped short: the whole half grid
                cdf = np.clip(np.cumsum(masses / total), 0.0, 1.0)
            yield _half_grid(t), cdf

    return _median_laws(cdfs(), reps)


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
    """A list of size draws of the estimate a~, one per uniform of _ae_uniforms:
    the +omega outcome y gives a~ = sin^2(pi min(y, t - y) / t), as in
    ae_outcome_distribution's fold.  So size=n equals n calls with size=1."""
    omega = amplitude_phase(a)
    return [math.sin(math.pi * min(y, t - y) / t) ** 2
            for y in _draw_outcomes(omega, t, _ae_uniforms(t, size, rng, ledger))]


def _ae_uniforms(t: int, size: int, rng: np.random.Generator, ledger: QueryLedger) -> list:
    """rng.random(size) as a list; each run charged one A, one A^-1 and t reflections."""
    if not isinstance(t, _COUNTS):
        raise ValueError(f"t must be an integer, not {t!r}")
    if not isinstance(size, _COUNTS):
        raise ValueError(f"size must be an integer, not {size!r}")
    _check_t(t)
    if size < 1:
        raise ValueError("size must be >= 1")
    ledger.a_uses += size
    ledger.a_inv_uses += size
    ledger.reflection_uses += size * t
    return rng.random(size).tolist()


def ae_median(a: float, t: int, reps: int, rng: np.random.Generator,
              ledger: QueryLedger) -> float:
    """Median of one ae_sample(..., size=reps) batch (reps must be odd, t >= 1)."""
    if not isinstance(reps, _COUNTS) or reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd integer")
    return sorted(ae_sample(a, t, rng, ledger, size=reps))[reps // 2]


def _median_from_uniforms(a: float, t: int, us: list) -> float:
    """ae_median's value on the uniforms us (an odd count, t checked), uncharged.

    sin^2(pi i / t) does not fall over the folded indices i = min(y, t - y)
    <= t//2, so the median estimate is that of the median index: one sine
    per median, not one per draw.  On the grid every u gets the one outcome."""
    omega = amplitude_phase(a)
    c, delta = _grid_offset(omega, t)
    if delta == 0.0:
        i = min(c % t, t - c % t)
    else:
        i = sorted([min(y, t - y) for y in _draw_outcomes(omega, t, us)])[len(us) // 2]
    return math.sin(math.pi * i / t) ** 2


def ae_circuit_distribution(a: float, t: int) -> ValueDistribution:
    """Dense phase-estimation simulation on the 2D rotation with phases +-omega.

    Register of size t, target qubit in the rotation plane; the register's
    inverse Fourier transform over Z_t is one FFT, so no t x t matrix is
    built.  Must match ae_outcome_distribution within 1e-8 TV.
    """
    omega = amplitude_phase(a)
    if t > _CIRCUIT_T_CAP:
        raise ValueError(f"t={t} exceeds dense simulation cap {_CIRCUIT_T_CAP}")
    # the rotation by 2 pi omega, applied y times to psi = (cos, sin)(pi omega)
    # in the (bad, good) plane, on the uniform register
    angles = math.pi * omega * (2.0 * np.arange(t) + 1.0)
    state = np.stack([np.cos(angles), np.sin(angles)], axis=1) / math.sqrt(t)
    # the register's inverse QFT over Z_t, exp(-2 pi i y y'/t)/sqrt(t)
    state = np.fft.fft(state, axis=0) / math.sqrt(t)
    probs = (np.abs(state) ** 2).sum(axis=1)
    masses, total = _fold(probs / probs.sum())
    return ValueDistribution(_half_grid(t), masses / total)


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
