import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qmcs import mean
from qmcs.amplitude import (AE_FAIL_PROB, AE_SUCCESS_PROB,
                            ae_outcome_distribution)
from qmcs.mean import (bounded_mean_constant,
                       classical_mean_chebyshev,
                       estimate_mean_bounded, estimate_mean_l2,
                       estimate_mean_relative, estimate_mean_variance,
                       l2_constant, power_median, powering_reps,
                       t_for_additive_error)
from qmcs.outcome import (DistributionError, QueryLedger, binom_upper_tail,
                          classical_sample_block, make_distribution, transform,
                          truncate)


def _rng(seed):
    return np.random.default_rng(seed)


def test_powering_reps_values():
    assert powering_reps(0.19, 0.1) == 3
    # always odd, monotone in the confidence demand
    last = 1
    for delta in (0.3, 0.1, 0.03, 0.01, 1e-4):
        n = powering_reps(0.19, delta)
        assert n % 2 == 1 and n >= last
        last = n
    # memoized, yet a repeat call still raises; nan must raise, not loop
    for gamma, delta in ((0.5, 0.1), (0.19, 0.0), (0.19, math.nan)) * 2:
        with pytest.raises(ValueError):
            powering_reps(gamma, delta)


# both tails of 1/2, the exact 1/2 and its neighbours, and p whose powers
# leave the normal float range
_TAIL_PS = (0.0, 5e-324, 1e-300, 1e-9, 0.01, AE_FAIL_PROB, 0.25, 0.3,
            0.5 - 2**-53, 0.5, 0.5 + 2**-54, 0.7, 0.99, 1.0 - 1e-9,
            1.0 - 2**-53, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 11, 13, 20, 33, 60, 61])
def test_binom_upper_tail_matches_exact_sum(n):
    got = [binom_upper_tail(n, k, np.array(_TAIL_PS)) for k in range(n + 2)]
    for i, p in enumerate(_TAIL_PS):
        x = Fraction(p)
        terms = [math.comb(n, j) * x**j * (1 - x) ** (n - j)
                 for j in range(n + 1)]
        exact = 0
        for k in range(n + 1, -1, -1):  # Pr[Bin(n, p) >= k], from the top
            exact += terms[k] if k <= n else 0
            err = abs(Fraction(float(got[k][i])) - exact)
            # relative to the smaller of the tail and its complement, so a
            # tail near 1 is right to within its rounding: a few ulps per
            # term and per unit of |log| (the lead term's exp), plus one ulp
            small = min(exact, 1 - exact)
            scale = n + abs(math.log(float(small))) if float(small) else 0
            bound = Fraction(4 * 2**-53 * scale) * small
            assert err <= bound + Fraction(math.ulp(float(exact))), (k, p)


def test_binom_upper_tail_scalar_and_exact_cases():
    assert binom_upper_tail(1, 1, 0.1) == 0.1  # Pr[Bin(1, p) >= 1] = p
    assert binom_upper_tail(3, 2, 0.5) == 0.5
    assert binom_upper_tail(5, 0, 0.3) == 1.0
    assert binom_upper_tail(5, 6, 0.3) == 0.0
    assert binom_upper_tail(5, 3, np.zeros((2, 2))).shape == (2, 2)


def _scipy_powering_reps(gamma, delta):
    n = 1
    while binom.sf(math.ceil(n / 2) - 1, n, gamma) > delta:
        n += 2
    return n


@pytest.mark.parametrize("gamma", [AE_FAIL_PROB, 0.25])
def test_powering_reps_matches_scipy_scan(gamma):
    # a geometric grid, the settings the estimators pass, and delta = gamma,
    # where one run fails with probability exactly delta
    deltas = [*np.geomspace(1e-12, 0.99, 120), gamma, 1 / 10, 1 / 9, 1 / 8,
              *(1.0 / (10.0 * k) for k in range(1, 12)),
              *(eps / 8.0 for eps in (0.2, 0.1, 0.05, 0.02))]
    for delta in deltas:
        assert powering_reps(gamma, float(delta)) == _scipy_powering_reps(
            gamma, float(delta)), delta


@pytest.mark.parametrize("gamma, delta, reps", [
    (AE_FAIL_PROB, 1e-100, 929),
    (AE_FAIL_PROB, 1e-300, 2817),
    (0.25, 1e-300, 4771),
    # the exact tails at n = 3033 and 3035 are 1.68 and 1.03 x 5e-324
    (AE_FAIL_PROB, 5e-324, 3035),
])
def test_powering_reps_at_tiny_delta(gamma, delta, reps):
    assert powering_reps(gamma, delta) == reps
    tail = binom_upper_tail(reps, (reps + 1) // 2, gamma)
    assert tail <= delta < binom_upper_tail(reps - 2, (reps - 1) // 2, gamma)


def test_power_median_is_exact_median():
    vals = iter([10.0, 1.0, 3.0])
    assert power_median(lambda: next(vals), gamma=0.19, delta=0.1) == 3.0


def _calibrate_bounded_mean_constant():
    """The calibration behind the committed C (the oracle).

    Smallest C such that, over a dense amplitude grid and a spread of t,
    the exact outcome law puts mass >= 8/pi^2 inside |a~ - a| <=
    C(sqrt(a)/t + 1/t^2).  A 2% safety margin is applied; 2*pi + pi^2 is an
    analytic cap.
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
    return float(min(worst * 1.02, cap))


def test_bounded_mean_constant_is_the_calibrated_literal():
    assert bounded_mean_constant() == _calibrate_bounded_mean_constant()


def test_calibrated_constants():
    C = bounded_mean_constant()
    assert 1.0 < C < 2.0 * math.pi + math.pi**2
    assert l2_constant() == max(4.0 * C, 10.0)


def test_t_for_additive_error():
    C = bounded_mean_constant()
    t = t_for_additive_error(0.01)
    assert C * (1.0 / t + 1.0 / t**2) <= 0.01
    assert C * (1.0 / (t - 1) + 1.0 / (t - 1) ** 2) > 0.01


def test_bounded_rejects_out_of_range_support():
    d = make_distribution([(0.0, 0.5), (1.5, 0.5)])
    with pytest.raises(ValueError):
        estimate_mean_bounded(d, 100, 0.1, _rng(0), QueryLedger())


def test_bounded_hits_target_error():
    d = make_distribution([(0.0, 0.75), (1.0, 0.25)])
    eps = 0.02
    t = t_for_additive_error(eps)
    hits = 0
    for seed in range(60):
        est = estimate_mean_bounded(d, t, 0.05, _rng(seed), QueryLedger())
        hits += abs(est.value - 0.25) <= eps
    assert hits >= 54  # nominal >= 57 successes in expectation


def test_l2_point_mass_recovered():
    d = make_distribution([(0.5, 1.0)])
    est = estimate_mean_l2(d, 0.05, _rng(1), QueryLedger())
    # on-grid rounding only; error far below eps*(norm+1)^2
    assert est.value == pytest.approx(0.5, abs=est.target_error)


def test_l2_heavy_tail_band_decomposition():
    # one atom per dyadic band exercises the recombination
    d = make_distribution([(0.0, 0.7), (1.5, 0.1), (3.0, 0.1), (12.0, 0.1)])
    eps = 0.01
    errs = []
    for seed in range(30):
        est = estimate_mean_l2(d, eps, _rng(seed), QueryLedger())
        errs.append(abs(est.value - d.mean()))
    bound = eps * (d.l2norm() + 1.0) ** 2
    assert np.mean(np.array(errs) <= bound) >= 0.8


def _band_laws_reference(d, k):
    """Band amplitudes by building each truncated, rescaled band law."""
    amps = [truncate(d, 0.0, 1.0).mean()]
    for ell in range(1, k + 1):
        lo, hi = 2.0 ** (ell - 1), 2.0**ell
        band = transform(truncate(d, lo, hi), lambda v: v / hi)
        amps.append(band.mean())
    return amps


def _recorded_amplitudes(d, epsilon):
    """The amplitudes estimate_mean_l2 hands to ae_median, in call order."""
    seen = []

    def record(a, t, reps, rng, ledger):
        seen.append(a)
        return 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mean, "ae_median", record)
        estimate_mean_l2(d, epsilon, _rng(0), QueryLedger())
    return seen


# nonnegative laws whose atoms often sit on or next to a band edge 2^l
_LAW = st.lists(st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.999, 4.0, 63.0, 64.0, 1e3])
    | st.floats(0.0, 300.0), st.floats(0.01, 1.0)), min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(pairs=_LAW, epsilon=st.sampled_from([0.3, 0.1, 0.02, 0.004]))
def test_l2_band_amplitudes_match_band_laws(pairs, epsilon):
    total = sum(w for _, w in pairs)
    d = make_distribution((v, w / total) for v, w in pairs)
    k = math.ceil(math.log2(1.0 / epsilon))
    got = _recorded_amplitudes(d, epsilon)
    ref = _band_laws_reference(d, k)
    assert len(got) == k + 1  # band 0 first, then 1..k
    for a, r in zip(got, ref):
        assert 0.0 <= a <= 1.0
        assert abs(a - r) <= 4 * np.finfo(float).eps


def test_l2_reads_bands_without_building_laws():
    def forbidden(*args, **kwargs):
        raise AssertionError("estimate_mean_l2 built a band law")

    d = make_distribution([(0.0, 0.7), (1.5, 0.1), (3.0, 0.1), (12.0, 0.1)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mean, "truncate", forbidden)
        mp.setattr(mean, "transform", forbidden)
        estimate_mean_l2(d, 0.05, _rng(0), QueryLedger())


def test_l2_rejects_bad_epsilon_and_negative_support():
    d = make_distribution([(1.0, 1.0)])
    with pytest.raises(ValueError):
        estimate_mean_l2(d, 0.7, _rng(0), QueryLedger())
    neg = make_distribution([(-1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        estimate_mean_l2(neg, 0.1, _rng(0), QueryLedger())


def test_variance_shifted_point_mass():
    d = make_distribution([(5.0, 1.0)])
    est = estimate_mean_variance(d, 1.0, 0.1, _rng(3), QueryLedger())
    assert est.value == pytest.approx(5.0, abs=0.1)


def test_variance_symmetric_three_point():
    d = make_distribution([(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)])
    sigma = math.sqrt(d.variance())
    hits = 0
    for seed in range(30):
        est = estimate_mean_variance(d, sigma, 0.1, _rng(seed), QueryLedger())
        hits += abs(est.value - 5.0) <= 0.1
    assert hits >= 20  # nominal success >= 2/3


def test_variance_precondition_checks():
    d = make_distribution([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        estimate_mean_variance(d, -1.0, 0.1, _rng(0), QueryLedger())
    with pytest.raises(ValueError):
        estimate_mean_variance(d, 0.01, 0.1, _rng(0), QueryLedger())


@pytest.mark.parametrize("estimator, setting, eps, message, low", [
    (estimate_mean_variance, math.inf, 0.1, "sigma must be finite", 1.0),
    (estimate_mean_variance, 1.0, 1e-300,
     "exceeds the amplitude-estimation cap", 1.0),
    (estimate_mean_relative, 1.5, 1e-300,
     "exceeds the amplitude-estimation cap", 1.0),
    # a subnormal epsilon underflows the inner l2 accuracy to 0, which the l2
    # plan used to reject as "epsilon must be in (0, 1/2)"
    (estimate_mean_variance, 1.0, 1e-323,
     "underflows to 0 at epsilon = 9.88131e-324, sigma = 1$", 1.0),
    (estimate_mean_relative, 1.0, 1e-323,
     "underflows to 0 at epsilon = 9.88131e-324, B = 1$", 1.0),
    # the relative estimator checks its support first, then its plan (B, eps)
    (estimate_mean_relative, 0.5, 0.1, "support must be nonnegative", -1.0),
])
def test_failed_estimate_charges_and_draws_nothing(estimator, setting, eps,
                                                   message, low):
    # the l2 plan is checked before the proxy draw
    d = make_distribution([(low, 0.5), (3.0, 0.5)])
    rng = _rng(0)
    state = rng.bit_generator.state
    ledger = QueryLedger()
    with pytest.raises(ValueError, match=message):
        estimator(d, setting, eps, rng, ledger)
    assert ledger == QueryLedger()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("B", [1.0, 4.0, 100.0])
def test_relative_epsilon_range_is_checked_before_any_draw(B):
    # the inner l2 accuracy 2 eps/(3(2 sqrt(B) + 1)^2) reaches 1/2 at
    # eps = 3(2 sqrt(B) + 1)^2/4, which is 27B/4 at B = 1 and below it after
    d = make_distribution([(1.0, 0.5), (3.0, 0.5)])
    bound = 0.75 * (2.0 * math.sqrt(B) + 1.0) ** 2
    for eps in (bound, 27.0 * B / 4.0):
        rng, ledger = _rng(0), QueryLedger()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="epsilon must be <") as info:
            estimate_mean_relative(d, B, eps, rng, ledger)
        assert "B" in str(info.value) and "1/2" not in str(info.value)
        assert ledger == QueryLedger() and rng.bit_generator.state == state
    est = estimate_mean_relative(d, B, 0.99 * bound, _rng(0), QueryLedger())
    assert est.ledger.a_uses > 0


def _variance_oracle(d, sigma, epsilon, rng, ledger):
    """estimate_mean_variance with one full estimate_mean_l2 per repetition."""
    scaled = transform(d, lambda v: v / sigma)
    m = float(classical_sample_block(scaled, 1, rng, ledger)[0])
    ledger.a_uses += 1
    centered = transform(scaled, lambda v: v - m)
    neg = transform(truncate(centered, -np.inf, 0.0), lambda v: -v / 4.0)
    pos = transform(truncate(centered, 0.0, np.inf), lambda v: v / 4.0)
    eps_sub = epsilon / (32.0 * sigma)
    mu_neg = power_median(lambda: estimate_mean_l2(neg, eps_sub, rng, ledger).value,
                          1.0 / 5.0, 1.0 / 9.0)
    mu_pos = power_median(lambda: estimate_mean_l2(pos, eps_sub, rng, ledger).value,
                          1.0 / 5.0, 1.0 / 9.0)
    return float(sigma * (m - 4.0 * mu_neg + 4.0 * mu_pos))


def _relative_oracle(d, B, epsilon, rng, ledger):
    """estimate_mean_relative with the normalized law built by transform and
    one full estimate_mean_l2 per repetition."""
    m = float(np.mean(classical_sample_block(d, 32.0 * B, rng, ledger)))
    normalized = transform(d, lambda v: v / m)
    eps_sub = 2.0 * epsilon / (3.0 * (2.0 * math.sqrt(B) + 1.0) ** 2)
    mu = power_median(lambda: estimate_mean_l2(normalized, eps_sub, rng, ledger).value,
                      1.0 / 5.0, 1.0 / 8.0)
    return float(m * mu)


def _traced(fn, seed, *args):
    """fn(*args, rng, ledger) from a fresh seeded rng and ledger: (value or
    error, the (a, t, reps) of each median in call order, whether taken by
    ae_median or by _median_from_uniforms from reps uniforms, ledger,
    generator state)."""
    calls, rng, ledger = [], _rng(seed), QueryLedger()
    real, real_from_uniforms = mean.ae_median, mean._median_from_uniforms

    def record(a, t, reps, rng, ledger):
        calls.append((float(a), t, reps))
        return real(a, t, reps, rng, ledger)

    def record_from_uniforms(a, t, us):
        calls.append((float(a), t, len(us)))
        return real_from_uniforms(a, t, us)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mean, "ae_median", record)
        mp.setattr(mean, "_median_from_uniforms", record_from_uniforms)
        try:
            out = fn(*args, rng, ledger)
        except DistributionError as exc:
            out = repr(exc)
    value = out if isinstance(out, str) else float(getattr(out, "value", out))
    return value, calls, ledger, rng.bit_generator.state


_A = 2.0 - 2.0**-52  # one ulp below 2.0: its image under v/m often meets 2/m
_PLAN_LAWS = [
    [(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)],
    [(0.0, 0.6), (1.0, 0.3), (40.0, 0.1)],
    [(_A, 0.25), (2.0, 0.25), (5.0, 0.5)],
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pairs", _PLAN_LAWS)
def test_variance_plan_matches_l2_per_repetition(pairs, seed):
    d = make_distribution(pairs)
    sigma = math.sqrt(d.variance())
    got = _traced(estimate_mean_variance, seed, d, sigma, 0.1)
    assert got == _traced(_variance_oracle, seed, d, sigma, 0.1)
    assert len(got[1]) > 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pairs, B", [
    (_PLAN_LAWS[0], 1.05), (_PLAN_LAWS[1], 20.0), (_PLAN_LAWS[2], 1.5),
    ([(5e-324, 1.0 - 1e-9), (1.0, 1e-9)], 1.0),  # v/m overflows: raises
])
def test_relative_plan_matches_l2_per_repetition(pairs, B, seed):
    d = make_distribution(pairs)
    got = _traced(estimate_mean_relative, seed, d, B, 0.1)
    assert got == _traced(_relative_oracle, seed, d, B, 0.1)


def test_relative_transforms_only_a_merging_support():
    # v/m of a distinct law is read without transform; at seed 0 the proxy
    # mean maps _A and 2.0 to one float, and transform merges them
    merged = []

    def spy(law, f):
        out = transform(law, f)
        merged.append(out.support_size)
        return out

    d = make_distribution(_PLAN_LAWS[2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mean, "transform", spy)
        _traced(estimate_mean_relative, 0, make_distribution(_PLAN_LAWS[0]),
                1.05, 0.1)
        assert merged == []
        got = _traced(estimate_mean_relative, 0, d, 1.5, 0.1)
    assert merged == [2]
    assert got == _traced(_relative_oracle, 0, d, 1.5, 0.1)


def test_band_amplitudes_read_once_per_law_per_estimate():
    calls = []
    real = mean._band_amplitudes

    def count(*args):
        calls.append(args)
        return real(*args)

    d = make_distribution([(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mean, "_band_amplitudes", count)
        estimate_mean_variance(d, math.sqrt(d.variance()), 0.1, _rng(0), QueryLedger())
        assert len(calls) == 2  # the negative and the positive part
        estimate_mean_relative(d, 1.05, 0.1, _rng(0), QueryLedger())
        assert len(calls) == 3
    assert powering_reps(1.0 / 5.0, 1.0 / 9.0) > 1  # so a per-repetition read shows


def test_relative_point_mass():
    d = make_distribution([(2.0, 1.0)])  # B = 1 exactly
    est = estimate_mean_relative(d, 1.0, 0.05, _rng(4), QueryLedger())
    assert abs(est.value - 2.0) <= 0.05 * 2.0


def test_relative_two_point():
    d = make_distribution([(1.0, 0.5), (3.0, 0.5)])
    B = 5.0 / 4.0  # E[Y^2]/E[Y]^2
    hits = 0
    for seed in range(30):
        est = estimate_mean_relative(d, B, 0.1, _rng(seed), QueryLedger())
        hits += abs(est.value - 2.0) <= 0.1 * 2.0
    assert hits >= 22  # nominal success >= 3/4


def test_relative_rejects_b_below_one():
    d = make_distribution([(1.0, 1.0)])
    with pytest.raises(ValueError):
        estimate_mean_relative(d, 0.9, 0.1, _rng(0), QueryLedger())


def test_classical_baseline_sample_count():
    d = make_distribution([(0.0, 0.5), (2.0, 0.5)])
    ledger = QueryLedger()
    est = classical_mean_chebyshev(d, 1.0, 0.1, _rng(5), ledger)
    assert ledger.classical_samples == math.ceil(3.0 / 0.01)
    assert est.value == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("sigma, eps, message", [
    (0.0, 0.1, "sigma must be positive"),
    (-1.0, 0.1, "sigma must be positive"),
    (math.nan, 0.1, "sigma must be positive"),
    (1.0, 0.0, "epsilon must be positive"),
    (1.0, -0.1, "epsilon must be positive"),
    (1.0, math.nan, "epsilon must be positive"),
])
def test_classical_baseline_checks_settings(sigma, eps, message):
    d = make_distribution([(0.0, 0.5), (2.0, 0.5)])
    for estimator in (classical_mean_chebyshev, estimate_mean_variance):
        with pytest.raises(ValueError, match=message):
            estimator(d, sigma, eps, _rng(0), QueryLedger())


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
def test_t_for_additive_error_rejects_nonpositive_epsilon(eps):
    # a negative epsilon used to loop forever (qmcs mean --eps -0.1)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        t_for_additive_error(eps)


def test_t_for_subnormal_epsilon_overflows_cleanly():
    # C / 5e-324 is inf; numpy's C used to warn before int() raised, and
    # then int() raised OverflowError
    with pytest.raises(ValueError, match="exceeds the amplitude-estimation cap"):
        t_for_additive_error(5e-324)


def test_relative_rejects_nan_b():
    d = make_distribution([(1.0, 1.0)])
    with pytest.raises(ValueError, match="B must be >= 1"):
        estimate_mean_relative(d, math.nan, 0.1, _rng(0), QueryLedger())


def test_quantum_ledger_beats_classical_at_small_eps():
    d = make_distribution([(0.0, 0.75), (1.0, 0.25)])
    eps = 0.005
    ledger_q = QueryLedger()
    estimate_mean_bounded(d, t_for_additive_error(eps), 0.1, _rng(6), ledger_q)
    ledger_c = QueryLedger()
    classical_mean_chebyshev(d, 0.5, eps, _rng(6), ledger_c)
    uses_q = ledger_q.a_uses + ledger_q.a_inv_uses + ledger_q.reflection_uses
    assert uses_q < ledger_c.classical_samples
