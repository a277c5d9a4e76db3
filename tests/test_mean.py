import math

import numpy as np
import pytest

from qmcs.mean import (bounded_mean_constant, classical_mean_chebyshev,
                       estimate_mean_bounded, estimate_mean_l2,
                       estimate_mean_relative, estimate_mean_variance,
                       l2_constant, power_median, powering_reps,
                       t_for_additive_error)
from qmcs.outcome import QueryLedger, make_distribution


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


def test_power_median_is_exact_median():
    vals = iter([10.0, 1.0, 3.0])
    assert power_median(lambda: next(vals), gamma=0.19, delta=0.1) == 3.0


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


def test_quantum_ledger_beats_classical_at_small_eps():
    d = make_distribution([(0.0, 0.75), (1.0, 0.25)])
    eps = 0.005
    ledger_q = QueryLedger()
    estimate_mean_bounded(d, t_for_additive_error(eps), 0.1, _rng(6), ledger_q)
    ledger_c = QueryLedger()
    classical_mean_chebyshev(d, 0.5, eps, _rng(6), ledger_c)
    uses_q = ledger_q.a_uses + ledger_q.a_inv_uses + ledger_q.reflection_uses
    assert uses_q < ledger_c.classical_samples
