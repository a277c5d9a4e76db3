import numpy as np
import pytest

from qmcs import tvd
from qmcs.outcome import QueryLedger, make_distribution
from qmcs.tvd import (TvdInstance, estimate_tvd, exact_tvd, median_law,
                      ratio_stability_check, tvd_query_budget,
                      tvd_subroutine_distribution)


def test_exact_tvd_values():
    assert exact_tvd([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert exact_tvd([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert exact_tvd([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        exact_tvd([1.0], [0.5, 0.5])


def test_median_law_three_point():
    d = make_distribution([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)])
    law = median_law(d, 3)
    # Pr[median <= v] = Pr[Bin(3, F(v)) >= 2]
    f0 = 3 * 0.5**2 * 0.5 + 0.5**3
    f1 = 3 * 0.8**2 * 0.2 + 0.8**3
    assert law.probs[law.values == 0.0][0] == pytest.approx(f0)
    assert law.probs[law.values == 1.0][0] == pytest.approx(f1 - f0)
    with pytest.raises(ValueError):
        median_law(d, 4)


def test_median_law_point_mass():
    d = make_distribution([(0.3, 1.0)])
    law = median_law(d, 7)
    assert law.support_size == 1 and law.values[0] == 0.3


def test_instance_validation_and_budget_growth():
    with pytest.raises(ValueError):
        TvdInstance(np.array([0.6, 0.3]), np.array([0.5, 0.5]), 0.1)
    small = TvdInstance(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.1)
    big = TvdInstance(np.full(8, 0.125), np.full(8, 0.125), 0.1)
    assert big.t > small.t  # iterations scale with sqrt(n)


def test_subroutine_law_equal_point_distributions():
    # p = q supported on one point: a = 1 sits within O(1/t^2) of the
    # estimation grid, so the output concentrates near 0
    p = np.array([1.0, 0.0])
    inst = TvdInstance(p, p.copy(), 0.1)
    law = tvd_subroutine_distribution(inst)
    assert law.mean() == pytest.approx(0.0, abs=0.01)


def test_subroutine_law_disjoint_supports():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    law = tvd_subroutine_distribution(TvdInstance(p, q, 0.1))
    assert law.mean() == pytest.approx(1.0, abs=0.01)


def test_subroutine_bias_within_half_epsilon():
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    eps = 0.05
    law = tvd_subroutine_distribution(TvdInstance(p, q, eps / 8.0))
    assert abs(law.mean() - exact_tvd(p, q)) <= eps / 2.0


def test_query_budget_is_deterministic_and_decreasing_in_eps():
    b1 = tvd_query_budget(4, 0.02, 0.1)
    b2 = tvd_query_budget(4, 0.02, 0.1)
    assert b1 == b2
    b_coarse = tvd_query_budget(4, 0.08, 0.1)
    assert b_coarse["ae_iterations"] < b1["ae_iterations"]


def test_estimate_tvd_accuracy_and_ledger():
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    eps, delta = 0.05, 0.1
    ledger = QueryLedger()
    est = estimate_tvd(p, q, eps, delta, np.random.default_rng(6), ledger)
    assert abs(est.value - 0.3) <= eps
    budget = tvd_query_budget(2, eps, delta)
    assert ledger.reflection_uses == budget["ae_iterations"]
    assert ledger.classical_samples == budget["subroutine_invocations"]


def test_ratio_stability_bound():
    assert ratio_stability_check(0.3, 0.1, 0.32, 0.12, 0.05)
    with pytest.raises(ValueError):
        ratio_stability_check(0.3, 0.1, 0.32, 0.12, 0.3)  # eta > 1/5
    with pytest.raises(ValueError):
        ratio_stability_check(0.3, 0.1, 0.8, 0.1, 0.05)  # perturbation too big


def test_ratio_stability_randomized_sweep():
    rng = np.random.default_rng(13)
    for _ in range(500):
        p, q = rng.random(2)
        eta = float(rng.random() * 0.2)
        s = p + q
        p_t = max(p + rng.uniform(-1, 1) * eta * s, 0.0)
        q_t = max(q + rng.uniform(-1, 1) * eta * s, 0.0)
        assert ratio_stability_check(p, q, p_t, q_t, eta)


def test_law_cache_stays_at_its_cap():
    cap = tvd._LAW_CACHE_SIZE
    assert cap >= 64
    tvd._LAW_CACHE.clear()
    insts = [TvdInstance([a, 1.0 - a], [0.5, 0.5], 0.9)
             for a in np.linspace(0.01, 0.49, cap + 5)]
    for inst in insts:
        tvd_subroutine_distribution(inst)
        assert len(tvd._LAW_CACHE) <= cap
    assert len(tvd._LAW_CACHE) == cap
    keys = [(i.p.tobytes(), i.q.tobytes(), i.epsilon) for i in insts]
    # the oldest entries went first; the newest are all still held
    assert not any(k in tvd._LAW_CACHE for k in keys[:5])
    assert all(k in tvd._LAW_CACHE for k in keys[5:])
    tvd._LAW_CACHE.clear()
