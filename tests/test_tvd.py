import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qmcs import tvd
from qmcs.amplitude import ae_outcome_distribution
from qmcs.outcome import QueryLedger, from_arrays, make_distribution, median_law
from qmcs.tvd import (estimate_tvd, exact_tvd, ratio_stability_check,
                      tvd_query_budget, tvd_subroutine_distribution)


def test_exact_tvd_values():
    assert exact_tvd([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert exact_tvd([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert exact_tvd([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        exact_tvd([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="1-d over the same index set"):
        exact_tvd([[0.5, 0.5]], [[0.5, 0.5]])  # one shape, but not 1-d
    with pytest.raises(ValueError, match="at least one index"):
        exact_tvd([], [])


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


def _median_law_brute_force(d, m):
    """Pr[median = v] summed over every m-tuple of draws from d."""
    law = {}
    for idx in itertools.product(range(d.support_size), repeat=m):
        v = float(sorted(d.values[list(idx)])[m // 2])
        law[v] = law.get(v, 0.0) + math.prod(d.probs[i] for i in idx)
    return law


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4,
                       unique=True),
       data=st.data(), m=st.sampled_from([1, 3, 5]))
def test_median_law_matches_brute_force(values, data, m):
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(values),
                                 max_size=len(values)))
    total = sum(weights)
    d = make_distribution((v, w / total) for v, w in zip(values, weights))
    law = median_law(d, m)
    brute = _median_law_brute_force(d, m)
    got = dict(zip(law.values.tolist(), law.probs.tolist()))
    assert set(got) <= set(brute)  # pruning may only drop values
    for v, p in brute.items():
        assert got.get(v, 0.0) == pytest.approx(p, abs=1e-12)


def _scipy_median_law(d, m):
    """median_law's pmf from scipy's binomial tail, pruned the same way."""
    tail = binom.sf((m + 1) // 2 - 1, m, np.clip(np.cumsum(d.probs), 0.0, 1.0))
    pmf = np.clip(np.diff(np.concatenate([[0.0], tail])), 0.0, None)
    keep = pmf > 1e-16
    return d.values[keep], pmf[keep] / pmf[keep].sum()


@pytest.mark.parametrize("seed", range(4))
def test_median_law_matches_scipy_law(seed):
    # seeded Dirichlet laws and the outcome laws the TVD subroutine takes
    # medians of keep scipy's support exactly.  A concentration of 0.02
    # leaves masses far below 1e-16 mid-CDF, where a mass is a difference
    # of two tails near 1/2, i.e. rounding noise of up to 1.5 ulp of 1/2
    # under either tail; there the supports may differ at such masses only.
    rng = np.random.default_rng(seed)
    laws = [(from_arrays(np.arange(size, dtype=float),
                         rng.dirichlet(np.full(size, alpha))), alpha == 1.0)
            for size, alpha in ((40, 1.0), (2400, 1.0), (2400, 0.02))]
    laws += [(ae_outcome_distribution(float(a), int(t)), True)
             for a, t in zip(rng.random(2), rng.integers(500, 5000, 2))]
    for d, same_support in laws:
        for m in (3, 11, 13, 61):
            law = median_law(d, m)
            values, probs = _scipy_median_law(d, m)
            if same_support:
                assert np.array_equal(law.values, values)
            ours = dict(zip(law.values.tolist(), law.probs.tolist()))
            theirs = dict(zip(values.tolist(), probs.tolist()))
            # each mass is a difference of two tails, each a sum of m terms
            # off by some ulps of 1
            for v in ours.keys() | theirs.keys():
                assert abs(ours.get(v, 0.0) - theirs.get(v, 0.0)) <= m * 2**-52


@pytest.mark.parametrize("p, q", [
    ([math.nan, 1.0], [0.5, 0.5]),
    ([0.5, 0.5], [math.nan, math.nan]),
    ([math.inf, 0.0], [0.5, 0.5]),
])
def test_instance_rejects_nonfinite_probabilities(p, q):
    with pytest.raises(ValueError, match="probability distributions"):
        tvd_subroutine_distribution(np.array(p), np.array(q), 0.1)


def test_instance_validation_and_budget_growth():
    with pytest.raises(ValueError):
        tvd_subroutine_distribution(np.array([0.6, 0.3]), np.array([0.5, 0.5]), 0.1)
    # iterations scale with sqrt(n)
    assert tvd._inner(8, 0.1)[0] > tvd._inner(2, 0.1)[0]


@pytest.mark.parametrize("p, q, eps, match", [
    ([0.6, 0.6], [1.0], 2.0, "1-d over the same index set"),
    ([[0.5, 0.5]], [[0.5, 0.5]], 2.0, "1-d over the same index set"),
    ([0.6, 0.6], [0.5, 0.5], 2.0, "probability distributions"),
    ([0.5, 0.5], [0.5, 0.5], 1.0, "epsilon must be in"),
    ([0.5, 0.5], [0.5, 0.5], math.nan, "epsilon must be in"),
    ([], [], 2.0, "at least one index"),  # an empty pair: a shape, before epsilon
])
def test_subroutine_law_checks_shape_then_values_then_epsilon(p, q, eps, match):
    with pytest.raises(ValueError, match=match):
        tvd_subroutine_distribution(p, q, eps)


def test_caller_arrays_stay_writeable_and_unchanged():
    p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
    kept = p.copy(), q.copy()
    tvd_subroutine_distribution(p, q, 0.1)
    estimate_tvd(p, q, 0.1, 0.1, np.random.default_rng(0), QueryLedger())
    for arr, before in zip((p, q), kept):
        assert arr.flags.writeable
        assert np.array_equal(arr, before)
    p[0] = 0.5  # still the caller's to change


def test_subroutine_law_equal_point_distributions():
    # p = q supported on one point: a = 1 sits within O(1/t^2) of the
    # estimation grid, so the output concentrates near 0
    p = np.array([1.0, 0.0])
    law = tvd_subroutine_distribution(p, p.copy(), 0.1)
    assert law.mean() == pytest.approx(0.0, abs=0.01)


def test_subroutine_law_disjoint_supports():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    law = tvd_subroutine_distribution(p, q, 0.1)
    assert law.mean() == pytest.approx(1.0, abs=0.01)


def test_subroutine_bias_within_half_epsilon():
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    eps = 0.05
    law = tvd_subroutine_distribution(p, q, eps / 8.0)
    assert abs(law.mean() - exact_tvd(p, q)) <= eps / 2.0


def test_query_budget_is_deterministic_and_decreasing_in_eps():
    b1 = tvd_query_budget(4, 0.02, 0.1)
    b2 = tvd_query_budget(4, 0.02, 0.1)
    assert b1 == b2
    b_coarse = tvd_query_budget(4, 0.08, 0.1)
    assert b_coarse["ae_iterations"] < b1["ae_iterations"]
    # the counts are memoized, but each call hands out its own dict
    kept = dict(b1)
    b1["ae_iterations"] = 0
    del b1["t_outer"]
    assert tvd_query_budget(4, 0.02, 0.1) == kept


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


@pytest.mark.parametrize("delta, seed", [(0.0, 400), (1.0, 401), (math.nan, 402)])
def test_estimate_tvd_checks_delta_before_building_the_law(delta, seed):
    # a fresh pair for each delta, so a law built before the check would
    # be a cache miss
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(20)), rng.dirichlet(np.ones(20))
    before = tvd._subroutine_mean.cache_info()
    ledger = QueryLedger()
    with pytest.raises(ValueError, match="delta must be in"):
        estimate_tvd(p, q, 0.1, delta, np.random.default_rng(0), ledger)
    after = tvd._subroutine_mean.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert ledger == QueryLedger()


@pytest.mark.parametrize("p, q", [
    ([-0.1, 1.1], [0.5, 0.5]),  # negative
    ([0.5, 0.5], [math.nan, 1.0]),  # non-finite
    ([math.inf, 0.0], [0.5, 0.5]),
    ([0.5, 0.5], [0.6, 0.6]),  # unnormalised
])
def test_bad_pair_raises_on_every_call_and_is_never_cached(p, q):
    # the pair is checked as distributions only on a miss; the error is not
    # cached, so the second call misses and raises again
    cache = tvd._subroutine_mean
    cache.cache_clear()
    ledger = QueryLedger()
    for misses in (1, 2):
        with pytest.raises(ValueError, match="probability distributions"):
            estimate_tvd(np.array(p), np.array(q), 0.1, 0.1,
                         np.random.default_rng(0), ledger)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, misses, 0)
    assert ledger == QueryLedger()


def test_estimate_tvd_error_precedence():
    # epsilon, then the pair's shape, then delta, then the pair's values:
    # a pair that is not a distribution with a bad delta reports delta
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="delta must be in"):
        estimate_tvd([0.6, 0.6], [0.5, 0.5], 0.1, 0.0, rng, QueryLedger())
    with pytest.raises(ValueError, match="1-d over the same index set"):
        estimate_tvd([0.6, 0.6], [1.0], 0.1, 0.0, rng, QueryLedger())
    with pytest.raises(ValueError, match="epsilon must be in"):
        estimate_tvd([0.6, 0.6], [1.0], 1.0, 0.0, rng, QueryLedger())
    # an empty pair is a bad shape: after epsilon, before delta
    with pytest.raises(ValueError, match="at least one index"):
        estimate_tvd([], [], 0.1, 0.0, rng, QueryLedger())
    with pytest.raises(ValueError, match="epsilon must be in"):
        estimate_tvd([], [], 1.0, 0.0, rng, QueryLedger())


def test_ratio_stability_bound():
    assert ratio_stability_check(0.3, 0.1, 0.32, 0.12, 0.05)
    with pytest.raises(ValueError):
        ratio_stability_check(0.3, 0.1, 0.32, 0.12, 0.3)  # eta > 1/5
    with pytest.raises(ValueError):
        ratio_stability_check(0.3, 0.1, 0.8, 0.1, 0.05)  # perturbation too big
    with pytest.raises(ValueError, match="eta must lie"):
        ratio_stability_check(0.3, 0.1, 0.3, 0.1, math.nan)  # was False


def test_ratio_stability_randomized_sweep():
    rng = np.random.default_rng(13)
    for _ in range(500):
        p, q = rng.random(2)
        eta = float(rng.random() * 0.2)
        s = p + q
        p_t = max(p + rng.uniform(-1, 1) * eta * s, 0.0)
        q_t = max(q + rng.uniform(-1, 1) * eta * s, 0.0)
        assert ratio_stability_check(p, q, p_t, q_t, eta)


def _cached_mean(inst):
    p, q, epsilon = inst
    return tvd._subroutine_mean(p.tobytes(), q.tobytes(), epsilon)


def test_law_cache_stays_at_its_cap():
    cache = tvd._subroutine_mean
    cap = cache.cache_info().maxsize
    assert cap == 64
    cache.cache_clear()
    insts = [(np.array([a, 1.0 - a]), np.array([0.5, 0.5]), 0.9)
             for a in np.linspace(0.01, 0.49, cap + 1)]
    means = [_cached_mean(inst) for inst in insts]
    info = cache.cache_info()
    assert (info.misses, info.currsize) == (cap + 1, cap)
    # the newest cap means are all held, as the very objects first computed
    assert all(_cached_mean(inst) is mean
               for inst, mean in zip(insts[1:], means[1:]))
    assert cache.cache_info().hits == cap
    # the oldest went first (a miss now, which drops insts[1]); a mean read
    # again (insts[2]) outlives the ones read before it (insts[3])
    for i in (0, 2, 1, 2, 3):
        _cached_mean(insts[i])
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (cap + 2, cap + 4, cap)
    cache.cache_clear()


def test_mean_cache_holds_scalars_not_laws():
    # one instance past the cap: what the cache still holds afterwards is
    # less than a single one of the laws it was computed from
    rng = np.random.default_rng(65)
    pairs = [(rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64)))
             for _ in range(65)]
    eps, delta = 0.1, 0.1
    # the law's build also warms the per-t caches
    law = tvd_subroutine_distribution(*pairs[0], eps / 8)
    law_bytes = law.values.nbytes + law.probs.nbytes
    del law
    tvd._subroutine_mean.cache_clear()
    tracemalloc.start()
    try:
        for p, q in pairs:
            estimate_tvd(p, q, eps, delta, np.random.default_rng(0), QueryLedger())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tvd._subroutine_mean.cache_info().currsize == 64
    tvd._subroutine_mean.cache_clear()
    assert held < law_bytes


def test_mean_cache_hit_matches_a_fresh_build():
    rng = np.random.default_rng(27)
    p, q = rng.dirichlet(np.ones(16)), rng.dirichlet(np.ones(16))
    cache = tvd._subroutine_mean

    def run(p, q, eps):
        gen, ledger = np.random.default_rng(5), QueryLedger()
        est = estimate_tvd(p, q, eps, 0.1, gen, ledger)
        return est, ledger, gen.bit_generator.state

    cache.cache_clear()
    run(p, q, 0.1)
    hit = run(p, q, 0.1)
    assert cache.cache_info()[:2] == (1, 1)  # (hits, misses)
    cache.cache_clear()
    assert run(p, q, 0.1) == hit  # a fresh build
    # the same pair at another epsilon, and the pair swapped, are misses
    run(p, q, 0.05)
    run(q, p, 0.1)
    assert cache.cache_info()[:2] == (0, 3)
    cache.cache_clear()


def test_fresh_law_does_not_hold_its_outcome_laws_at_once():
    # the outcome laws stream through _ae_median_laws one at a time: a build
    # peaks well below what holding all their masses together would take
    rng = np.random.default_rng(64)
    p, q = rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64))
    tvd_subroutine_distribution(p, q, 0.05 / 8)  # warm the per-t caches
    tracemalloc.start()
    try:
        tvd_subroutine_distribution(p, q, 0.05 / 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = len(set(p) | set(q))
    t = tvd_query_budget(64, 0.05, 0.1)["t_inner"]
    assert peak < count * (t // 2 + 1) * 8 / 2
