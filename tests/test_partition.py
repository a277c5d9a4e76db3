import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmcs
from qmcs.chains import ChainError, chain_for
from qmcs.gibbs import (MEMO_CAP, Graph, _boltzmann, chebyshev_ratio,
                        chi_squared, colouring_model, exact_partition,
                        gibbs_distribution, ising_model, matching_model,
                        overlap_squared)
from qmcs.mean import estimate_mean_relative
from qmcs.outcome import QueryLedger, ValueDistribution, from_arrays
from qmcs.partition import (CoolingSchedule, ScheduleError, _rung_plan,
                            _rung_spectra, build_schedule, classical_baseline,
                            estimate_partition, ratio_variable,
                            reversed_ratio_variable, verify_schedule)
from qmcs.walk import (approx_reflection, phase_bits, reflection_cost,
                       warm_start_cost)

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        CoolingSchedule((0.5, 1.0, math.inf), 2.0, "forward")  # must start at 0
    with pytest.raises(ScheduleError):
        CoolingSchedule((0.0, 1.0, 0.5), 2.0, "forward")  # not increasing
    with pytest.raises(ScheduleError):
        CoolingSchedule((0.0, math.inf), 0.9, "forward")  # B <= 1
    # a schedule stopping short of inf was estimated as if it reached it:
    # Z(1) = 2.736 came back as Z(inf) = 2 for one Ising edge, and for
    # matchings on C4 (reversed) 2.55 as Z(0) = 7
    for direction in ("forward", "reversed"):
        with pytest.raises(ScheduleError, match="end at beta = inf"):
            CoolingSchedule((0.0, 0.5, 1.0), 2.0, direction)


def test_ratio_variable_telescopes():
    m = matching_model(C4)
    bi, bj = 0.3, 1.1
    d = ratio_variable(m, bi, bj)
    assert d.mean() == pytest.approx(
        exact_partition(m, bj) / exact_partition(m, bi), rel=1e-12)
    # relative second moment matches the three-partition expression
    ratio = d.l2norm() ** 2 / d.mean() ** 2
    assert ratio == pytest.approx(chebyshev_ratio(m, bi, bj), rel=1e-12)


def test_ratio_variable_terminal_indicator():
    m = ising_model(K2)
    d = ratio_variable(m, 0.7, math.inf)
    assert set(np.round(d.values, 12)) <= {0.0, 1.0}
    assert d.mean() == pytest.approx(
        exact_partition(m, math.inf) / exact_partition(m, 0.7))


def test_reversed_ratio_variable():
    m = matching_model(C4)
    bi, bj = 0.3, 1.1
    d = reversed_ratio_variable(m, bi, bj)
    assert d.mean() == pytest.approx(
        exact_partition(m, bi) / exact_partition(m, bj), rel=1e-12)
    with pytest.raises(ScheduleError):
        reversed_ratio_variable(m, 0.3, math.inf)


def test_minimal_schedule_for_small_model():
    # Z(0)/Z(inf) = 2 for a single Ising edge, so B = 2 needs no midpoints
    s = build_schedule(ising_model(K2), 2.0)
    assert s.betas == (0.0, math.inf)


def test_schedule_pairs_respect_budget():
    m = matching_model(C4)
    s = build_schedule(m, 1.5)
    report = verify_schedule(m, s)
    assert report["ok"]
    assert all(p["ratio"] <= 1.5 * (1 + 1e-12) for p in report["pairs"])
    assert report["pairs"][-1]["terminal_pair"]
    # tightening B lengthens the schedule
    assert build_schedule(m, 1.1).ell >= s.ell


def test_estimate_partition_ideal_sampling():
    m = ising_model(K2)
    s = build_schedule(m, 2.0)
    eps = 0.1
    hits = 0
    for seed in range(20):
        est = estimate_partition(m, s, eps, 0.1, "ideal_sampling",
                                 np.random.default_rng(seed), QueryLedger())
        hits += abs(est.z_value - 2.0) <= eps * 2.0
    assert hits >= 18


def test_estimate_partition_reversed_direction():
    m = matching_model(C4)
    s = build_schedule(m, 2.0, direction="reversed")
    est = estimate_partition(m, s, 0.1, 0.1, "ideal_sampling",
                             np.random.default_rng(1), QueryLedger())
    assert abs(est.z_value - 7.0) <= 0.1 * 7.0


def test_walk_mode_charges_walk_steps_not_oracle_calls():
    m = ising_model(K2)
    s = build_schedule(m, 2.0)
    ledger = QueryLedger()
    estimate_partition(m, s, 0.2, 0.2, "walk_idealized",
                       np.random.default_rng(2), ledger)
    assert ledger.walk_steps > 0


def test_exact_sim_charges_exceed_idealized():
    m = ising_model(K2)
    s = build_schedule(m, 2.0)
    l_ideal, l_sim = QueryLedger(), QueryLedger()
    estimate_partition(m, s, 0.2, 0.2, "walk_idealized",
                       np.random.default_rng(3), l_ideal)
    estimate_partition(m, s, 0.2, 0.2, "walk_exact_sim",
                       np.random.default_rng(3), l_sim)
    assert l_sim.walk_steps > l_ideal.walk_steps


class _CountingRng:
    """A generator that offers only random(), and counts its calls."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), 0

    def random(self, size):
        self.calls += 1
        return self._rng.random(size)


def test_relative_estimates_take_one_proxy_and_one_uniform_block(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a ratio took an amplitude-estimation sampler call")

    monkeypatch.setattr(qmcs.mean, "ae_median", forbidden)
    monkeypatch.setattr(qmcs.amplitude, "ae_sample", forbidden)
    for m, direction in ((ising_model(C4), "forward"),
                         (matching_model(C4), "reversed")):
        s = build_schedule(m, 2.0, direction)
        rng = _CountingRng(0)
        estimate_partition(m, s, 0.2, 0.25, "ideal_sampling", rng, QueryLedger())
        runs = s.ell * qmcs.mean.powering_reps(0.25, 0.25 / s.ell)
        assert rng.calls == 2 * runs


def _relative_counts(rp, reps):
    """(a_uses, a_inv_uses, reflection_uses, classical_samples) of reps
    relative estimates run from the plan rp, in closed form."""
    k, t0, reps_0, reps_l = rp.l2
    draws = reps * rp.reps * (reps_0 + k * reps_l)
    return np.array([draws, draws, draws * t0, reps * rp.n])


def _counts(ledger):
    return np.array([ledger.a_uses, ledger.a_inv_uses, ledger.reflection_uses,
                     ledger.classical_samples])


def test_relative_estimate_ledgers_have_closed_forms():
    # the counts that the walk modes convert into walk steps
    eps, delta = 0.2, 0.25
    for m, direction in ((ising_model(C4), "forward"),
                         (matching_model(C4), "reversed")):
        s = build_schedule(m, 2.0, direction)
        reps = qmcs.mean.powering_reps(0.25, delta / s.ell)
        # every ratio runs the one plan at epsilon/(2 ell)
        expected = s.ell * _relative_counts(
            qmcs.mean._relative_plan(s.B, eps / (2.0 * s.ell)), reps)
        ledger = QueryLedger()
        estimate_partition(m, s, eps, delta, "ideal_sampling",
                           np.random.default_rng(0), ledger)
        assert _counts(ledger).tolist() == expected.tolist()
        assert ledger.walk_steps == 0
    d = from_arrays([0.5, 1.0, 4.0], [0.25, 0.5, 0.25])
    for B, eps in ((1.5, 0.3), (4.0, 0.05)):
        ledger = QueryLedger()
        estimate_mean_relative(d, B, eps, np.random.default_rng(1), ledger)
        expected = _relative_counts(qmcs.mean._relative_plan(B, eps), 1)
        assert _counts(ledger).tolist() == expected.tolist()


def _cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _counted_partition(m, s, eps, delta, mode, rng, ledger):
    """estimate_partition's draws and charges with each ratio's walk steps
    counted, not priced: the ratio's relative estimates run on their own
    ledger, whose oracle uses become walk steps before it is merged."""
    plan, _ = _rung_plan(m, s)
    taus, thetas = _rung_spectra(m, s)
    eps_i, delta_i = eps / (2.0 * s.ell), delta / s.ell
    rp = qmcs.mean._relative_plan(s.B, eps_i)
    for r in plan:
        spent = QueryLedger()
        qmcs.mean.power_median(
            lambda: qmcs.mean._relative_run(rp, r.law, rng, spent),
            gamma=0.25, delta=delta_i)
        uses = spent.reflection_uses
        eps_r = 0.1 / max(uses, 1)
        per_reflection = (2**phase_bits(thetas[r.rung], min(0.25, eps_i))
                          if mode == "walk_exact_sim"
                          else reflection_cost(taus[r.rung], eps_r))
        prep = warm_start_cost(r.rung, max(taus[: max(r.rung, 1)]), eps_r, s.B)
        spent.walk_steps += ((spent.a_uses + spent.a_inv_uses) * prep
                             + uses * per_reflection)
        ledger.merge(spent)


@pytest.mark.parametrize("mode", ["walk_idealized", "walk_exact_sim"])
@pytest.mark.parametrize("build, direction", [
    (lambda: ising_model(K2), "forward"),
    (lambda: ising_model(C4), "forward"),
    (lambda: ising_model(_cycle(5)), "forward"),
    (lambda: ising_model(_cycle(8)), "forward"),
    (lambda: matching_model(C4), "reversed"),
    (lambda: matching_model(_cycle(6)), "reversed"),
    (lambda: colouring_model(Graph(3, ((0, 1), (1, 2), (0, 2))), 3), "forward"),
], ids=["k2-ising", "c4-ising", "c5-ising", "c8-ising", "c4-matching",
        "c6-matching", "k3-colouring"])
def test_priced_walk_steps_match_the_counted_conversion(build, direction, mode):
    # the plan prices each ratio's walk steps in closed form; counting them
    # from the ratio's own ledger gives the same ledger and the same draws
    m = build()
    s = build_schedule(m, 2.0, direction)
    for eps in (0.2, 0.05):
        for delta in (0.25, 0.01):
            got, want = QueryLedger(), QueryLedger()
            rng_got, rng_want = np.random.default_rng(9), np.random.default_rng(9)
            estimate_partition(m, s, eps, delta, mode, rng_got, got)
            _counted_partition(m, s, eps, delta, mode, rng_want, want)
            assert got == want and got.walk_steps > 0
            assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_mean_and_tvd_ledgers_have_closed_forms():
    # (a_uses, a_inv_uses, reflection_uses, classical_samples) of one
    # bounded, l2, variance and TVD estimate, from their parameters alone
    mean = qmcs.mean
    d = from_arrays([0.0, 0.25, 1.0], [0.5, 0.25, 0.25])
    for t, delta in ((7, 0.1), (40, 0.01)):
        ledger = QueryLedger()
        mean.estimate_mean_bounded(d, t, delta, np.random.default_rng(2), ledger)
        reps = mean.powering_reps(qmcs.amplitude.AE_FAIL_PROB, delta)
        assert _counts(ledger).tolist() == [reps, reps, reps * t, 0]
    d = from_arrays([0.5, 1.0, 4.0], [0.25, 0.5, 0.25])
    for eps in (0.3, 0.02):
        ledger = QueryLedger()
        mean.estimate_mean_l2(d, eps, np.random.default_rng(3), ledger)
        k, t0, reps_0, reps_l = mean._l2_plan(eps)
        draws = reps_0 + k * reps_l
        assert _counts(ledger).tolist() == [draws, draws, draws * t0, 0]
    d = from_arrays([4.0, 5.0, 6.0], [0.25, 0.5, 0.25])
    for sigma, eps in ((1.0, 0.1), (2.0, 0.5)):
        ledger = QueryLedger()
        mean.estimate_mean_variance(d, sigma, eps, np.random.default_rng(4), ledger)
        k, t0, reps_0, reps_l = mean._l2_plan(eps / (32.0 * sigma))
        draws = 2 * mean.powering_reps(1.0 / 5.0, 1.0 / 9.0) * (reps_0 + k * reps_l)
        # the proxy draw is charged as one classical sample and one A use
        assert _counts(ledger).tolist() == [draws + 1, draws, draws * t0, 1]
        if (sigma, eps) == (1.0, 0.1):
            assert _counts(ledger).tolist() == [613, 612, 11_480_508, 1]
    p, q = np.array([0.7, 0.2, 0.1]), np.array([0.4, 0.3, 0.3])
    for eps, delta in ((0.2, 0.1), (0.1, 0.3)):
        ledger = QueryLedger()
        qmcs.tvd.estimate_tvd(p, q, eps, delta, np.random.default_rng(5), ledger)
        b = qmcs.tvd.tvd_query_budget(3, eps, delta)
        assert _counts(ledger).tolist() == [
            b["reps_outer"], b["reps_outer"], b["ae_iterations"],
            b["subroutine_invocations"]]
        assert ledger.walk_steps == 0


def test_classical_baseline_sample_count_and_value():
    eps = 0.1
    for m, direction, z in ((ising_model(K2), "forward", 2.0),
                            (matching_model(C4), "reversed", 7.0)):
        s = build_schedule(m, 2.0, direction)
        ledger = QueryLedger()
        est = classical_baseline(m, s, eps, np.random.default_rng(4), ledger)
        n = math.ceil(16.0 * 2.0 * s.ell / eps**2)
        assert ledger.classical_samples == n * s.ell
        # classical draws only: no oracle use and no walk step is charged
        assert ledger.total_quantum() == 0 and ledger.a_uses == 0
        assert abs(est.z_value - z) <= eps * z


def test_estimate_rejects_bad_mode_and_schedule():
    m = ising_model(K2)
    s = build_schedule(m, 2.0)
    with pytest.raises(ValueError):
        estimate_partition(m, s, 0.1, 0.1, "other",
                           np.random.default_rng(0), QueryLedger())
    bad = CoolingSchedule((0.0, math.inf), 1.5, "forward")  # ratio 2 > 1.5
    with pytest.raises(ScheduleError):
        estimate_partition(m, bad, 0.1, 0.1, "ideal_sampling",
                           np.random.default_rng(0), QueryLedger())


def test_nan_b_is_rejected():
    # CoolingSchedule accepted it, and build_schedule ended in "schedule
    # stalled: no admissible next beta"
    with pytest.raises(ScheduleError, match="B must exceed 1"):
        CoolingSchedule((0.0, math.inf), math.nan)
    with pytest.raises(ScheduleError, match="B must exceed 1"):
        build_schedule(ising_model(K2), math.nan)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
def test_classical_baseline_checks_epsilon_before_setup(eps):
    # -0.1 used to return an estimate of 3,200 samples per ratio, 0 to raise
    # ZeroDivisionError and NaN the sample-cap error, both after the set-up
    m = ising_model(K2)
    s = build_schedule(m, 2.0)
    ledger = QueryLedger()
    with pytest.raises(ValueError, match="epsilon must be positive"):
        classical_baseline(m, s, eps, np.random.default_rng(0), ledger)
    assert m._memo == {} and ledger == QueryLedger()


def test_classical_baseline_draws_at_least_one_sample():
    # an infinite epsilon used to draw no sample and return a NaN estimate
    m = ising_model(C4)
    s = build_schedule(m, 2.0)
    ledger = QueryLedger()
    est = classical_baseline(m, s, math.inf, np.random.default_rng(0), ledger)
    assert math.isfinite(est.z_value) and est.meta["samples_per_ratio"] == 1
    assert ledger.classical_samples == s.ell


def test_one_state_chain_fails_walk_modes_only():
    # one colour on two free vertices: one state, so no walk phase to charge
    # a reflection from; ideal sampling needs none
    m = colouring_model(Graph(2, ()), 1)
    s = build_schedule(m, 2.0)
    for mode in ("walk_idealized", "walk_exact_sim"):
        with pytest.raises(ChainError, match="one-state chain has no walk phase"):
            estimate_partition(m, s, 0.1, 0.25, mode,
                               np.random.default_rng(0), QueryLedger())
    est = estimate_partition(m, s, 0.1, 0.25, "ideal_sampling",
                             np.random.default_rng(0), QueryLedger())
    assert est.z_value == pytest.approx(1.0)


def _state_gibbs(m, beta):
    """Oracle: the Gibbs vector weighed state by state."""
    if beta == math.inf:
        if m.counts[0] == 0:
            raise ZeroDivisionError("no ground states: Z(inf) = 0")
        return (m.energies == 0) / float(m.counts[0])
    w = _boltzmann(m.energies, float(beta))
    return w / w.sum()


def _state_ratio_law(m, beta_i, beta_j, reverse=False):
    """Oracle: the (reversed) ratio variable built from the 2^n states."""
    if beta_j == math.inf:
        values = (m.energies == 0).astype(float)
    else:
        values = np.exp((beta_j - beta_i if reverse else -(beta_j - beta_i))
                        * m.energies)
    probs = _state_gibbs(m, beta_j if reverse else beta_i)
    # each level's mass summed exactly: a running sum of ~100 state masses
    # drifts by several ulps, more than the law under test
    uniq, inverse = np.unique(values, return_inverse=True)
    merged = [math.fsum(probs[inverse == k]) for k in range(len(uniq))]
    return from_arrays(uniq, merged)


@st.composite
def _models(draw):
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, tuple(edges))
    name = draw(st.sampled_from(["ising", "colouring", "matching"]))
    if name == "colouring":
        return colouring_model(g, draw(st.integers(1, 3)))
    return ising_model(g) if name == "ising" else matching_model(g)


_betas = st.sampled_from([0.0, math.inf]) | st.floats(-3.0, 6.0)


@settings(max_examples=150, deadline=None)
@given(m=_models(), b1=_betas, b2=_betas)
def test_level_laws_match_state_oracles(m, b1, b2):
    bi, bj = min(b1, b2), max(b1, b2)
    assume(bj < math.inf or m.counts[0] > 0)
    pi, nu = _state_gibbs(m, bi), _state_gibbs(m, bj)
    for beta, oracle in ((bi, pi), (bj, nu)):
        assert np.abs(gibbs_distribution(m, beta) - oracle).max() <= 1e-15
    assert overlap_squared(m, bi, bj) == pytest.approx(
        float(np.sum(np.sqrt(pi * nu)) ** 2), rel=1e-12, abs=1e-15)
    mask = pi > 0
    assert chi_squared(m, bi, bj) == pytest.approx(
        float(np.sum(pi[mask] * (nu[mask] / pi[mask] - 1.0) ** 2)),
        rel=1e-12, abs=1e-15)
    assume(bi < bj)
    laws = [(ratio_variable(m, bi, bj), _state_ratio_law(m, bi, bj))]
    if bj < math.inf:  # the terminal pair has no reversed variable
        laws.append((reversed_ratio_variable(m, bi, bj),
                     _state_ratio_law(m, bi, bj, reverse=True)))
    for law, oracle in laws:
        assert np.array_equal(law.values, oracle.values)
        assert np.abs(law.probs - oracle.probs).max() <= 1e-15
        assert law.support_size <= len(m.levels)


def test_level_quantities_build_no_gibbs_vector(monkeypatch):
    def refuse(m, beta):
        raise AssertionError("per-state Gibbs vector built")

    for module in [mod for name, mod in list(sys.modules.items())
                   if name == "qmcs" or name.startswith("qmcs.")]:
        for attr, value in list(vars(module).items()):
            if value is gibbs_distribution:
                monkeypatch.setattr(module, attr, refuse)
    assert qmcs.gibbs.gibbs_distribution is refuse
    for m, direction in ((ising_model(C4), "forward"),
                         (matching_model(C4), "reversed")):
        s = build_schedule(m, 1.5, direction)
        assert verify_schedule(m, s)["ok"]
        bi, bj = s.betas[0], s.betas[1]
        ratio_variable(m, bi, math.inf)
        reversed_ratio_variable(m, bi, bj)
        overlap_squared(m, bi, math.inf)
        chi_squared(m, bi, bj)


def _memo_leaves(x):
    """Every non-container value in a memo key or entry."""
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from _memo_leaves(item)
    elif isinstance(x, ValueDistribution):
        yield from (x.values, x.probs)
    else:
        yield x


@pytest.mark.parametrize("mode", ["ideal_sampling", "walk_idealized",
                                  "walk_exact_sim"])
def test_memoized_setup_matches_fresh_models(mode):
    # seeded estimates on one model, whose set-up is built by the first call
    # and read by the rest, are bit for bit those on freshly built models
    for build, direction in ((lambda: ising_model(C4), "forward"),
                             (lambda: matching_model(C4), "reversed")):
        def run(m, seed):
            s = build_schedule(m, 2.0, direction)
            pe = estimate_partition(m, s, 0.2, 0.25, mode,
                                    np.random.default_rng(seed), QueryLedger())
            return pe.z_value.hex(), [r.hex() for r in pe.ratios], pe.ledger

        warm = build()
        for seed in (5, 6, 7):
            assert run(warm, seed) == run(build(), seed)
        # scalars and level laws only: no chain, P or eigenvector is kept
        for leaf in _memo_leaves(list(warm._memo.items())):
            assert isinstance(leaf, (str, int, float, CoolingSchedule,
                                     np.ndarray)), leaf
            assert not isinstance(leaf, np.ndarray) or leaf.size <= len(warm.levels)


def test_rung_spectra_give_each_reflections_tau_and_charge():
    # the two memoized scalars per rung charge what a reflection on the
    # rung's chain charges, at any epsilon
    for m, direction in ((ising_model(C4), "forward"),
                         (matching_model(C4), "reversed")):
        s = build_schedule(m, 2.0, direction)
        taus, thetas = _rung_spectra(m, s)
        for beta, tau, theta in zip(s.betas[:-1], taus, thetas, strict=True):
            for eps in (0.25, 0.01, 1e-6):
                refl = approx_reflection(chain_for(m, beta), eps,
                                         QueryLedger())
                assert refl.tau == tau
                assert refl.charge == 2**phase_bits(theta, eps)


@pytest.mark.parametrize("mode", ["ideal_sampling", "walk_idealized",
                                  "walk_exact_sim"])
def test_estimate_partition_checks_epsilon_before_setup(mode):
    # walk modes used to solve and memoize every rung chain before a NaN
    # epsilon failed, and ideal_sampling verified the plan before epsilon 0;
    # the relative plan at epsilon/(2 ell) = epsilon/6 (its bound, then the
    # t cap) used to be checked only after the plan and the rung spectra;
    # its errors name the caller's epsilon first, then the per-ratio one
    m = ising_model(C4)
    s = build_schedule(m, 2.0)
    per_ratio = r"epsilon={:g}, per ratio epsilon/\(2 ell\) = {:g}: "
    bound = re.escape("epsilon must be < 3(2 sqrt(B) + 1)^2/4 = 10.9926 at B = 2")
    for eps, message in ((0.0, "epsilon must be positive"),
                         (-0.1, "epsilon must be positive"),
                         (math.nan, "epsilon must be positive"),
                         (100.0, per_ratio.format(100.0, 100.0 / 6) + bound),
                         (66.0, per_ratio.format(66.0, 11.0) + bound),
                         (1e-20, per_ratio.format(1e-20, 1e-20 / 6)
                          + r"t=\S+ exceeds the amplitude-estimation cap")):
        rng, ledger = np.random.default_rng(0), QueryLedger()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message) as info:
            estimate_partition(m, s, eps, 0.25, mode, rng, ledger)
        assert m._memo == {} and ledger == QueryLedger()
        assert rng.bit_generator.state == state
        if eps > 0:  # chained from the relative plan's own error
            assert isinstance(info.value.__cause__, ValueError)
    # 2 ell (3(2 sqrt(2) + 1)^2/4) = 65.96: just under it, an estimate
    z = estimate_partition(m, s, 65.9, 0.25, mode, np.random.default_rng(0), QueryLedger())
    assert math.isfinite(z.z_value)


def test_estimate_partition_checks_delta_before_setup():
    # delta = 0 used to fail only after the plan was verified and memoized
    m = ising_model(K2)
    s = build_schedule(m, 1.5, "forward")
    ledger = QueryLedger()
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        estimate_partition(m, s, 0.2, 0.0, "ideal_sampling",
                           np.random.default_rng(0), ledger)
    assert m._memo == {} and ledger == QueryLedger()


def test_failed_setup_raises_every_call_and_is_not_memoized():
    # 8,192 states, over the dense chain cap: each rung's chain is refused
    m = ising_model(Graph(13, tuple((i, (i + 1) % 13) for i in range(13))))
    s = build_schedule(m, 2.0)
    for _ in range(2):
        with pytest.raises(ChainError):
            estimate_partition(m, s, 0.1, 0.25, "walk_idealized",
                               np.random.default_rng(0), QueryLedger())
    assert [key[0] for key in m._memo] == ["plan"]  # verified; no rung spectra
    m = ising_model(K2)
    bad = CoolingSchedule((0.0, math.inf), 1.5, "forward")  # ratio 2 > 1.5
    for _ in range(2):
        with pytest.raises(ScheduleError):
            estimate_partition(m, bad, 0.1, 0.1, "ideal_sampling",
                               np.random.default_rng(0), QueryLedger())
        with pytest.raises(ScheduleError):
            classical_baseline(m, bad, 0.1, np.random.default_rng(0),
                               QueryLedger())
    assert m._memo == {}


def test_memo_keeps_the_latest_cap_keys():
    m = ising_model(K2)  # Z(0)/Z(inf) = 2: every B >= 2 verifies (0, inf)
    schedules = [CoolingSchedule((0.0, math.inf), 2.0 + i, "forward")
                 for i in range(MEMO_CAP + 3)]
    for i, s in enumerate(schedules):
        classical_baseline(m, s, 0.9, np.random.default_rng(i), QueryLedger())
        assert len(m._memo) == min(i + 1, MEMO_CAP)
    assert [key[1] for key in m._memo] == schedules[-MEMO_CAP:]
