"""Acceptance suite: one callable per criterion, shared by CLI and tests.

Every criterion returns {"id", "name", "passed", "seconds", "details"}.
Coverage checks compare empirical success rates over many trials against the
stated probability floor minus three binomial standard deviations; scaling
checks fit log-log slopes of ledger counts against 1/eps.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from .amplitude import (AE_SUCCESS_PROB, ae_circuit_distribution,
                        ae_measurement_probs, ae_outcome_distribution,
                        arcsin_gap_bound, interval_coverage,
                        measurement_tv_bound, stability_failure_bound)
from .chains import MarkovChain, glauber_chain
from .gibbs import (Graph, chi_squared, colouring_model, gibbs_distribution,
                    ising_model, matching_model, overlap_squared)
from .mean import (classical_mean_chebyshev, estimate_mean_bounded,
                   estimate_mean_l2, estimate_mean_relative,
                   estimate_mean_variance, t_for_additive_error)
from .outcome import QueryLedger, from_arrays, make_distribution
from .partition import (build_schedule, classical_baseline, estimate_partition,
                        ratio_variable, verify_schedule)
from .tvd import (estimate_tvd, exact_tvd, ratio_stability_check,
                  tvd_query_budget)
from .walk import (ReflectionSpec, approx_reflection, szegedy_walk,
                   spectral_correspondence_residual, warm_start_prepare)

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))


def _floor(p_succ: float, n: int) -> float:
    return p_succ - 3.0 * math.sqrt(p_succ * (1.0 - p_succ) / n)


def _hit_rate(trials: int, run, truth: float, tol: float) -> float:
    """Share of `trials` calls run(QueryLedger()) landing within tol of truth."""
    hits = sum(abs(run(QueryLedger()) - truth) <= tol for _ in range(trials))
    return hits / trials


def _slope(eps_values, counts) -> float:
    x = np.log(1.0 / np.asarray(eps_values, float))
    y = np.log(np.asarray(counts, float))
    return float(np.polyfit(x, y, 1)[0])


def criterion_1():
    """Interval coverage of the outcome law, and the circuit cross-check."""
    details = {}
    ok = True
    worst = 1.0
    for t in (4, 8, 16, 32, 64):
        for a in np.linspace(0.0, 1.0, 50):
            cov = interval_coverage(float(a), t)
            worst = min(worst, cov)
            ok = ok and cov >= AE_SUCCESS_PROB - 1e-12
    details["worst_coverage"] = worst
    details["floor"] = AE_SUCCESS_PROB
    worst_tv = 0.0
    for a, t in ((0.0, 4), (0.5, 4), (0.37, 32), (0.25, 128), (0.613, 256)):
        closed = ae_outcome_distribution(a, t)
        circuit = ae_circuit_distribution(a, t)
        if not np.allclose(closed.values, circuit.values, atol=1e-12):
            ok = False
        worst_tv = max(worst_tv, exact_tvd(closed.probs, circuit.probs))
    details["worst_circuit_tv"] = worst_tv
    ok = ok and worst_tv <= 1e-8
    return ok, details


def criterion_2():
    """Bounded-mean coverage on Bernoulli(1/4) at eps = 0.01."""
    eps, delta, trials = 0.01, 0.1, 1000
    d = make_distribution([(0.0, 0.75), (1.0, 0.25)])
    t = t_for_additive_error(eps)
    rng = np.random.default_rng(20)
    rate = _hit_rate(trials, lambda led: estimate_mean_bounded(
        d, t, delta, rng, led).value, 0.25, eps)
    floor = _floor(1.0 - delta, trials)
    return rate >= floor, {"rate": rate, "floor": floor, "t": t}


def criterion_3():
    """Second-moment estimator coverage on the heavy-tail two-point law."""
    eps, trials = 0.05, 1000
    d = make_distribution([(0.0, 63 / 64), (8.0, 1 / 64)])
    bound = eps * (d.l2norm() + 1.0) ** 2
    rng = np.random.default_rng(30)
    rate = _hit_rate(trials, lambda led: estimate_mean_l2(
        d, eps, rng, led).value, d.mean(), bound)
    floor = _floor(0.8, trials)
    return rate >= floor, {"rate": rate, "floor": floor,
                           "error_bound": bound, "mean": d.mean()}


def criterion_4():
    """Variance-mode coverage and the quantum/classical accuracy slopes."""
    trials = 200
    d = make_distribution([(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)])
    sigma = 1.0
    sweep = [0.1, 0.05, 0.02, 0.01, 0.005]
    rng = np.random.default_rng(40)
    rates, refl = [], []
    for eps in sweep:
        hits = 0
        used = []
        for _ in range(trials):
            led = QueryLedger()
            est = estimate_mean_variance(d, sigma, eps, rng, led)
            hits += abs(est.value - 5.0) <= eps
            used.append(led.reflection_uses)
        rates.append(hits / trials)
        refl.append(float(np.mean(used)))
    floor = _floor(2.0 / 3.0, trials)
    q_slope = _slope(sweep, refl)
    classical = []
    for eps in sweep:
        led = QueryLedger()
        classical_mean_chebyshev(d, sigma, eps, rng, led)
        classical.append(led.classical_samples)
    c_slope = _slope(sweep, classical)
    ok = (all(r >= floor for r in rates)
          and 0.9 <= q_slope <= 1.35 and 1.9 <= c_slope <= 2.1)
    return ok, {"rates": rates, "floor": floor, "sweep": sweep,
                "reflections": refl, "quantum_slope": q_slope,
                "classical_slope": c_slope}


def criterion_5():
    """Relative-error coverage on the two-point law with B = 5/4."""
    eps, B, trials = 0.05, 1.25, 1000
    d = make_distribution([(1.0, 0.5), (3.0, 0.5)])
    rng = np.random.default_rng(50)
    rate = _hit_rate(trials, lambda led: estimate_mean_relative(
        d, B, eps, rng, led).value, 2.0, eps * 2.0)
    floor = _floor(0.75, trials)
    return rate >= floor, {"rate": rate, "floor": floor}


def criterion_6():
    """Chi-squared dual identity, overlap bounds, and the K2 reference values."""
    models = [ising_model(K2), ising_model(C4),
              colouring_model(TRIANGLE, 3), matching_model(
                  Graph(3, ((0, 1), (1, 2))))]
    rng = np.random.default_rng(60)
    ok = True
    worst_gap = 0.0
    for _ in range(100):
        m = models[rng.integers(len(models))]
        b1 = float(rng.random() * 2.0)
        b2 = b1 + float(rng.random() * 2.0) + 1e-6
        chi = chi_squared(m, b1, b2)  # raises if the dual forms disagree
        ov = overlap_squared(m, b1, b2)
        gap = 1.0 / (1.0 + chi) - ov
        worst_gap = max(worst_gap, gap)
        ok = ok and ov >= 1.0 / (1.0 + chi) - 1e-12
    m2 = ising_model(K2)
    chi_k2 = chi_squared(m2, 0.0, math.log(2.0))
    ov_k2 = overlap_squared(m2, 0.0, math.log(2.0))
    ok = ok and abs(chi_k2 - 1.0 / 9.0) <= 1e-6
    ok = ok and abs(ov_k2 - 0.9714045207910316) <= 1e-6
    for model in models:
        s = build_schedule(model, 2.0)
        for i in range(s.ell):
            ov = overlap_squared(model, s.betas[i], s.betas[i + 1])
            ok = ok and ov >= 1.0 / s.B - 1e-12
    return ok, {"chi_k2": chi_k2, "overlap_k2": ov_k2,
                "worst_jensen_gap": worst_gap}


def criterion_7():
    """Greedy schedules verify for B in {1.5, 2, 4} on the four instances."""
    cases = [("k2_ising", ising_model(K2), ("forward",)),
             ("c4_ising", ising_model(C4), ("forward",)),
             ("triangle_col", colouring_model(TRIANGLE, 3), ("forward",)),
             ("c4_matching", matching_model(C4), ("forward", "reversed"))]
    ok = True
    lengths = {}
    for name, model, directions in cases:
        for B in (1.5, 2.0, 4.0):
            for direction in directions:
                s = build_schedule(model, B, direction)
                report = verify_schedule(model, s)
                ok = ok and report["ok"]
                lengths[f"{name},B={B},{direction}"] = s.ell
    k2_b2 = build_schedule(ising_model(K2), 2.0)
    ok = ok and k2_b2.betas == (0.0, math.inf)
    return ok, {"lengths": lengths, "k2_B2": [str(b) for b in k2_b2.betas]}


def criterion_8():
    """End-to-end partition estimation coverage and ledger slopes."""
    trials = 300
    rng = np.random.default_rng(80)
    m_ising = ising_model(K2)
    s_ising = build_schedule(m_ising, 2.0)
    rate_ising = _hit_rate(trials, lambda led: estimate_partition(
        m_ising, s_ising, 0.1, 0.25, "ideal_sampling", rng, led).z_value,
        2.0, 0.1 * 2.0)
    m_match = matching_model(C4)
    s_match = build_schedule(m_match, 2.0, "reversed")
    rate_match = _hit_rate(trials, lambda led: estimate_partition(
        m_match, s_match, 0.2, 0.25, "ideal_sampling", rng, led).z_value,
        7.0, 0.2 * 7.0)
    sweep = [0.2, 0.1, 0.05, 0.025]
    totals, classical = [], []
    for eps in sweep:
        led = QueryLedger()
        estimate_partition(m_ising, s_ising, eps, 0.25, "walk_idealized",
                           rng, led)
        totals.append(led.reflection_uses + led.walk_steps)
        led = QueryLedger()
        classical_baseline(m_ising, s_ising, eps, rng, led)
        classical.append(led.classical_samples)
    q_slope = _slope(sweep, totals)
    c_slope = _slope(sweep, classical)
    floor = _floor(0.75, trials)
    ok = (rate_ising >= floor and rate_match >= floor
          and 0.9 <= q_slope <= 1.35 and 1.9 <= c_slope <= 2.1)
    return ok, {"rate_ising": rate_ising, "rate_matching": rate_match,
                "floor": floor, "quantum_slope": q_slope,
                "classical_slope": c_slope, "quantum_totals": totals}


def criterion_9():
    """Walk spectral correspondence, reflection error, warm-start fidelity."""
    rng = np.random.default_rng(90)
    ok = True
    worst_resid = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        m = rng.random((n, n)) + 0.05
        flux = (m + m.T) / 2.0
        P = flux / pi[:, None]
        np.fill_diagonal(P, 0.0)
        P *= 0.9 / P.sum(axis=1).max()
        np.fill_diagonal(P, 1.0 - P.sum(axis=1))
        resid = spectral_correspondence_residual(szegedy_walk(MarkovChain(P, pi)))
        worst_resid = max(worst_resid, resid)
    ok = ok and worst_resid <= 1e-8

    two_state = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]),
                            np.array([0.5, 0.5]))
    k2_chain = glauber_chain(ising_model(K2), 1.0)
    worst_refl = 0.0
    for chain, eps_r in ((two_state, 0.01), (k2_chain, 0.05)):
        refl = approx_reflection(chain, ReflectionSpec(eps_r, "exact_sim"),
                                 QueryLedger())
        for _ in range(100):
            u = rng.standard_normal(chain.n)
            err = refl.error_norm(u / np.linalg.norm(u))
            worst_refl = max(worst_refl, err / eps_r)
            ok = ok and err <= eps_r

    model = ising_model(K2)
    beta1 = build_schedule(model, 1.5).betas[1]
    eps_s = 0.05
    qs = warm_start_prepare(model, [0.0, beta1], 1, eps_s, "exact_sim",
                            QueryLedger())
    target = np.sqrt(gibbs_distribution(model, beta1))
    fidelity = float(qs.amplitudes @ target) ** 2
    ok = ok and fidelity >= 1.0 - eps_s
    return ok, {"worst_spectral_residual": worst_resid,
                "worst_reflection_ratio": worst_refl, "fidelity": fidelity}


def criterion_10():
    """TVD coverage at distances {0, 1/2, 1}, iteration slope, stability sweep."""
    eps, delta, trials = 0.1, 0.1, 200
    instances = [
        (np.full(8, 1 / 8), np.full(8, 1 / 8)),
        (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5])),
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    ]
    rng = np.random.default_rng(100)
    rates = [_hit_rate(trials, lambda led: estimate_tvd(
        p, q, eps, delta, rng, led).value, exact_tvd(p, q), eps)
        for p, q in instances]
    floor = _floor(1.0 - delta, trials)
    sweep = [0.04, 0.02, 0.01, 0.005]
    budget = [tvd_query_budget(3, e, delta)["ae_iterations"] for e in sweep]
    slope = _slope(sweep, budget)
    ok = all(r >= floor for r in rates) and 1.4 <= slope <= 1.7
    violations = 0
    for _ in range(10000):
        p, q = rng.random(2) * 0.98 + 0.01
        eta = float(rng.random() * 0.2)
        s = p + q
        p_t = max(0.0, p + float(rng.uniform(-1, 1)) * eta * s)
        q_t = max(0.0, q + float(rng.uniform(-1, 1)) * eta * s)
        if not ratio_stability_check(p, q, p_t, q_t, eta):
            violations += 1
    ok = ok and violations == 0
    return ok, {"rates": rates, "floor": floor, "slope": slope,
                "stability_violations": violations}


def criterion_11():
    """Arcsin gap, kernel TV bound, and failure under a tiny perturbation."""
    trials = 400
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(10000):
        x, y = rng.random(2)
        lhs, rhs = arcsin_gap_bound(float(x), float(y))
        ok = ok and lhs <= rhs + 1e-12
    for _ in range(1000):
        mu_a = float(rng.random())
        mu_b = min(1.0, mu_a + float(rng.random()) * 0.1)
        t = int(rng.integers(2, 65))
        tv = exact_tvd(ae_measurement_probs(mu_a, t),
                       ae_measurement_probs(mu_b, t))
        ok = ok and tv <= measurement_tv_bound(mu_a, mu_b, t) + 1e-12

    base = ratio_variable(ising_model(K2), 0.0, math.log(2.0))
    gamma = 1e-12
    perturbed = from_arrays(base.values, base.probs + [-gamma, gamma])
    sigma, eps = 0.3, 0.05
    failures = 0
    uses = []
    for _ in range(trials):
        led = QueryLedger()
        est = estimate_mean_variance(perturbed, sigma, eps, rng, led)
        failures += abs(est.value - base.mean()) > eps
        uses.append(led.a_uses)
    rate = failures / trials
    T = float(np.mean(uses))
    bound = (stability_failure_bound(gamma, T)
             + 3.0 * math.sqrt(0.3 * 0.7 / trials))
    ok = ok and rate <= bound
    return ok, {"perturbed_failure_rate": rate, "bound": bound, "T_mean": T}


def criterion_12():
    """CLI determinism: identical seeds give byte-identical output."""
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        dist = f"{work}/bern.json"
        with open(dist, "w") as fh:
            json.dump({"support": [[0.0, 0.75], [1.0, 0.25]]}, fh)
        graph = f"{work}/c4.txt"
        with open(graph, "w") as fh:
            fh.write("4 4\n0 1\n1 2\n2 3\n3 0\n")
        commands = [
            ["mean", "--dist", dist, "--method", "bounded", "--eps", "0.01",
             "--seed", "7"],
            ["partition", "--model", "matching", "--graph", graph,
             "--eps", "0.2", "--seed", "3"],
            ["tvd", "--p", dist, "--q", dist, "--eps", "0.2", "--seed", "5"],
            ["schedule", "--model", "ising", "--graph", graph, "--B", "2"],
        ]
        ok = True
        for cmd in commands:
            runs = [subprocess.run([sys.executable, "-m", "qmcs"] + cmd,
                                   capture_output=True, timeout=300)
                    for _ in range(2)]
            if runs[0].returncode != 0 or runs[0].stdout != runs[1].stdout:
                ok = False
    return ok, {"commands": len(commands)}


CRITERIA = [
    (1, "amplitude-estimation outcome law vs interval and circuit", criterion_1),
    (2, "bounded-mean coverage at eps=0.01", criterion_2),
    (3, "second-moment estimator coverage (heavy tail)", criterion_3),
    (4, "variance-mode coverage and accuracy slopes", criterion_4),
    (5, "relative-error coverage (B=5/4)", criterion_5),
    (6, "chi-squared identity and overlap bounds", criterion_6),
    (7, "cooling-schedule construction and verification", criterion_7),
    (8, "partition estimation coverage and ledger slopes", criterion_8),
    (9, "walk spectra, reflections, warm starts", criterion_9),
    (10, "TVD coverage, iteration slope, ratio stability", criterion_10),
    (11, "arcsin/kernel bounds and perturbation robustness", criterion_11),
    (12, "CLI determinism", criterion_12),
]


def validate_suite(criteria=None) -> dict:
    known = {str(cid) for cid, _, _ in CRITERIA}
    wanted = ({tok.strip() for tok in str(criteria).split(",")} if criteria
              else known)
    if wanted - known:
        raise ValueError(f"unknown criterion ids: {sorted(wanted - known)}")
    entries = []
    for cid, name, fn in CRITERIA:
        if str(cid) not in wanted:
            continue
        start = time.time()
        passed, details = fn()
        entries.append({"id": cid, "name": name, "passed": bool(passed),
                        "seconds": time.time() - start, "details": details})
    return {"ok": all(e["passed"] for e in entries), "criteria": entries}
