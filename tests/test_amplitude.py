import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcs.amplitude import (AE_LAW_T_CAP, AE_SUCCESS_PROB, AE_T_CAP, _ae_median_laws,
                            _draw_outcomes, _median_from_uniforms,
                            ae_circuit_distribution,
                            ae_measurement_probs, ae_median,
                            ae_outcome_distribution, ae_sample,
                            amplitude_phase, arcsin_gap_bound,
                            interval_coverage, measurement_tv_bound,
                            stability_failure_bound,
                            outcome_interval_halfwidth)
from qmcs.mean import estimate_mean_bounded
from qmcs.outcome import QueryLedger, make_distribution


def test_phase_endpoints():
    assert amplitude_phase(0.0) == 0.0
    assert amplitude_phase(1.0) == pytest.approx(0.5)
    assert amplitude_phase(0.5) == pytest.approx(0.25)


def test_on_grid_amplitude_gives_point_mass():
    # a = sin^2(pi k / t) lands exactly on a grid frequency, so the
    # estimate is exact with probability 1
    t = 16
    a = math.sin(math.pi * 3 / t) ** 2
    d = ae_outcome_distribution(a, t)
    top = int(np.argmax(d.probs))
    assert d.probs[top] == pytest.approx(1.0, abs=1e-12)
    assert d.values[top] == pytest.approx(a)


def test_measurement_probs_normalize():
    for a in (0.0, 0.123, 0.5, 0.987, 1.0):
        p = ae_measurement_probs(a, 31)
        assert p.shape == (31,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)


def test_success_probability_at_least_eight_over_pi_sq():
    rng = np.random.default_rng(7)
    t = 64
    for a in rng.uniform(0.0, 1.0, size=25):
        d = ae_outcome_distribution(float(a), t)
        hw = outcome_interval_halfwidth(float(a), t)
        inside = np.abs(d.values - a) <= hw + 1e-15
        assert d.probs[inside].sum() >= AE_SUCCESS_PROB - 1e-12


def test_sampler_matches_exact_law():
    a, t = 0.3, 25
    d = ae_outcome_distribution(a, t)
    rng = np.random.default_rng(11)
    ledger = QueryLedger()
    n = 40000
    draws = np.array(ae_sample(a, t, rng, ledger, size=n))
    for v, p in zip(d.values, d.probs):
        if p > 5e-3:
            freq = np.mean(np.isclose(draws, v))
            assert freq == pytest.approx(p, abs=4 * math.sqrt(p / n) + 1e-3)


@pytest.mark.parametrize("reps", [3, 11])
def test_median_matches_exact_law(reps):
    a, t = 0.3, 25
    d = _ae_median_laws([a], t, reps)[0]
    rng = np.random.default_rng(11)
    ledger = QueryLedger()
    n = 40000
    draws = np.array([ae_median(a, t, reps, rng, ledger) for _ in range(n)])
    for v, p in zip(d.values, d.probs):
        if p > 5e-3:
            freq = np.mean(np.isclose(draws, v))
            assert freq == pytest.approx(p, abs=4 * math.sqrt(p / n) + 1e-3)


def test_sample_takes_one_uniform_per_draw():
    for n in (1, 2, 7):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        ae_sample(0.3, 25, rng, QueryLedger(), size=n)
        ref.random(n)
        assert rng.bit_generator.state == ref.bit_generator.state


def _scan_interval_lengths(omega, t):
    """Length of the u-interval that _draw_outcomes maps to each y, found by
    bisecting every change point of u -> y to within 1e-15 (all in batches)."""
    lengths = np.zeros(t)
    pending = [(0.0, 1.0, *_draw_outcomes(omega, t, [0.0, 1.0]))]
    edges = [(0.0, pending[0][2]), (1.0, None)]
    while pending:
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in pending]
        nxt = []
        for (lo, hi, ylo, yhi), mid, y in zip(pending, mids,
                                             _draw_outcomes(omega, t, mids)):
            for a, b, ya, yb in ((lo, mid, ylo, y), (mid, hi, y, yhi)):
                if ya != yb:
                    if b - a > 1e-15:
                        nxt.append((a, b, ya, yb))
                    else:
                        edges.append((b, yb))
        pending = nxt
    edges.sort()
    for (u0, y), (u1, _) in zip(edges, edges[1:]):
        lengths[y] += u1 - u0
    return lengths


@pytest.mark.parametrize("a, t", [(0.3, 25), (0.77, 32), (0.05, 64), (0.5, 7),
                                  (0.0, 9), (1.0, 5), (1.0, 6)])
def test_folded_scan_intervals_equal_exact_law(a, t):
    # the sampler's one +omega scan, folded y -> min(y, t - y), is the exact
    # law: off-grid phases, omega = 0, and t*omega = 5/2 at a = 1, t = 5
    lengths = _scan_interval_lengths(amplitude_phase(a), t)
    folded = np.zeros(t // 2 + 1)
    np.add.at(folded, np.minimum(np.arange(t), t - np.arange(t)), lengths)
    assert np.abs(folded - ae_outcome_distribution(a, t).probs).max() <= 1e-12


def test_sample_charges_ledger():
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    assert len(ae_sample(0.3, 25, rng, ledger, size=1)) == 1
    assert ledger.reflection_uses == 25
    assert ledger.a_uses == 1 and ledger.a_inv_uses == 1


def test_median_charges_scale_with_reps():
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    ae_median(0.3, 25, 5, rng, ledger)
    assert ledger.reflection_uses == 5 * 25
    assert ledger.a_uses == 5


def _circuit_tv(a, t):
    """TV between the simulated circuit's outcome law and the closed form."""
    want = ae_outcome_distribution(a, t)
    got = ae_circuit_distribution(a, t)
    lookup = dict(zip(np.round(want.values, 12), want.probs))
    return 0.5 * sum(abs(p - lookup.get(round(v, 12), 0.0))
                     for v, p in zip(got.values, got.probs))


def test_circuit_reproduces_closed_form():
    # explicit phase-estimation circuit vs the analytic outcome law
    for a, t in ((0.2, 17), (0.77, 32), (0.0, 9)):
        assert _circuit_tv(a, t) < 1e-10


def test_circuit_builds_no_t_by_t_transform():
    # the inverse QFT is one FFT; the dense t x t matrix it replaced took a
    # traced 512 MB at t = 4096
    tracemalloc.start()
    try:
        ae_circuit_distribution(0.3, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_circuit_runs_up_to_its_cap():
    t = 2**14
    assert _circuit_tv(0.3, t) <= 1e-8
    with pytest.raises(ValueError, match="exceeds dense simulation cap"):
        ae_circuit_distribution(0.3, t + 1)


def test_arcsin_gap_bound_holds_on_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for x in xs:
        for y in xs[::10]:
            lhs, rhs = arcsin_gap_bound(float(x), float(y))
            assert lhs <= rhs + 1e-12


def test_measurement_tv_bound_dominates_exact_tv():
    t = 40
    for mu_a, mu_b in ((0.30, 0.31), (0.5, 0.52), (0.05, 0.055)):
        pa = ae_measurement_probs(mu_a, t)
        pb = ae_measurement_probs(mu_b, t)
        tv = 0.5 * np.abs(pa - pb).sum()
        assert tv <= measurement_tv_bound(mu_a, mu_b, t) + 1e-12


def test_stability_bound_monotone_in_perturbation():
    assert stability_failure_bound(0.0, 100) == pytest.approx(0.3)
    assert stability_failure_bound(1e-6, 100) > 0.3
    assert (stability_failure_bound(1e-4, 50)
            < stability_failure_bound(1e-4, 500))


def test_interval_coverage_is_a_probability():
    cov = interval_coverage(0.37, 100)
    assert AE_SUCCESS_PROB - 1e-12 <= cov <= 1.0


def _circle_dist(x, y):
    z = x - y + 0.5
    return np.abs(z - np.floor(z) - 0.5)  # z - floor(z) is np.mod(z, 1.0), bit for bit


def _kernel(delta: np.ndarray, t: int) -> np.ndarray:
    """Squared Dirichlet kernel with the on-grid limit value 1."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the grid
        out = (np.sin(np.pi * t * delta) / (t * np.sin(np.pi * delta))) ** 2
    out[delta == 0.0] = 1.0
    return out


def _chunked_scan(omega, t, u):
    """Chunked numpy inverse-CDF scan, the oracle of _draw_outcomes: the
    outcome for one uniform u.  Offsets stop at t/2, so each outcome is read
    once and an unreached u gets the last one."""
    center = int(round(t * omega)) % t
    acc = 0.0
    last = center
    chunk = 64
    max_off = t // 2
    for start in range(0, max_off + 1, chunk):
        offs = np.arange(start, min(start + chunk, max_off + 1))
        signed = np.empty(2 * len(offs), dtype=np.int64)
        signed[0::2] = offs
        signed[1::2] = -offs
        ys = np.mod(center + signed, t)
        _, first = np.unique(ys, return_index=True)
        ys = ys[np.sort(first)]
        probs = _kernel(_circle_dist(ys / t, omega), t)
        for yv, pv in zip(ys, probs):
            acc += pv
            last = int(yv)
            if acc >= u:
                return last
    return last


SCAN_TS = [1, 2, 3, 64, 127, 128, 129, 509, 20_000]


@pytest.mark.parametrize("t", SCAN_TS)
def test_scalar_scan_matches_chunked_oracle(t):
    rng = np.random.default_rng(t)
    omegas = list(rng.uniform(0.0, 0.5, 6)) + [0.0, 0.5, 3 / t % 1.0]
    for omega in omegas:
        for w in (omega, (1.0 - omega) % 1.0):
            for u in rng.random(8):
                assert _draw_outcomes(w, t, [u]) == [_chunked_scan(w, t, u)]


@pytest.mark.parametrize("t", SCAN_TS + [AE_T_CAP])
def test_batched_scan_matches_chunked_oracle(t):
    # one scan serves a whole vector of u's: unsorted, with duplicates, 0.0
    # and the largest double below 1 (which the running sum may never
    # reach; at t = AE_T_CAP that would scan 2^31 terms, so there it is
    # drawn only at on-grid phases, where the first term is already 1)
    rng = np.random.default_rng(t % 2**32)
    top = float(np.nextafter(1.0, 0.0))
    on_grid = [0.0, 0.5, 3 / t % 1.0]
    for omega in list(rng.uniform(0.0, 0.5, 4)) + on_grid:
        for w in (omega, (1.0 - omega) % 1.0):
            us = list(rng.random(7))
            if t == AE_T_CAP and omega not in on_grid:
                _assert_far_from_partial_sums(w, t, us)
            us += [0.0, 0.0]
            us += us[:3]
            if t < AE_T_CAP or omega in on_grid:
                us += [top, top]
            rng.shuffle(us)
            assert _draw_outcomes(w, t, us) == [_chunked_scan(w, t, u) for u in us]


def _mpmath_scan_prefix(omega, t, terms):
    """The first scanned outcomes and their 40-digit partial sums at omega."""
    with mpmath.workdps(40):
        phase = mpmath.mpf(omega) * t  # the double omega, exactly
        c = int(mpmath.nint(phase))
        delta = phase - c
        ys, sums, acc = [], [], mpmath.mpf(0)
        for k in range(terms):
            for j in (k, -k) if k else (0,):
                acc += (mpmath.sin(mpmath.pi * delta)
                        / (t * mpmath.sin(mpmath.pi * (j - delta) / t))) ** 2
                ys.append((c + j) % t)
                sums.append(acc)
    return ys, sums


def _assert_far_from_partial_sums(omega, t, us):
    """Each u lies a relative 1e-6 or more from every 40-digit partial sum up
    to the outcome it selects, so an oracle whose sums err by ~1e-7 (the
    circle form at t = AE_T_CAP) selects the same outcome as exact sums."""
    terms = 4
    while (sums := _mpmath_scan_prefix(omega, t, terms)[1])[-1] < max(us):
        terms *= 2
    for u in us:
        for edge in sums:
            assert abs(u - edge) >= 1e-6 * edge, (u, float(edge))
            if edge >= u:
                break


@pytest.mark.parametrize("t", [2**24, 2**30, AE_T_CAP])
def test_scan_at_large_t_splits_off_grid_boundaries(t):
    # u a relative 1e-9 on either side of each partial sum of the first
    # scanned terms selects the outcome on that side: the scan's terms hold
    # far tighter than 1e-9 at the sampling cap
    rng = np.random.default_rng(t % 2**32 + 1)
    for omega in rng.uniform(0.0, 0.5, 3):
        for w in (float(omega), (1.0 - omega) % 1.0):
            ys, sums = _mpmath_scan_prefix(w, t, 4)  # 7 terms
            for edge in sums[:6]:
                for u in (float(edge * (1 - 1e-9)), float(edge * (1 + 1e-9))):
                    want = next(y for y, b in zip(ys, sums) if b >= u)
                    assert _draw_outcomes(w, t, [u]) == [want]


@pytest.mark.parametrize("t", [1, 2, 3, 64, 128, 129, 509])
def test_scan_with_u_just_below_one_returns_a_residue(t):
    u = np.nextafter(1.0, 0.0)
    for omega in (0.0, 0.1234, 0.25, 0.5, 0.8766):
        [y] = _draw_outcomes(omega, t, [u])
        assert isinstance(y, int) and 0 <= y < t


@settings(max_examples=300, deadline=None)
@given(omega=st.floats(0.0, 1.0, exclude_max=True),
       t=st.integers(1, 512),
       u=st.floats(0.0, 1.0 - 1e-9))
def test_scalar_scan_matches_chunked_oracle_property(omega, t, u):
    assert _draw_outcomes(omega, t, [u]) == [_chunked_scan(omega, t, u)]


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1.0), t=st.integers(1, 4096), n=st.integers(1, 15),
       seed=st.integers(0, 2**32 - 1))
def test_sized_sample_equals_scalar_calls(a, t, n, seed):
    rng_one, rng_n = np.random.default_rng(seed), np.random.default_rng(seed)
    ledger_one, ledger_n = QueryLedger(), QueryLedger()
    want = [v for _ in range(n) for v in ae_sample(a, t, rng_one, ledger_one, size=1)]
    assert all(type(v) is float for v in want)
    assert ae_sample(a, t, rng_n, ledger_n, size=n) == want
    assert ledger_n == ledger_one
    assert rng_n.bit_generator.state == rng_one.bit_generator.state


# small t's, and the l2 plans' t0 of the relative estimates in the benchmark:
# B = 1.25 at epsilon 0.05, and B = 2 at epsilon 0.1 over 2-4 ratios
MEDIAN_TS = [1, 2, 3, 4, 5, 103, 18387, 55885, 86298, 117345]


@st.composite
def _amplitude_and_t(draw):
    t = draw(st.sampled_from(MEDIAN_TS))
    a = draw(st.sampled_from([0.0, 1.0])  # omega = 1/2: t/2 is a half-integer at odd t
             | st.integers(0, t // 2).map(lambda i: math.sin(math.pi * i / t) ** 2)
             | st.floats(0.0, 1.0))
    return a, t


@settings(max_examples=300, deadline=None)
@given(at=_amplitude_and_t(), reps=st.sampled_from([1, 3, 11, 13]),
       seed=st.integers(0, 2**32 - 1))
def test_median_from_uniforms_equals_ae_median(at, reps, seed):
    (a, t), rng = at, np.random.default_rng(seed)
    want = ae_median(a, t, reps, np.random.default_rng(seed), QueryLedger())
    got = _median_from_uniforms(a, t, rng.random(reps).tolist())
    assert type(got) is float and got == want


@pytest.mark.parametrize("t", MEDIAN_TS)
def test_estimate_does_not_fall_over_folded_indices(t):
    # what lets _median_from_uniforms take the sine of the median index
    grid = [math.sin(math.pi * i / t) ** 2 for i in range(t // 2 + 1)]
    assert all(x <= y for x, y in zip(grid, grid[1:]))


@pytest.mark.parametrize("size", [0, -2])
def test_size_below_one_is_rejected_before_charging(size):
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="size must be >= 1"):
        ae_sample(0.3, 25, rng, ledger, size=size)
    assert ledger == QueryLedger()
    assert rng.bit_generator.state == state


_POINT = make_distribution([(0.3, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda rng, ledger: ae_sample(0.3, 2.5, rng, ledger, size=1), "t must be an integer"),
    (lambda rng, ledger: ae_sample(0.3, 25, rng, ledger, size=2.0), "size must be an integer"),
    (lambda rng, ledger: ae_median(0.3, 7, 3.0, rng, ledger), "reps must be a positive odd"),
    (lambda rng, ledger: ae_median(0.3, 7.0, 3, rng, ledger), "t must be an integer"),
    (lambda rng, ledger: estimate_mean_bounded(_POINT, 2.5, 0.1, rng, ledger),
     "t must be an integer"),
    (lambda rng, ledger: ae_outcome_distribution(0.3, 2.5), "t must be an integer"),
    (lambda rng, ledger: ae_measurement_probs(0.3, 2.0), "t must be an integer"),
], ids=["sample-t", "sample-size", "median-reps", "median-t", "bounded-t", "law-t", "probs-t"])
def test_non_integer_counts_are_rejected_before_charging(call, message):
    # a float t, size or reps used to charge the ledger before range() or
    # rng.random refused it, and the law cast t = 2.5 to 2
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(rng, ledger)
    assert ledger == QueryLedger()
    assert rng.bit_generator.state == state


def test_numpy_integer_counts_are_accepted():
    want = ae_median(0.3, 25, 3, np.random.default_rng(5), QueryLedger())
    got = ae_median(0.3, np.int64(25), np.int64(3), np.random.default_rng(5), QueryLedger())
    assert got == want
    law, want = ae_outcome_distribution(0.3, np.int32(25)), ae_outcome_distribution(0.3, 25)
    assert np.array_equal(law.values, want.values) and np.array_equal(law.probs, want.probs)


@pytest.mark.parametrize("t", [0, -3])
def test_nonpositive_t_is_rejected(t):
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="t must be >= 1"):
        ae_sample(0.3, t, rng, ledger, size=1)
    with pytest.raises(ValueError, match="t must be >= 1"):
        ae_median(0.3, t, 3, rng, ledger)
    assert ledger.a_uses == ledger.reflection_uses == 0


def test_t_over_sampling_cap_is_rejected():
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    for t in (AE_T_CAP + 1, 10**210):
        with pytest.raises(ValueError, match=f"cap {AE_T_CAP}"):
            ae_median(0.3, t, 3, rng, ledger)
    assert ledger == QueryLedger()
    ae_sample(0.3, AE_T_CAP, rng, ledger, size=1)  # the cap itself is sampled
    assert ledger.reflection_uses == AE_T_CAP


def test_t_over_outcome_law_cap_is_rejected():
    for law in (ae_measurement_probs, ae_outcome_distribution):
        with pytest.raises(ValueError, match=f"cap {AE_LAW_T_CAP}"):
            law(0.3, AE_LAW_T_CAP + 1)
