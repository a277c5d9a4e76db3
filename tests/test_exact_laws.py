"""Exact-law constructions against their oracles.

The outcome law is built in offset form, one sine per outcome; its masses
are checked against a 40-digit mpmath reference and, within a tolerance,
against the old two-kernel construction (circle distance by np.mod, the
kernel at +omega and -omega on masked copies).  The other pieces keep their
floats, and must match their plain oracles float for float: the estimate
law through from_arrays (np.unique and a bincount over all t outcomes), and
median_law from the binomial tail over the whole CDF, and from from_arrays
on the window.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_amplitude import _circle_dist, _kernel  # the sampler scan's oracle

from qmcs import amplitude, outcome, tvd
from qmcs.amplitude import (AE_LAW_T_CAP, _fold, ae_circuit_distribution,
                            ae_measurement_probs, ae_outcome_distribution,
                            amplitude_phase)
from qmcs.outcome import (_PRUNE, ValueDistribution, _tail_floor,
                          binom_upper_tail, from_arrays, median_law,
                          median_laws)

TVD_LAW_TS = (1124, 1590, 2248, 3180, 4496, 6359)  # t of the n, eps of TVD ops
TWO_KERNEL_TOL = 5e-12  # offset form against the old two-kernel construction
MPMATH_TOL = 2e-13  # either construction against the 40-digit reference


def _mod_circle_dist(x, y):
    return np.abs(np.mod(x - y + 0.5, 1.0) - 0.5)


def _masked_kernel(delta, t):
    out = np.ones_like(delta)
    off = delta != 0.0
    s = np.sin(np.pi * delta[off])
    out[off] = (np.sin(np.pi * t * delta[off]) / (t * s)) ** 2
    return out


def _estimate_values(t):
    y = np.arange(t)
    return np.sin(np.pi * np.minimum(y, t - y) / t) ** 2


def _unique_fold(probs):
    return from_arrays(_estimate_values(len(probs)), probs)


def _two_kernel_law(a, t):
    """The estimate law as built before the offset form: the kernel at +omega
    and at -omega over all t outcomes, mixed, normalized and folded."""
    omega = amplitude_phase(a)
    y = np.arange(t) / t
    probs = (0.5 * _masked_kernel(_mod_circle_dist(y, omega), t)
             + 0.5 * _masked_kernel(_mod_circle_dist(y, -omega), t))
    return _unique_fold(probs / probs.sum())


def _mpmath_masses(a, t):
    """Masses of the estimate law, i = 0..t//2, at 40 digits from the exact a."""
    with mpmath.workdps(40):
        omega = mpmath.asin(mpmath.sqrt(mpmath.mpf(a))) / mpmath.pi

        def kernel(d):
            if d == 0:
                return mpmath.mpf(1)
            return (mpmath.sin(mpmath.pi * t * d) / (t * mpmath.sin(mpmath.pi * d))) ** 2

        masses = []
        for i in range(t // 2 + 1):
            ys = {i, (t - i) % t}
            masses.append(sum(kernel(mpmath.mpf(y) / t - w) for y in ys
                              for w in (omega, -omega)) / 2)
        return np.array([float(m) for m in masses])


def _split_binom_upper_tail(n, k, p):
    p = np.asarray(p, dtype=float)
    if not 0 < k <= n:
        return np.full(p.shape, float(k <= 0))[()]

    def upper(k, p):
        r, rest = p / (1.0 - p), np.zeros_like(p)
        for j in range(n - 1, k - 1, -1):
            rest = (1.0 + rest) * (r * ((n - j) / (j + 1)))
        with np.errstate(under="ignore"):
            lead = p**k * (1.0 - p) ** (n - k)
        tail = (math.comb(n, k) if n <= 1020 else 0) * lead * (1.0 + rest)
        far = ~(lead >= np.finfo(float).tiny) | (n > 1020)
        with np.errstate(divide="ignore"):
            tail[far] = np.exp(math.log(math.comb(n, k)) + k * np.log(p[far])
                               + (n - k) * np.log1p(-p[far])
                               + np.log1p(rest[far]))
        return tail

    beyond = k > n * p
    out = np.empty(p.shape)
    out[beyond] = upper(k, p[beyond])
    out[~beyond] = 1.0 - upper(n - k + 1, 1.0 - p[~beyond])
    return out[()]


def _full_median_law(d, m):
    if m == 1:
        return d
    cdf = np.cumsum(d.probs)
    tail = _split_binom_upper_tail(m, (m + 1) // 2, np.clip(cdf, 0.0, 1.0))
    pmf = np.clip(np.diff(np.concatenate([[0.0], tail])), 0.0, None)
    keep = pmf > 1e-16
    return from_arrays(d.values[keep], pmf[keep] / pmf[keep].sum())


def _from_arrays_median_law(d, m):
    """The windowed median law with from_arrays building the result."""
    if m == 1:
        return d
    cdf = np.clip(np.cumsum(d.probs), 0.0, 1.0)
    c = _tail_floor(m)
    lo = max(int(np.searchsorted(cdf, c, side="right")) - 1, 0)
    hi = int(np.searchsorted(cdf, 1.0 - c)) + 1
    tail = binom_upper_tail(m, (m + 1) // 2, cdf[lo:hi])
    pmf = np.diff(np.concatenate([[0.0], tail]))
    keep = pmf > _PRUNE
    return from_arrays(d.values[lo:hi][keep], pmf[keep] / pmf[keep].sum())


def _oracle(f, *args):
    """f(*args) with the fold and the median laws swapped for their oracles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amplitude, "_fold", _unique_fold)
        mp.setattr(tvd, "median_laws", lambda ds, m: [_full_median_law(d, m) for d in ds])
        return f(*args)


def _matrix_subroutine_law(p, q, epsilon):
    """The subroutine law as built before the batched median laws: one
    median_law per distinct probability, the ratio over the whole |lp| x |lq|
    matrix, then the weights pruned."""
    inst = tvd.TvdInstance(p, q, epsilon)
    r, laws, values, probs = inst.r, {}, [], []
    for x in range(inst.n):
        if r[x] <= 0.0:
            continue
        for a in (inst.p[x], inst.q[x]):
            if a not in laws:
                laws[a] = median_law(ae_outcome_distribution(a, inst.t), inst.reps)
        lp, lq = laws[inst.p[x]], laws[inst.q[x]]
        num = np.abs(lp.values[:, None] - lq.values[None, :])
        den = lp.values[:, None] + lq.values[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        w = r[x] * np.outer(lp.probs, lq.probs)
        keep = w > _PRUNE
        values.append(vals[keep])
        probs.append(w[keep])
    probs = np.concatenate(probs)
    return from_arrays(np.concatenate(values), probs / probs.sum())


def _assert_same_law(got: ValueDistribution, want: ValueDistribution):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.probs, want.probs)


def _assert_close_law(got: ValueDistribution, want: ValueDistribution, tol):
    assert np.array_equal(got.values, want.values)
    assert np.max(np.abs(got.probs - want.probs)) <= tol


def _on_grid(t):
    return [math.sin(math.pi * i / t) ** 2 for i in {0, 1, t // 3, t // 2}]


@pytest.mark.parametrize("t", [1, 2, 3, 4, *TVD_LAW_TS])
def test_outcome_law_matches_oracle(t):
    rng = np.random.default_rng(t)
    for a in [0.0, 0.25, 0.5, 1.0, *_on_grid(t), *rng.random(6)]:
        law = ae_outcome_distribution(a, t)
        _assert_close_law(law, _two_kernel_law(a, t), TWO_KERNEL_TOL)
        _assert_same_law(law, _oracle(ae_outcome_distribution, a, t))
        for m in (3, 11, 13):
            _assert_same_law(median_law(law, m), _full_median_law(law, m))


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.0, 1.0), t=st.integers(1, 7000),
       m=st.sampled_from([1, 3, 5, 11, 13, 61]))
def test_outcome_and_median_laws_match_oracle_property(a, t, m):
    law = ae_outcome_distribution(a, t)
    _assert_close_law(law, _two_kernel_law(a, t), TWO_KERNEL_TOL)
    _assert_same_law(law, _oracle(ae_outcome_distribution, a, t))
    _assert_same_law(median_law(law, m), _full_median_law(law, m))


def _reference_cases():
    rng = np.random.default_rng(1500)
    cases = [(1, 0.3), (2, 0.5), (3, 1.0), (4, 0.0)]
    for t in [*rng.integers(1, 1501, 10), 1500]:
        t = int(t)
        i = int(rng.integers(0, t // 2 + 1))
        grid = math.sin(math.pi * i / t) ** 2
        near = float(np.clip(grid + rng.choice([-1, 1]) * 10.0 ** -rng.integers(6, 15), 0, 1))
        cases += [(t, float(a)) for a in (rng.random(), grid, near)]
    return cases


@pytest.mark.parametrize("t, a", _reference_cases())
def test_outcome_law_matches_mpmath_reference(t, a):
    law = ae_outcome_distribution(a, t)
    assert np.max(np.abs(law.probs - _mpmath_masses(a, t))) <= MPMATH_TOL
    raw = ae_measurement_probs(a, t)  # the raw law folds onto the same masses
    _assert_close_law(_unique_fold(raw), law, 1e-15)


def test_outcome_law_holds_its_normalization_up_to_the_cap():
    # the two-kernel sum drifted past the 1e-10 gate near the cap: each of
    # its kernels lost up to ~1e-10 to sin(pi t D) at t D up to 2^19
    rng = np.random.default_rng(20)
    cases = [(0.7629081020677478, 841170), (0.3, AE_LAW_T_CAP)]
    cases += [(float(a), int(t)) for a, t in
              zip(rng.random(6), rng.integers(AE_LAW_T_CAP // 2, AE_LAW_T_CAP + 1, 6))]
    for a, t in cases:
        law = ae_outcome_distribution(a, t)
        assert law.support_size == t // 2 + 1
        assert abs(law.probs.sum() - 1.0) <= 1e-12
        assert abs(ae_measurement_probs(a, t).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("t", [1, 2, 3, 4, 17, 32, 129])
def test_circuit_law_matches_oracle(t):
    for a in [0.0, 0.25, 0.5, 1.0, 0.2, 0.77, *_on_grid(t)]:
        _assert_same_law(ae_circuit_distribution(a, t),
                         _oracle(ae_circuit_distribution, a, t))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_subroutine_law_matches_oracle(n):
    build = tvd.tvd_subroutine_distribution
    rng = np.random.default_rng(n)
    for eps in (0.1, 0.05):
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        inst = tvd.TvdInstance(p, q, eps / 8)
        _assert_same_law(build(inst), _oracle(build, inst))


def _sweep_instances():
    """60 seeded (p, q, eps/8): n in {2, 4, 16, 64, 100} by Dirichlet
    concentrations {1, 0.1, 0.02}, each independent, p = q, on disjoint
    halves, and zero on a common half (rows with r[x] = 0)."""
    rng = np.random.default_rng(60)
    for n in (2, 4, 16, 64, 100):
        half = np.arange(n) < n // 2
        for alpha in (1.0, 0.1, 0.02):
            def law(support):
                w = np.zeros(n)
                w[support] = rng.dirichlet(np.full(np.count_nonzero(support), alpha))
                return w

            full = np.ones(n, bool)
            same = law(full)
            pairs = [(law(full), law(full)), (same, same.copy()),
                     (law(half), law(~half)), (law(~half), law(~half))]
            for i, (p, q) in enumerate(pairs):
                yield p, q, (0.1, 0.05)[i % 2] / 8


def test_subroutine_law_matches_matrix_construction():
    build = tvd.tvd_subroutine_distribution
    cases = list(_sweep_instances())
    assert len(cases) == 60
    assert sum(np.any((p + q) == 0.0) for p, q, _ in cases) >= 15
    for p, q, eps in cases:
        _assert_same_law(build(tvd.TvdInstance(p, q, eps)),
                         _matrix_subroutine_law(p, q, eps))


def _point_mass(v):
    return ValueDistribution(np.array([v]), np.array([1.0]))


_LAW_POOL = st.one_of(
    st.floats(0.0, 1.0).map(_point_mass),
    st.tuples(st.floats(0.0, 1.0), st.integers(1, 7000)).map(
        lambda at: ae_outcome_distribution(*at)),
    st.tuples(st.integers(0, 99), st.sampled_from([40, 2400]),
              st.sampled_from([1.0, 0.02])).map(lambda s: _dirichlet_law(*s)))


@settings(max_examples=150, deadline=None)
@given(ds=st.lists(_LAW_POOL, min_size=1, max_size=6),
       m=st.sampled_from([1, 3, 11, 13, 61]),
       block=st.sampled_from([1, 50, 4096]), stream=st.booleans())
def test_median_laws_match_one_at_a_time(ds, m, block, stream):
    # windows of several laws share each tail pass (block CDF points or more)
    want = [median_law(d, m) for d in ds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outcome, "_TAIL_BLOCK", block)
        got = median_laws((d for d in ds) if stream else ds, m)
    assert len(got) == len(ds)
    for g, w, d in zip(got, want, ds):
        _assert_same_law(g, w)
        if m > 1:
            _assert_same_law(g, _from_arrays_median_law(d, m))


def test_median_laws_of_nothing_and_even_m():
    assert median_laws([], 3) == [] and median_laws(iter([]), 1) == []
    with pytest.raises(ValueError, match="odd"):
        median_laws([_point_mass(0.5)], 4)


# the phases _chunked_scan in test_amplitude reaches: omega in [0, 1) and
# grid points y/t in [0, 1), so z = y/t - omega + 0.5 runs over (-0.5, 1.5)
_EDGES = [0.0, -0.0, 5e-324, 0.25, 0.5, float(np.nextafter(0.5, 0.0)),
          float(np.nextafter(0.5, 1.0)), float(np.nextafter(1.0, 0.0))]


def test_circle_dist_matches_mod_on_edges():
    rng = np.random.default_rng(0)
    xs = np.array(_EDGES + list(rng.random(200)) + list(np.arange(509) / 509))
    ws = np.array(_EDGES + list(rng.random(50)))
    for w in ws:
        got, want = _circle_dist(xs, w), _mod_circle_dist(xs, w)
        assert got.tobytes() == want.tobytes()
    zs = np.array([-0.0, 0.0, -5e-324, float(np.nextafter(1.0, 0.0)), -0.5,
                   float(np.nextafter(-0.5, 0.0)), 1.5])
    assert (zs - np.floor(zs)).tobytes() == np.mod(zs, 1.0).tobytes()


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 1.0, exclude_max=True),
       omega=st.floats(0.0, 1.0, exclude_max=True))
def test_circle_dist_matches_mod_property(x, omega):
    xs = np.array([x, (1.0 - x) % 1.0])
    assert _circle_dist(xs, omega).tobytes() == _mod_circle_dist(xs, omega).tobytes()


@pytest.mark.parametrize("t", [1, 2, 3, 64, 509, 6359])
def test_kernel_matches_masked_kernel(t):
    for omega in (0.0, 0.5, 3 / t % 1.0, 0.1234, 0.8766):
        delta = _circle_dist(np.arange(t) / t, omega)
        assert np.array_equal(_kernel(delta, t), _masked_kernel(delta, t))


def test_folded_grid_is_strictly_increasing_up_to_the_cap():
    # _fold raises ArithmeticError on a grid that would merge two estimates
    for t in [*range(1, 4097), AE_LAW_T_CAP - 1, AE_LAW_T_CAP]:
        law = _fold(np.full(t, 1.0 / t))
        assert law.support_size == t // 2 + 1
    _assert_same_law(_fold(np.full(AE_LAW_T_CAP, 2.0**-20)),
                     _unique_fold(np.full(AE_LAW_T_CAP, 2.0**-20)))


def _dirichlet_law(seed, size, alpha):
    rng = np.random.default_rng(seed)
    return from_arrays(np.arange(size, dtype=float),
                       rng.dirichlet(np.full(size, alpha)))


@pytest.mark.parametrize("m", [1, 3, 13, 1031, 1501])
def test_windowed_median_law_matches_full_law(m):
    laws = [ValueDistribution(np.array([0.3]), np.array([1.0])),
            _dirichlet_law(m, 40, 1.0), _dirichlet_law(m, 2400, 1.0),
            _dirichlet_law(m, 2400, 0.02)]
    laws += [ae_outcome_distribution(a, t) for a, t in ((0.0123, 6359), (0.5, 1124))]
    for d in laws:
        law = median_law(d, m)
        _assert_same_law(law, _full_median_law(d, m))
        _assert_same_law(law, _from_arrays_median_law(d, m))  # built in place


@pytest.mark.parametrize("seed", range(4))
def test_windowed_median_law_keeps_rounding_survivors(seed):
    # masses far below 1e-16 mid-CDF come out as differences of two tails
    # near 1/2, 1-1.5 ulp of 1/2; the full law keeps some, so must the window
    d = _dirichlet_law(seed, 2400, 0.02)
    survivors = 0
    for m in (3, 11, 13, 61):
        law, want = median_law(d, m), _full_median_law(d, m)
        _assert_same_law(law, want)
        survivors += np.count_nonzero(want.probs < 2e-16)
    assert survivors > 0


_TAIL_NS = [1, 3, 13, 61, 1020, 1021, 1501]


@pytest.mark.parametrize("n", _TAIL_NS)
def test_binom_upper_tail_matches_split_oracle(n):
    rng = np.random.default_rng(n)
    cases = {
        "empty": np.array([]),
        "all below n p": rng.uniform(0.0, 0.4, 30) / n,
        "all above n p": 1.0 - rng.uniform(0.0, 0.4, 30) / n,
        "both sides": np.concatenate([rng.random(30), [0.0, 0.5, 1.0]]),
        "subnormal leads": np.array([5e-324, 1e-300, 1e-200, 1.0 - 2**-53]),
        "2-d": rng.random((3, 4)),
    }
    for k in sorted({0, 1, (n + 1) // 2, n, n + 1}):
        for name, p in cases.items():
            got, want = binom_upper_tail(n, k, p), _split_binom_upper_tail(n, k, p)
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("n, p", [(5, 0.3), (13, 0.9), (1501, 0.4), (61, 1e-300)])
def test_binom_upper_tail_scalar_stays_zero_d(n, p):
    for k in (0, 1, (n + 1) // 2, n):
        got, want = binom_upper_tail(n, k, p), _split_binom_upper_tail(n, k, p)
        assert np.ndim(got) == 0 and type(got) is type(want)
        assert got == want
