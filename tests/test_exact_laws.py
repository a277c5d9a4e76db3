"""Bit identity of the fast exact-law construction against the direct one.

The oracles below build the same laws the plain way: circle distance by
np.mod, the kernel on masked copies, the estimate law through from_arrays
(np.unique and a bincount over all t outcomes), and median_law from the
binomial tail over the whole CDF.  Every law must match them float for
float, so seeded outputs and ledger counts cannot move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcs import amplitude, tvd
from qmcs.amplitude import (AE_LAW_T_CAP, _circle_dist, _fold, _kernel,
                            ae_circuit_distribution, ae_outcome_distribution)
from qmcs.outcome import (ValueDistribution, binom_upper_tail, from_arrays,
                          median_law)

TVD_LAW_TS = (1124, 1590, 2248, 3180, 4496, 6359)  # t of the n, eps of TVD ops


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


def _oracle(f, *args):
    """f(*args) with every fast piece swapped for its oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amplitude, "_circle_dist", _mod_circle_dist)
        mp.setattr(amplitude, "_kernel", _masked_kernel)
        mp.setattr(amplitude, "_fold", _unique_fold)
        mp.setattr(tvd, "median_law", _full_median_law)
        return f(*args)


def _assert_same_law(got: ValueDistribution, want: ValueDistribution):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.probs, want.probs)


def _on_grid(t):
    return [math.sin(math.pi * i / t) ** 2 for i in {0, 1, t // 3, t // 2}]


@pytest.mark.parametrize("t", [1, 2, 3, 4, *TVD_LAW_TS])
def test_outcome_law_matches_oracle(t):
    rng = np.random.default_rng(t)
    for a in [0.0, 0.25, 0.5, 1.0, *_on_grid(t), *rng.random(6)]:
        law = ae_outcome_distribution(a, t)
        _assert_same_law(law, _oracle(ae_outcome_distribution, a, t))
        for m in (3, 11, 13):
            _assert_same_law(median_law(law, m), _full_median_law(law, m))


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.0, 1.0), t=st.integers(1, 7000),
       m=st.sampled_from([1, 3, 5, 11, 13, 61]))
def test_outcome_and_median_laws_match_oracle_property(a, t, m):
    law = ae_outcome_distribution(a, t)
    _assert_same_law(law, _oracle(ae_outcome_distribution, a, t))
    _assert_same_law(median_law(law, m), _full_median_law(law, m))


@pytest.mark.parametrize("t", [1, 2, 3, 4, 17, 32, 129])
def test_circuit_law_matches_oracle(t):
    for a in [0.0, 0.25, 0.5, 1.0, 0.2, 0.77, *_on_grid(t)]:
        _assert_same_law(ae_circuit_distribution(a, t),
                         _oracle(ae_circuit_distribution, a, t))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_subroutine_law_matches_oracle(n):
    build = tvd._subroutine_law.__wrapped__  # past the LRU
    rng = np.random.default_rng(n)
    for eps in (0.1, 0.05):
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        args = p.tobytes(), q.tobytes(), eps / 8
        _assert_same_law(build(*args), _oracle(build, *args))


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
        _assert_same_law(median_law(d, m), _full_median_law(d, m))


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
