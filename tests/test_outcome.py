import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcs.outcome import (DistributionError, QueryLedger,
                          classical_sample_block, from_arrays,
                          make_distribution, transform, truncate)


def test_merge_duplicates():
    d = make_distribution([(1.0, 0.25), (1.0, 0.25), (2.0, 0.5)])
    assert d.support_size == 2
    assert d.probs[d.values == 1.0][0] == pytest.approx(0.5)


def test_normalization_enforced():
    with pytest.raises(DistributionError):
        make_distribution([(0.0, 0.5), (1.0, 0.4)])
    with pytest.raises(DistributionError):
        make_distribution([(0.0, -0.1), (1.0, 1.1)])
    with pytest.raises(DistributionError):
        make_distribution([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_probability_rejected(bad):
    # an all-NaN law used to come back from [(0, nan), (1, 1)]
    with pytest.raises(DistributionError, match="finite and nonnegative"):
        make_distribution([(0.0, bad), (1.0, 1.0)])
    with pytest.raises(DistributionError, match="finite and nonnegative"):
        from_arrays([0.0, 1.0], [bad, 1.0])


# a few raw (value, weight) pairs; values repeat often, so duplicates merge
_PAIRS = st.lists(st.tuples(
    st.sampled_from([-2.5, 0.0, 0.1, 1.0, 3.0, 1e6])
    | st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(0.0, 10.0)), min_size=1, max_size=12).filter(
        lambda pairs: sum(w for _, w in pairs) > 0)


@settings(max_examples=200, deadline=None)
@given(pairs=_PAIRS)
def test_from_arrays_matches_pair_adapter(pairs):
    values = np.array([v for v, _ in pairs])
    weights = np.array([w for _, w in pairs])
    probs = weights / weights.sum()
    d = from_arrays(values, probs)
    ref = make_distribution(zip(values, probs))
    assert np.array_equal(d.values, ref.values)
    assert np.array_equal(d.probs, ref.probs)
    # invariants: strictly increasing support, duplicates merged, unit mass
    assert np.all(np.diff(d.values) > 0)
    assert d.support_size == len(set(values.tolist()))
    assert np.all(d.probs >= 0)
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    for v in d.values:
        assert d.probs[d.values == v][0] == pytest.approx(
            probs[values == v].sum(), rel=1e-12, abs=1e-15)


def test_moments_against_direct_sums():
    pairs = [(0.0, 0.3), (1.5, 0.2), (4.0, 0.5)]
    d = make_distribution(pairs)
    mean = sum(v * p for v, p in pairs)
    var = sum(p * (v - mean) ** 2 for v, p in pairs)
    l2 = np.sqrt(sum(p * v * v for v, p in pairs))
    got = (d.mean(), d.variance(), d.l2norm())
    assert got == pytest.approx((mean, var, l2))


def test_truncate_range_moves_mass_to_zero():
    d = make_distribution([(0.5, 0.25), (1.5, 0.25), (3.0, 0.5)])
    cut = truncate(d, 1.0, 2.0)
    assert cut.mean() == pytest.approx(1.5 * 0.25)
    # all discarded mass sits at zero
    assert cut.probs[cut.values == 0.0][0] == pytest.approx(0.75)


def test_truncate_below_and_atleast():
    d = make_distribution([(-2.0, 0.5), (3.0, 0.5)])
    neg = truncate(d, -np.inf, 0.0)
    assert neg.mean() == pytest.approx(-1.0)
    pos = truncate(d, 0.0, np.inf)
    assert pos.mean() == pytest.approx(1.5)


def test_truncate_window_is_checked():
    # an empty, reversed or NaN window raises: at a NaN bound lo < hi fails
    # too, so there is no silent point mass at 0; (-inf, inf) keeps all
    d = make_distribution([(-2.0, 0.25), (0.0, 0.25), (3.0, 0.5)])
    for lo, hi in [(1.0, 1.0), (2.0, 1.0), (np.inf, -np.inf), (0.0, math.nan),
                   (-np.inf, math.nan), (math.nan, np.inf), (math.nan, math.nan)]:
        with pytest.raises(DistributionError, match="empty window"):
            truncate(d, lo, hi)
    kept = truncate(d, -np.inf, np.inf)
    assert np.array_equal(kept.values, d.values)
    assert np.array_equal(kept.probs, d.probs)


def test_transform_rejects_nonfinite():
    d = make_distribution([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DistributionError):
        transform(d, lambda v: float("nan"))
    with pytest.raises(DistributionError):  # not numpy's overflow warning
        transform(d, lambda v: v / 5e-324)


def test_l2norm_beyond_float_range_is_inf():
    assert make_distribution([(0.0, 0.5), (1e200, 0.5)]).l2norm() == math.inf


def test_classical_sampling_ledger_and_law():
    d = make_distribution([(0.0, 0.75), (1.0, 0.25)])
    rng = np.random.default_rng(0)
    ledger = QueryLedger()
    xs = classical_sample_block(d, 20000, rng, ledger)
    assert ledger.classical_samples == 20000
    assert np.mean(xs) == pytest.approx(0.25, abs=0.02)
    one = classical_sample_block(d, 1, rng, ledger)
    assert one.shape == (1,) and ledger.classical_samples == 20001


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.floats(1e-6, 1.0) | st.just(0.0), min_size=1,
                        max_size=17).filter(lambda w: sum(w) > 0.0),
       n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_classical_sampling_is_generator_choice(weights, n, seed):
    total = sum(weights)
    d = from_arrays(np.arange(len(weights)), np.array(weights) / total)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = classical_sample_block(d, n, ours, QueryLedger())
    # the support is 0..len-1: values are the indices choice draws
    want = d.values[theirs.choice(d.support_size, size=n, p=d.probs)]
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


class _Uniforms(np.random.Generator):
    """A generator whose random(n) returns the given uniforms."""

    def __init__(self, us):
        super().__init__(np.random.PCG64(0))
        self.us = us

    def random(self, size=None, dtype=np.float64, out=None):
        return np.array(self.us[:size])


@pytest.mark.parametrize("probs", [[0.25] * 4, [0.1] * 10])  # CDF ends at 1, below 1
def test_classical_sampling_at_cdf_points_is_generator_choice(probs):
    # uniforms on the CDF's points, and the largest one below 1: where the
    # side of the search and the CDF's normalization decide the index
    cdf = np.cumsum(probs)
    us = [0.0, *cdf[:-1], np.nextafter(cdf[-1], 0.0), float(np.nextafter(1.0, 0.0))]
    d = from_arrays(np.arange(len(probs)), probs)
    got = classical_sample_block(d, len(us), _Uniforms(us), QueryLedger())
    assert np.array_equal(got, _Uniforms(us).choice(len(probs), len(us), p=d.probs))


def test_ledger_merge_and_snapshot():
    # five distinct non-zero counts: a field the snapshot drops or swaps fails
    a = QueryLedger(a_uses=1, a_inv_uses=2, reflection_uses=10, walk_steps=7,
                    classical_samples=3)
    b = QueryLedger(a_uses=2, walk_steps=5)
    snap = a.snapshot()
    assert snap == a and snap is not a
    a.merge(b)
    assert a.a_uses == 3 and a.walk_steps == 12 and a.reflection_uses == 10
    assert snap == QueryLedger(1, 2, 10, 7, 3)  # snapshot unaffected
