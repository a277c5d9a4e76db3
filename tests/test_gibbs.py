import math

import numpy as np
import pytest

from qmcs.gibbs import (Graph, chi_squared, colouring_model, exact_partition,
                        gibbs_distribution, ising_model, matching_model,
                        overlap_squared, read_graph)

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_read_graph_roundtrip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    g = read_graph(p)
    assert g.n_vertices == 4 and len(g.edges) == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        read_graph(bad)


def test_ising_single_edge_energies():
    m = ising_model(K2)
    # 4 spin states: two aligned (0 disagreements), two anti-aligned (1)
    assert m.size == 4
    assert list(m.counts) == [2, 2]
    assert exact_partition(m, 0.0) == 4.0
    assert exact_partition(m, math.inf) == 2.0


def test_ising_shift_identity():
    # unshifted energy -sum z_u z_v: Z_u(beta) = e^{beta m} Z(2 beta)
    m = ising_model(C4)
    beta = 0.37
    spins = 1 - 2 * ((m.codes[:, None] >> np.arange(4)) & 1)  # bit 0 is +1
    us, vs = np.array(C4.edges).T
    unshifted = -(spins[:, us] * spins[:, vs]).sum(axis=1)
    z_direct = np.exp(-beta * unshifted).sum()
    z_via = math.exp(beta * len(C4.edges)) * exact_partition(m, 2.0 * beta)
    assert z_via == pytest.approx(z_direct, rel=1e-12)


def test_ising_cycle_ground_states():
    m = ising_model(C4)
    assert exact_partition(m, math.inf) == 2.0  # all-up and all-down
    assert exact_partition(m, 0.0) == 16.0


def test_colouring_triangle():
    m = colouring_model(TRIANGLE, 3)
    assert m.size == 27
    # proper 3-colourings of a triangle: 3! = 6
    assert exact_partition(m, math.inf) == 6.0
    for k in (0, -2):
        with pytest.raises(ValueError, match="k >= 1"):
            colouring_model(TRIANGLE, k)


def test_matching_counts():
    # path with 2 edges: empty, each single edge -> 3 matchings
    p3 = matching_model(Graph(3, ((0, 1), (1, 2))))
    assert p3.size == 3
    # 4-cycle: empty + 4 singles + 2 disjoint pairs = 7
    c4 = matching_model(C4)
    assert c4.size == 7
    assert list(c4.counts[:3]) == [1, 4, 2] and not c4.counts[3:].any()
    assert exact_partition(c4, 0.0) == 7.0
    assert exact_partition(c4, math.inf) == 1.0  # empty matching only


def test_partition_negative_beta_and_monotonicity():
    m = matching_model(C4)
    betas = [-1.0, 0.0, 0.5, 2.0, math.inf]
    zs = [exact_partition(m, b) for b in betas]
    assert all(a > b for a, b in zip(zs, zs[1:]))
    assert zs[0] == pytest.approx(1 + 4 * math.e + 2 * math.e**2)


def test_gibbs_distribution_normalizes():
    m = ising_model(C4)
    for beta in (0.0, 0.7, math.inf):
        pi = gibbs_distribution(m, beta)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)
    pi_inf = gibbs_distribution(m, math.inf)
    assert np.count_nonzero(pi_inf) == 2


@pytest.mark.parametrize("beta", [math.nan, -math.inf])
def test_gibbs_distribution_rejects_nan_and_minus_inf(beta):
    # NaN used to come back as an all-NaN pi
    with pytest.raises(ArithmeticError, match="failed to normalize"):
        gibbs_distribution(ising_model(C4), beta)


def test_gibbs_distribution_extreme_betas():
    m = matching_model(C4)
    for beta in (-2.0, -0.3, 1.5):
        w = np.exp(-beta * m.energies)
        assert gibbs_distribution(m, beta) == pytest.approx(w / w.sum(),
                                                            rel=1e-12)
    # |beta| = 1e308 underflows every other level to 0, without overflow
    for beta, level in ((1e308, m.energies.min()), (-1e308, m.energies.max())):
        pi = gibbs_distribution(m, beta)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi[m.energies != level] == 0.0)


def test_chi_squared_single_edge():
    m = ising_model(K2)
    # warming from beta=0 to beta=ln 2: known closed form 1/9
    assert chi_squared(m, 0.0, math.log(2.0)) == pytest.approx(1.0 / 9.0)
    # against the frozen endpoint the ratio form collapses to Z_i/Z_inf - 1
    z_i = exact_partition(m, math.log(2.0))
    z_inf = exact_partition(m, math.inf)
    assert chi_squared(m, math.log(2.0), math.inf) == pytest.approx(
        z_i / z_inf - 1.0)
    assert chi_squared(m, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_chi_squared_matches_definition():
    m = matching_model(C4)
    bi, bj = 0.3, 0.9
    pi_i = gibbs_distribution(m, bi)
    pi_j = gibbs_distribution(m, bj)
    direct = float(np.sum((pi_j - pi_i) ** 2 / pi_i))
    assert chi_squared(m, bi, bj) == pytest.approx(direct, abs=1e-10)


def test_overlap_lower_bound():
    m = ising_model(K2)
    chi = chi_squared(m, 0.0, math.log(2.0))
    ov = overlap_squared(m, 0.0, math.log(2.0))
    assert ov >= 1.0 / (1.0 + chi) - 1e-12
    assert ov == pytest.approx(0.9714045207910316)
