import math

import numpy as np
import pytest
import scipy.linalg

from qmcs.chains import (ChainError, MarkovChain, chain_for,
                         discriminant_matrix, glauber_chain)
from qmcs.gibbs import (Graph, colouring_model, gibbs_distribution,
                        ising_model, matching_model)
from qmcs.outcome import QueryLedger
from qmcs.partition import build_schedule
from qmcs.walk import (ApproxReflection, approx_reflection,
                       spectral_correspondence_residual, szegedy_walk,
                       walk_phases, warm_start_prepare)

K2 = Graph(2, ((0, 1),))


def _cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _two_state(p, q):
    P = np.array([[1.0 - p, p], [q, 1.0 - q]])
    pi = np.array([q, p]) / (p + q)
    return MarkovChain(P, pi)


def _random_reversible(rng, n):
    flux = rng.random((n, n))
    flux = flux + flux.T + n * np.eye(n)
    pi = flux.sum(axis=1) / flux.sum()
    P = flux / flux.sum(axis=1, keepdims=True)
    return MarkovChain(P, pi)


def _overlap_by_doubling(phases, b):
    """|T^-1 sum_{y<T} e^{i theta y}|^2 for T = 2^b, as prod_k (1 + e^{i theta 2^k})."""
    total = np.ones(len(phases), complex)
    for k in range(b):
        total *= 1.0 + np.exp(1j * phases * 2**k)
    return np.abs(total / 2**b) ** 2


def _schur_eigensystem(walk):
    """W's phases and orthonormal eigenvectors from one complex Schur form."""
    T, Z = scipy.linalg.schur(walk.W, output="complex")
    eigs = np.diag(T)
    assert np.abs(T - np.diag(eigs)).max() <= 1e-8  # W is normal
    return np.angle(eigs), Z


class _EdgeReflection:
    """Reference: the exact_sim reflection on the dense walk's edge space.

    Phase estimation on the Schur eigenvectors of W, with the ancilla-0
    overlap summed over y without the closed form.  Acts on edge vectors.
    """

    def __init__(self, walk, epsilon_r):
        phases, self.vecs = _schur_eigensystem(walk)
        self.b = (math.ceil(math.log2(2.0 * math.pi / walk.phase_gap))
                  + math.ceil(math.log2(1.0 / epsilon_r)) + 2)
        self.charge = 2**self.b
        zero = np.abs(phases) <= 1e-9
        r0 = 2.0 * _overlap_by_doubling(phases, self.b) - 1.0
        self.r0 = np.where(zero, 1.0, r0)
        self.err = np.where(zero, 0.0, np.sqrt(np.maximum(2.0 + 2.0 * r0, 0.0)))

    def error_norm(self, edge_vec):
        c = self.vecs.conj().T @ edge_vec
        return float(np.sqrt(np.sum(np.abs(c) ** 2 * self.err**2)))

    def apply_postselected(self, edge_vec):
        return self.vecs @ (self.r0 * (self.vecs.conj().T @ edge_vec))


def test_walk_is_unitary_and_real():
    w = szegedy_walk(_two_state(0.25, 0.25))
    assert np.allclose(w.W @ w.W.T, np.eye(4), atol=1e-12)
    # the residual kept from construction is the one qmcs walk-check prints
    assert w.unitarity_residual == float(
        np.abs(w.W.conj().T @ w.W - np.eye(4)).max())


def test_symmetric_two_state_phases():
    # discriminant eigenvalues 1 and 1/2 -> phases {0, +-pi/3, pi}
    w = szegedy_walk(_two_state(0.25, 0.25))
    want = np.sort([0.0, math.pi / 3.0, -math.pi / 3.0, math.pi])
    assert np.allclose(np.sort(w.phases), want, atol=1e-9)
    assert not w.phases.flags.writeable
    assert w.phase_gap == pytest.approx(math.pi / 3.0)


def _criterion_9_chains():
    """The 20 random reversible chains of validate's criterion 9."""
    rng = np.random.default_rng(90)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        m = rng.random((n, n)) + 0.05
        P = (m + m.T) / 2.0 / pi[:, None]
        np.fill_diagonal(P, 0.0)
        P *= 0.9 / P.sum(axis=1).max()
        np.fill_diagonal(P, 1.0 - P.sum(axis=1))
        yield MarkovChain(P, pi)


def test_phases_match_schur_phases():
    # one eigvals gives the phases the Schur form gave, the sign of +-pi
    # included: qmcs walk-check prints them sorted
    m = ising_model(_cycle(4))
    rungs = [chain_for(m, b) for b in build_schedule(m, 2.0).betas[:-1]]
    for c in [*_criterion_9_chains(), *rungs]:
        w = szegedy_walk(c)
        want = np.sort(_schur_eigensystem(w)[0])
        assert np.abs(np.sort(w.phases) - want).max() <= 1e-12


def test_one_state_chain_has_no_walk_phase():
    # one colour on two free vertices: walk_phases used to return no phase,
    # and its callers failed in numpy's "zero-size array to reduction
    # operation minimum"
    c = chain_for(colouring_model(Graph(2, ()), 1), 0.5)
    assert c.n == 1
    for build in (walk_phases, szegedy_walk):
        with pytest.raises(ChainError,
                           match="^a one-state chain has no walk phase$"):
            build(c)


def test_stationary_edge_state_is_fixed():
    c = glauber_chain(ising_model(K2), 0.7)
    w = szegedy_walk(c)
    pi_e = w.node_embedding @ np.sqrt(c.pi)
    assert np.allclose(w.W @ pi_e, pi_e, atol=1e-10)
    # edge amplitudes are sqrt(pi(x) P(x,y)) arranged by (x, y)
    n = c.n
    want = np.sqrt((c.pi[:, None] * c.P)).reshape(n * n)
    assert np.allclose(np.abs(pi_e), want, atol=1e-12)


def test_spectral_correspondence_random_chains():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        w = szegedy_walk(_random_reversible(rng, n))
        assert spectral_correspondence_residual(w) <= 1e-8


def test_exact_sim_reflection_error_within_budget():
    c = _two_state(0.25, 0.25)
    eps = 0.05
    ledger = QueryLedger()
    refl = approx_reflection(c, eps, ledger)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert refl.error_norm(v) <= eps
    # fixes the stationary state exactly and charges 2^b steps per use
    s = np.sqrt(c.pi)
    assert np.allclose(refl.apply_postselected(s), s, atol=1e-10)
    assert ledger.walk_steps == 2**refl.b


def test_exact_sim_phase_bits_grow_with_accuracy():
    c = _two_state(0.25, 0.25)
    b1 = ApproxReflection(c, 0.1, QueryLedger()).b
    b2 = ApproxReflection(c, 0.001, QueryLedger()).b
    assert b2 > b1


def test_reference_overlap_matches_exponential_sum():
    phases = np.concatenate([[0.0, 1e-6, math.pi, -math.pi / 3.0],
                             np.random.default_rng(5).uniform(-math.pi,
                                                              math.pi, 12)])
    for b in range(3, 18):
        direct = np.abs(np.exp(1j * np.outer(phases, np.arange(2**b))).mean(
            axis=1)) ** 2
        assert np.abs(_overlap_by_doubling(phases, b) - direct).max() <= 1e-12


def _assert_matches_dense(c, epsilon_r, rng):
    """Node reflection == A^T R_dense(A u), same error norm, b and charge."""
    node = ApproxReflection(c, epsilon_r, QueryLedger())
    w = szegedy_walk(c)
    ref = _EdgeReflection(w, epsilon_r)
    assert (node.b, node.charge) == (ref.b, ref.charge)
    A = w.node_embedding
    for u in [np.sqrt(c.pi), *rng.standard_normal((3, c.n))]:
        u = u / np.linalg.norm(u)
        dense = A.T @ ref.apply_postselected(A @ u)
        assert np.abs(node.apply_postselected(u) - dense).max() <= 1e-12
        assert abs(node.error_norm(u) - ref.error_norm(A @ u)) <= 1e-12


@pytest.mark.parametrize("eps_r", [0.1, 0.01, 0.001])
def test_node_reflection_matches_dense_walk_random_chains(eps_r):
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for _ in range(2):
            _assert_matches_dense(_random_reversible(rng, n), eps_r, rng)


# (model, B, direction, partition eps) of the golden and benchmark partition
# instances; C8 Ising (256 states) is left out, its dense walk has 2^16 rows
PARTITION_INSTANCES = {
    "golden-k2-ising": (lambda: ising_model(K2), 1.5, "forward", 0.2),
    "golden-c4-matching": (lambda: matching_model(_cycle(4)), 2.0, "reversed",
                           0.2),
    "c4-ising": (lambda: ising_model(_cycle(4)), 2.0, "forward", 0.1),
    "c6-matching": (lambda: matching_model(_cycle(6)), 2.0, "reversed", 0.1),
    "k3-colouring": (lambda: colouring_model(
        Graph(3, ((0, 1), (1, 2), (0, 2))), 3), 2.0, "forward", 0.1),
    "c5-ising": (lambda: ising_model(_cycle(5)), 2.0, "forward", 0.1),
    "c4-matching": (lambda: matching_model(_cycle(4)), 2.0, "reversed", 0.1),
}


@pytest.mark.parametrize("name", sorted(PARTITION_INSTANCES))
def test_node_reflection_matches_dense_walk_on_rung_chains(name):
    build, B, direction, eps = PARTITION_INSTANCES[name]
    m = build()
    s = build_schedule(m, B, direction)
    # the reflection accuracy and rung chains estimate_partition uses
    eps_r = min(0.25, eps / (2.0 * s.ell))
    rng = np.random.default_rng(14)
    for beta in s.betas[:-1]:
        _assert_matches_dense(chain_for(m, beta), eps_r, rng)


def test_approx_reflection_checks_epsilon():
    # NaN used to pass and fail later in phase_bits ("cannot convert float
    # NaN to integer"), and inf there with "math domain error"
    c = _two_state(0.25, 0.25)
    for eps_r in (-0.1, 0.0, math.nan, math.inf):
        ledger = QueryLedger()
        with pytest.raises(ValueError, match="epsilon_r must be positive"):
            approx_reflection(c, eps_r, ledger)
        assert ledger == QueryLedger()


def test_warm_start_exact_sim_fidelity():
    m = ising_model(K2)
    betas = [0.0, 0.5, 1.0]
    eps = 0.05
    s = warm_start_prepare(m, betas, 2, eps, "exact_sim", QueryLedger())
    target = np.sqrt(gibbs_distribution(m, 1.0))
    assert np.linalg.norm(s.amplitudes - target) <= eps


def test_warm_start_exact_sim_beyond_dense_walk_size():
    # 128 states: the dense walk would have 2^14 rows, over its node cap
    m = ising_model(_cycle(7))
    s = build_schedule(m, 2.0, "forward")
    r = len(s.betas) - 2  # the last finite beta
    eps = 0.05
    qs = warm_start_prepare(m, list(s.betas), r, eps, "exact_sim",
                            QueryLedger())
    target = np.sqrt(gibbs_distribution(m, s.betas[r]))
    assert float(qs.amplitudes @ target) ** 2 >= 1.0 - eps


@pytest.mark.parametrize("mode", ["idealized", "exact_sim", "exact"])
@pytest.mark.parametrize("r", [0, 1])
def test_warm_start_rejects_epsilon_outside_unit_interval(monkeypatch, mode, r):
    # both checks precede every chain build and every charge, at r = 0 too;
    # "idealized" is an unknown mode, since an idealized warm start is only
    # its charge (warm_start_cost)
    def no_chain(*args):
        raise AssertionError("chain built before the settings check")

    monkeypatch.setattr("qmcs.walk.chain_for", no_chain)
    bad = [(eps, r"epsilon_s must be in \(0, 1\)")
           for eps in (0.0, -0.1, math.nan, 1.0, 1.5)]
    if mode != "exact_sim":
        bad.append((0.5, "mode must be 'exact_sim'"))
    for eps, message in bad:
        ledger = QueryLedger()
        with pytest.raises(ValueError, match=message):
            warm_start_prepare(ising_model(K2), [0.0, 0.5, 1.0], r, eps, mode,
                               ledger)
        assert ledger == QueryLedger()


def test_discriminant_is_symmetric():
    c = glauber_chain(ising_model(K2), 0.9)
    D = discriminant_matrix(c)
    assert np.allclose(D, D.T)
