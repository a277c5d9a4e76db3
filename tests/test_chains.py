import hashlib
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmcs import chains
from qmcs.chains import (ChainError, MarkovChain, chain_for, glauber_chain,
                         matching_chain, relaxation_time)
from qmcs.gibbs import (Graph, colouring_model, gibbs_distribution,
                        ising_model, matching_model)
from qmcs.outcome import QueryLedger
from qmcs.partition import build_schedule, estimate_partition

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def test_markov_chain_invariants_enforced():
    # rows must be stochastic
    with pytest.raises(ChainError):
        MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]),
                    np.array([0.5, 0.5]))
    # pi must be stationary
    with pytest.raises(ChainError):
        MarkovChain(np.array([[0.9, 0.1], [0.5, 0.5]]),
                    np.array([0.5, 0.5]))


def test_markov_chain_rejects_nan():
    # an all-NaN P and pi used to pass every check
    nan = np.full((2, 2), math.nan)
    with pytest.raises(ChainError):
        MarkovChain(nan, np.full(2, math.nan))
    with pytest.raises(ChainError):
        MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]),
                    np.array([0.5, math.nan]))


@pytest.mark.parametrize("beta", [math.nan, -math.inf])
def test_chains_reject_nan_and_minus_inf_beta(beta):
    for build, model in ((glauber_chain, ising_model(C4)),
                         (matching_chain, matching_model(C4))):
        with pytest.raises(ArithmeticError, match="failed to normalize"):
            build(model, beta)


@pytest.mark.parametrize("beta", [1e308, -1e308, 1e3, -1e3])
def test_chains_stay_stochastic_at_extreme_beta(beta):
    # the weights used to overflow to inf/inf = NaN at large negative beta
    c = glauber_chain(ising_model(C4), beta)
    assert np.abs(c.P.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.all(np.isfinite(c.P))


def test_one_state_chain_mixes_at_once():
    # one colour on a triangle leaves one state; lambda1 used to index past it
    c = glauber_chain(colouring_model(Graph(3, ((0, 1), (1, 2), (0, 2))), 1),
                      0.0)
    assert c.n == 1 and c.lambda1 == 0.0 and relaxation_time(c) == 1.0


def test_two_state_flip_relaxation():
    # flip with prob 1/4 from either state: eigenvalues 1 and 1/2, tau = 2
    P = np.array([[0.75, 0.25], [0.25, 0.75]])
    c = MarkovChain(P, np.array([0.5, 0.5]))
    assert c.lambda1 == pytest.approx(0.5)
    assert relaxation_time(c) == pytest.approx(2.0)


def test_glauber_stationary_and_reversible():
    for model, beta in ((ising_model(C4), 0.8),
                        (colouring_model(Graph(3, ((0, 1), (1, 2))), 3), 0.5),
                        (ising_model(K2), math.inf)):
        c = glauber_chain(model, beta)
        pi = gibbs_distribution(model, beta)
        # construction re-checks stationarity; confirm pi matches the model
        assert np.allclose(c.pi, pi)
        assert np.allclose(c.P.sum(axis=1), 1.0)


def test_glauber_infinite_beta_rejects_uphill_moves():
    c = glauber_chain(ising_model(C4), math.inf)
    e = ising_model(C4).energies
    moves = np.argwhere(c.P > 0)
    assert all(e[j] <= e[i] or True for i, j in moves)  # moves exist
    assert all(not (e[j] > e[i]) for i, j in moves)


def test_matching_chain_single_edge():
    # one edge at beta=0: deterministic toggle between the 2 matchings
    m = matching_model(Graph(2, ((0, 1),)))
    c = matching_chain(m, 0.0)
    assert np.allclose(c.P, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(c.pi, [0.5, 0.5])
    # periodic, so no finite relaxation time
    with pytest.raises(ChainError):
        relaxation_time(c)
    # laziness restores ergodicity (lazy toggle mixes in one step)
    lazy = MarkovChain((c.P + np.eye(c.n)) / 2.0, c.pi)
    assert relaxation_time(lazy) == pytest.approx(1.0)


def test_matching_chain_frozen_limit():
    m = matching_model(C4)
    c = matching_chain(m, math.inf)
    # no additions ever accepted; the empty matching absorbs
    assert c.P[0, 0] == 1.0


def test_matching_chain_metropolis_rate():
    m = matching_model(Graph(2, ((0, 1),)))
    beta = 1.3
    c = matching_chain(m, beta)
    assert c.P[0, 1] == pytest.approx(math.exp(-beta))
    assert c.P[1, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("beta", [-0.5, -50.0, -1e308])
def test_matching_chain_is_stationary_at_negative_beta(beta):
    # removals raise the weight e^{-beta |M|} when beta < 0, so Metropolis
    # accepts them with e^{beta}
    for g in (K2, TRIANGLE, C4, K4):
        m = matching_model(g)
        c = matching_chain(m, beta)  # MarkovChain checks pi P = pi
        pi = gibbs_distribution(m, beta)
        assert np.abs(pi @ c.P - pi).max() <= 1e-12


def test_matching_chain_negative_beta_rates():
    m = matching_model(K2)
    c = matching_chain(m, -1.3)
    assert c.P[0, 1] == 1.0
    assert c.P[1, 0] == pytest.approx(math.exp(-1.3))


# sha256 prefixes of P.tobytes() from before removals were Metropolis
# filtered; the filter is exactly 1 at beta >= 0, so no bit may move
MATCHING_P_DIGESTS = {
    ("triangle", 0.0): "c24fe93ca36ac4b4",
    ("triangle", 0.7): "1fe388218df18daf",
    ("triangle", math.inf): "09cbefbbfa3469ae",
    ("C4", 0.0): "4b946d03d3155a22",
    ("C4", 0.7): "a46ecc31307e60ec",
    ("C4", math.inf): "695dfb66d3f2565a",
    ("K4", 0.0): "6e64bffde305386b",
    ("K4", 0.7): "001dbaaa4ad4ece6",
    ("K4", math.inf): "459fa97f524df9b2",
}


@pytest.mark.parametrize("name, beta", sorted(MATCHING_P_DIGESTS))
def test_matching_chain_bits_unchanged_at_nonnegative_beta(name, beta):
    g = {"triangle": TRIANGLE, "C4": C4, "K4": K4}[name]
    P = matching_chain(matching_model(g), beta).P
    assert hashlib.sha256(P.tobytes()).hexdigest()[:16] == \
        MATCHING_P_DIGESTS[(name, beta)]


def test_lazy_spectrum_nonnegative():
    c = matching_chain(matching_model(C4), 0.5)
    c = MarkovChain((c.P + np.eye(c.n)) / 2.0, c.pi)
    s = np.sqrt(c.pi)
    sym = (s[:, None] * c.P) / s[None, :]
    assert np.linalg.eigvalsh((sym + sym.T) / 2).min() >= -1e-12


# The per-state loop constructions that the array code replaced, kept as its
# reference: states as tuples of spins or colours, matchings as frozensets
# of edge indices, each chain built state by state and site by site.

def _oracle_states(g, name, k):
    if name == "matching":
        matchings, used = [frozenset()], [frozenset()]
        for idx, (u, v) in enumerate(g.edges):
            new_m, new_u = [], []
            for match, occ in zip(matchings, used):
                if u not in occ and v not in occ:
                    new_m.append(match | {idx})
                    new_u.append(occ | {u, v})
            matchings.extend(new_m)
            used.extend(new_u)
        return matchings
    alphabet = (1, -1) if name == "ising" else tuple(range(k))
    # site 0 is the lowest digit, so it varies fastest
    return [tuple(reversed(p))
            for p in itertools.product(alphabet, repeat=g.n_vertices)]


def _oracle_glauber_P(states, energies, n_sites, alphabet, beta):
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        for site in range(n_sites):
            neighbours = [index[state[:site] + (sym,) + state[site + 1:]]
                          for sym in alphabet]
            if beta == math.inf:
                e_loc = energies[neighbours]
                w = (e_loc == e_loc.min()).astype(float)
            else:
                e_loc = energies[neighbours].astype(float)
                top = e_loc.max() if beta < 0 else e_loc.min()
                with np.errstate(over="ignore", invalid="ignore"):
                    w = np.exp(-beta * (e_loc - top))
            w /= w.sum()
            for j, pw in zip(neighbours, w):
                P[i, j] += pw / n_sites
    return P


def _oracle_matching_P(states, edges, beta):
    index = {s: i for i, s in enumerate(states)}
    accept_add = math.exp(-max(beta, 0.0))
    accept_remove = math.exp(min(beta, 0.0))
    P = np.zeros((len(states), len(states)))
    for i, match in enumerate(states):
        occupied = set()
        for idx in match:
            occupied.update(edges[idx])
        for idx, (u, v) in enumerate(edges):
            if idx in match:
                P[i, index[match - {idx}]] += accept_remove / len(edges)
            elif u not in occupied and v not in occupied:
                P[i, index[match | {idx}]] += accept_add / len(edges)
        P[i, i] = 1.0 - P[i].sum() + P[i, i]
    return P


def _decode(m):
    """The model's codes as the reference's tuples or frozensets."""
    if m.name == "matching":
        return [frozenset(i for i in range(len(m.graph.edges)) if c >> i & 1)
                for c in m.codes]
    k = m.extra.get("k", 2)
    digits = m.codes[:, None] // k ** np.arange(m.graph.n_vertices) % k
    return [tuple(row) for row in (1 - 2 * digits if m.name == "ising"
                                   else digits).tolist()]


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


@settings(max_examples=80, deadline=None)
@given(g=_graphs(), name=st.sampled_from(["ising", "colouring", "matching"]),
       k=st.integers(1, 3),
       beta=st.sampled_from([0.0, math.inf]) | st.floats(-3.0, 3.0))
def test_array_chains_match_loop_oracle(g, name, k, beta):
    m = {"ising": ising_model, "matching": matching_model,
         "colouring": lambda g: colouring_model(g, k)}[name](g)
    states = _oracle_states(g, name, k)
    assert _decode(m) == states
    if name == "matching":
        assert list(m.energies) == [len(s) for s in states]
        assume(g.edges)
        P = _oracle_matching_P(states, g.edges, beta)
    else:
        alphabet = (1, -1) if name == "ising" else tuple(range(k))
        hit = operator.ne if name == "ising" else operator.eq
        assert list(m.energies) == [sum(hit(s[u], s[v]) for u, v in g.edges)
                                    for s in states]
        assume(beta != math.inf or m.counts[0] > 0)
        P = _oracle_glauber_P(states, m.energies, g.n_vertices, alphabet, beta)
    assert np.array_equal(chain_for(m, beta).P, P)


def test_star_with_100_edges_builds():
    # masks up to 2^99: int64 codes would overflow at 63 edges
    star = Graph(101, tuple((0, leaf) for leaf in range(1, 101)))
    m = matching_model(star)
    assert m.size == 101 and m.codes[-1] == 1 << 99
    c = matching_chain(m, 0.5)
    assert np.all(c.P[0, 1:] == math.exp(-0.5) / 100)
    assert np.all(c.P[1:, 0] == 1 / 100)
    assert c.P[0, 0] == 1.0 - math.exp(-0.5) and c.P[100, 100] == 0.99


def test_one_eigensolve_per_rung_chain(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _f=real, _n=name: calls.append(_n) or _f(a))
    m = ising_model(C4)
    s = build_schedule(m, 2.0)
    estimate_partition(m, s, 0.1, 0.25, "walk_exact_sim",
                       np.random.default_rng(0), QueryLedger())
    assert calls == ["eigh"] * s.ell  # one chain per rung below beta = inf
    calls.clear()
    # each rung's tau and walk phase are memoized on the model: later
    # estimates on the same schedule, at any epsilon and in either walk mode,
    # build no chain and solve no spectrum
    with monkeypatch.context() as patch:
        for name in ("glauber_chain", "matching_chain"):
            patch.setattr(chains, name, lambda *a, _n=name: calls.append(_n))
        for eps, mode in ((0.1, "walk_exact_sim"), (0.05, "walk_exact_sim"),
                          (0.2, "walk_idealized")):
            estimate_partition(m, s, eps, 0.25, mode,
                               np.random.default_rng(0), QueryLedger())
    assert calls == []
    c = glauber_chain(m, 0.7)
    relaxation_time(c), c.lambda1
    assert calls == ["eigh"]  # what `qmcs chain` reads
