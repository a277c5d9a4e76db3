import math

import numpy as np
import pytest

from qmcs.chains import (ChainError, MarkovChain, glauber_chain, make_lazy,
                         matching_chain, mix_sample, mixing_steps,
                         relaxation_time)
from qmcs.gibbs import (Graph, colouring_model, gibbs_distribution,
                        ising_model, matching_model)
from qmcs.outcome import QueryLedger

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


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
    assert c.n == 1 and c.lambda1 == 0.0 and c.tau == 1.0


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
    assert relaxation_time(make_lazy(c)) == pytest.approx(1.0)


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


def test_lazy_spectrum_nonnegative():
    c = make_lazy(matching_chain(matching_model(C4), 0.5))
    s = np.sqrt(c.pi)
    sym = (s[:, None] * c.P) / s[None, :]
    assert np.linalg.eigvalsh((sym + sym.T) / 2).min() >= -1e-12


def test_mixing_steps_formula():
    P = np.array([[0.75, 0.25], [0.25, 0.75]])
    c = MarkovChain(P, np.array([0.5, 0.5]))
    assert mixing_steps(c, 0.01) == math.ceil(2.0 * math.log(200.0))


def test_mix_sample_converges_and_charges():
    c = glauber_chain(ising_model(K2), 1.0)
    steps = mixing_steps(c, 0.01)
    rng = np.random.default_rng(2)
    ledger = QueryLedger()
    counts = np.zeros(c.n)
    trials = 4000
    for _ in range(trials):
        counts[mix_sample(c, 0, steps, rng, ledger)] += 1
    assert ledger.walk_steps == trials * steps
    tv = 0.5 * np.abs(counts / trials - c.pi).sum()
    assert tv < 0.03
