"""Explicit-matrix Markov chains targeting the Gibbs distributions.

Glauber (heat-bath) single-site dynamics for Ising spins and colourings,
and a single-edge add/remove Metropolis chain for matchings.  Chains are
dense row-stochastic matrices so stationarity, detailed balance and the
relaxation time tau = 1/(1 - |lambda_1|) can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import GibbsModel, _boltzmann, gibbs_distribution
from .outcome import QueryLedger

__all__ = [
    "MarkovChain",
    "ChainError",
    "glauber_chain",
    "matching_chain",
    "chain_for",
    "relaxation_time",
    "mix_sample",
    "make_lazy",
    "mixing_steps",
]

SPECTRAL_CAP = 4096


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class MarkovChain:
    P: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        P, pi = np.asarray(self.P, float), np.asarray(self.pi, float)
        P.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)
        if not np.abs(P.sum(axis=1) - 1.0).max() <= 1e-10:
            raise ChainError("rows must sum to 1")
        if not np.abs(pi @ P - pi).max() <= 1e-8:
            raise ChainError("pi is not stationary")
        flux = pi[:, None] * P
        if not np.abs(flux - flux.T).max() <= 1e-10:
            raise ChainError("detailed balance violated")

    @property
    def n(self) -> int:
        return len(self.pi)

    @property
    def lambda1(self) -> float:
        return _lambda1(self)

    @property
    def tau(self) -> float:
        return relaxation_time(self)


def _state_index(states) -> dict:
    return {s: i for i, s in enumerate(states)}


def glauber_chain(m: GibbsModel, beta: float) -> MarkovChain:
    """Heat-bath dynamics: pick a site uniformly, resample it from the
    conditional Gibbs distribution given the rest of the configuration."""
    if m.name not in ("ising", "colouring"):
        raise ChainError(f"glauber_chain does not support {m.name} models")
    size = m.size
    if size > SPECTRAL_CAP:
        raise ChainError(f"state space {size} exceeds dense cap {SPECTRAL_CAP}")
    pi = gibbs_distribution(m, beta)  # fails first on a NaN or -inf beta
    n_sites = m.graph.n_vertices
    alphabet = (1, -1) if m.name == "ising" else tuple(range(m.extra["k"]))
    index = _state_index(m.states)
    energies = m.energies
    P = np.zeros((size, size))
    for i, state in enumerate(m.states):
        for site in range(n_sites):
            # conditional Gibbs weights over the site's alphabet
            neighbours = []
            for sym in alphabet:
                cand = state[:site] + (sym,) + state[site + 1:]
                neighbours.append(index[cand])
            if beta == math.inf:
                e_loc = energies[neighbours]
                w = (e_loc == e_loc.min()).astype(float)
            else:
                e_loc = energies[neighbours].astype(float)
                w = _boltzmann(e_loc, beta)
            w /= w.sum()
            for j, pw in zip(neighbours, w):
                P[i, j] += pw / n_sites
    return MarkovChain(P, pi)


def matching_chain(m: GibbsModel, beta: float) -> MarkovChain:
    """Metropolis chain on matchings: pick an edge uniformly; toggle it if
    the result is a matching, accepting energy increases with prob e^{-beta}."""
    if m.name != "matching":
        raise ChainError("matching_chain requires a matching model")
    size = m.size
    if size > SPECTRAL_CAP:
        raise ChainError(f"state space {size} exceeds dense cap {SPECTRAL_CAP}")
    edges = m.graph.edges
    n_edges = len(edges)
    if n_edges == 0:
        raise ChainError("matching chain needs at least one edge")
    index = _state_index(m.states)
    accept_add = math.exp(-max(beta, 0.0))  # min(1, e^{-beta}); 0 at inf
    P = np.zeros((size, size))
    for i, match in enumerate(m.states):
        occupied = set()
        for idx in match:
            occupied.update(edges[idx])
        for idx, (u, v) in enumerate(edges):
            if idx in match:
                j = index[match - {idx}]
                P[i, j] += 1.0 / n_edges  # removal always accepted
            elif u not in occupied and v not in occupied:
                j = index[match | {idx}]
                P[i, j] += accept_add / n_edges
            # else: blocked move, stay put (handled by the diagonal below)
        P[i, i] = 1.0 - P[i].sum() + P[i, i]
    return MarkovChain(P, gibbs_distribution(m, beta))


def chain_for(m: GibbsModel, beta: float) -> MarkovChain:
    """The package's chain for a model: Metropolis on matchings, else Glauber."""
    return matching_chain(m, beta) if m.name == "matching" else glauber_chain(m, beta)


def _lambda1(c: MarkovChain) -> float:
    """Second-largest eigenvalue magnitude via the symmetrized matrix."""
    if np.any(c.pi <= 0):
        raise ChainError("spectral analysis needs full-support pi")
    s = np.sqrt(c.pi)
    sym = (s[:, None] * c.P) / s[None, :]
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    mags = np.sort(np.abs(eigs))[::-1]
    if abs(mags[0] - 1.0) > 1e-8:
        raise ChainError("leading eigenvalue is not 1")
    return float(mags[1]) if c.n > 1 else 0.0  # one state mixes at once


def relaxation_time(c: MarkovChain) -> float:
    """tau = 1/(1 - |lambda_1|); raises if the chain is not ergodic."""
    lam = _lambda1(c)
    if lam >= 1.0 - 1e-12:
        raise ChainError("chain is not ergodic: |lambda_1| = 1")
    return 1.0 / (1.0 - lam)


def make_lazy(c: MarkovChain) -> MarkovChain:
    """(P + I)/2: forces a nonnegative spectrum at the cost of doubling tau."""
    return MarkovChain((c.P + np.eye(c.n)) / 2.0, c.pi)


def mixing_steps(c: MarkovChain, eps: float) -> int:
    """Step count ceil(tau * ln(1/(eps * pi_min))) for TV accuracy eps."""
    return math.ceil(c.tau * math.log(1.0 / (eps * float(c.pi.min()))))


def mix_sample(c: MarkovChain, start: int, steps: int,
               rng: np.random.Generator, ledger: QueryLedger) -> int:
    """Run the chain for `steps` transitions from state index `start`."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    ledger.walk_steps += steps
    state = start
    cums = None
    for _ in range(steps):
        if cums is None:
            cums = np.cumsum(c.P, axis=1)
        state = int(np.searchsorted(cums[state], rng.random(), side="right"))
        state = min(state, c.n - 1)
    return state
