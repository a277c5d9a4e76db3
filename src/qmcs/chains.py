"""Explicit-matrix Markov chains targeting the Gibbs distributions.

Glauber (heat-bath) single-site dynamics for Ising spins and colourings,
and a single-edge add/remove Metropolis chain for matchings.  Chains are
dense row-stochastic matrices so stationarity, detailed balance and the
relaxation time tau = 1/(1 - |lambda_1|) can be checked exactly, from one
cached eigh of the discriminant per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gibbs import GibbsModel, _boltzmann, gibbs_distribution

__all__ = [
    "MarkovChain",
    "ChainError",
    "glauber_chain",
    "matching_chain",
    "chain_for",
    "relaxation_time",
    "discriminant_matrix",
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
        """Second-largest eigenvalue magnitude, read from the cached spectrum."""
        if np.any(self.pi <= 0):
            raise ChainError("spectral analysis needs full-support pi")
        mags = np.sort(np.abs(self.spectrum[0]))[::-1]
        if abs(mags[0] - 1.0) > 1e-8:
            raise ChainError("leading eigenvalue is not 1")
        return float(mags[1]) if self.n > 1 else 0.0  # one state mixes at once

    @cached_property
    def spectrum(self):
        """Read-only eigh of the discriminant: the chain's one eigensolve."""
        lams, vecs = np.linalg.eigh(discriminant_matrix(self))
        lams.setflags(write=False)
        vecs.setflags(write=False)
        return lams, vecs


def discriminant_matrix(c: MarkovChain) -> np.ndarray:
    """D(x, y) = sqrt(P(x, y) P(y, x)), similar to P for a reversible chain."""
    return np.sqrt(c.P * c.P.T)


def glauber_chain(m: GibbsModel, beta: float) -> MarkovChain:
    """Heat-bath dynamics: pick a site uniformly, resample it from the
    conditional Gibbs distribution given the rest of the configuration."""
    if m.name not in ("ising", "colouring"):
        raise ChainError(f"glauber_chain does not support {m.name} models")
    size = m.size
    if size > SPECTRAL_CAP:
        raise ChainError(f"state space {size} exceeds dense cap {SPECTRAL_CAP}")
    n_sites = m.graph.n_vertices
    if n_sites == 0:
        raise ChainError("glauber chain needs at least one site")
    pi = gibbs_distribution(m, beta)  # fails first on a NaN or -inf beta
    codes, k = m.codes, m.extra.get("k", 2)  # codes[i] == i
    P = np.zeros((size, size))
    for place in k ** np.arange(n_sites):
        # the k states that agree with each state off this site, by symbol
        base = codes - codes // place % k * place
        nb = base[:, None] + place * np.arange(k)
        w = _boltzmann(m.energies[nb], beta)  # conditional Gibbs weights
        P[codes[:, None], nb] += w / w.sum(axis=-1, keepdims=True) / n_sites
    return MarkovChain(P, pi)


def matching_chain(m: GibbsModel, beta: float) -> MarkovChain:
    """Metropolis chain on matchings: pick an edge uniformly; toggle it if
    the result is a matching, accepting an addition with min(1, e^{-beta})
    and a removal with min(1, e^{beta})."""
    if m.name != "matching":
        raise ChainError("matching_chain requires a matching model")
    size = m.size
    if size > SPECTRAL_CAP:
        raise ChainError(f"state space {size} exceeds dense cap {SPECTRAL_CAP}")
    edges = m.graph.edges
    n_edges = len(edges)
    if n_edges == 0:
        raise ChainError("matching chain needs at least one edge")
    accept_add = math.exp(-max(beta, 0.0))  # min(1, e^{-beta}); 0 at inf
    accept_remove = math.exp(min(beta, 0.0))  # 1 whenever beta >= 0
    codes, rows = m.codes, np.arange(size)
    has = [(codes & (1 << idx)) != 0 for idx in range(n_edges)]
    occupied = np.zeros(size, dtype=object)  # vertex bitmask per matching
    for idx, (u, v) in enumerate(edges):
        occupied[has[idx]] |= (1 << u) | (1 << v)
    P = np.zeros((size, size))
    for idx, (u, v) in enumerate(edges):
        # blocked moves stay put, which the diagonal below absorbs
        free = ~has[idx] & ((occupied & ((1 << u) | (1 << v))) == 0)
        for move, rate in ((has[idx], accept_remove), (free, accept_add)):
            target = codes[move] ^ (1 << idx)
            P[rows[move], np.searchsorted(codes, target)] = rate / n_edges
    P[rows, rows] = 1.0 - P.sum(axis=1)
    return MarkovChain(P, gibbs_distribution(m, beta))


def chain_for(m: GibbsModel, beta: float) -> MarkovChain:
    """The package's chain for a model: Metropolis on matchings, else Glauber."""
    return matching_chain(m, beta) if m.name == "matching" else glauber_chain(m, beta)


def relaxation_time(c: MarkovChain) -> float:
    """tau = 1/(1 - |lambda_1|); raises if the chain is not ergodic."""
    lam = c.lambda1
    if lam >= 1.0 - 1e-12:
        raise ChainError("chain is not ergodic: |lambda_1| = 1")
    return 1.0 / (1.0 - lam)

