"""Enumerated Gibbs models: Ising spins, proper k-colourings, matchings.

Each model is a finite list of configurations with integer energies
H(x) in {0, ..., n}, so the partition function Z(beta) = sum_x e^{-beta H(x)}
and the Gibbs distribution pi_beta(x) = e^{-beta H(x)} / Z(beta) can be
computed exactly from the energy histogram.  beta = inf is first-class:
sums restrict to the ground states H = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GibbsModel",
    "read_graph",
    "ising_model",
    "colouring_model",
    "matching_model",
    "exact_partition",
    "gibbs_distribution",
    "chebyshev_ratio",
    "chi_squared",
    "overlap_squared",
]

STATE_CAP = 2**20


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)


def read_graph(path) -> Graph:
    """Plain-text graph: first line 'n m', then m lines 'u v' (0-indexed)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("graph file must start with 'n m'")
    n, m = int(tokens[0]), int(tokens[1])
    nums = [int(x) for x in tokens[2:]]
    if len(nums) != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint entries, got {len(nums)}")
    edges = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(m))
    return Graph(n, edges)


@dataclass(frozen=True)
class GibbsModel:
    name: str
    states: tuple
    energies: np.ndarray
    n_max: int          # declared energy range {0, ..., n_max}
    graph: Graph = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=np.int64)
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)
        if len(self.states) != len(e):
            raise ValueError("states/energies length mismatch")
        if len(e) > STATE_CAP:
            raise ValueError(f"state space {len(e)} exceeds cap {STATE_CAP}")
        if len(e) and (e.min() < 0 or e.max() > self.n_max):
            raise ValueError("energies outside declared range")
        # energy histogram: counts[h] = #{x : H(x) = h}
        object.__setattr__(self, "counts", np.bincount(e, minlength=self.n_max + 1))

    @property
    def size(self) -> int:
        return len(self.states)


def ising_model(g: Graph) -> GibbsModel:
    """Spin states z in {-1,+1}^n with the edge disagreement count as energy.

    The disagreement count sum_(u,v) (1 - z_u z_v)/2 lies in {0, ..., |E|};
    it relates to the unshifted energy -sum z_u z_v by H = 2H' - |E|, so
    Z_unshifted(beta) = e^{beta |E|} * Z(2 beta).
    """
    n = g.n_vertices
    if 2**n > STATE_CAP:
        raise ValueError("Ising state space exceeds cap")
    codes = np.arange(2**n, dtype=np.int64)
    spins = 1 - 2 * ((codes[:, None] >> np.arange(n)) & 1)  # bit 0 -> +1
    us, vs = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    energies = ((1 - spins[:, us] * spins[:, vs]) // 2).sum(axis=1)
    states = tuple(tuple(row) for row in spins)
    return GibbsModel("ising", states, energies, max(len(g.edges), 0), graph=g)


def colouring_model(g: Graph, k: int) -> GibbsModel:
    """Colourings c in {0..k-1}^n with the monochromatic-edge count as energy."""
    n = g.n_vertices
    if k < 1:
        raise ValueError("colouring needs k >= 1 colours")
    if k**n > STATE_CAP:
        raise ValueError("colouring state space exceeds cap")
    codes = np.arange(k**n, dtype=np.int64)
    cols = (codes[:, None] // (k ** np.arange(n))) % k
    us, vs = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    energies = (cols[:, us] == cols[:, vs]).sum(axis=1).astype(np.int64)
    states = tuple(tuple(row) for row in cols)
    return GibbsModel("colouring", states, energies, max(len(g.edges), 0),
                      graph=g, extra={"k": k})


def matching_model(g: Graph) -> GibbsModel:
    """Matchings M (as frozensets of edge indices) with energy |M|."""
    matchings = [frozenset()]
    used = [frozenset()]
    for idx, (u, v) in enumerate(g.edges):
        new_m, new_u = [], []
        for m, occ in zip(matchings, used):
            if u not in occ and v not in occ:
                new_m.append(m | {idx})
                new_u.append(occ | {u, v})
        matchings.extend(new_m)
        used.extend(new_u)
        if len(matchings) > STATE_CAP:
            raise ValueError("matching state space exceeds cap")
    energies = np.array([len(m) for m in matchings], dtype=np.int64)
    return GibbsModel("matching", tuple(matchings), energies,
                      max(len(g.edges), 0), graph=g)


def exact_partition(m: GibbsModel, beta) -> float:
    """Z(beta) = sum_x e^{-beta H(x)}; Z(inf) counts ground states.

    Negative beta is accepted (needed by schedule verification, where terms
    e^{+|beta| H} appear); overflow saturates to inf.
    """
    if beta == math.inf:
        return float(m.counts[0])
    hs = np.nonzero(m.counts)[0]
    with np.errstate(over="ignore"):
        return float(np.sum(m.counts[hs] * np.exp(-float(beta) * hs)))


def _boltzmann(energies: np.ndarray, beta: float) -> np.ndarray:
    """Weights e^{-beta (H - H*)} with H* the likeliest level, so that no
    exponent is positive and no |beta| overflows; e^{-beta H} when H* = 0."""
    top = energies.max() if beta < 0 else energies.min()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-beta * (energies - top))


def gibbs_distribution(m: GibbsModel, beta) -> np.ndarray:
    """Probability vector over m.states, pi(x) = e^{-beta H(x)} / Z(beta)."""
    if beta == math.inf:
        z = m.counts[0]
        if z == 0:
            raise ZeroDivisionError("no ground states: Z(inf) = 0")
        probs = (m.energies == 0) / float(z)
    else:
        w = _boltzmann(m.energies, float(beta))
        probs = w / w.sum()
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-12:  # NaN fails too
        raise ArithmeticError(f"Gibbs distribution at beta={beta} failed to "
                              "normalize")
    return probs


def chebyshev_ratio(m: GibbsModel, beta_i, beta_j, direction="forward") -> float:
    """The relative second moment of the ratio variable for the pair.

    forward:  Z(2 beta_j - beta_i) Z(beta_i) / Z(beta_j)^2
    reversed: Z(2 beta_i - beta_j) Z(beta_j) / Z(beta_i)^2, the same form
    with the pair swapped.  A terminal pair (beta_i, inf) evaluates
    Z(beta_i)/Z(inf) in either direction (the reversed form diverges there;
    see partition.estimate_partition).
    """
    if beta_j == math.inf:
        return exact_partition(m, beta_i) / exact_partition(m, math.inf)
    if direction != "forward":
        beta_i, beta_j = beta_j, beta_i
    return (exact_partition(m, 2.0 * beta_j - beta_i) * exact_partition(m, beta_i)
            / exact_partition(m, beta_j) ** 2)


def chi_squared(m: GibbsModel, beta_i, beta_j) -> float:
    """Chi-squared divergence of pi_{beta_j} from pi_{beta_i}.

    Computed two ways -- the definitional sum and the forward Chebyshev
    ratio minus 1 -- which must agree to 1e-10.
    """
    if not beta_i <= beta_j:
        raise ValueError("requires beta_i <= beta_j")
    pi = gibbs_distribution(m, beta_i)
    nu = gibbs_distribution(m, beta_j)
    mask = pi > 0
    definitional = float(np.sum(pi[mask] * (nu[mask] / pi[mask] - 1.0) ** 2))
    ratio = chebyshev_ratio(m, beta_i, beta_j) - 1.0
    if abs(definitional - ratio) > 1e-10 * max(1.0, abs(ratio)):
        raise ArithmeticError(
            f"chi-squared forms disagree: {definitional} vs {ratio}")
    return definitional


def overlap_squared(m: GibbsModel, beta_i, beta_j) -> float:
    """Squared fidelity (sum_x sqrt(pi_i(x) pi_j(x)))^2 between Gibbs states."""
    pi = gibbs_distribution(m, beta_i)
    nu = gibbs_distribution(m, beta_j)
    return float(np.sum(np.sqrt(pi * nu)) ** 2)
