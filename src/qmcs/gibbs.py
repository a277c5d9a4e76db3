"""Enumerated Gibbs models: Ising spins, proper k-colourings, matchings.

Each model is a finite list of configurations with integer energies
H(x) in {0, ..., n}, so the partition function Z(beta) = sum_x e^{-beta H(x)}
and the Gibbs distribution pi_beta(x) = e^{-beta H(x)} / Z(beta) can be
computed exactly from the energy histogram.  beta = inf is first-class:
sums restrict to the ground states H = 0.

_level_law gives the law of H under pi_beta on the occupied levels, at most
|E|+1 points.  The Gibbs vector, overlaps, chi-squared and the ratio laws of
`partition` all read it; only the chains and the coherent amplitudes of
`walk` need per-state vectors.

States are integer codes in the read-only array `codes`, indexed like
`energies`.  Ising and colouring: codes[i] == i, the mixed-radix number whose
digit at site s (place value k^s) is that site's symbol, Ising digit 0 being
spin +1.  Matchings: edge bitmasks as Python ints (so 63 or more edges fit),
ascending, so the state index of a mask is np.searchsorted(codes, mask).
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
MEMO_CAP = 16  # set-ups kept per model (GibbsModel._memoized), oldest evicted


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError(f"negative vertex count {self.n_vertices}")
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
    codes: np.ndarray
    energies: np.ndarray
    n_max: int          # declared energy range {0, ..., n_max}
    graph: Graph = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=np.int64)
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)
        self.codes.setflags(write=False)
        if len(self.codes) != len(e):
            raise ValueError("codes/energies length mismatch")
        if len(e) > STATE_CAP:
            raise ValueError(f"state space {len(e)} exceeds cap {STATE_CAP}")
        if len(e) and (e.min() < 0 or e.max() > self.n_max):
            raise ValueError("energies outside declared range")
        # energy histogram counts[h] = #{x : H(x) = h}; occupied levels h
        object.__setattr__(self, "counts", np.bincount(e, minlength=self.n_max + 1))
        object.__setattr__(self, "levels", np.nonzero(self.counts)[0])
        object.__setattr__(self, "_memo", {})

    def _memoized(self, key, build):
        """build() once per key while the key is among the MEMO_CAP latest.

        Holds the partition set-up of this model (its keys are laid out in
        partition); it lives and dies with the model.  A build that raises
        stores nothing, so the error raises again on the next call.
        """
        memo = self._memo
        if key not in memo:
            value = build()
            if len(memo) >= MEMO_CAP:
                del memo[next(iter(memo))]  # the oldest: dicts keep insertion order
            memo[key] = value
        return memo[key]

    @property
    def size(self) -> int:
        return len(self.energies)


def ising_model(g: Graph) -> GibbsModel:
    """Spin states z in {-1,+1}^n with the edge disagreement count as energy.

    The disagreement count sum_(u,v) (1 - z_u z_v)/2 lies in {0, ..., |E|};
    it relates to the unshifted energy -sum z_u z_v by H = 2H' - |E|, so
    Z_unshifted(beta) = e^{beta |E|} * Z(2 beta).
    """
    if 2**g.n_vertices > STATE_CAP:
        raise ValueError("Ising state space exceeds cap")
    codes = np.arange(2**g.n_vertices, dtype=np.int64)
    energies = np.zeros_like(codes)
    for u, v in g.edges:  # spins differ where the two bits do
        energies += ((codes >> u) ^ (codes >> v)) & 1
    return GibbsModel("ising", codes, energies, len(g.edges), graph=g)


def colouring_model(g: Graph, k: int) -> GibbsModel:
    """Colourings c in {0..k-1}^n with the monochromatic-edge count as energy."""
    if k < 1:
        raise ValueError("colouring needs k >= 1 colours")
    if k**g.n_vertices > STATE_CAP:
        raise ValueError("colouring state space exceeds cap")
    codes = np.arange(k**g.n_vertices, dtype=np.int64)
    energies = np.zeros_like(codes)
    for u, v in g.edges:
        energies += codes // k**u % k == codes // k**v % k
    return GibbsModel("colouring", codes, energies, len(g.edges), graph=g,
                      extra={"k": k})


def matching_model(g: Graph) -> GibbsModel:
    """Matchings M as edge bitmasks with energy |M|.  Edge idx extends each
    matching that leaves its ends free, by bit idx above all earlier bits."""
    masks = np.zeros(1, dtype=object)     # Python ints: no 63-edge limit
    occupied = np.zeros(1, dtype=object)  # vertex bitmask of each matching
    sizes = np.zeros(1, dtype=np.int64)
    for idx, (u, v) in enumerate(g.edges):
        ends = (1 << u) | (1 << v)
        free = (occupied & ends) == 0
        masks = np.concatenate([masks, masks[free] | (1 << idx)])
        occupied = np.concatenate([occupied, occupied[free] | ends])
        sizes = np.concatenate([sizes, sizes[free] + 1])
        if len(masks) > STATE_CAP:
            raise ValueError("matching state space exceeds cap")
    return GibbsModel("matching", masks, sizes, len(g.edges), graph=g)


def exact_partition(m: GibbsModel, beta) -> float:
    """Z(beta) = sum_x e^{-beta H(x)}; Z(inf) counts ground states.

    Negative beta is accepted (needed by schedule verification, where terms
    e^{+|beta| H} appear); overflow saturates to inf.
    """
    if beta == math.inf:
        return float(m.counts[0])
    hs = m.levels
    with np.errstate(over="ignore"):
        return float(np.sum(m.counts[hs] * np.exp(-float(beta) * hs)))


def _boltzmann(energies: np.ndarray, beta: float) -> np.ndarray:
    """Weights e^{-beta (H - H*)} along the last axis, with H* the likeliest
    level there, so that no exponent is positive and no |beta| overflows;
    e^{-beta H} when H* = 0.  At beta = inf, the indicator of H = H*."""
    top = (energies.max if beta < 0 else energies.min)(axis=-1, keepdims=True)
    if beta == math.inf:
        return (energies == top).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-beta * (energies - top))


def _level_law(m: GibbsModel, beta) -> np.ndarray:
    """Law of H under pi_beta on m.levels; at beta = inf, the mass on H = 0."""
    if beta == math.inf:
        if m.counts[0] == 0:
            raise ZeroDivisionError("no ground states: Z(inf) = 0")
        return (m.levels == 0).astype(float)
    w = m.counts[m.levels] * _boltzmann(m.levels, float(beta))
    total = w.sum()  # at least counts[H*] >= 1, unless NaN
    if not 1.0 <= total < math.inf:
        raise ArithmeticError(f"Gibbs distribution at beta={beta} failed to "
                              "normalize")
    return w / total


def gibbs_distribution(m: GibbsModel, beta) -> np.ndarray:
    """pi(x) = e^{-beta H(x)} / Z(beta): each level's law shared by its states."""
    per_state = np.zeros(m.n_max + 1)
    per_state[m.levels] = _level_law(m, beta) / m.counts[m.levels]
    return per_state[m.energies]


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
    pi, nu = _level_law(m, beta_i), _level_law(m, beta_j)  # nu/pi sees only H
    mask = pi > 0
    definitional = float(np.sum(pi[mask] * (nu[mask] / pi[mask] - 1.0) ** 2))
    ratio = chebyshev_ratio(m, beta_i, beta_j) - 1.0
    if abs(definitional - ratio) > 1e-10 * max(1.0, abs(ratio)):
        raise ArithmeticError(
            f"chi-squared forms disagree: {definitional} vs {ratio}")
    return definitional


def overlap_squared(m: GibbsModel, beta_i, beta_j) -> float:
    """Squared fidelity (sum_x sqrt(pi_i(x) pi_j(x)))^2 between Gibbs states,
    summed by level: sum_h sqrt(p_i(h) p_j(h)) for the level laws p."""
    return float(np.sum(np.sqrt(_level_law(m, beta_i)
                                * _level_law(m, beta_j))) ** 2)
