"""Szegedy walks, coherent Gibbs samples, and reflection contracts.

The walk on an ergodic reversible chain P acts on the edge space C^{n*n}:
W = S (2 Pi_A - I), the reflection about span{A|x> = |x>|p_x>} followed by
the register swap S.  On node-embedded states its spectrum is fixed by the
discriminant D(x,y) = sqrt(P(x,y)P(y,x)): an eigenvector v_k of D with
eigenvalue lam_k spans, with S A v_k, a plane on which W has the phases
+-arccos(lam_k) (Szegedy 2004; Magniez, Nayak, Roland and Santha 2011).
So everything built on W runs on the n-dimensional node register from
eigh(D); the dense n^2 x n^2 W (szegedy_walk, WalkOperator) is kept only as
the oracle that checks this correspondence.

Two contracts are built on W:

  * approx_reflection -- approximates 2|pi><pi| - I by phase estimation
    with b phase bits on the walk phases arccos(lam_k) (walk_phases), and
    exposes its realized action and error.  An idealized reflection is only
    a charge, ceil(sqrt(tau) * ln(1/eps_r)) walk steps (reflection_cost).
  * warm_start_prepare -- walks a cooling schedule 0 = beta_0 < ... < beta_r,
    producing |pi_r> by iterated projection |pi_j> -> |pi_{j+1}>; `idealized`
    returns the exact state and charges the stated
    r * sqrt(tau) * log^2(r/eps) * B log B cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import MarkovChain, chain_for, relaxation_time
from .gibbs import GibbsModel, gibbs_distribution, overlap_squared
from .outcome import QueryLedger

__all__ = [
    "WalkOperator",
    "QuantumSample",
    "szegedy_walk",
    "spectral_correspondence_residual",
    "approx_reflection",
    "ApproxReflection",
    "warm_start_prepare",
    "reflection_cost",
    "phase_bits",
    "walk_phases",
    "warm_start_cost",
]

WALK_NODE_CAP = 64


@dataclass(frozen=True)
class WalkOperator:
    W: np.ndarray
    chain: MarkovChain
    node_embedding: np.ndarray  # n^2 x n isometry, columns |x>|p_x>
    unitarity_residual: float = field(init=False)  # max |W^dag W - I|

    def __post_init__(self):
        W = np.asarray(self.W, complex)
        W.setflags(write=False)
        object.__setattr__(self, "W", W)
        resid = float(np.abs(W.conj().T @ W - np.eye(len(W))).max())
        if resid > 1e-10:
            raise ValueError(f"walk operator not unitary (residual {resid:.2e})")
        object.__setattr__(self, "unitarity_residual", resid)

    @cached_property
    def eigensystem(self):
        """Unitary eigendecomposition (phases in (-pi, pi], orthonormal vectors)."""
        import scipy.linalg  # the dense oracle alone needs scipy

        # one complex Schur factorisation per operator, shared by every caller
        T, Z = scipy.linalg.schur(self.W, output="complex")
        eigs = np.diag(T)
        offdiag = np.abs(T - np.diag(eigs)).max()
        if offdiag > 1e-8:
            raise ValueError("walk operator failed to diagonalize unitarily")
        phases = np.angle(eigs)
        phases.setflags(write=False)
        Z.setflags(write=False)
        return phases, Z

    @property
    def phase_gap(self) -> float:
        phases, _ = self.eigensystem
        nz = np.abs(phases)[np.abs(phases) > 1e-9]
        return float(nz.min())


@dataclass(frozen=True)
class QuantumSample:
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes)
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError("quantum sample must be normalized")


def szegedy_walk(c: MarkovChain) -> WalkOperator:
    n = c.n
    if n > WALK_NODE_CAP:
        raise ValueError(f"chain of size {n} exceeds walk cap {WALK_NODE_CAP}")
    relaxation_time(c)  # rejects non-ergodic chains
    sqrtP = np.sqrt(c.P)
    # columns phi_x = e_x (x) sqrt(P(x,:)); W = SWAP * (2 sum |phi_x><phi_x| - I)
    A = np.zeros((n * n, n))
    for x in range(n):
        A[x * n:(x + 1) * n, x] = sqrtP[x]
    rows = np.arange(n * n)  # the swap sends |x>|y> to |y>|x>
    swap = np.eye(n * n)[(rows % n) * n + rows // n]
    W = swap @ (2.0 * A @ A.T - np.eye(n * n))
    return WalkOperator(W, c, A)


def spectral_correspondence_residual(w: WalkOperator) -> float:
    """max over discriminant eigenvalues lam of min_theta |cos(theta) - lam|.

    Every eigenvalue lam of D(x,y) = sqrt(P(x,y)P(y,x)) must appear as
    cos(theta) for a pair of walk eigenphases +-theta; comparing cosines
    avoids the arccos conditioning blowup near |lam| = 1.
    """
    phases, _ = w.eigensystem
    cosines = np.cos(phases)
    lams = w.chain.spectrum[0]
    return float(max(np.abs(cosines - lam).min() for lam in lams))


def reflection_cost(tau: float, epsilon_r: float) -> int:
    """Walk steps charged for one idealized approximate reflection."""
    return math.ceil(math.sqrt(tau) * math.log(1.0 / epsilon_r))


def warm_start_cost(r: int, tau: float, epsilon_s: float, B: float) -> int:
    """Walk steps charged for one idealized warm-start preparation."""
    if r == 0:
        return 0
    log2 = math.log(max(r, 2) / epsilon_s) ** 2
    return math.ceil(r * math.sqrt(tau) * log2 * B * max(math.log(B), 1.0))


def phase_bits(theta_min: float, epsilon_r: float) -> int:
    """Phase bits b of one reflection, charged 2^b walk steps: enough to
    resolve the smallest nonzero walk phase theta_min, and log2(1/epsilon_r)
    more for accuracy."""
    return (math.ceil(math.log2(2.0 * math.pi / theta_min))
            + math.ceil(math.log2(1.0 / epsilon_r)) + 2)


def walk_phases(c: MarkovChain) -> np.ndarray:
    """Walk phases arccos(lam) over every eigenvalue lam of D but the top one
    (lam = 1, phase 0, unique for an ergodic chain), in eigh's order."""
    # no threshold on theta: arccos(1 - 2^-52) ~ 2e-8 would read as a gap
    return np.arccos(np.clip(c.spectrum[0][:-1], -1.0, 1.0))


class ApproxReflection:
    """Realized reflection about |pi> = sum_x sqrt(pi(x))|x> on node vectors.

    Phase estimation with b phase bits, b set by the smallest nonzero walk
    phase theta_k = arccos(lam_k).  The stationary top eigenpair of D
    (lam = 1, unique for an ergodic chain) has phase 0 and is fixed exactly.
    On the walk eigenvectors of phase +-theta, the ancilla-0 overlap after
    the reflect-and-undo circuit is the Fejer kernel
    r0(theta) = 2 (sin(T theta/2) / (T sin(theta/2)))^2 - 1, T = 2^b, and the
    realized error is sqrt(2 + 2 r0).  r0 is even in theta, so the ancilla-0
    block on node vectors is V diag(r0) V^T; the 2^b-dimensional ancilla is
    never stored.
    """

    def __init__(self, chain: MarkovChain, epsilon_r: float,
                 ledger: QueryLedger):
        if not 0.0 < epsilon_r < math.inf:  # NaN fails too
            raise ValueError("epsilon_r must be positive and finite")
        self.ledger = ledger
        self.tau = relaxation_time(chain)  # rejects non-ergodic chains
        self.vecs = chain.spectrum[1]
        theta = walk_phases(chain)
        self.b = phase_bits(theta.min(), epsilon_r)
        T = 2**self.b
        fejer = np.sin(T * theta / 2.0) / (T * np.sin(theta / 2.0))
        r0 = 2.0 * fejer**2 - 1.0
        self.r0 = np.append(r0, 1.0)
        self.err = np.append(np.sqrt(np.maximum(2.0 + 2.0 * r0, 0.0)), 0.0)
        self.charge = T  # controlled-W^y powers up to 2^b - 1

    def error_norm(self, u: np.ndarray) -> float:
        """||R~(A u|0^b>) - ((2|pi><pi|-I) A u)|0^b>|| for the node vector u."""
        return float(np.linalg.norm(self.err * (self.vecs.T @ u)))

    def apply_postselected(self, u: np.ndarray) -> np.ndarray:
        """Ancilla-0 block of R~ on the node vector u."""
        self.ledger.walk_steps += self.charge
        return self.vecs @ (self.r0 * (self.vecs.T @ u))


def approx_reflection(c: MarkovChain, epsilon_r: float,
                      ledger: QueryLedger) -> ApproxReflection:
    """The name warm starts call, and the one the benchmark's tracer wraps."""
    return ApproxReflection(c, epsilon_r, ledger)


def warm_start_prepare(m: GibbsModel, betas, target_index: int,
                       epsilon_s: float, mode: str, ledger: QueryLedger,
                       B: float = None) -> QuantumSample:
    """Prepare |pi_{beta_r}> along the schedule prefix betas[0..r], r = target_index.

    Requires consecutive overlaps |<pi_j|pi_{j+1}>|^2 >= 1/B along the prefix.
    idealized: exact amplitudes, with the nominal cost charged to walk_steps.
    exact_sim: iterated ancilla-0 projection (I + R~)/2 through the walks of
    the successive Gibbs chains; the realized state must land within
    epsilon_s of the target (checked by the caller via the returned state).
    """
    r = target_index
    if not 0 <= r < len(betas):
        raise ValueError("target index outside schedule")
    if not 0.0 < epsilon_s < 1.0:  # NaN fails too
        raise ValueError("epsilon_s must be in (0, 1)")
    if mode not in ("idealized", "exact_sim"):
        raise ValueError("mode must be 'idealized' or 'exact_sim'")
    overlaps = [overlap_squared(m, betas[j], betas[j + 1]) for j in range(r)]
    if B is None:
        B = 1.0 / min(overlaps) if overlaps else 1.0
    if overlaps and min(overlaps) < 1.0 / B - 1e-12:
        raise ValueError("overlap condition violated along schedule prefix")

    if mode == "idealized":
        taus = [relaxation_time(chain_for(m, b)) for b in betas[1: r + 1]]
        tau = max(taus) if taus else 1.0
        ledger.walk_steps += warm_start_cost(r, tau, epsilon_s, B)
        return QuantumSample(np.sqrt(gibbs_distribution(m, betas[r])))
    eps_r = epsilon_s / (4.0 * max(r, 1))
    state = np.sqrt(gibbs_distribution(m, betas[0]))
    for j in range(r):
        refl = approx_reflection(chain_for(m, betas[j + 1]), eps_r, ledger)
        state = 0.5 * (state + refl.apply_postselected(state))
        norm = np.linalg.norm(state)
        if norm < 1e-12:
            raise ArithmeticError("projection annihilated the state")
        state = state / norm
    # fix the global sign so amplitudes stay nonnegative
    if state.sum() < 0:
        state = -state
    return QuantumSample(state)
