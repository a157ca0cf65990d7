"""Hierarchy operators for the mean-field limit and numerical
propagation-of-chaos experiments.

The hierarchy operator takes a k-particle observable to a (k+1)-particle
one by letting each of the first k particles collide with a fresh one:

    Gamma_k(B) = 2 sum_{i=1}^{k} (Q_{i,k+1} - 1)(B x 1).

Its finite-N counterpart keeps the in-block collisions with weight
2/(N-1):

    G_k(B) = 2/(N-1) sum_{i<j<=k} (Q_{i,j} - 1)(B) x 1
             + (N-k)/(N-1) Gamma_k(B),

and G_k - Gamma_k is exactly proportional to 1/(N-1).  The experiment
driver evolves product initial data under the N-particle semigroup and
compares one- and two-particle marginals against the single-particle
kinetic trajectory in trace norm.  A product state and Q_N are invariant
under permuting the particles, so the driver evolves the state in the
symmetric sector (``SymmetricGenerator``): C(N + d^2 - 1, N) occupation
coefficients instead of a d^N x d^N matrix, with the marginals read off
the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import qkbe_integrate, wild_sum_plan
from .collisions import CollisionSpec
from .master import KacGenerator, apply_pair_channel, apply_QN, evolve_master
from .operators import FactorShape, permute_factors, tensor, trace_norm, von_neumann_entropy
from .tolerances import TAIL_TOL, TOL_PSD, check_size_guard


def gamma_k(spec: CollisionSpec, b: np.ndarray) -> np.ndarray:
    """Hierarchy step: 2 sum_i (Q_{i,k+1} - 1)(B x 1) on k+1 particles."""
    b = np.asarray(b, dtype=complex)
    d = spec.dim
    k = round(np.log(b.shape[0]) / np.log(d))
    if d ** k != b.shape[0] or b.shape[0] != b.shape[1]:
        raise ValueError(f"operand of shape {b.shape} is not a {d}-level k-particle operator")
    gen = KacGenerator(spec, k + 1)
    big = tensor(b, np.eye(d))
    out = np.zeros_like(big)
    for i in range(k):
        out += apply_pair_channel(gen, big, i, k) - big
    return 2.0 * out


def g_k(spec: CollisionSpec, b: np.ndarray, num_particles: int) -> np.ndarray:
    """Finite-N hierarchy step; requires k < N."""
    b = np.asarray(b, dtype=complex)
    d = spec.dim
    k = round(np.log(b.shape[0]) / np.log(d))
    if k >= num_particles:
        raise ValueError(f"k={k} must be smaller than N={num_particles}")
    n = num_particles
    out = ((n - k) / (n - 1)) * gamma_k(spec, b)
    if k >= 2:      # sum_{i<j<=k} (Q_ij - 1) B = binom(k, 2) (Q_k - 1) B
        gen = KacGenerator(spec, k)
        out += (2.0 / (n - 1)) * tensor(len(gen.pairs) * (apply_QN(gen, b) - b), np.eye(d))
    return out


def derivation_check(spec: CollisionSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Residual of the twisted derivation identity.

    For X on j particles and Y on m particles, with k = j + m,

        Gamma_k(X x Y) = [U (Gamma_j(X) x 1_m) U^*] (1_j x Y x 1)
                         + X x Gamma_m(Y),

    where U swaps factors j+1 and k+1 so the fresh particle of the inner
    hierarchy step sits in the last slot.  The two right-hand factors act
    on disjoint slots and commute.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    d = spec.dim
    j = round(np.log(x.shape[0]) / np.log(d))
    m = round(np.log(y.shape[0]) / np.log(d))
    k = j + m
    check_size_guard(d, k + 1)
    shape = FactorShape(k + 1, d)
    lhs = gamma_k(spec, tensor(x, y))
    inner = tensor(gamma_k(spec, x), np.eye(d ** m))
    pi = list(range(k + 1))
    pi[j], pi[k] = k, j
    term1 = permute_factors(inner, pi, shape) @ tensor(np.eye(d ** j), y, np.eye(d))
    term2 = tensor(x, gamma_k(spec, y))
    return float(np.abs(lhs - (term1 + term2)).max())


# ---------------------------------------------------------------------------
# propagation-of-chaos experiment
# ---------------------------------------------------------------------------

@dataclass
class ChaosExperiment:
    spec: CollisionSpec
    rho0: np.ndarray
    N_list: list
    t_grid: np.ndarray
    force: bool = False

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        wild_sum_plan(self.t_grid)
        d = self.spec.dim
        for n in self.N_list:
            if n < 2:
                raise ValueError("chaos experiment needs N >= 2")
            check_size_guard(d, n, force=self.force)


@dataclass
class ChaosRow:
    N: int
    t: float
    delta1: float
    delta2: float
    entropy_N: float
    entropy_qkbe: float


def run_chaos_experiment(exp: ChaosExperiment, tail_tol: float = TAIL_TOL,
                         tol_psd: float = TOL_PSD) -> list:
    """Distances between N-particle marginals and the kinetic trajectory.

    For each N the product state rho0^{xN} is evolved in the symmetric
    sector checkpoint to checkpoint (the jump series composes exactly), and
    at each time

        delta1 = || marginal_1 - rho(t) ||_tr
        delta2 = || marginal_2 - rho(t) x rho(t) ||_tr

    against the single-particle kinetic solution rho(t).  Entropy columns
    record the one-particle marginal entropy and the kinetic entropy.
    ``tail_tol`` and ``tol_psd`` go to ``evolve_master`` and ``tol_psd``
    to ``qkbe_integrate`` and both entropies.
    """
    # imported here: the CLI loads this module for every command at start-up
    from .symmetric import SymmetricGenerator

    kinetic = qkbe_integrate(exp.spec, exp.rho0, exp.t_grid, tol_psd=tol_psd)
    rows = []
    for n in exp.N_list:
        gen = SymmetricGenerator(exp.spec, n, force=exp.force)
        state = gen.product_state(exp.rho0)
        for idx, t in enumerate(exp.t_grid):
            if idx > 0:
                state = evolve_master(gen, state, float(exp.t_grid[idx] - exp.t_grid[idx - 1]),
                                      tail_tol=tail_tol, tol_psd=tol_psd)
            m1, m2 = gen.marginals(state)
            ref = kinetic[idx]
            rows.append(ChaosRow(
                N=n,
                t=float(t),
                delta1=trace_norm(m1 - ref),
                delta2=trace_norm(m2 - tensor(ref, ref)),
                entropy_N=von_neumann_entropy(m1, tol_psd),
                entropy_qkbe=von_neumann_entropy(ref, tol_psd),
            ))
    return rows
