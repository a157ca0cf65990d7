"""Quantum Wild convolution, the nonlinear single-particle kinetic
equation, its steady-state family, collision invariants, and conserved
functionals.

The Wild convolution of two single-particle operators is

    A * B = Tr_2[ Q(A x B) ],

the partial trace over the second factor of the pair channel applied to
the product.  It is bilinear, trace multiplicative, positivity
preserving, and in general non-commutative.  The kinetic equation is

    d rho / dt = 2 (rho * rho - rho),

integrated here with fixed-step RK4 plus an optional fixed-point
verification of the equivalent mild form

    rho(t) = e^{-2t} rho_0 + 2 int_0^t e^{2(s - t)} rho(s) * rho(s) ds.

The trace direction is an unstable mode of the equation (linearized rate
+2), so the integrator projects every accepted RK4 step back onto the
Hermitian operators of trace one; otherwise rounding grows like e^{2t}.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionSpec
from .errors import NumericalContractError
from .operators import validate_density_matrix
from .spectra import SingleParticleModel, _pair_move_groups, shell_structure
from .tolerances import PICARD_TOL, TOL_PSD, TOL_STEADY

log = logging.getLogger(__name__)


def wild(spec: CollisionSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wild convolution A * B = Tr_2[Q(A x B)]: the entries a_ij b_mn times
    the spec's cached Wild matrix; leading axes of ``a`` and ``b`` are
    stacks, broadcast against each other."""
    d = spec.dim
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-2:] != (d, d) or b.shape[-2:] != (d, d):
        raise ValueError(f"operands must be {d}x{d} single-particle operators")
    n = d * d
    pairs = a.reshape(a.shape[:-2] + (n, 1)) * b.reshape(b.shape[:-2] + (1, n))
    stack = pairs.shape[:-2]
    return (pairs.reshape(stack + (n * n,)) @ spec.wild_matrix).reshape(stack + (d, d))


def wild_diagonal(model: SingleParticleModel, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Closed form of the Wild convolution when the channel is the exact
    conditional expectation onto the pair energy algebra:

        A * B = sum_{i,k} A_ii B_kk Tr_2[sigma_{e_i + e_k}].

    Only the diagonals of A and B enter.  Tr_2[sigma_E] gives level l the
    share of the shell's pairs whose first level is l, which also covers
    degenerate single-particle spectra (the count of partners of a level
    inside a shell is weighted by multiplicity).
    """
    st = shell_structure(model, 2)
    coeff = np.outer(np.diagonal(a), np.diagonal(b)).ravel()
    out = np.zeros(model.dim, dtype=complex)
    for _, idx in st.shells:
        share = np.bincount(st.digits[idx, 0], minlength=model.dim) / len(idx)
        out += coeff[idx].sum() * share
    return np.diag(out)


def gibbs(model: SingleParticleModel, beta: float) -> np.ndarray:
    """Thermal state exp(-beta h) / Z for any finite beta, negative too."""
    x = -beta * np.asarray(model.energies, dtype=float)
    w = np.exp(x - x.max())
    return np.diag(w / w.sum()).astype(complex)


# ---------------------------------------------------------------------------
# the kinetic equation
# ---------------------------------------------------------------------------

def _rhs(spec: CollisionSpec, rho: np.ndarray) -> np.ndarray:
    return wild(spec, rho, rho) - rho


def _rk4_step(spec: CollisionSpec, rho: np.ndarray, h: float) -> np.ndarray:
    h = 2.0 * h     # the factor 2 of d rho/dt = 2(rho * rho - rho)
    k1 = _rhs(spec, rho)
    k2 = _rhs(spec, rho + 0.5 * h * k1)
    k3 = _rhs(spec, rho + 0.5 * h * k2)
    k4 = _rhs(spec, rho + h * k3)
    return rho + (h / 6.0) * (k1 + k4 + 2 * (k2 + k3))


@dataclass
class _StepLog:
    """Step-halving budget and projection drift of one integration.

    ``retries`` counts the rejected RK4 steps; more than ``budget`` of them
    raise.  ``drift`` is the largest trace drift |Tr rho - 1| that the
    projection has removed since it was last reset.
    """

    budget: float = np.inf
    retries: int = 0
    drift: float = 0.0

    def retry(self) -> None:
        self.retries += 1
        if self.retries > self.budget:
            raise NumericalContractError(
                f"step halving retried {self.retries} RK4 steps, more than "
                f"the {self.budget} steps planned")


def _advance(spec: CollisionSpec, rho: np.ndarray, h: float, tol_psd: float,
             steps: _StepLog | None = None, depth: int = 0) -> np.ndarray:
    """One RK4 step of length h, halved while it breaks positivity.

    The accepted state is projected onto the Hermitian operators of trace
    one: the trace direction is an unstable mode of the equation (its
    linearized rate is +2), so rounding left there grows like e^{2t}.
    """
    steps = _StepLog() if steps is None else steps
    nxt = _rk4_step(spec, rho, h)
    herm = (nxt + nxt.conj().T) / 2
    lo = np.linalg.eigvalsh(herm).min()
    if lo < -tol_psd:
        if depth >= 20:
            raise NumericalContractError(
                f"positivity violated by {(-lo):.3e} at the smallest step")
        steps.retry()
        half = _advance(spec, rho, h / 2, tol_psd, steps, depth + 1)
        return _advance(spec, half, h / 2, tol_psd, steps, depth + 1)
    tr = np.trace(nxt)
    steps.drift = max(steps.drift, abs(tr - 1.0))
    return herm / tr.real


def qkbe_integrate(spec: CollisionSpec, rho0: np.ndarray, t_grid,
                   tol_psd: float = TOL_PSD) -> np.ndarray:
    """Integrate d rho/dt = 2(rho * rho - rho) through the given times.

    ``t_grid`` must be increasing and start at 0.  Fixed-step RK4 with
    step min(0.01, span/1000), sub-stepped so every grid time is hit
    exactly.  Positivity is asserted (never clipped) at every internal
    step, with step-halving retries, at most as many as the steps
    planned.  Every accepted step is projected back to a Hermitian
    operator of trace one, and the largest trace drift removed between
    checkpoints is logged.  Returns the stacked trajectory.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must increase from 0")
    rho = validate_density_matrix(rho0, tol_psd=tol_psd)
    span = float(t_grid[-1])
    h_max = min(0.01, span / 1000.0) if span > 0 else 0.01
    nsubs = np.maximum(1, np.ceil(np.diff(t_grid) / h_max)).astype(int)
    steps = _StepLog(budget=int(nsubs.sum()))
    out = [rho.copy()]
    for t0, t1, nsub in zip(t_grid[:-1], t_grid[1:], nsubs):
        h = (t1 - t0) / nsub
        for _ in range(nsub):
            rho = _advance(spec, rho, h, tol_psd, steps)
        log.debug("kinetic trace drift of at most %.3e removed up to t=%.6f",
                  steps.drift, t1)
        steps.drift = 0.0
        out.append(rho.copy())
    return np.stack(out)


def picard_solve(spec: CollisionSpec, rho0: np.ndarray, t_grid,
                 tol: float = PICARD_TOL, refine: int = 8) -> np.ndarray:
    """Solve the mild form by fixed-point iteration on a refined grid:

        rho(t) = e^{-2t} rho_0 + 2 int_0^t e^{2(s-t)} rho(s) * rho(s) ds

    (the factor 2 on the gain matches d rho/dt = 2(rho * rho - rho);
    steady states are fixed points only with it).  Serves as an
    independent check of the RK4 path.  The integral is a composite
    trapezoid over a grid ``refine`` times finer than ``t_grid``;
    iteration stops when successive trajectories differ by less than tol
    in max norm, within 400 iterations.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    fine = [0.0]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        fine.extend(np.linspace(t0, t1, refine + 1)[1:])
    fine = np.asarray(fine)
    rho0 = np.asarray(rho0, dtype=complex)
    traj = np.stack([rho0] * fine.size)
    for _ in range(400):
        gains = wild(spec, traj, traj)
        new = np.empty_like(traj)
        new[0] = rho0
        integral = np.zeros_like(rho0)
        for k in range(1, fine.size):
            dt = fine[k] - fine[k - 1]
            # trapezoid on 2 e^{2s} gain(s), then discount by e^{-2t}
            integral += dt * (np.exp(2 * fine[k - 1]) * gains[k - 1]
                              + np.exp(2 * fine[k]) * gains[k])
            new[k] = np.exp(-2 * fine[k]) * (rho0 + integral)
        delta = np.abs(new - traj).max()
        traj = new
        if delta < tol:
            break
    else:
        raise NumericalContractError("mild-form iteration did not converge")
    keep = [int(np.argmin(np.abs(fine - t))) for t in t_grid]
    return traj[keep]


# ---------------------------------------------------------------------------
# steady states and conserved functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyStateFamily:
    """Log-linear parametrization of the strictly positive steady states.

    ``constraint_basis`` has one row per basis vector of the space of
    real vectors x, indexed by the distinct energies, satisfying
    x_i + x_j = x_k + x_l whenever e_i + e_j = e_k + e_l.  A steady state
    assigns eigenvalue exp(x_e) to every level of energy e (degenerate
    levels share one eigenvalue) and normalizes.
    """

    model: SingleParticleModel
    distinct_energies: tuple
    multiplicities: tuple
    constraint_basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.constraint_basis.shape[0]


def classify_steady_states(model: SingleParticleModel) -> SteadyStateFamily:
    """Enumerate the energy quadruples with e_i + e_j = e_k + e_l and
    return a basis of the null space of the induced constraints on
    log-eigenvalue vectors.

    The basis always spans the constant vector and the energy vector, so
    thermal states are steady for every model; extra dimensions appear
    exactly when the constraint set is small.
    """
    energies = sorted(set(model.energies))
    mult = tuple(model.energies.count(e) for e in energies)
    m = len(energies)
    eye = np.eye(m)
    rows = [eye[i] + eye[j] - eye[k] - eye[l]
            for pairs in _pair_move_groups(energies).values()
            for (i, j), (k, l) in itertools.combinations(pairs, 2)]
    if rows:
        _, sv, vh = np.linalg.svd(np.stack(rows))
        rank = int((sv > 1e-10 * max(1.0, sv[0])).sum())
        basis = vh[rank:]
    else:
        basis = np.eye(m)
    return SteadyStateFamily(model, tuple(energies), mult, basis)


def steady_state_from_coeffs(family: SteadyStateFamily, coeffs) -> np.ndarray:
    """Strictly positive steady state exp(sum_a c_a v_a), normalized."""
    x = np.asarray(coeffs, dtype=float) @ family.constraint_basis
    lam = {e: np.exp(xe) for e, xe in zip(family.distinct_energies, x)}
    diag = np.array([lam[e] for e in family.model.energies])
    return np.diag(diag / diag.sum()).astype(complex)


def collision_invariants_basis(model: SingleParticleModel) -> list:
    """Hermitian operators f(h) for f in the constraint basis."""
    family = classify_steady_states(model)
    out = []
    for row in family.constraint_basis:
        val = {e: x for e, x in zip(family.distinct_energies, row)}
        out.append(np.diag([val[e] for e in model.energies]).astype(complex))
    return out


def is_steady(spec: CollisionSpec, rho: np.ndarray,
              tol: float = TOL_STEADY) -> bool:
    """Check rho * rho = rho directly (valid also for boundary states)."""
    rho = np.asarray(rho, dtype=complex)
    return np.linalg.norm(wild(spec, rho, rho) - rho) <= tol


def conserved_check(spec: CollisionSpec, trajectory: np.ndarray,
                    invariant: np.ndarray) -> float:
    """Largest drift of Tr[A rho(t)] along a trajectory."""
    traj = np.asarray(trajectory, dtype=complex)
    vals = np.einsum("tij,ji->t", traj, np.asarray(invariant, dtype=complex))
    return float(np.abs(vals - vals[0]).max())
