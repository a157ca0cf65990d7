"""Quantum Wild convolution, the nonlinear single-particle kinetic
equation, its steady-state family, collision invariants, and conserved
functionals.

The Wild convolution of two single-particle operators is

    A * B = Tr_2[ Q(A x B) ],

the partial trace over the second factor of the pair channel applied to
the product.  It is bilinear, trace multiplicative, positivity
preserving, and in general non-commutative.  The kinetic equation is

    d rho / dt = 2 (rho * rho - rho),

and over a step of length h it is solved exactly by the Wild sum

    rho(t + h) = e^{-2h} sum_{n >= 1} tau^{n-1} Q_n,   tau = 1 - e^{-2h},
    Q_1 = rho(t),   Q_n = (n-1)^{-1} sum_{k=1}^{n-1} Q_k * Q_{n-k}

(Wild, Proc. Camb. Phil. Soc. 47, 1951).  ``wild`` maps pairs of states
to states, so every Q_n is a state and a
truncated sum is a convex combination of states whose error is the
tail mass left out (Carlen, Carvalho & Gabetta, Comm. Pure Appl. Math.
53, 2000).  The integrator truncates where that mass falls below
machine epsilon and divides by the trace, which takes up the tail and
holds down the trace direction, an unstable mode of the equation
(linearized rate +2) in which rounding would grow like e^{2t}.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionSpec
from .errors import NumericalContractError
from .operators import _negative_eigenvalue, validate_density_matrix
from .spectra import SingleParticleModel, _pair_move_groups
from .tolerances import TOL_PSD

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


def gibbs(model: SingleParticleModel, beta: float) -> np.ndarray:
    """Thermal state exp(-beta h) / Z for any finite beta, negative too.

    The energies are shifted to the level that dominates, so the exponents
    are at most 0 and one of them is 0: an exponent that overflows is -inf
    and its weight 0, never inf - inf.
    """
    e = np.asarray(model.energies, dtype=float)
    with np.errstate(over="ignore"):
        w = np.exp(-beta * (e - (e.min() if beta > 0 else e.max())))
    return np.diag(w / w.sum()).astype(complex)


# ---------------------------------------------------------------------------
# the kinetic equation
# ---------------------------------------------------------------------------

def wild_sum_plan(t_grid) -> tuple[np.ndarray, np.ndarray]:
    """The substeps of each interval of ``t_grid`` and the Wild-sum terms
    of each of its substeps, as float arrays.

    ``t_grid`` must be finite and increase from 0.  Substeps are at most
    0.25 long and land on every grid time; a substep of length h keeps the
    M = ceil(ln eps / ln tau) terms, tau = 1 - e^{-2h}, whose tail mass
    tau^M is below machine epsilon, and forms the M - 1 terms past the
    first.  Nothing is formed per substep, so any span is planned at once.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid[0] != 0.0 or not np.isfinite(t_grid).all()
            or np.any(np.diff(t_grid) <= 0)):
        raise ValueError("t_grid must be finite and increase from 0")
    gaps = np.diff(t_grid)
    if gaps.max(initial=0.0) > np.finfo(float).max / 4:
        raise ValueError("t_grid has an interval too long to count its substeps")
    subs = np.ceil(gaps / 0.25)
    tau = -np.expm1(-2 * gaps / subs)
    return subs, np.ceil(np.log(np.finfo(float).eps) / np.log(tau))


def _wild_sum_term(wild_matrix: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """The Wild-sum term Q_n = (n-1)^{-1} sum_{k<n} Q_k * Q_{n-k}, flattened,
    from the rows Q_1 .. Q_{n-1} of ``flat`` (the terms, each reshaped to
    d^2 entries).

    The n - 1 outer products are summed by one matrix product before the
    one product with the Wild matrix, so no stack of d^4 entries per
    product is formed: it equals ``wild(spec, q[:n-1], q[n-2::-1]).sum(0)``
    up to the summation order.
    """
    pairs = flat[:n - 1].T @ flat[n - 2::-1]
    return pairs.reshape(-1) @ wild_matrix / (n - 1)


def qkbe_integrate(spec: CollisionSpec, rho0: np.ndarray, t_grid,
                   tol_psd: float = TOL_PSD) -> np.ndarray:
    """Integrate d rho/dt = 2(rho * rho - rho) through the given times.

    ``t_grid`` must increase from 0.  Each substep of ``wild_sum_plan``
    is the truncated Wild sum, one ``_wild_sum_term`` per term past the
    first.  Its Hermitian part is divided by its trace, and its
    positivity is certified within tol_psd (never clipped), by the
    Cholesky test that ``evolve_master`` uses.  The largest trace defect
    removed between checkpoints is logged.  Returns the stacked
    trajectory.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    subs, terms = wild_sum_plan(t_grid)
    rho = validate_density_matrix(rho0, tol_psd=tol_psd)
    wild_matrix = spec.wild_matrix
    out = [rho]
    for t0, t1, nsub, m in zip(t_grid[:-1], t_grid[1:], subs.astype(int), terms.astype(int)):
        h = (t1 - t0) / nsub
        weights = np.exp(-2 * h) * (-np.expm1(-2 * h)) ** np.arange(m)
        q = np.empty((m,) + rho.shape, dtype=complex)
        flat = q.reshape(m, -1)
        drift = 0.0
        for _ in range(nsub):
            q[0] = rho
            for n in range(2, m + 1):
                flat[n - 1] = _wild_sum_term(wild_matrix, flat, n)
            nxt = np.tensordot(weights, q, 1)
            nxt = (nxt + nxt.conj().T) / 2
            tr = np.trace(nxt).real
            drift = max(drift, abs(tr - 1.0))
            rho = nxt / tr
            lo = _negative_eigenvalue(rho, tol_psd)
            if lo is not None:
                raise NumericalContractError(
                    f"Wild-sum step to t<={t1:.6g} has negative eigenvalue {lo:.3e}")
        log.debug("kinetic trace defect of at most %.3e removed up to t=%.6f", drift, t1)
        out.append(rho)
    return np.stack(out)


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


def conserved_check(trajectory: np.ndarray, invariant: np.ndarray) -> float:
    """Largest drift of Tr[A rho(t)] along a trajectory."""
    traj = np.asarray(trajectory, dtype=complex)
    vals = np.einsum("tij,ji->t", traj, np.asarray(invariant, dtype=complex))
    return float(np.abs(vals - vals[0]).max())
