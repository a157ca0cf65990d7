"""Independent solvers of the kinetic equation d rho/dt = 2(rho * rho - rho),
kept as oracles for the Wild-sum integrator ``qkbe_integrate``: the Wild
sum with one stacked ``wild`` call per term, fixed-step RK4, and
fixed-point iteration on the mild form."""

import numpy as np

from qkac.boltzmann import wild, wild_sum_plan
from qkac.errors import NumericalContractError

PICARD_TOL = 1e-8       # fixed-point iteration tolerance for the mild form


def stacked_wild_sum(spec, rho0, t_grid):
    """The truncated Wild sum on the substeps and terms of ``wild_sum_plan``,
    each term one stacked ``wild`` call,

        Q_n = wild(spec, Q[:n-1], Q[n-2::-1]).sum(0) / (n - 1),

    and each substep's Hermitian part divided by its trace, as
    ``qkbe_integrate`` does; no positivity certificate."""
    t_grid = np.asarray(t_grid, dtype=float)
    subs, terms = wild_sum_plan(t_grid)
    rho = np.asarray(rho0, dtype=complex)
    out = [rho]
    for t0, t1, nsub, m in zip(t_grid[:-1], t_grid[1:], subs.astype(int), terms.astype(int)):
        h = (t1 - t0) / nsub
        weights = np.exp(-2 * h) * (-np.expm1(-2 * h)) ** np.arange(m)
        q = np.empty((m,) + rho.shape, dtype=complex)
        for _ in range(nsub):
            q[0] = rho
            for n in range(2, m + 1):
                q[n - 1] = wild(spec, q[:n - 1], q[n - 2::-1]).sum(0) / (n - 1)
            nxt = np.tensordot(weights, q, 1)
            nxt = (nxt + nxt.conj().T) / 2
            rho = nxt / np.trace(nxt).real
        out.append(rho)
    return np.stack(out)


def rk4_reference(spec, rho0, t_grid):
    """Classical RK4 with step min(0.01, span/1000), sub-stepped so every
    grid time is hit exactly, each step projected onto the Hermitian
    operators of trace one (the trace direction is unstable, rate +2).
    No step is ever halved or rejected."""
    t_grid = np.asarray(t_grid, dtype=float)
    span = float(t_grid[-1])
    h_max = min(0.01, span / 1000.0)
    rho = np.asarray(rho0, dtype=complex)
    out = [rho.copy()]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        nsub = max(1, int(np.ceil((t1 - t0) / h_max)))
        h = 2.0 * ((t1 - t0) / nsub)   # the factor 2 of the equation
        for _ in range(nsub):
            k1 = wild(spec, rho, rho) - rho
            r = rho + 0.5 * h * k1
            k2 = wild(spec, r, r) - r
            r = rho + 0.5 * h * k2
            k3 = wild(spec, r, r) - r
            r = rho + h * k3
            k4 = wild(spec, r, r) - r
            nxt = rho + (h / 6.0) * (k1 + k4 + 2 * (k2 + k3))
            rho = (nxt + nxt.conj().T) / 2 / np.trace(nxt).real
        out.append(rho.copy())
    return np.stack(out)


def picard_solve(spec, rho0: np.ndarray, t_grid,
                 tol: float = PICARD_TOL, refine: int = 8) -> np.ndarray:
    """Solve the mild form by fixed-point iteration on a refined grid:

        rho(t) = e^{-2t} rho_0 + 2 int_0^t e^{2(s-t)} rho(s) * rho(s) ds

    (the factor 2 on the gain matches d rho/dt = 2(rho * rho - rho);
    steady states are fixed points only with it).  Serves as an
    independent check of the Wild-sum path.  The integral is a composite
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
