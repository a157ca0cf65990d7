"""Central numerical tolerances and the dimension guard.

All tolerances are absolute.  Functions that some caller tunes accept
them as keyword arguments; the others use these values directly.  The
CLI passes on only those in ``NAMED_TOLERANCES``, which its ``--tol``
flag overrides.
"""

TOL_HERM = 1e-10        # Hermiticity residual
TOL_TRACE = 1e-10       # trace-one residual
TOL_PSD = 1e-9          # most negative admissible eigenvalue
TOL_FIXED_EIG = 1e-8    # distance from 1 for fixed-space eigenvalues
TAIL_TOL = 1e-12        # Poisson tail cutoff in the jump-series evolver

SIZE_GUARD = 4096       # largest allowed total Hilbert dimension d**N

NAMED_TOLERANCES = {
    "psd": TOL_PSD,
    "fixed_eig": TOL_FIXED_EIG,
    "tail": TAIL_TOL,
}


def check_size_guard(total_dim: int, force: bool = False) -> None:
    """Reject problem sizes past the desk-scale guard unless forced."""
    if not force and total_dim > SIZE_GUARD:
        raise ValueError(
            f"total dimension {total_dim} exceeds the guard {SIZE_GUARD}; "
            "pass force=True (CLI: --force) to override"
        )
