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
TOL_AXIOM = 1e-9        # residual of a collision-spec axiom, node files included

SIZE_GUARD = 4096       # largest allowed total Hilbert dimension d**N
OCCUPATION_GUARD = 100_000_000  # most C(N+d-1, N) (N + d) of a forced shell structure

NAMED_TOLERANCES = {
    "psd": TOL_PSD,
    "fixed_eig": TOL_FIXED_EIG,
    "tail": TAIL_TOL,
}


def check_size_guard(factor_dim: int, num_factors: int, force: bool = False) -> None:
    """Reject a total dimension d**N past the desk-scale guard unless forced.
    Past the guard's exponent d**N is never formed, so a huge N fails at once."""
    if not force and factor_dim ** min(num_factors, SIZE_GUARD.bit_length()) > SIZE_GUARD:
        raise ValueError(
            f"N = {num_factors} gives total dimension {factor_dim}**{num_factors}, "
            f"past the guard {SIZE_GUARD}; pass force=True (CLI: --force) to override"
        )
