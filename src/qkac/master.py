"""N-particle collision generator, the master-equation semigroup, steady
states, and entropy production.

The generator averages the two-particle channel over all ordered pairs,

    Q_N = binom(N, 2)^{-1} sum_{i<j} Q_{i,j},      L_N = N (Q_N - 1),

and the semigroup exp(t L_N) is evaluated by the jump (Poisson) series

    exp(t L_N) rho = sum_k e^{-Nt} (Nt)^k / k!  Q_N^k rho,

truncated when the Poisson tail drops below ``tail_tol``.  Q_N is a
Hilbert-Schmidt self-adjoint contraction, so the series is numerically
stable and never materializes the full superoperator.

The pair channel is sparse, and most of its nonzeros lie on its diagonal,
which only rescales entries of the operand.  Summed over the pairs, that
diagonal becomes one (d,) * 2N array D; the rest of Q_N is one table of
(out slice, in slice, value) triples on the (d,) * 2N view, one per pair
of factors and off-diagonal nonzero.  Q_N rho is D * rho plus each scaled
in slice added into its out slice, and the shell blocks read the table.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .collisions import CollisionSpec
from .errors import NumericalContractError
from .operators import (FactorShape, _negative_eigenvalue, entropy_and_relative_entropy,
                        is_hermitian)
from .spectra import class_projections, commutant_projection, shell_structure
from .tolerances import TAIL_TOL, TOL_FIXED_EIG, TOL_PSD, check_size_guard

log = logging.getLogger(__name__)

# Largest Poisson rate N t summed in one jump series.  Past a rate of
# about 2500 the floating-point sum of the weights stalls short of
# 1 - TAIL_TOL, so longer times are split into equal pieces, which the
# semigroup law composes exactly.
MAX_JUMP_RATE = 1000.0

# Largest dense shell block |rows| * |cols| of Q_N built unless forced: a
# block and its eigensolve peak at about five times its memory, 1.9 GB for
# the 4900-dimensional qubit block at N = 8 (N = 9 would need 15876).
MAX_BLOCK_DIM = 5000


@dataclass
class KacGenerator:
    """Pair-averaged collision generator on N particles.

    ``_pair_diag`` is the channel diagonal on its (d,) * 4 pair axes,
    ``_diag`` its average over the pairs' axes (i, j, N+i, N+j) as one
    (d,) * 2N array, ``_moves`` the channel's off-diagonal nonzeros as
    (out digits, in digits, value), and ``_slices`` the rest of Q_N as
    (out slice, in slice, value / binom(N, 2)) triples, per pair and move.
    """

    spec: CollisionSpec
    num_particles: int
    force: bool = False
    shape: FactorShape = field(init=False)
    _pair_diag: np.ndarray = field(init=False, repr=False)
    _diag: np.ndarray = field(init=False, repr=False)
    _moves: list = field(init=False, repr=False)
    _slices: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_particles < 2:
            raise ValueError("need at least two particles")
        d, n = self.spec.model.dim, self.num_particles
        check_size_guard(d, n, self.force)
        self.shape = FactorShape(n, d)
        mat = self.spec.channel.mat
        diag = mat.diagonal()
        self._pair_diag = (diag if diag.imag.any() else diag.real).reshape((d,) * 4)
        rows, cols = np.nonzero(mat)
        rows, cols = rows[rows != cols], cols[rows != cols]
        self._moves = list(zip(np.transpose(np.unravel_index(rows, (d,) * 4)).tolist(),
                               np.transpose(np.unravel_index(cols, (d,) * 4)).tolist(),
                               mat[rows, cols].tolist()))
        self._diag = np.zeros((d,) * (2 * n), dtype=self._pair_diag.dtype)
        for (i, j) in self.pairs:
            self._diag += _on_pair_axes(self._pair_diag, n, i, j)
        self._diag /= len(self.pairs)
        self._slices = [(dst, src, s / len(self.pairs)) for (i, j) in self.pairs
                        for dst, src, s in _pair_slices(self, i, j)]

    @property
    def pairs(self):
        n = self.num_particles
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _on_pair_axes(a4: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """A (d,) * 4 pair array laid on axes (i, j, n+i, n+j) of a shape that
    broadcasts against the (d,) * 2n tensor view."""
    axes = (i, j, n + i, n + j)
    shape = [1] * (2 * n)
    for ax in axes:
        shape[ax] = a4.shape[0]
    return a4.transpose(np.argsort(axes)).reshape(shape)


def _pair_slices(gen: KacGenerator, i: int, j: int) -> list:
    """The off-diagonal part of Q_{i,j}, for an ordered pair of factors, as
    (out slice, in slice, value) triples on the (d,) * 2N view: each move
    fixes axes (i, j, N+i, N+j) to its out digits in the first slice and to
    its in digits in the second."""
    n = gen.num_particles

    def fix(digits):
        at = dict(zip((i, j, n + i, n + j), digits))
        return tuple(at.get(ax, slice(None)) for ax in range(2 * n))

    return [(fix(o), fix(a), s) for o, a, s in gen._moves]


def _apply(gen: KacGenerator, rho, diag: np.ndarray, slices: list) -> np.ndarray:
    """``diag`` times ``rho`` plus, for each (out slice, in slice, value)
    triple of ``slices``, the scaled in slice of ``rho`` added into the out
    slice; ``rho`` is a d^N x d^N matrix or its (d,) * 2N tensor view, and
    the image has the same shape."""
    d, n = gen.shape.factor_dim, gen.shape.num_factors
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((gen.shape.dim,) * 2, (d,) * (2 * n)):
        raise ValueError(f"operand shape {rho.shape} does not match dimension "
                         f"{gen.shape.dim} or its tensor shape {(d,) * (2 * n)}")
    x = rho.reshape((d,) * (2 * n))
    out = diag * x
    for dst, src, s in slices:
        out[dst] += s * x[src]
    return out.reshape(rho.shape)


def apply_pair_channel(gen: KacGenerator, rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair channel Q_{i,j} on factors (i, j) of an N-factor operator.

    ``rho`` is a d^N x d^N matrix or its (d,) * 2N tensor view; the image
    has the same shape.
    """
    n = gen.num_particles
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"pair ({i}, {j}) is not two distinct factors of N={n}")
    return _apply(gen, rho, _on_pair_axes(gen._pair_diag, n, i, j), _pair_slices(gen, i, j))


def apply_QN(gen: KacGenerator, rho: np.ndarray) -> np.ndarray:
    """Uniform average of the pair channels, on a matrix or its tensor view."""
    return _apply(gen, rho, gen._diag, gen._slices)


def apply_LN(gen: KacGenerator, x: np.ndarray) -> np.ndarray:
    """Generator action N (Q_N x - x); traceless on trace-class input."""
    x = np.asarray(x, dtype=complex)
    return gen.num_particles * (apply_QN(gen, x) - x)


def evolve_master(gen: KacGenerator, rho0: np.ndarray, t: float,
                  tail_tol: float = TAIL_TOL, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Evolve a state for time t with the truncated jump series.

    A time whose rate N t exceeds ``MAX_JUMP_RATE`` is split into equal
    pieces, each summed by its own series.  The output trace is
    renormalized to one (the drift, bounded by the Poisson tail of each
    piece, is logged) and positivity is asserted within tol_psd: a
    Cholesky factorization of the Hermitian part of the output, shifted
    by about tol_psd, certifies that its smallest eigenvalue is at least
    -tol_psd, and only when it fails is the Hermitian part diagonalized,
    to decide and to report the eigenvalue.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    if not tail_tol >= 0:
        raise ValueError("tail tolerance must be non-negative")
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    pieces = math.ceil(gen.num_particles * t / MAX_JUMP_RATE)
    rate = gen.num_particles * t / pieces
    out = rho0
    for _ in range(pieces):
        # Poisson weights via logs; stable for any rate
        term, out = out, np.zeros_like(rho0)
        k = 0
        acc = 0.0
        while True:
            w = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
            out += w * term
            acc += w
            # past k = rate the tail after term k is at most the geometric
            # series w sum_m (rate / (k + 1))^m; that bound ends the sum where
            # 1 - tail_tol rounds to 1, which acc may never reach
            if acc >= 1.0 - tail_tol or (k + 1 > rate
                                          and w * rate / (k + 1 - rate) <= tail_tol):
                break
            term = apply_QN(gen, term)
            k += 1
    del term    # one matrix less alive while the positivity check factors its own copy
    tr = np.trace(out).real
    if abs(tr - 1.0) > 100 * pieces * tail_tol + 1e-13:
        raise NumericalContractError(f"trace drifted to {tr} under the jump series")
    log.debug("jump series trace drift %.3e over %d pieces of up to %d terms",
              tr - 1.0, pieces, k)
    out = out / tr
    lo = _negative_eigenvalue(out, tol_psd)
    if lo is not None:
        raise NumericalContractError(f"evolved state has negative eigenvalue {lo:.3e}")
    return out


# ---------------------------------------------------------------------------
# null space of the generator, computed per invariant block
# ---------------------------------------------------------------------------

def _shell_block(gen: KacGenerator, rows, cols) -> np.ndarray:
    """Matrix of Q_N on the operators supported on rows x cols, read off
    ``_diag`` and ``_slices`` and ordered row-major over the block.

    Each triple of ``_slices`` moves the entries of its in slice one to one
    onto its out slice; the moves with both ends in the block add into it.
    """
    dim, size = gen.shape.dim, len(rows) * len(cols)
    block = np.zeros((size, size), dtype=complex)
    block.flat[::size + 1] = gen._diag.reshape(dim, dim)[np.ix_(rows, cols)].ravel()
    where = np.full((dim, dim), -1)     # block position of each entry, or -1
    where[np.ix_(rows, cols)] = np.arange(size).reshape(len(rows), len(cols))
    where = where.reshape(gen._diag.shape)
    for dst, src, s in gen._slices:
        i, j = where[dst].ravel(), where[src].ravel()
        keep = (i >= 0) & (j >= 0)
        block[i[keep], j[keep]] += s
    return block


def _block_fixed_vectors(gen: KacGenerator, rows, cols, tol) -> list:
    """Eigenvalue-1 eigenvectors of Q_N on the block of operators with
    range in the row shell and corange in the column shell."""
    dim = gen.shape.dim
    block = _shell_block(gen, rows, cols)
    herm = np.abs(block - block.conj().T).max()
    if herm > 1e-8:
        raise NumericalContractError(f"generator block is not Hermitian ({herm:.3e})")
    # rebinding frees the unsymmetrized block before the eigensolver runs
    block = (block + block.conj().T) / 2
    w, v = np.linalg.eigh(block)
    out = []
    for idx in np.where(np.abs(w - 1.0) <= tol)[0]:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.ix_(rows, cols)] = v[:, idx].reshape(len(rows), len(cols))
        out.append(mat)
    return out


def _shell_blocks(gen: KacGenerator, diagonal_only: bool) -> list:
    """The (rows, cols) shell pairs whose blocks of Q_N are to be built, after
    checking the largest against ``MAX_BLOCK_DIM`` unless the generator is forced."""
    shells = shell_structure(gen.spec.model, gen.num_particles, force=gen.force).shells
    # |rows| * |cols| <= max(|rows|, |cols|)**2: the largest diagonal block is largest
    E, idx = max(shells, key=lambda shell: len(shell[1]))
    if not gen.force and len(idx) ** 2 > MAX_BLOCK_DIM:
        raise ValueError(
            f"the block of Q_N on the shell E={E} has dimension {len(idx) ** 2}, "
            f"past the limit {MAX_BLOCK_DIM}; pass force=True (CLI: --force) to override")
    return [(rows, cols) for er, rows in shells for ec, cols in shells
            if er == ec or not diagonal_only]


def is_ergodic(spec: CollisionSpec) -> bool:
    """True iff the channel's fixed space is exactly the pair energy algebra.

    Q is Q_N at N = 2, so its fixed space is read off the N = 2 shell
    blocks.  That holds only if Q maps each block into itself, which is
    checked first: a ValueError is raised when a channel entry past
    ``TOL_FIXED_EIG`` moves an operator between two pairs of shells.  The
    generator is forced, so no model is refused for its block sizes.
    """
    gen = KacGenerator(spec, 2, force=True)
    e = spec.model.energies
    for out, src, s in gen._moves:
        shells_out = (e[out[0]] + e[out[1]], e[out[2]] + e[out[3]])
        shells_in = (e[src[0]] + e[src[1]], e[src[2]] + e[src[3]])
        if shells_out != shells_in and abs(s) > TOL_FIXED_EIG:
            raise ValueError(f"spec {spec.name!r} does not conserve the pair energy: it moves "
                             f"the shells {shells_in} to {shells_out} with weight {abs(s):.3e}")
    fixed = [f for rows, cols in _shell_blocks(gen, diagonal_only=False)
             for f in _block_fixed_vectors(gen, rows, cols, TOL_FIXED_EIG)]
    if len(fixed) != len(shell_structure(spec.model, 2, force=True).shells):
        return False
    # at N = 2 each shell is one class, so the projection onto the span of
    # the shell projectors is the class (commutant) projection
    return all(np.abs(f - commutant_projection(spec.model, 2, f, force=True)).max()
               <= TOL_FIXED_EIG for f in fixed)


def ln_null_basis(gen: KacGenerator, tol: float = TOL_FIXED_EIG) -> list:
    """Hilbert-Schmidt orthonormal basis of the null space of L_N.

    The shell subspaces are invariant under every pair channel, so Q_N is
    diagonalized block by block and never materialized as a full matrix.
    For an ergodic specification all fixed vectors live in the diagonal
    blocks (they are diagonal in the product eigenbasis); off-diagonal
    blocks are scanned too when the specification is not ergodic.
    """
    return [f for rows, cols in _shell_blocks(gen, diagonal_only=is_ergodic(gen.spec))
            for f in _block_fixed_vectors(gen, rows, cols, tol)]


def steady_states_basis(gen: KacGenerator, tol: float = TOL_FIXED_EIG) -> list:
    """Normalized minimal class projections spanning the steady states.

    Returns (E, state, rank) triples.  The numerically computed null-space
    dimension of L_N must match the class count; for a non-ergodic
    specification the check runs over all shell blocks and a mismatch
    raises.
    """
    # first, so an oversized block fails before the dense projections are built
    null_dim = len(ln_null_basis(gen, tol=tol))
    projections = class_projections(gen.spec.model, gen.num_particles, force=gen.force)
    if null_dim != len(projections):
        raise NumericalContractError(
            f"null-space dimension {null_dim} does not match the "
            f"class count {len(projections)}")
    return [(E, p / rank, rank) for E, p, rank in projections]


def entropy_production(gen: KacGenerator, rho: np.ndarray):
    """Entropy production -d/dt S(rho_t || rho_inf) at t = 0.

    rho_inf is the conditional expectation of rho onto the fixed-point
    algebra.  Returns (rate, ratio) where ratio = rate / S(rho || rho_inf)
    when the denominator exceeds TOL_PSD, else None.  If rho is singular on
    the support of rho_inf the rate is reported as +inf.  rho is
    diagonalized once; rho_inf is diagonal, so its logarithm is read off
    its diagonal.
    """
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("entropy production requires a Hermitian state")
    sigma = commutant_projection(gen.spec.model, gen.num_particles, rho,
                                 force=gen.force).diagonal().real
    w, v = np.linalg.eigh(rho)
    if (w <= TOL_PSD).sum() > (sigma <= TOL_PSD).sum():
        return float("inf"), None
    log_ratio = ((v * np.log(np.maximum(w, TOL_PSD))) @ v.conj().T
                 - np.diag(np.log(np.maximum(sigma, TOL_PSD))))
    rate = -np.trace(apply_LN(gen, rho) @ log_ratio).real
    _, rel = entropy_and_relative_entropy(w, rho.diagonal().real, sigma)
    ratio = rate / rel if rel > TOL_PSD and np.isfinite(rel) else None
    return float(rate), ratio
