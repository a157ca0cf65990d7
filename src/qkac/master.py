"""N-particle collision generator, the master-equation semigroup, steady
states, and entropy production.

The generator averages the two-particle channel over all ordered pairs,

    Q_N = binom(N, 2)^{-1} sum_{i<j} Q_{i,j},      L_N = N (Q_N - 1),

and the semigroup exp(t L_N) is evaluated by the jump (Poisson) series

    exp(t L_N) rho = sum_k e^{-Nt} (Nt)^k / k!  Q_N^k rho,

truncated when the Poisson tail drops below ``tail_tol``.  Q_N is a
Hilbert-Schmidt self-adjoint contraction, so the series is numerically
stable and never materializes the full superoperator.

Q_N is applied by two kernels.  On a d^N x d^N operator (``_apply``) the
pair channel is sparse, and most of its nonzeros lie on its diagonal,
which only rescales entries of the operand.  Summed over the pairs, that
diagonal becomes one (d,) * 2N array D, built on the first ``apply_QN``.
Q_N rho is D * rho plus each off-diagonal nonzero (a move) placed on each
pair of factors: its scaled in slice of the (d,) * 2N view is added into
its out slice.  A shell block and the symmetric sector (``qkac.symmetric``)
hold Q_N as its diagonal and (row, column, value) triples, applied by one
chunked gather and sum (``_triples_apply``); a block gathers its diagonal
from the pair diagonal, so D is never formed there.

The null space of L_N is found one energy-shell block at a time.  Each
block is read off the channel's moves on each pair as such triples, in
real arithmetic when the pair diagonal and the moves are real, and a
fully reorthogonalized Lanczos run with deflation certifies its
eigenvalue-1 vectors (``_lanczos_fixed_vectors``); no block is formed
densely, so memory grows with the nonzeros of the largest block.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math

import numpy as np

from .collisions import CollisionSpec
from .errors import NumericalContractError
from .operators import (FactorShape, _negative_eigenvalue, entropy_and_relative_entropy,
                        is_hermitian)
from .spectra import _digits, class_projections, commutant_projection, shell_structure
from .tolerances import TAIL_TOL, TOL_FIXED_EIG, TOL_PSD, check_size_guard

log = logging.getLogger(__name__)

# Largest Poisson rate N t summed in one jump series.  Past a rate of
# about 2500 the floating-point sum of the weights stalls short of
# 1 - TAIL_TOL, so longer times are split into equal pieces, which the
# semigroup law composes exactly.
MAX_JUMP_RATE = 1000.0

# Triples gathered and summed per pass of ``_triples_apply``: its
# temporaries take 32 bytes a triple, so a pass holds at most 32 MB of them.
MATVEC_CHUNK = 1 << 20

class KacGenerator:
    """Pair-averaged collision generator on N particles.

    ``pairs`` lists the pairs of factors (i, j) with i < j,
    ``_pair_diag`` is the channel diagonal on its (d,) * 4 pair axes and
    ``_moves`` the channel's off-diagonal nonzeros as (out digits, in
    digits, value): the move table the spec decodes once
    (``CollisionSpec.moves``), split, which ``_move_sides`` checks.
    ``_diag``, the average of ``_pair_diag`` over the pairs' axes (i, j,
    N+i, N+j) as one (d,) * 2N array, is built on the first ``apply_QN``.
    """

    def __init__(self, spec: CollisionSpec, num_particles: int, force: bool = False):
        if num_particles < 2:
            raise ValueError("need at least two particles")
        d, n = spec.model.dim, num_particles
        check_size_guard(d, n, force)
        self.spec, self.num_particles, self.force, self.shape = spec, n, force, FactorShape(n, d)
        self.pairs = list(itertools.combinations(range(n), 2))
        out, src, q = spec.moves
        on = (out == src).all(axis=0)
        diag = np.zeros((d,) * 4, dtype=complex)
        diag[tuple(out[:, on])] = q[on]
        self._pair_diag = diag if diag.imag.any() else diag.real
        self._moves = list(zip(*(map(tuple, x[:, ~on].T.tolist()) for x in (out, src)),
                               q[~on].tolist()))

    @functools.cached_property
    def _diag(self) -> np.ndarray:
        diag = np.zeros((self.shape.factor_dim,) * (2 * self.num_particles), self._pair_diag.dtype)
        for (i, j) in self.pairs:
            diag += _on_pair_axes(self._pair_diag, self.num_particles, i, j)
        return np.divide(diag, len(self.pairs), out=diag)

    # the state hooks of ``evolve_master``, shared with ``SymmetricGenerator``
    def _check(self, rho) -> np.ndarray:
        rho, dim = np.asarray(rho, dtype=complex), self.shape.dim
        if rho.shape != (dim, dim):
            raise ValueError(f"operand shape {rho.shape} does not match dimension {dim}")
        return rho

    def jump(self, rho: np.ndarray) -> np.ndarray:
        return apply_QN(self, rho)

    def trace(self, rho: np.ndarray) -> float:
        return float(np.trace(rho).real)

    def blocks(self, rho: np.ndarray) -> list:
        return [(rho, 0.0)]


def _on_pair_axes(a4: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """A (d,) * 4 pair array laid on axes (i, j, n+i, n+j) of a shape that
    broadcasts against the (d,) * 2n tensor view."""
    axes = (i, j, n + i, n + j)
    shape = [1] * (2 * n)
    for ax in axes:
        shape[ax] = a4.shape[0]
    return a4.transpose(np.argsort(axes)).reshape(shape)


def _apply(gen: KacGenerator, rho, diag: np.ndarray, pairs: list, count: int) -> np.ndarray:
    """``diag`` times ``rho`` plus each move of ``gen._moves`` placed on each
    pair of factors (i, j) of ``pairs``, on the (d,) * 2N view of the d^N x
    d^N matrix ``rho``: the slice with axes (i, j, N+i, N+j) fixed to its
    in digits, scaled by its value / ``count``, is added into the slice
    with those axes fixed to its out digits."""
    d, n, dim = gen.shape.factor_dim, gen.shape.num_factors, gen.shape.dim
    x = gen._check(rho).reshape((d,) * (2 * n))
    out = diag * x
    for i, j in pairs:
        for dst, src, s in gen._moves:
            at, of = [slice(None)] * (2 * n), [slice(None)] * (2 * n)
            for ax, a, b in zip((i, j, n + i, n + j), dst, src):
                at[ax], of[ax] = a, b
            out[tuple(at)] += s / count * x[tuple(of)]
    return out.reshape(dim, dim)


def _triples_apply(diag, i, j, val, x: np.ndarray) -> np.ndarray:
    """The image of ``x`` under the sparse matrix with diagonal ``diag`` and
    (row ``i``, column ``j``, value ``val``) triples, repeated positions
    summed, ``MATVEC_CHUNK`` triples a pass."""
    out = diag * x
    for at in range(0, len(val), MATVEC_CHUNK):
        part = slice(at, at + MATVEC_CHUNK)
        w = val[part] * x[j[part]]
        out += (np.bincount(i[part], w.real, x.size) + 1j * np.bincount(i[part], w.imag, x.size)
                if np.iscomplexobj(w) else np.bincount(i[part], w, x.size))
    return out


def apply_pair_channel(gen: KacGenerator, rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair channel Q_{i,j} on factors (i, j) of a d^N x d^N operator."""
    n = gen.num_particles
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"pair ({i}, {j}) is not two distinct factors of N={n}")
    return _apply(gen, rho, _on_pair_axes(gen._pair_diag, n, i, j), [(i, j)], 1)


def apply_QN(gen: KacGenerator, rho: np.ndarray) -> np.ndarray:
    """Uniform average of the pair channels on a d^N x d^N operator."""
    return _apply(gen, rho, gen._diag, gen.pairs, len(gen.pairs))


def apply_LN(gen: KacGenerator, x: np.ndarray) -> np.ndarray:
    """Generator action N (Q_N x - x); traceless on trace-class input."""
    x = np.asarray(x, dtype=complex)
    return gen.num_particles * (apply_QN(gen, x) - x)


def evolve_master(gen, rho0: np.ndarray, t: float,
                  tail_tol: float = TAIL_TOL, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Evolve a state for time t with the truncated jump series.

    ``gen`` is a ``KacGenerator``, on a d^N x d^N matrix, or a
    ``SymmetricGenerator``, on the coefficients of a permutation-invariant
    state; the output has the input's form.  ``t`` must be finite.  A time
    whose rate N t exceeds ``MAX_JUMP_RATE`` is split into equal pieces,
    each summed by its own series.  The output trace is renormalized to
    one (the drift, bounded by the Poisson tail of each piece, is logged)
    and positivity is asserted within tol_psd on each of the generator's
    ``blocks`` of the output, whose spectra together are the state's: the
    d^N x d^N matrix itself, or for a qubit sector state its Schur-Weyl
    spin blocks, det(A)^k Sym^{N-2k}(A) in A^{xN} (see ``qkac.symmetric``).
    A Cholesky factorization of each block's Hermitian part, shifted by
    about tol_psd and by the block's forming-error bound, certifies that
    its smallest eigenvalue is at least -tol_psd; only when one fails is
    that block diagonalized, and the most negative eigenvalue is reported.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, not {t}")
    if not tail_tol >= 0:
        raise ValueError("tail tolerance must be non-negative")
    rho0 = gen._check(rho0)
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
            term = gen.jump(term)
            k += 1
    del term    # one matrix less alive while the positivity check factors its own copy
    tr = gen.trace(out)
    if abs(tr - 1.0) > 100 * pieces * tail_tol + 1e-13:
        raise NumericalContractError(f"trace drifted to {tr} under the jump series")
    log.debug("jump series trace drift %.3e over %d pieces of up to %d terms",
              tr - 1.0, pieces, k)
    out = out / tr
    lows = [lo for block, err in gen.blocks(out)
            if (lo := _negative_eigenvalue(block, tol_psd, err)) is not None]
    if lows:
        raise NumericalContractError(f"evolved state has negative eigenvalue {min(lows):.3e}")
    return out


# ---------------------------------------------------------------------------
# null space of the generator, computed per invariant block
# ---------------------------------------------------------------------------

def _move_sides(gen: KacGenerator) -> tuple:
    """Each move of ``_moves`` on each pair of factors, pair by pair, as the
    (row, column) pair energies it keeps, its codes and its weight.

    The codes are the row out, row in, column out and column in pair codes
    d^2 p + d a + b, p the pair's index in ``pairs`` and (a, b) its two
    digits; the weight is s / binom(N, 2).  A move that changes a pair energy
    reaches no block: when the spec's ``pair_energy`` residual is past
    ``TOL_FIXED_EIG`` a ValueError is raised, and a smaller move is left
    out.  Then each move's reverse must carry the conjugate weight to
    1e-8 binom(N, 2), by the spec's ``hs_self_adjoint`` pairing residual,
    and the pair diagonal must be real to 1e-8 (``NumericalContractError``).
    The weights, and so the blocks, are float64 when the pair diagonal is
    real and every kept weight has an imaginary part of exactly zero, and
    complex otherwise.
    """
    e, d, scale = gen.spec.model.energies, gen.shape.factor_dim, len(gen.pairs)
    moved = gen.spec.pairing_residuals["pair_energy"]
    if moved > TOL_FIXED_EIG:
        raise ValueError(f"spec {gen.spec.name!r} does not conserve the pair energy: it moves "
                         f"operators between pair energies with weight up to {moved:.3e}")
    kept = [(e[a] + e[b], e[c] + e[f], d * a + b, d * g + h, d * c + f, d * k + m, s / scale)
            for (a, b, c, f), (g, h, k, m), s in gen._moves
            if (e[a] + e[b], e[c] + e[f]) == (e[g] + e[h], e[k] + e[m])]
    herm = max(2 * np.abs(gen._pair_diag.imag).max(),
               gen.spec.pairing_residuals["hs_self_adjoint"] / scale)
    if herm > 1e-8:
        raise NumericalContractError(f"generator block is not Hermitian ({herm:.3e})")
    w = np.array([x[6] for x in kept], complex)
    if np.isrealobj(gen._pair_diag) and not w.imag.any():
        w = w.real
    table = np.tile(np.array([x[:6] for x in kept], np.int64).reshape(-1, 6), (scale, 1))
    pair = np.repeat(np.arange(scale) * d * d, len(kept))[:, None]
    return table[:, :2], table[:, 2:] + pair, np.tile(w, scale)


def _shell_tables(gen: KacGenerator, idx) -> tuple:
    """The tables from which every block on the shell of ascending flat
    indices ``idx`` reads its side positions: the digit code d a + b of
    each row at each pair of factors, one row of ``codes`` a pair; the
    positions, stably sorted by code pair by pair and flattened; and where
    the positions of each pair code d^2 p + d a + b start in that order,
    the last entry past the end."""
    d, pairs = gen.shape.factor_dim, np.array(gen.pairs).T
    digits = _digits(idx, d, gen.num_particles)
    codes = digits[:, pairs[0]].T * d + digits[:, pairs[1]].T
    order = np.argsort(codes, axis=1, kind="stable")
    keys = np.take_along_axis(codes, order, 1) + d * d * np.arange(len(codes))[:, None]
    first = np.searchsorted(keys.ravel(), np.arange(len(codes) * d * d + 1))
    return codes, order.ravel(), first


def _sparse_block(gen: KacGenerator, codes, w, rows: tuple, cols: tuple):
    """Q_N on the operators supported on rows x cols, ordered row-major over
    the block, as its diagonal and (row, column, value) triples, of the
    dtype of the weights ``w``.

    ``codes`` and ``w`` are the sides of the moves that reach the block
    (``_move_sides``) and ``rows`` and ``cols`` the ``_shell_tables`` of its
    shells.  A move takes the entries of its in digits one to one onto its
    out digits; on the block those are the products of the rows and of the
    columns whose pair codes match.  The move keeps the other digits and
    shifts the flat index by a constant, so the k-th position of an out
    code pairs with the k-th of the in code.  Moves on different pairs that
    meet on one entry give one triple each, which ``_triples_apply`` sums.
    The triples are written into arrays of their final size,
    ``MATVEC_CHUNK`` a pass, so no temporary grows with the block.
    """
    (r_codes, r_order, r_first), (c_codes, c_order, c_first) = rows, cols
    d, nc = gen.shape.factor_dim, c_codes.shape[1]
    pair_diag = gen._pair_diag.reshape(d * d, d * d)
    diag = np.zeros((r_codes.shape[1], nc), dtype=w.dtype)
    for a, b in zip(r_codes, c_codes):
        diag += pair_diag[np.ix_(a, b)]
    r_out, r_in, c_out, c_in = codes.T
    width = c_first[c_out + 1] - c_first[c_out]
    size = (r_first[r_out + 1] - r_first[r_out]) * width
    bounds = np.concatenate([[0], np.cumsum(size)])
    i, j, val = np.empty(bounds[-1], np.intp), np.empty(bounds[-1], np.intp), np.repeat(w, size)
    ends = ((i, r_first[r_out], c_first[c_out]), (j, r_first[r_in], c_first[c_in]))
    for at in range(0, bounds[-1], MATVEC_CHUNK):
        end = min(at + MATVEC_CHUNK, bounds[-1])
        side = np.repeat(np.arange(len(size)), np.diff(np.clip(bounds, at, end)))
        a, b = np.divmod(np.arange(at, end) - bounds[side], width[side])
        for out, r, c in ends:
            out[at:end] = r_order[r[side] + a] * nc + c_order[c[side] + b]
    return diag.ravel() / len(gen.pairs), i, j, val


def _lanczos_fixed_vectors(diag, i, j, val, tol, limit=None):
    """Orthonormal eigenvalue-1 eigenvectors, one per row, of the Hermitian
    block with diagonal ``diag`` and (row, column, value) triples, and the
    Ritz values of the last Lanczos run, which has none within ``tol`` of 1.

    Each run starts from a random vector (fixed seed) orthogonal to the
    fixed vectors found so far and runs Lanczos, fully reorthogonalized
    against its basis and those vectors.  With n the block size, eps the
    machine epsilon and g the largest absolute row sum of the block
    (Gershgorin's bound on its norm), a run with a Ritz value within
    ``tol`` of 1 stops at the first of:

    * breakdown, the residual norm beta at most sqrt(n eps) g.  Rounding
      errors grow with the Lanczos polynomials, so the threshold grows
      with n: on the largest ``qubit_tilted`` block the run that finds
      the fixed vector ends at beta 8e-14 at n = 4,900 (N = 8) and 1e-8
      at n = 853,776 (N = 12), while every earlier beta stays above 1e-2;
    * converged fixed vectors: every Ritz value within ``tol`` of 1 has
      its bound beta |s_i| at most sqrt(n) eps g, s_i the last entry of its
      eigenvector of T.

    A run with no Ritz value within ``tol`` of 1 stops only when each Ritz
    value's bound beta |s_i| keeps it more than ``tol`` from 1 and
    prod(betas) / prod |1 - theta_i| is at most sqrt(eps / n).  That ratio
    bounds the start's component along the eigenvalue-1 eigenvectors (the
    Lanczos polynomial at 1).  A small beta alone does not end such a
    run: a fixed vector the run has not seen forces a Ritz value only
    within about beta / c of 1, c the start's component along it, which
    for a beta at the breakdown threshold is far more than ``tol``.  At an
    exact breakdown the last beta makes the ratio pass at once; past an
    inexact one the run goes on, and the ratio, not the rounding of close
    eigenvalues, ends it: on the ``exact_ea2`` blocks of three levels at
    N = 6 the betas sink to the rounding level and stay there for
    hundreds of steps.

    The Ritz vectors of the Ritz values within ``tol`` of 1 must have
    residual ||Q v - v|| at most ``tol``; they join the fixed vectors and
    the next run starts.  A run with no such Ritz value ends the search.
    The Krylov store takes the dtype of ``diag`` and ``val``, and a real
    block gets a real Gaussian start, a complex one a complex start.  A
    random start has a component of about n**-0.5 along any fixed unit
    vector, below sqrt(eps / n) with probability about sqrt(eps) for a
    real start and about eps for a complex one, so the count holds almost
    surely over the start.  Given a ``limit``, the search stops as soon as
    it holds more fixed vectors than that, with no Ritz values, so a fixed
    space larger than the caller expects does not fill memory.
    """
    n = diag.size

    def grown(space, k):
        """``space``, doubled (up to n rows) if it has no row k."""
        return space if k < len(space) else np.concatenate([space, np.empty_like(space[:n - k])])

    def project_out(w, basis):
        for _ in range(2):      # twice is enough
            w -= (basis @ w.conj()).conj() @ basis
        return w

    eps = np.finfo(float).eps
    g = np.max(np.abs(diag) + np.bincount(i, np.abs(val), n))
    floor, sharp, quiet = np.sqrt(n * eps) * g, np.sqrt(n) * eps * g, np.sqrt(eps / n)
    rng = np.random.default_rng(0)
    # the fixed vectors found so far, then the Krylov basis of the run
    space = np.empty((min(n, 32), n), np.result_type(diag, val))
    found = 0
    while found < n and (limit is None or found <= limit):
        start = rng.standard_normal(n)
        if np.iscomplexobj(space):
            start = start + 1j * rng.standard_normal(n)
        start = project_out(start, space[:found])
        space = grown(space, found)
        space[found] = start / np.linalg.norm(start)
        beta = []
        t = np.zeros((32, 32))      # T of the run, grown with it
        for k in range(found, n):
            m = k - found
            w = _triples_apply(diag, i, j, val, space[k])
            t[m, m] = np.vdot(space[k], w).real
            w -= t[m, m] * space[k]
            if m:
                w -= beta[-1] * space[k - 1]
                t[m, m - 1] = t[m - 1, m] = beta[-1]
            beta.append(np.linalg.norm(project_out(w, space[:k + 1])))
            theta, s = np.linalg.eigh(t[:m + 1, :m + 1])
            off, bound = np.abs(theta - 1.0), beta[-1] * np.abs(s[-1])
            near = off <= tol
            if k + 1 == n:
                break
            if near.any():
                if beta[-1] <= floor or bound[near].max() <= sharp:
                    break
            elif (off - bound > tol).all() and (beta[-1] == 0 or (
                    np.log(beta).sum() - np.log(off).sum() <= np.log(quiet))):
                break
            space = grown(space, k + 1)
            space[k + 1] = w / beta[-1]
            if m + 1 == len(t):
                t = np.pad(t, (0, len(t)))
        if not near.any():
            if (off - bound <= tol).any():
                raise NumericalContractError(
                    f"a Ritz value of a shell block cannot be told from 1 (beta {beta[-1]:.3e})")
            return space[:found].copy(), theta
        ritz = s[:, near].T @ space[found:found + len(beta)]
        res = max(np.linalg.norm(_triples_apply(diag, i, j, val, v) - v) for v in ritz)
        if res > tol:
            raise NumericalContractError(
                f"a Ritz vector at eigenvalue 1 has residual {res:.3e}, past {tol:.3e}")
        space[found:found + len(ritz)] = ritz
        found += len(ritz)
    return space[:found], np.zeros(0)


def _sparse_blocks(gen: KacGenerator, diagonal_only: bool):
    """(row energy, rows, column energy, columns, (diagonal, rows, columns,
    values)) of each shell block of Q_N, one block at a time.

    A move reaches a block only if the rest of each shell energy, past the
    pair energy it moves, is an energy of the other N - 2 factors, so each
    block reads only the sides of ``_move_sides`` that pass, each shell
    tested once.  Each shell's ``_shell_tables`` are built once a scan.
    """
    energies, codes, w = _move_sides(gen)
    reach = {0}
    for _ in range(gen.num_particles - 2):
        reach = {r + e for r in reach for e in gen.spec.model.energies}
    # E - r is taken in Python ints, as it may pass the int64 range
    pair_energies = set(energies.ravel().tolist())
    shells = [(E, idx, _shell_tables(gen, idx),
               np.isin(energies, list({E - r for r in reach} & pair_energies)))
              for E, idx in shell_structure(gen.spec.model, gen.num_particles,
                                            force=gen.force).shells]
    for (er, rows, rt, rf), (ec, cols, ct, cf) in itertools.product(shells, shells):
        if er == ec or not diagonal_only:
            near = rf[:, 0] & cf[:, 1]
            yield er, rows, ec, cols, _sparse_block(gen, codes[near], w[near], rt, ct)


def _null_blocks(gen: KacGenerator, tol: float, diagonal_only: bool, limit=None):
    """(row energy, rows, column energy, columns, fixed vectors, last Ritz
    values) of each shell block of Q_N, one block at a time.

    Given a ``limit``, the scan ends at the first block that takes the
    count of fixed vectors past it, and that block's own search stops as
    soon as it does.
    """
    for er, rows, ec, cols, block in _sparse_blocks(gen, diagonal_only):
        vecs, theta = _lanczos_fixed_vectors(*block, tol, limit)
        del block       # released before the next block is built
        yield er, rows, ec, cols, vecs, theta
        if limit is not None:
            limit -= len(vecs)
            if limit < 0:
                return


def is_ergodic(spec: CollisionSpec) -> bool:
    """True iff the channel's fixed space is exactly the pair energy algebra.

    Q is Q_N at N = 2, so its fixed space is read off the N = 2 shell
    blocks.  That holds only if Q maps each block into itself, which
    ``_move_sides`` checks first: a ValueError is raised when a channel
    entry past ``TOL_FIXED_EIG`` moves an operator between two pairs of shells.
    """
    gen = KacGenerator(spec, 2, force=True)
    fixed = [(er == ec, f.reshape(len(rows), -1)) for er, rows, ec, _, vecs, _ in
             _null_blocks(gen, TOL_FIXED_EIG, diagonal_only=False) for f in vecs]
    if len(fixed) != len(set(shell_structure(spec.model, 2, force=True).energies.tolist())):
        return False
    # at N = 2 each shell is one class, so the pair energy algebra holds the
    # multiples of each shell's identity, which lie in its diagonal block
    return all(np.abs(f - diagonal * np.trace(f) / len(f) * np.eye(len(f))).max()
               <= TOL_FIXED_EIG for diagonal, f in fixed)


def ln_null_basis(gen: KacGenerator, tol: float = TOL_FIXED_EIG) -> list:
    """Hilbert-Schmidt orthonormal basis of the null space of L_N.

    The shell subspaces are invariant under every pair channel, so the
    fixed vectors of Q_N are found block by block, and Q_N is never
    materialized as a full matrix.  For an ergodic specification all fixed
    vectors live in the diagonal blocks (they are diagonal in the product
    eigenbasis); off-diagonal blocks are scanned too when the
    specification is not ergodic.
    """
    dim = gen.shape.dim
    out = []
    for _, rows, _, cols, vecs, _ in _null_blocks(gen, tol, diagonal_only=is_ergodic(gen.spec)):
        for f in vecs:
            mat = np.zeros((dim, dim), dtype=complex)
            mat[np.ix_(rows, cols)] = f.reshape(len(rows), len(cols))
            out.append(mat)
    return out


def steady_state_classes(gen: KacGenerator, tol: float = TOL_FIXED_EIG) -> list:
    """(E, rank) of each minimal class projection, sorted by shell and class.

    The null-space dimension of L_N, counted block by block, must match the
    class count; for a non-ergodic specification the count runs over all
    shell blocks and a mismatch raises, the moment the fixed vectors found
    pass the class count if they do.  No d^N x d^N matrix is formed.
    """
    st = shell_structure(gen.spec.model, gen.num_particles, force=gen.force)
    ranks = st.class_ranks()
    null_dim = sum(len(vecs) for *_, vecs, _ in _null_blocks(
        gen, tol, diagonal_only=is_ergodic(gen.spec), limit=len(ranks)))
    if null_dim != len(ranks):
        found = "passes" if null_dim > len(ranks) else f"{null_dim} does not match"
        raise NumericalContractError(f"null-space dimension {found} the class count {len(ranks)}")
    return list(zip(st.class_energies.tolist(), ranks))


def steady_states_basis(gen: KacGenerator, tol: float = TOL_FIXED_EIG) -> list:
    """Normalized minimal class projections spanning the steady states, as
    (E, state, rank) triples, after the check of ``steady_state_classes``."""
    steady_state_classes(gen, tol=tol)
    return [(E, p / rank, rank) for E, p, rank in
            class_projections(gen.spec.model, gen.num_particles, force=gen.force)]


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
