"""The permutation-symmetric sector of the N-particle collision generator.

Q_N commutes with permuting the particles, and so does a product state
rho^{xN}, so the jump series keeps such a state in the symmetric sector.
A permutation-invariant operator is a sum over the occupation vectors n of
the K = d^2 matrix-unit types E_ac (type a d + c), each n summing to N,

    X = sum_n c_n S_n,   S_n = sum of the E_{t_1} x ... x E_{t_N} whose
                               types t_1, ..., t_N have occupation n,

so the sector has C(N + K - 1, N) dimensions, and Q_N acts on the
coefficients c_n.  Summed over ordered pairs of factors,
Q_N = sum_{i != j} Q_{i,j} / (N (N - 1)), which holds only if Q commutes
with swapping its two factors: to ``TOL_AXIOM`` in the spec's cached
``factor_swap`` pairing residual.  A nonzero q of the spec's decoded
``moves`` that takes the types (u1, u2) of a pair to (v1, v2) then adds

    n_{v1} (n_{v2} - delta_{v1 v2}) q / (N (N - 1)) c_{n - v1 - v2 + u1 + u2}

to c_n, one term for each occupation of the other N - 2 factors.  The
terms that meet on one (row, column) are summed once, when Q_N is built,
into (row, column, value) triples, applied by the gather and sum that
also applies the shell blocks (``qkac.master._triples_apply``).  The
product state rho^{xN} has c_n = prod_t rho[t]^{n_t}.  S_n has trace equal
to its number of terms, the multinomial N! / prod_t n_t!, when every type
it holds is diagonal (a = c), and 0 otherwise; the one- and two-particle
marginals read the coefficients of m + u and m + u1 + u2 against the
diagonal occupations m of N - 1 and N - 2 particles in the same way.

The occupations are ranked in colex order by the rank tables of
``qkac.spectra``.

For qubits the state is certified without forming it.  With x_t = A[a, c]
for t = 2a + c, S_n = [x^n] A^{xN}, and by Schur-Weyl duality A^{xN} acts
on the spin block k = 0..N//2 (spin (N - 2k) / 2, m = N - 2k) as
det(A)^k Sym^m(A) (the Dicke/total-spin reduction of Shammah et al.,
Phys. Rev. A 98, 063815 (2018), and Gegg & Richter, New J. Phys. 18,
043037 (2016)).  In the orthonormal basis singlet^{xk} x |Dicke_a>, a the
number of 1s among the m factors, X = sum_n c_n S_n is

    X_k[a, b] = sqrt(C(m, b) / C(m, a)) sum_{j=0..k} (-1)^j C(k, j)
                sum_i C(b, i) C(m - b, a - i) c[n],
    n = (m - a - b + i + k - j, b - i + j, a - i + j, i + k - j),

and the spectrum of X is the union of those of the X_k
(``SymmetricGenerator.blocks``).
"""

from __future__ import annotations

import math
import sys
from collections import deque

import numpy as np

from .collisions import CollisionSpec
from .master import _triples_apply
from .operators import FactorShape
from .spectra import _add_tables, _by_largest_type
from .tolerances import TOL_AXIOM, check_size_guard


class _SpinBlocks:
    """The spin blocks X_k, k = 0..N//2, of a qubit sector state of N
    particles, each with a bound on its forming error.

    The det^k sum is folded one level at a time: g_0 = c, and g_k(p) =
    g_{k-1}(p + D) - g_{k-1}(p + O) on the occupations p of m = N - 2k
    particles, p + D adding one particle of each of the types 00 and 11,
    p + O one of each of 01 and 10.  Each level is held on the cube of
    (p_01, p_10, p_11).  Then X_k[a, b] sums the g_k(p) with (a, b) =
    (p_10 + p_11, p_01 + p_11), weighted by sqrt(C(m, b) / C(m, a))
    C(b, p_11) C(m - b, p_10).  h_k folds |c| the same way with sums; each
    summand passes through at most k + m + 8 roundings, so eps (k + m + 8)
    sum |weight| h_k bounds the error of the block's entries, and with it
    the norm of its error.  Positions, bins and weights depend only on N.
    """

    def __init__(self, n: int):
        binom = np.array([[math.comb(r, s) for s in range(n + 1)] for r in range(n + 1)], float)
        self.m = n - 2 * np.arange(n // 2 + 1)
        self.rounding = np.finfo(float).eps * (np.arange(len(self.m)) + self.m + 8)
        _, x, y, z = _by_largest_type(np.zeros((1, 4), np.intp), 4, n,
                                      lambda part, t: part + (np.arange(4) == t)).T
        self.top = np.ravel_multi_index((x, y, z), (n + 1,) * 3)
        # the occupations of N - 2k particles are the (x, y, z) of N with x + y + z <= N - 2k
        k, src = np.nonzero(np.arange(len(self.m))[:, None] <= (n - x - y - z) // 2)
        x, y, z, m = x[src], y[src], z[src], n - 2 * k
        a, b, side = y + z, x + z, m + 1
        self.w = binom[b, z] * binom[m - b, y] * np.sqrt(binom[m, b] / binom[m, a])
        offset = np.cumsum(np.r_[0, (self.m + 1) ** 2])
        self.at, self.size, self.ends = offset[k] + a * side + b, offset[-1], offset[1:]
        self.starts = np.searchsorted(k, np.arange(len(self.m)))
        self.cells = np.split((x * side + y) * side + z, self.starts[1:])

    def __call__(self, c: np.ndarray) -> list:
        g, h = np.zeros((self.m[0] + 1,) * 3, complex), np.zeros((self.m[0] + 1,) * 3)
        g.flat[self.top], h.flat[self.top] = c, np.abs(c)
        vals, mags = [], []
        for k, cells in enumerate(self.cells):
            if k:   # the cells past the level's simplex hold values never gathered
                g = g[:-2, :-2, 1:-1] - g[1:-1, 1:-1, :-2]
                h = h[:-2, :-2, 1:-1] + h[1:-1, 1:-1, :-2]
            vals.append(g.ravel()[cells])
            mags.append(h.ravel()[cells])
        w, g = self.w, np.concatenate(vals)
        flat = (np.bincount(self.at, w * g.real, self.size)
                + 1j * np.bincount(self.at, w * g.imag, self.size))
        err = self.rounding * np.add.reduceat(w * np.concatenate(mags), self.starts)
        return [(flat[end - (m + 1) ** 2:end].reshape(m + 1, m + 1), e)
                for m, end, e in zip(self.m, self.ends, err)]


class SymmetricGenerator:
    """Q_N on the coefficients c_n of the permutation-invariant operators.

    ``_rows``, ``_cols`` and ``_vals`` hold Q_N as (row, column, value)
    triples, one per entry, ``_into`` and ``_last`` the rank tables of
    ``_add_tables`` for N - 1 and N particles, and ``_diag[k]`` the ranks
    and multinomial weights of the diagonal occupations of N - 2 + k
    particles, k = 0, 1, 2, and ``_spin`` the spin blocks of a qubit
    state (None for d > 2).
    Building it raises a ValueError when Q does not commute with the swap
    of its two factors within ``TOL_AXIOM``, and past N = 1029, where the
    weight C(N, N // 2) overflows a float.
    """

    def __init__(self, spec: CollisionSpec, num_particles: int, force: bool = False):
        if num_particles < 2:
            raise ValueError("need at least two particles")
        d, n = spec.dim, num_particles
        check_size_guard(d, n, force)
        if math.comb(n, n // 2) > sys.float_info.max:
            raise ValueError(f"N = {n} is past 1029: the sector's weights, up to "
                             f"C(N, N // 2), overflow a float")
        residual = spec.pairing_residuals["factor_swap"]
        if residual > TOL_AXIOM:
            raise ValueError(f"spec {spec.name!r} does not commute with the factor swap "
                             f"(residual {residual:.3e}), so its symmetric sector is not exact")
        self.spec, self.num_particles = spec, num_particles
        self._spin = _SpinBlocks(n) if d == 2 else None
        self.shape = FactorShape(n, d)
        self.size = math.comb(n + d * d - 1, n)
        # diagonal occupations level by level; the weight of each counts its orderings
        tables, diag = deque(maxlen=2), deque([(np.zeros(1, np.intp), np.ones(1))], maxlen=3)
        for table in _add_tables(d * d, n):
            ranks, weights = diag[-1]
            found, inverse = np.unique(table[ranks[:, None], np.arange(d) * (d + 1)],
                                       return_inverse=True)
            diag.append((found, np.bincount(inverse.ravel(), np.repeat(weights, d))))
            tables.append(table)
        self._into, self._last = tables
        self._diag = list(diag)
        # each channel nonzero with each occupation m of the other N - 2 factors; a
        # pair entry's digits (a, b, c, f) put E_ac on the first factor, E_bf on the second
        out, src, q = spec.moves
        (v1, v2), (u1, u2) = ((a[:, None] * d + c[:, None], b[:, None] * d + f[:, None])
                              for a, b, c, f in (out, src))
        eye = np.eye(d * d, dtype=np.min_scalar_type(n))
        held = _by_largest_type(np.zeros((1, d * d), eye.dtype), d * d, n - 2,
                                lambda part, t: part + eye[t])
        rest = np.arange(len(held))
        # each term's (row, column); the terms that meet on one are summed once, here
        at, inverse = np.unique((self._last[self._into[rest, v1], v2] * self.size
                                 + self._last[self._into[rest, u1], u2]).ravel(),
                                return_inverse=True)
        self._rows, self._cols = np.divmod(at, self.size)
        # n_{v1} (n_{v2} - delta_{v1 v2}) at n = m + v1 + v2
        vals = ((held[rest, v1] + 1.0 + (v1 == v2)) * (held[rest, v2] + 1.0)
                * (q[:, None] / (n * (n - 1)))).ravel()
        self._vals = (np.bincount(inverse, vals.real, len(at))
                      + 1j * np.bincount(inverse, vals.imag, len(at)))

    def product_state(self, rho: np.ndarray) -> np.ndarray:
        """The coefficients of rho^{xN}, rho a d x d matrix: prod_t rho[t]^{n_t}."""
        rho, shape = np.asarray(rho, dtype=complex), (self.spec.dim,) * 2
        if rho.shape != shape:
            raise ValueError(f"one-particle state has shape {rho.shape}, not {shape}")
        return _by_largest_type(np.ones(1, dtype=complex), rho.size, self.num_particles,
                                lambda part, t: part * rho.flat[t])

    def _check(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.size,):
            raise ValueError(f"operand shape {c.shape} is not the sector's ({self.size},)")
        return c

    def jump(self, c: np.ndarray) -> np.ndarray:
        """Q_N on the coefficients."""
        return _triples_apply(self._rows, self._cols, self._vals, self._check(c), self.size)

    def trace(self, c: np.ndarray) -> float:
        ranks, weights = self._diag[2]
        return float((self._check(c)[ranks] @ weights).real)

    def marginals(self, c: np.ndarray) -> tuple:
        """The one- and two-particle marginals as d x d and d^2 x d^2 matrices."""
        d, n = self.spec.dim, self.num_particles
        c, types = self._check(c), np.arange(d * d)
        last, into = self._last, self._into
        (r2, w2), (r1, w1) = self._diag[0], self._diag[1]
        m1 = c[last[r1, types[:, None]]] @ w1
        m2 = c[last[into[r2, types[:, None, None]], types[:, None]]] @ w2
        return (m1.reshape(d, d),
                m2.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))

    def blocks(self, c: np.ndarray) -> list:
        """Blocks whose spectra together are the state's, each with a bound on
        its forming error: the spin blocks for qubits, else the expanded
        d^N x d^N matrix."""
        c = self._check(c)
        if self._spin is not None:
            return self._spin(c)
        return [(self.expand(c), 0.0)]

    def expand(self, c: np.ndarray) -> np.ndarray:
        """The d^N x d^N matrix of the coefficients: the rank of each entry's
        occupation is read factor by factor, and the last factor is filled one
        type at a time, so no rank array of the full size is formed."""
        d, n = self.spec.dim, self.num_particles
        c, m = self._check(c), n - 1
        rank = np.zeros((1,) * (2 * m), np.intp)
        for k, table in enumerate(_add_tables(d * d, m), 1):
            axes = [1] * (2 * m)
            axes[k - 1] = d
            row = np.arange(d).reshape(axes)
            axes[k - 1], axes[m + k - 1] = 1, d
            rank = table[rank, row * d + np.arange(d).reshape(axes)]
        rank = rank.reshape(d ** m, d ** m)
        out = np.empty((d ** m, d, d ** m, d), dtype=complex)
        for a in range(d):
            for b in range(d):
                out[:, a, :, b] = c[self._last[rank, a * d + b]]
        return out.reshape(self.shape.dim, self.shape.dim)

