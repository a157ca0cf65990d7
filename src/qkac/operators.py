"""Dense complex-operator kernel: tensor products, factor permutations,
partial traces, entropies, and norms.

Conventions
-----------
Tensor indexing is lexicographic with the FIRST factor most significant:
the product basis vector e_{a_1} x ... x e_{a_N} has flat index
a_1 d^{N-1} + ... + a_N.  With this ordering ``tensor(A, B)`` equals
``np.kron(A, B)`` and has block structure A[i, j] * B.

Factor permutations use the homomorphism convention:
``permute_factors(a, pi)`` is the conjugation U_pi a U_pi^* by the
unitary U_pi that maps the basis vector indexed by (a_1, ..., a_N) to
the one indexed by (a_{pi^{-1}(1)}, ..., a_{pi^{-1}(N)}).  Consequently
U_{pi o rho} = U_pi U_rho, so permuting by rho and then by pi equals
permuting by pi o rho, and a product operator has the content of slot m
moved to slot pi(m):

    U_pi (A_1 x ... x A_N) U_pi^* = B_1 x ... x B_N,  B_{pi(m)} = A_m.

Some published treatments index the conjugation identity with pi instead
of pi^{-1}; transpositions (the only case we need verbatim) agree in both
conventions, and the composition law above is what this module guarantees.

All operations are pure; arrays are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL_HERM, TOL_PSD, TOL_TRACE


@dataclass(frozen=True)
class FactorShape:
    """Shape of an N-fold tensor power: N factors of dimension d each."""

    num_factors: int
    factor_dim: int

    def __post_init__(self):
        if self.num_factors < 1:
            raise ValueError("need at least one tensor factor")
        if self.factor_dim < 2:
            raise ValueError("factor dimension must be at least 2")

    @property
    def dim(self) -> int:
        return self.factor_dim ** self.num_factors


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, first factor most significant."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


# ---------------------------------------------------------------------------
# predicates and validation
# ---------------------------------------------------------------------------

def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    return np.abs(a - a.conj().T).max() <= tol


def validate_density_matrix(rho: np.ndarray, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Return ``rho`` as a complex array, raising if it is not a valid state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > TOL_HERM:
        raise ValueError(f"state is not Hermitian (residual {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"state trace is {tr}, not 1")
    lo = _negative_eigenvalue(rho, tol_psd)
    if lo is not None:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


def _negative_eigenvalue(a: np.ndarray, tol: float, err: float = 0.0) -> float | None:
    """The smallest eigenvalue of the Hermitian part of ``a`` if it is below
    -tol, else None; NaN if ``a`` has a non-finite entry, which no
    factorization or eigensolve can certify.

    A Cholesky factorization of the Hermitian part plus (tol - delta) I is
    tried first; when it succeeds, the smallest eigenvalue is at least
    -tol and nothing is diagonalized.  delta bounds the factorization's
    backward error: a computed factor R of h + s I has R^* R = h + s I + E
    with ||E|| <= gamma_{n+1} Tr R^* R (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 10.5), here taken four times over for
    complex arithmetic.  ``err`` bounds the norm of the error with which
    ``a`` itself was formed and joins delta.  Only when the factorization
    fails does ``eigvalsh`` decide, so every rejection reports the
    eigenvalue.
    """
    if not np.isfinite(a).all():
        return float("nan")
    n = a.shape[0]
    herm = np.conjugate(a).T
    herm += a
    herm /= 2
    delta = 2 * (n + 1) * np.finfo(float).eps * max(np.trace(herm).real + n * tol, 0.0) + err
    herm[np.diag_indices(n)] += tol - delta
    try:
        np.linalg.cholesky(herm)
        return None
    except np.linalg.LinAlgError:
        pass
    lo = np.linalg.eigvalsh((a + a.conj().T) / 2).min()
    return float(lo) if lo < -tol else None


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from the Hilbert-Schmidt ensemble, exactly
    Hermitian (the product g g^* is not, to rounding)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho += rho.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# factor permutations
# ---------------------------------------------------------------------------

def _validate_permutation(pi, n: int) -> list:
    pi = list(pi)
    if sorted(pi) != list(range(n)):
        raise ValueError(f"{pi} is not a permutation of 0..{n - 1}")
    return pi


def permute_factors(a: np.ndarray, pi, shape: FactorShape) -> np.ndarray:
    """Conjugation U_pi a U_pi^* computed by axis transposition (no matmul)."""
    n, d = shape.num_factors, shape.factor_dim
    inv = np.argsort(_validate_permutation(pi, n))
    t = np.asarray(a, dtype=complex).reshape((d,) * (2 * n))
    return t.transpose(np.r_[inv, n + inv]).reshape(shape.dim, shape.dim)


def swap_unitary(d: int) -> np.ndarray:
    """Two-factor swap: (phi x psi) -> (psi x phi), the identity with the
    two digits of its row index exchanged."""
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d * d)
    return eye.transpose(1, 0, 2).reshape(d * d, d * d)


def reorder_pair_basis(m: np.ndarray) -> np.ndarray:
    """Re-index a two-factor operator between the two tensor orderings.

    Converts a matrix written with the SECOND factor most significant
    (basis order |00>, |10>, |01>, ... for d = 2) into this package's
    first-factor-most-significant ordering.  The map is an involution.
    """
    m = np.asarray(m, dtype=complex)
    d = round(m.shape[0] ** 0.5)
    if m.shape != (d * d, d * d):
        raise ValueError(f"two-factor operator must be d^2 x d^2, got shape {m.shape}")
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return m[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# partial traces
# ---------------------------------------------------------------------------

def partial_trace(rho: np.ndarray, shape: FactorShape, keep: int) -> np.ndarray:
    """Trace out the last N - keep factors, returning the leading marginal."""
    n, d = shape.num_factors, shape.factor_dim
    if not 1 <= keep <= n:
        raise ValueError(f"keep={keep} out of range 1..{n}")
    if keep == n:
        return np.asarray(rho, dtype=complex).copy()
    da, db = d ** keep, d ** (n - keep)
    t = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    return np.einsum("arbr->ab", t)


# ---------------------------------------------------------------------------
# Hermitian matrix functions, entropies, norms
# ---------------------------------------------------------------------------

def _require_hermitian(a: np.ndarray, what: str) -> None:
    herm = np.abs(a - a.conj().T).max()
    if herm > TOL_HERM:
        raise ValueError(f"{what} requires Hermitian input (residual {herm:.3e})")


def _spectral_entropy(w: np.ndarray, tol_psd: float) -> float:
    """Entropy -sum w log w of a state with eigenvalues ``w``, with
    0 log 0 := 0; raises on an eigenvalue below -tol_psd."""
    if w.min() < -tol_psd:
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    w = w[w > tol_psd]
    # 0.0 - x, not -x: a pure state's sum is 0.0, which -x would make -0.0
    return 0.0 - float((w * np.log(w)).sum())


def von_neumann_entropy(rho: np.ndarray, tol_psd: float = TOL_PSD) -> float:
    """Entropy -Tr[rho log rho] in nats, with 0 log 0 := 0."""
    return _spectral_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)), tol_psd)


def entropy_and_relative_entropy(w: np.ndarray, rho_diag: np.ndarray,
                                 sigma_diag: np.ndarray,
                                 tol_psd: float = TOL_PSD) -> tuple[float, float]:
    """Entropy S(rho) and relative entropy S(rho || sigma) of a state rho to
    a state sigma that is diagonal in rho's basis.

    ``w`` are the eigenvalues of rho, ``rho_diag`` and ``sigma_diag`` the
    (real) diagonals of rho and sigma.  For a diagonal sigma,
    Tr[rho log sigma] = sum_i rho_ii log sigma_ii, so once w is known this
    costs O(dim) and sigma is never diagonalized.  The relative entropy is
    ``inf`` when rho carries more than tol_psd weight where sigma_ii <=
    tol_psd (the support of a diagonal sigma).
    """
    entropy = _spectral_entropy(w, tol_psd)
    inside = sigma_diag > tol_psd
    if rho_diag[~inside].sum() > tol_psd:
        return entropy, float("inf")
    return entropy, 0.0 - entropy - float(rho_diag[inside] @ np.log(sigma_diag[inside]))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray,
                     tol_psd: float = TOL_PSD) -> float:
    """Umegaki relative entropy Tr[rho (log rho - log sigma)], by
    ``entropy_and_relative_entropy`` in the eigenbasis of sigma: ``inf`` when
    rho carries weight outside the support of sigma (support decided at
    tol_psd), and a ValueError on an eigenvalue of rho below -tol_psd."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    ws, vs = np.linalg.eigh(sigma)
    rho_diag = np.einsum("ij,ji->i", vs.conj().T, rho @ vs).real
    return entropy_and_relative_entropy(np.linalg.eigvalsh(rho), rho_diag, ws, tol_psd)[1]


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of its |eigenvalues|."""
    a = np.asarray(a, dtype=complex)
    _require_hermitian(a, "trace norm")
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a
