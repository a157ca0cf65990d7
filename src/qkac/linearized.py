"""Linearization of the kinetic equation at a strictly positive steady
state, in the Bogoliubov-Kubo-Mori (BKM) geometry.

For a strictly positive reference state the non-commutative
multiplication and division operators are

    [B] A    = int_0^1 B^s A B^{1-s} ds,
    [B]^{-1} A = int_0^infty (s + B)^{-1} A (s + B)^{-1} ds,

mutually inverse, and diagonal in the eigenbasis of B with the
logarithmic-mean multipliers

    L_ij = (b_i - b_j) / (log b_i - log b_j),    L_ii = b_i,

where for b_i, b_j within a factor of 2 the log difference is taken as
log1p((b_i - b_j) / b_j), so close eigenvalues keep their digits.

The BKM inner product is <A, B> = Tr[A^* [rho] B].  Writing a
trace-preserving perturbation as rho = [rho_inf](1 + A), the linearized
evolution operator is

    K A = 2( [rho_inf]^{-1}( rho_inf * ([rho_inf]A) + ([rho_inf]A) * rho_inf ) - A ),

extended to all of operator space by K(1) = 0 (physical perturbations
satisfy <1, A>_BKM = 0, where the raw linearization of the unnormalized
flow differs by the rank-one trace direction along which no dynamics
takes place).  K is BKM self-adjoint and negative semidefinite, its
kernel is the span of the collision invariants, and the spectral gap is
the smallest decay rate orthogonal to that kernel.  In the eigenbasis of
rho_inf the matrix units scaled by 1 / sqrt(L_ij) are BKM-orthonormal, so
there -K is a Hermitian positive semidefinite matrix whose eigenvalues
are the decay rates: the first k are the zeros of the k invariants, and
the gap is the next one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .boltzmann import classify_steady_states, wild
from .collisions import CollisionSpec
from .master import KacGenerator, apply_QN
from .operators import tensor
from .tolerances import TOL_PSD

_GAP_KERNEL_TOL = 1e-8
_STEADY_TOL = 1e-9      # residual of rho * rho = rho accepted by build_K
_AGREE_TOL = 1e-10      # entrywise gap allowed between the two K constructions
_UNIT_CHUNK = 16        # matrix units per application of K: d <= 4 is one chunk


def _log_mean_table(w: np.ndarray) -> np.ndarray:
    """The logarithmic means L_ij of the eigenvalues ``w``."""
    # within a ratio of 2, w_i - w_j is exact and log1p of the relative
    # difference keeps the digits of close eigenvalues; np.where takes
    # log1p of every pair, -inf where w_i / w_j is below eps, unread
    wi, wj = w[:, None], w[None, :]
    close = (wi <= 2 * wj) & (wj <= 2 * wi)
    with np.errstate(divide="ignore"):
        den = np.where(close, np.log1p((wi - wj) / wj), np.log(wi) - np.log(wj))
    table = np.broadcast_to(wj, den.shape).copy()   # den is 0 only where w_i == w_j
    np.divide(wi - wj, den, out=table, where=den != 0)
    return table


@dataclass(frozen=True)
class BKMGeometry:
    """Eigendecomposition of a strictly positive state with the
    logarithmic-mean multiplier table; the state's smallest eigenvalue
    must exceed ``tol_psd``."""

    rho_inf: np.ndarray
    tol_psd: InitVar[float] = TOL_PSD
    eigvals: np.ndarray = field(init=False)
    eigvecs: np.ndarray = field(init=False)
    multipliers: np.ndarray = field(init=False)

    def __post_init__(self, tol_psd):
        rho = np.asarray(self.rho_inf, dtype=complex)
        w, v = np.linalg.eigh(rho)
        if not w.min() > tol_psd:     # NaN compares False, so it fails too
            raise ValueError(
                f"reference state must be strictly positive (min eigenvalue {w.min():.3e})")
        for name, value in (("rho_inf", rho), ("eigvals", w), ("eigvecs", v),
                            ("multipliers", _log_mean_table(w))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.rho_inf.shape[0]


def multiply_super(geo: BKMGeometry, a: np.ndarray) -> np.ndarray:
    """[rho] A via eigenbasis multipliers."""
    v = geo.eigvecs
    return v @ (geo.multipliers * (v.conj().T @ np.asarray(a, dtype=complex) @ v)) @ v.conj().T


def divide_super(geo: BKMGeometry, a: np.ndarray) -> np.ndarray:
    """[rho]^{-1} A, the inverse of multiply_super."""
    v = geo.eigvecs
    return v @ ((v.conj().T @ np.asarray(a, dtype=complex) @ v) / geo.multipliers) @ v.conj().T


def bkm_inner(geo: BKMGeometry, a: np.ndarray, b: np.ndarray) -> complex:
    """<A, B> = Tr[A^* [rho] B]; sesquilinear and positive definite."""
    return complex(np.trace(np.asarray(a, dtype=complex).conj().T
                            @ multiply_super(geo, b)))


def _check_steady(spec: CollisionSpec, geo: BKMGeometry) -> None:
    resid = np.linalg.norm(wild(spec, geo.rho_inf, geo.rho_inf) - geo.rho_inf)
    if resid > _STEADY_TOL:
        raise ValueError(
            f"reference state is not steady for this spec (residual {resid:.3e})")


def _k_apply(spec: CollisionSpec, geo: BKMGeometry, x: np.ndarray) -> np.ndarray:
    """K on each operator of the stack ``x`` of shape (n, d, d)."""
    y = multiply_super(geo, x)
    gain = wild(spec, geo.rho_inf, y) + wild(spec, y, geo.rho_inf)
    # remove the trace direction: K(1) = 0, see module docstring
    trace = np.trace(y, axis1=1, axis2=2)[:, None, None] * np.eye(geo.dim)
    return 2.0 * (divide_super(geo, gain) - x - trace)


def _k_apply_alternate(spec: CollisionSpec, geo: BKMGeometry,
                       x: np.ndarray) -> np.ndarray:
    """Independent construction through the pair channel, on a stack ``x``:

        K A = 2( [rho]^{-1} Tr_2[ [rho x rho] Q(A x 1 + 1 x A) ] - A ),

    minus the same trace direction, Q applied by the N = 2 pair kernel.
    Uses that every collision unitary commutes with rho x rho when rho is steady.
    """
    d = geo.dim
    eye = np.eye(d)
    gen = KacGenerator(spec, 2, force=True)
    # np.kron multiplies the trailing two axes and keeps the stack axis
    big = np.stack([apply_QN(gen, a) for a in tensor(x, eye) + tensor(eye, x)])
    # [rho x rho] through the Kronecker squares of rho's eigenpairs
    w2, v2 = np.kron(geo.eigvals, geo.eigvals), np.kron(geo.eigvecs, geo.eigvecs)
    pair = (v2 @ (_log_mean_table(w2) * (v2.conj().T @ big @ v2)) @ v2.conj().T).reshape(
        len(x), d, d, d, d)
    w = np.einsum("nkrlr->nkl", pair)
    trace = np.trace(multiply_super(geo, x), axis1=1, axis2=2)[:, None, None] * np.eye(d)
    return 2.0 * (divide_super(geo, w) - x - trace)


def build_K(spec: CollisionSpec, geo: BKMGeometry) -> np.ndarray:
    """The linearized operator as its (d^2, d^2) matrix on row-stacked operators,
    cross-checked against the pair-channel construction entrywise."""
    _check_steady(spec, geo)
    d = geo.dim
    # column r * d + c of K is the image of the matrix unit E_rc; the units go
    # a chunk at a time, which bounds the stacks of d^4 pair products and the
    # (units, d^2, d^2) ones of the pair channel
    units = np.eye(d * d).reshape(d * d, d, d)
    mat, mat_alt = (np.concatenate([k(spec, geo, units[i:i + _UNIT_CHUNK])
                                    for i in range(0, d * d, _UNIT_CHUNK)]).reshape(d * d, -1).T
                    for k in (_k_apply, _k_apply_alternate))
    disagree = np.abs(mat - mat_alt).max()
    if disagree > _AGREE_TOL:
        raise ValueError(
            f"the two constructions of the linearized operator disagree ({disagree:.3e})")
    return mat


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def spectral_gap(spec: CollisionSpec, geo: BKMGeometry):
    """Smallest decay rate of -K orthogonal to the collision invariants.

    With V the eigenvectors of rho_inf and U = V (x) conj(V), -K in the
    BKM-orthonormal scaled matrix units is the Hermitian d^2 x d^2 matrix
    M = -diag(sqrt L) U^* K U diag(sqrt L)^{-1}.  K preserves Hermiticity,
    so the eigenvalues of M are exactly the Hermitian-sector decay rates.
    M is positive semidefinite with the k collision invariants in its
    kernel (module docstring), so by Courant-Fischer its smallest
    eigenvalue on their orthogonal complement is its (k+1)-th eigenvalue,
    however large the kernel.  Returns (gap, kernel_dim): gap is that
    eigenvalue, k the dimension of the model's steady-state family, and
    kernel_dim counts the near-zero eigenvalues of M.  Those facts rest on
    the axioms that ``verify_spec`` checks; for a hand-built spec outside
    them the number may differ from the minimum on the complement.  Every
    spec the CLI names obeys them.
    """
    u = np.kron(geo.eigvecs, geo.eigvecs.conj())
    scale = np.sqrt(geo.multipliers).ravel()
    m = -scale[:, None] * (u.conj().T @ build_K(spec, geo) @ u) / scale
    resid = np.abs(m - m.conj().T).max()
    if resid > 1e-9:
        raise ValueError(f"the linearized operator is not BKM self-adjoint ({resid:.3e})")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    k = classify_steady_states(spec.model).dimension
    return float(w[k]), int((np.abs(w) < _GAP_KERNEL_TOL).sum())
