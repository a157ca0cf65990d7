"""Linearization of the kinetic equation at a strictly positive steady
state, in the Bogoliubov-Kubo-Mori (BKM) geometry.

For a strictly positive reference state the non-commutative
multiplication and division operators are

    [B] A    = int_0^1 B^s A B^{1-s} ds,
    [B]^{-1} A = int_0^infty (s + B)^{-1} A (s + B)^{-1} ds,

mutually inverse, and diagonal in the eigenbasis of B with the
logarithmic-mean multipliers

    L_ij = (b_i - b_j) / (log b_i - log b_j),    L_ii = b_i.

The BKM inner product is <A, B> = Tr[A^* [rho] B].  Writing a
trace-preserving perturbation as rho = [rho_inf](1 + A), the linearized
evolution operator is

    K A = 2( [rho_inf]^{-1}( rho_inf * ([rho_inf]A) + ([rho_inf]A) * rho_inf ) - A ),

extended to all of operator space by K(1) = 0 (physical perturbations
satisfy <1, A>_BKM = 0, where the raw linearization of the unnormalized
flow differs by the rank-one trace direction along which no dynamics
takes place).  K is BKM self-adjoint and negative semidefinite, its
kernel is the span of the collision invariants, and the spectral gap is
the smallest decay rate orthogonal to that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .boltzmann import collision_invariants_basis, wild
from .collisions import CollisionSpec, Superoperator
from .errors import UnsupportedOperationError
from .operators import tensor
from .tolerances import TOL_PSD

_GAP_KERNEL_TOL = 1e-8
_STEADY_TOL = 1e-9      # residual of rho * rho = rho accepted by build_K
_AGREE_TOL = 1e-10      # entrywise gap allowed between the two K constructions


@dataclass(frozen=True)
class BKMGeometry:
    """Eigendecomposition of a strictly positive state with the
    logarithmic-mean multiplier table."""

    rho_inf: np.ndarray
    eigvals: np.ndarray = field(init=False)
    eigvecs: np.ndarray = field(init=False)
    multipliers: np.ndarray = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.rho_inf, dtype=complex)
        w, v = np.linalg.eigh(rho)
        if w.min() <= TOL_PSD:
            raise ValueError(
                f"reference state must be strictly positive (min eigenvalue {w.min():.3e})")
        logw = np.log(w)
        num = w[:, None] - w[None, :]
        den = logw[:, None] - logw[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            table = num / den
        same = np.isclose(den, 0.0, atol=1e-14)
        table[same] = ((w[:, None] + w[None, :]) / 2)[same]
        object.__setattr__(self, "rho_inf", rho)
        object.__setattr__(self, "eigvals", w)
        object.__setattr__(self, "eigvecs", v)
        object.__setattr__(self, "multipliers", table)

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


def _pair_geometry(geo: BKMGeometry) -> BKMGeometry:
    return BKMGeometry(tensor(geo.rho_inf, geo.rho_inf))


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

    minus the same trace direction.  Uses that every collision unitary
    commutes with rho x rho when rho is steady.
    """
    d = geo.dim
    eye = np.eye(d)
    # np.kron multiplies the trailing two axes and keeps the stack axis
    sharp = (tensor(x, eye) + tensor(eye, x)).reshape(len(x), -1)
    big = (sharp @ spec.channel.mat.T).reshape(len(x), d * d, d * d)
    pair = multiply_super(_pair_geometry(geo), big).reshape(len(x), d, d, d, d)
    w = np.einsum("nkrlr->nkl", pair)
    trace = np.trace(multiply_super(geo, x), axis1=1, axis2=2)[:, None, None] * np.eye(d)
    return 2.0 * (divide_super(geo, w) - x - trace)


def build_K(spec: CollisionSpec, geo: BKMGeometry) -> Superoperator:
    """Assemble the linearized operator, cross-checked against the
    pair-channel construction entrywise."""
    _check_steady(spec, geo)
    d = geo.dim
    # column r * d + c of K is the image of the matrix unit E_rc
    units = np.eye(d * d).reshape(d * d, d, d)
    mat = _k_apply(spec, geo, units).reshape(d * d, d * d).T
    mat_alt = _k_apply_alternate(spec, geo, units).reshape(d * d, d * d).T
    disagree = np.abs(mat - mat_alt).max()
    if disagree > _AGREE_TOL:
        raise ValueError(
            f"the two constructions of the linearized operator disagree ({disagree:.3e})")
    return Superoperator(mat, d)


def dirichlet_form(spec: CollisionSpec, geo: BKMGeometry, a: np.ndarray,
                   b: np.ndarray) -> complex:
    """Symmetrized dissipation form, equal to <B, K A>_BKM:

        -1/2 sum_k w_k Tr[ (B# - U_k B# U_k^*)^* [rho x rho] (A# - U_k A# U_k^*) ],

    where X# = X x 1 + 1 x X.  The prefactor carries the factor 2 of the
    evolution d rho/dt = 2(rho * rho - rho); without it the form would be
    the dissipation of the half-speed flow.  Needs an explicit node
    family; closed-form specs without one are unsupported.
    """
    if spec.nodes is None:
        raise UnsupportedOperationError(
            f"spec '{spec.name}' carries no node family; the dissipation form "
            "needs individual collision unitaries")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = geo.dim
    eye = np.eye(d)
    pair_geo = _pair_geometry(geo)
    asharp = tensor(a, eye) + tensor(eye, a)
    bsharp = tensor(b, eye) + tensor(eye, b)
    total = 0.0 + 0.0j
    for w, u in spec.nodes:
        da = asharp - u @ asharp @ u.conj().T
        db = bsharp - u @ bsharp @ u.conj().T
        total += w * np.trace(db.conj().T @ multiply_super(pair_geo, da))
    return complex(-0.5 * total)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) real basis of Hermitian d x d matrices,
    stacked: the diagonal units, then a real and an imaginary pair per i < j."""
    r = 1.0 / np.sqrt(2.0)
    i, j = np.triu_indices(d, 1)
    k = d + 2 * np.arange(i.size)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    basis[k, i, j] = basis[k, j, i] = r
    basis[k + 1, i, j], basis[k + 1, j, i] = -1j * r, 1j * r
    return basis


def spectral_gap(spec: CollisionSpec, geo: BKMGeometry,
                 k_op: Superoperator | None = None):
    """Smallest decay rate of -K orthogonal to the collision invariants.

    Solves the real symmetric generalized eigenproblem for -K in the BKM
    metric on the Hermitian sector, restricted to the BKM-orthogonal
    complement of the collision-invariant span.  Returns (gap, kernel_dim)
    where kernel_dim counts the near-zero rates of the unrestricted
    problem.
    """
    if k_op is None:
        k_op = build_K(spec, geo)
    d = geo.dim
    basis = _hermitian_basis(d)
    nb = len(basis)
    images = (basis.reshape(nb, -1) @ k_op.mat.T).reshape(nb, d, d)
    # entries are the BKM inner products <basis[p], images[q]> and <basis[p], basis[q]>
    kmat = np.einsum("pij,qij->pq", basis.conj(), multiply_super(geo, images))
    gram = np.einsum("pij,qij->pq", basis.conj(), multiply_super(geo, basis))
    if max(np.abs(kmat.imag).max(), np.abs(gram.imag).max()) > 1e-9:
        raise ValueError("the Hermitian-sector forms must be real")
    kmat = (kmat.real + kmat.real.T) / 2
    gram = (gram.real + gram.real.T) / 2
    if np.linalg.eigvalsh(gram).min() <= 1e-12:
        raise ValueError("degenerate BKM Gram matrix")
    rates = scipy.linalg.eigh(-kmat, gram, eigvals_only=True)
    kernel_dim = int((np.abs(rates) < _GAP_KERNEL_TOL).sum())
    invariants = np.stack(collision_invariants_basis(spec.model))
    coords = np.einsum("aij,pij->ap", invariants, basis.conj()).real
    # complement of the invariants in the BKM metric: null space of coords @ gram
    comp = scipy.linalg.null_space(coords @ gram)
    ksub = comp.T @ kmat @ comp
    gsub = comp.T @ gram @ comp
    gap = float(scipy.linalg.eigh(-ksub, gsub, eigvals_only=True).min())
    return gap, kernel_dim
