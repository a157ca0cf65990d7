"""Helpers that only the tests call, kept out of the library as oracles
and test fixtures: tensor powers, predicates on matrices, dense factor
permutations and pair embeddings, the shell structure built row by row,
shell projectors, the identity-only spec, the qubit grid nodes by
brute-force merging, the dense channel matrix of a spec, a channel
matrix as a map and its full Choi matrix, the fixed space of a channel
by one dense eigensolve, the closed-form diagonal Wild convolution, the
pair channels and Q_N by tensor contraction with the dense channel, the
dense shell blocks of Q_N with their fixed vectors by ``eigh`` and its
full spectrum, the permutation-covariance residuals, and the dissipation
form and complement-projected spectral gap of the linearized operator.
"""

import math
from types import SimpleNamespace

import numpy as np

from qkac.boltzmann import collision_invariants_basis, wild
from qkac.collisions import CollisionSpec, superoperator_from_nodes
from qkac.linearized import BKMGeometry, build_K, multiply_super
from qkac.master import KacGenerator, apply_pair_channel, apply_QN
from qkac.operators import (FactorShape, _require_hermitian,
                            _validate_permutation, is_hermitian, permute_factors, tensor)
from qkac.spectra import SingleParticleModel, _pair_move_groups, shell_structure
from qkac.tolerances import TOL_FIXED_EIG, TOL_HERM, TOL_PSD

TOL_STEADY = 1e-10      # residual for steady-state checks


class UnsupportedOperationError(RuntimeError):
    """The requested computation is not defined for this object."""


# ---------------------------------------------------------------------------
# predicates, permutations, embeddings, traces and norms (operators)
# ---------------------------------------------------------------------------

def tensor_power(op: np.ndarray, n: int) -> np.ndarray:
    return tensor(*([op] * n))


def is_unitary(a: np.ndarray) -> bool:
    eye = np.eye(a.shape[0])
    return np.abs(a @ a.conj().T - eye).max() <= TOL_HERM


def is_positive_semidefinite(a: np.ndarray) -> bool:
    if not is_hermitian(a, tol=max(TOL_PSD, TOL_HERM)):
        return False
    return np.linalg.eigvalsh(a).min() >= -TOL_PSD


def permutation_unitary(pi, shape: FactorShape) -> np.ndarray:
    """Unitary permuting tensor factors; slot pi(m) receives factor m."""
    n, d = shape.num_factors, shape.factor_dim
    inv = np.argsort(_validate_permutation(pi, n))
    dim = shape.dim
    digits = np.empty((dim, n), dtype=np.int64)
    idx = np.arange(dim)
    for k in range(n - 1, -1, -1):
        digits[:, k] = idx % d
        idx //= d
    # target index of basis vector alpha is (alpha_{pi^{-1}(1)}, ...)
    permuted = digits[:, inv]
    weights = d ** np.arange(n - 1, -1, -1)
    rows = permuted @ weights
    u = np.zeros((dim, dim), dtype=complex)
    u[rows, np.arange(dim)] = 1.0
    return u


def embed_pair(a2: np.ndarray, i: int, j: int, shape: FactorShape) -> np.ndarray:
    """Embed a two-factor operator so it acts on factors (i, j) of N.

    The first factor of ``a2`` lands on slot i, the second on slot j; all
    other slots carry the identity.  Realized by conjugating a2 x 1 with
    the canonical factor permutation.
    """
    n, d = shape.num_factors, shape.factor_dim
    a2 = np.asarray(a2, dtype=complex)
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"factor indices ({i}, {j}) out of range for N={n}")
    if a2.shape != (d * d, d * d):
        raise ValueError(f"pair operator has shape {a2.shape}, expected {(d * d, d * d)}")
    if n == 2 and (i, j) == (0, 1):
        return a2.copy()
    full = tensor(a2, np.eye(d ** (n - 2))) if n > 2 else a2
    rest = [k for k in range(n) if k not in (i, j)]
    pi = [0] * n
    pi[0], pi[1] = i, j
    for slot, target in zip(range(2, n), rest):
        pi[slot] = target
    return permute_factors(full, pi, shape)


def trace_first(rho: np.ndarray, shape: FactorShape, drop: int) -> np.ndarray:
    """Trace out the first ``drop`` factors, returning the trailing marginal."""
    n, d = shape.num_factors, shape.factor_dim
    if not 1 <= drop < n:
        raise ValueError(f"drop={drop} out of range 1..{n - 1}")
    da, db = d ** drop, d ** (n - drop)
    t = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    return np.einsum("rarb->ab", t)


def hermitian_function(a: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function through the eigendecomposition of a Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    _require_hermitian(a, "matrix function")
    w, v = np.linalg.eigh(a)
    return (v * fn(w)) @ v.conj().T


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# occupancy vectors and shell projections (spectra)
# ---------------------------------------------------------------------------

def occupancy(alpha, d: int) -> tuple:
    """Occupancy vector: entry j counts how often level j appears in alpha."""
    m = [0] * d
    for a in alpha:
        m[a] += 1
    return tuple(m)


def row_shell_structure(model: SingleParticleModel, num_factors: int) -> SimpleNamespace:
    """The shell structure built row by row over the flat indices: the
    distinct count rows by ``np.unique``, and the pair-move classes by a
    loop over every occupancy vector and every pair of each pair-energy
    group.  Besides the library's flat view (``shells``, ``labels``,
    ``class_energies``, ``occupancies``) it holds ``digits[k]``, the
    multi-index of flat index k, and ``occupancy_of[k]``, its row among the
    occupancies."""
    d = model.dim
    digits = np.indices((d,) * num_factors).reshape(num_factors, -1).T
    energy = np.asarray(model.energies)[digits].sum(axis=1)
    occs, occ_of = np.unique((digits[:, :, None] == np.arange(d)).sum(axis=1),
                             axis=0, return_inverse=True)
    occ_of = occ_of.ravel()
    occupancies = [tuple(m) for m in occs.tolist()]
    pos = {m: k for k, m in enumerate(occupancies)}
    edges = []
    for m in occupancies:
        for pairs in _pair_move_groups(model.energies).values():
            for (i, j) in pairs:
                rest = list(m)
                rest[i] -= 1
                rest[j] -= 1
                if min(rest) < 0:
                    continue
                for (k, l) in pairs:
                    if (k, l) != (i, j):
                        mm = rest.copy()
                        mm[k] += 1
                        mm[l] += 1
                        edges.append((pos[m], pos[tuple(mm)]))
    src, dst = np.array(edges, dtype=int).reshape(-1, 2).T
    moves = np.arange(len(occupancies))
    while True:
        new = moves.copy()
        np.minimum.at(new, src, moves[dst])
        new = new[new]
        if np.array_equal(new, moves):
            break
        moves = new
    _, first, raw = np.unique(moves[occ_of], return_index=True, return_inverse=True)
    order = np.lexsort((first, energy[first]))
    by_energy = np.argsort(energy, kind="stable")
    es, starts = np.unique(energy[by_energy], return_index=True)
    return SimpleNamespace(digits=digits,
                           shells=tuple(zip(es.tolist(), np.split(by_energy, starts[1:]))),
                           labels=np.argsort(order)[raw],
                           class_energies=energy[first[order]],
                           occupancies=occs,
                           occupancy_of=occ_of)


def shell_projector(model: SingleParticleModel, num_factors: int, E: int,
                    force: bool = False) -> np.ndarray:
    """Orthogonal projection onto the energy-E eigenspace of the free Hamiltonian."""
    idx = dict(shell_structure(model, num_factors, force=force).shells).get(E)
    if idx is None:
        raise ValueError(f"E={E} is not an N-particle energy of this model")
    dim = model.dim ** num_factors
    p = np.zeros((dim, dim), dtype=complex)
    p[idx, idx] = 1.0
    return p


def shell_state(model: SingleParticleModel, num_factors: int, E: int,
                force: bool = False) -> np.ndarray:
    """Normalized shell projection (the microcanonical state at energy E)."""
    p = shell_projector(model, num_factors, E, force=force)
    return p / np.trace(p).real


def accidental_relations(model: SingleParticleModel, num_factors: int,
                         force: bool = False) -> list:
    """Shells whose energy is realized by more than one occupancy vector.

    For integer spectra standing in for rationally independent ones, an
    empty result certifies that at this particle number every shell is a
    single permutation orbit, so no unintended degeneracies occur.
    """
    occs = shell_structure(model, num_factors, force=force).occupancies
    by_energy = {}
    for E, m in zip((occs @ np.asarray(model.energies)).tolist(), occs.tolist()):
        by_energy.setdefault(E, []).append(tuple(m))
    return sorted((E, ms) for E, ms in by_energy.items() if len(ms) > 1)


# ---------------------------------------------------------------------------
# the identity-only spec and the dense fixed space of a channel (collisions)
# ---------------------------------------------------------------------------

def identity_spec(model: SingleParticleModel) -> CollisionSpec:
    """Degenerate specification containing only the trivial collision."""
    d = model.dim
    nodes = np.ones(1), np.eye(d * d, dtype=complex)[None]
    return CollisionSpec(model, "identity_only", superoperator_from_nodes(nodes), nodes)


def merged_qubit_grid_nodes(points: int, tilted: bool):
    """The qubit grid nodes by brute force: every grid unitary of the
    four-torus family is formed, and the ones that agree to 9 decimals are
    folded into the first, their weights summed in grid order; heaviest
    first, classes of equal weight in grid order."""
    angles = 2.0 * np.pi * np.arange(points) / points
    if tilted:
        w1 = (1.0 + np.cos(angles)) / points
    else:
        w1 = np.full(points, 1.0 / points)
    phi, theta, psi, eta = [g.reshape(-1) for g in np.meshgrid(
        angles, angles, angles, angles, indexing="ij")]
    wgrid = (w1[:, None, None, None] * w1[None, :, None, None]
             * w1[None, None, :, None] * w1[None, None, None, :]).reshape(-1)
    keep = wgrid > 1e-15
    phi, theta, psi, eta, wgrid = (a[keep] for a in (phi, theta, psi, eta, wgrid))
    wgrid = wgrid / wgrid.sum()
    c, s = np.cos(theta), np.sin(theta)
    u = np.zeros((wgrid.size, 4, 4), dtype=complex)
    u[:, 0, 0] = np.exp(1j * eta)
    u[:, 1, 1] = np.exp(1j * psi) * c
    u[:, 1, 2] = -np.exp(1j * phi) * s
    u[:, 2, 1] = np.exp(-1j * phi) * s
    u[:, 2, 2] = np.exp(-1j * psi) * c
    u[:, 3, 3] = 1.0
    # the family is written with the first factor varying fastest;
    # re-index into the package ordering
    perm = np.array([0, 2, 1, 3])
    u = u[:, perm][:, :, perm]
    first = {}
    keys = np.round(u, 9) + 0.0     # fold -0.0 into +0.0
    reps, cls = np.unique([first.setdefault(key.tobytes(), k) for k, key in enumerate(keys)],
                          return_inverse=True)
    merged = np.bincount(cls, weights=wgrid)
    order = np.argsort(-merged, kind="stable")
    return merged[order], u[reps[order]]


def dense_channel(spec: CollisionSpec) -> np.ndarray:
    """The (d^4, d^4) channel matrix of ``spec``, formed densely: for a
    sampled spec the weighted average of kron(U, conj(U)) over all its
    nodes, independent of the library's nonzeros; for a closed form its
    nonzeros set into a zero matrix."""
    size = spec.dim ** 4
    if spec.nodes is not None:
        ws, us = spec.nodes[0], spec.nodes[1].astype(complex)
        return np.einsum("m,mik,mjl->ijkl", ws, us, us.conj(), optimize=True).reshape(size, size)
    rows, cols, values = spec.channel
    q = np.zeros((size, size), dtype=complex)
    q[rows, cols] = values
    return q


def nonzeros(q: np.ndarray) -> tuple:
    """A (d^4, d^4) channel matrix as the spec channel ``(rows, cols, values)``."""
    rows, cols = np.nonzero(q)
    return rows, cols, q[rows, cols]


def as_map(q: np.ndarray):
    """The channel matrix ``q`` on row-stacked operators as a function of
    the operator."""
    return lambda a: (q @ np.asarray(a, dtype=complex).reshape(-1)).reshape(np.shape(a))


def choi(q: np.ndarray) -> np.ndarray:
    """The full Choi matrix J[(i,k),(j,l)] = image(E_ij)[k,l] of the channel
    matrix ``q``; PSD iff the channel is completely positive."""
    n = math.isqrt(len(q))
    return q.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


def fixed_space_of_Q(q: np.ndarray) -> list:
    """Orthonormal basis (Hilbert-Schmidt) of the eigenvalue-1 eigenspace of
    the channel matrix ``q``, by one dense eigensolve.  A matrix unit whose
    row and column of the channel are zero is an eigenvector of eigenvalue
    0, so only the other units enter the eigensolve."""
    dim = math.isqrt(len(q))
    nonzero = q != 0
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    m = q[np.ix_(live, live)]     # the rest of the channel is zero
    asym = np.abs(m - m.conj().T).max(initial=0.0)
    if asym > 1e-8 * max(1.0, np.abs(m).max(initial=0.0)):
        raise ValueError(f"channel is not HS self-adjoint (residual {asym:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    out = []
    for k in np.where(np.abs(w - 1.0) <= TOL_FIXED_EIG)[0]:
        f = np.zeros(len(q), dtype=complex)
        f[live] = v[:, k]
        out.append(f.reshape(dim, dim))
    return out


# ---------------------------------------------------------------------------
# closed-form Wild convolution and the steady-state check (boltzmann)
# ---------------------------------------------------------------------------

def wild_diagonal(model: SingleParticleModel, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Closed form of the Wild convolution when the channel is the exact
    conditional expectation onto the pair energy algebra:

        A * B = sum_{i,k} A_ii B_kk Tr_2[sigma_{e_i + e_k}].

    Only the diagonals of A and B enter.  Tr_2[sigma_E] gives level l the
    share of the shell's pairs whose first level is l, which also covers
    degenerate single-particle spectra (the count of partners of a level
    inside a shell is weighted by multiplicity).
    """
    st = shell_structure(model, 2)
    coeff = np.outer(np.diagonal(a), np.diagonal(b)).ravel()
    out = np.zeros(model.dim, dtype=complex)
    for _, idx in st.shells:
        share = np.bincount(idx // model.dim, minlength=model.dim) / len(idx)
        out += coeff[idx].sum() * share
    return np.diag(out)


def is_steady(spec: CollisionSpec, rho: np.ndarray,
              tol: float = TOL_STEADY) -> bool:
    """Check rho * rho = rho directly (valid also for boundary states)."""
    rho = np.asarray(rho, dtype=complex)
    return np.linalg.norm(wild(spec, rho, rho) - rho) <= tol


# ---------------------------------------------------------------------------
# spectrum and permutation covariance of Q_N (master)
# ---------------------------------------------------------------------------

def _tensordot_pair(q: np.ndarray, rho: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """The (d^4, d^4) channel matrix ``q`` on factors (i, j) of a d^N x d^N
    operator, or of each of a stack of them: the dense (d,) * 8 channel is
    contracted with the operand's axes (i, j, N+i, N+j), and the image axes
    are moved back."""
    d = math.isqrt(math.isqrt(len(q)))
    rho = np.asarray(rho, dtype=complex)
    axes = [1 + i, 1 + j, 1 + n + i, 1 + n + j]
    y = np.tensordot(q.reshape((d,) * 8), rho.reshape((-1,) + (d,) * (2 * n)),
                     axes=([4, 5, 6, 7], axes))
    return np.moveaxis(y, [0, 1, 2, 3], axes).reshape(rho.shape)


def tensordot_pair_channel(spec: CollisionSpec, rho: np.ndarray, n: int, i: int,
                           j: int) -> np.ndarray:
    """Q_{i,j} by contraction with ``dense_channel(spec)``."""
    return _tensordot_pair(dense_channel(spec), rho, n, i, j)


def tensordot_QN(spec: CollisionSpec, rho: np.ndarray, n: int) -> np.ndarray:
    """Q_N, the average of the pair channels over i < j, by contraction."""
    q = dense_channel(spec)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(_tensordot_pair(q, rho, n, i, j) for i, j in pairs) / len(pairs)


def _shell_block(gen: KacGenerator, rows, cols) -> np.ndarray:
    """Dense matrix of Q_N on the operators supported on rows x cols,
    ordered row-major over the block: ``tensordot_QN`` on every matrix unit
    of the block at once, each image read on the block."""
    dim, size = gen.shape.dim, len(rows) * len(cols)
    units = np.zeros((size, dim, dim), dtype=complex)
    units[np.arange(size), np.repeat(rows, len(cols)), np.tile(cols, len(rows))] = 1.0
    images = tensordot_QN(gen.spec, units, gen.num_particles)
    return images[:, rows][:, :, cols].reshape(size, size).T


def dense_block_fixed_vectors(gen: KacGenerator, rows, cols, tol=TOL_FIXED_EIG) -> np.ndarray:
    """Eigenvalue-1 eigenvectors of the dense block, one per row, by ``eigh``."""
    w, v = np.linalg.eigh(_shell_block(gen, rows, cols))
    return v[:, np.abs(w - 1.0) <= tol].T


def qn_spectrum(gen: KacGenerator) -> np.ndarray:
    """All eigenvalues of Q_N on the operator space, via the shell blocks."""
    shells = shell_structure(gen.spec.model, gen.num_particles, force=gen.force).shells
    eigs = [np.linalg.eigvalsh(_shell_block(gen, rows, cols))
            for _, rows in shells for _, cols in shells]
    return np.sort(np.concatenate(eigs))


def permutation_covariance_check(gen: KacGenerator, rho: np.ndarray, pi,
                                 rng: np.random.Generator | None = None) -> dict:
    """Residuals of the permutation-covariance identities.

    * ``symmetric_state``: || Q_N(U_pi rho U_pi^*) - Q_N rho || for the
      given (expected symmetric) state.
    * ``pair_relabel``: || U_pi (Q_{i,j} A) U_pi^* - Q_{pi(i),pi(j)}(U_pi A U_pi^*) ||
      on a random A, maximized over all pairs (i, j); conjugating by U_pi
      relabels the colliding pair.
    """
    rho = np.asarray(rho, dtype=complex)
    pi = list(pi)
    out = {}
    lhs = apply_QN(gen, permute_factors(rho, pi, gen.shape))
    out["symmetric_state"] = float(np.abs(lhs - apply_QN(gen, rho)).max())
    rng = rng or np.random.default_rng(0)
    dim = gen.shape.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    worst = 0.0
    for (i, j) in gen.pairs:
        left = permute_factors(apply_pair_channel(gen, a, i, j), pi, gen.shape)
        pi_i, pi_j = min(pi[i], pi[j]), max(pi[i], pi[j])
        right = apply_pair_channel(gen, permute_factors(a, pi, gen.shape), pi_i, pi_j)
        worst = max(worst, float(np.abs(left - right).max()))
    out["pair_relabel"] = worst
    return out


# ---------------------------------------------------------------------------
# dissipation form and spectral gap of the linearized operator (linearized)
# ---------------------------------------------------------------------------

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
    pair_geo = BKMGeometry(tensor(geo.rho_inf, geo.rho_inf), tol_psd=0.0)   # its own eigh
    asharp = tensor(a, eye) + tensor(eye, a)
    bsharp = tensor(b, eye) + tensor(eye, b)
    total = 0.0 + 0.0j
    for w, u in zip(*spec.nodes):
        da = asharp - u @ asharp @ u.conj().T
        db = bsharp - u @ bsharp @ u.conj().T
        total += w * np.trace(db.conj().T @ multiply_super(pair_geo, da))
    return complex(-0.5 * total)


def complement_gap(spec: CollisionSpec, geo: BKMGeometry) -> float:
    """The smallest eigenvalue of the matrix M of ``spectral_gap`` on the
    orthogonal complement of the scaled coordinates of the collision
    invariants, spanned by right singular vectors of those coordinates; it
    does not depend on which orthonormal basis of the complement is taken."""
    u = np.kron(geo.eigvecs, geo.eigvecs.conj())
    scale = np.sqrt(geo.multipliers).ravel()
    m = -scale[:, None] * (u.conj().T @ build_K(spec, geo) @ u) / scale
    m = (m + m.conj().T) / 2
    invariants = np.stack(collision_invariants_basis(spec.model))
    # row a is diag(sqrt L) U^* vec(invariant a); the complement is the null
    # space of the conjugate rows: the right singular vectors past their rank,
    # counted as scipy.linalg.null_space counts it
    coords = scale * (invariants.reshape(len(invariants), -1) @ u.conj())
    _, s, vh = np.linalg.svd(coords.conj())
    rank = int((s > s.max() * np.finfo(float).eps * max(coords.shape)).sum())
    comp = vh[rank:].conj().T
    return float(np.linalg.eigvalsh(comp.conj().T @ m @ comp).min())
