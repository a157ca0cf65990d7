"""Collision specifications and the two-particle collision channel.

A collision specification pairs a single-particle model with a
probability measure on two-particle unitaries that conserve the pair
energy, and holds its average Q(A) = E[U A U^*] as the nonzeros of its
(d^4, d^4) matrix on row-stacked pair operators: vec(A) = A.reshape(-1),
and conjugation by U has matrix kron(U, conj(U)).  A sampled spec also
holds the finite measure, its nodes, as weights (m,) and unitaries
(m, d^2, d^2), heaviest first.  Their axioms: every node commutes with
the pair Hamiltonian; some node is the identity; the weighted node set is
closed under adjoints and under conjugation by the factor swap.  A
closed-form spec has no nodes (its channel may average a continuum).

The two built-in qubit families live on the four-torus of angles
(phi, theta, psi, eta) with the block-diagonal unitary (written in the
basis ordering where the first factor varies fastest, i.e. |00>, |10>,
|01>, |11>):

    [[e^{i eta},      0,                   0,              0],
     [0,              e^{i psi} cos(theta), -e^{i phi} sin(theta), 0],
     [0,              e^{-i phi} sin(theta), e^{-i psi} cos(theta), 0],
     [0,              0,                   0,              1]]

This family commutes with the pair Hamiltonian, contains the identity
(all angles zero), and is closed under adjoint (phi, -theta, -psi, -eta)
and swap conjugation (-phi, -theta, -psi, eta), both of which preserve
the product measures used below.  Averaged against the uniform measure
the channel pins the operator to the energy algebra; against the tilted
measure with per-angle density (1 + cos x)/(2 pi) the channel keeps
damped off-diagonal terms with factors 1/8, 1/4, 1/2.

Every matrix entry of U A U^* is a trigonometric polynomial of degree at
most two per angle, so an equispaced n-point product grid (trapezoid rule
on the torus, exact through degree n - 1) reproduces the continuum
average exactly for n >= 4 even after weighting by 1 + cos x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import swap_unitary, tensor
from .spectra import SingleParticleModel
from .tolerances import TOL_AXIOM


_NODE_BLOCK = 1 << 14   # nodes stacked at once by superoperator_from_nodes


def _channel(rows, cols, values):
    """The channel ``(rows, cols, values)`` of the nonzero ``values``, in row-major order."""
    rows, cols, values = (np.ravel(a) for a in (rows, cols, values))
    keep = np.flatnonzero(values)
    order = keep[np.lexsort((cols[keep], rows[keep]))]
    return rows[order], cols[order], values[order]


def superoperator_from_nodes(nodes) -> tuple:
    """The channel of the nodes ``(weights, unitaries)``, their weighted average of
    conjugations Q[(i, j), (k, l)] = sum_m w_m U_m[i, k] conj(U_m[j, l]) summed over
    blocks of ``_NODE_BLOCK`` nodes, formed only where some node uses (i, k) and (j, l)."""
    ws, us = nodes
    n = us.shape[1]
    live = np.flatnonzero((us != 0).any(axis=0))     # entry (i, k) at i * n + k
    q = 0
    for a in range(0, len(ws), _NODE_BLOCK):
        u = us[a:a + _NODE_BLOCK].reshape(-1, n * n)[:, live].astype(complex, copy=False)
        q = q + np.einsum("m,ma,mb->ab", ws[a:a + _NODE_BLOCK], u, u.conj(), optimize=True)
    i, k = np.divmod(live, n)
    return _channel(np.add.outer(i * n, i), np.add.outer(k * n, k), q)


@dataclass(frozen=True)
class CollisionSpec:
    """Model, name, the channel as the nonzeros ``(rows, cols, values)`` of
    its (d^4, d^4) matrix, each once in row-major order, and, for a sampled
    spec, the nodes ``(weights, unitaries)`` of shapes (m,) and (m, d^2, d^2)
    that it averages; ``nodes`` is None for a closed-form channel.  Other
    modules read only its cached ``moves``, ``pairing_residuals`` and ``wild_matrix``."""

    model: SingleParticleModel
    name: str
    channel: tuple
    nodes: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.model.dim

    @cached_property
    def moves(self) -> tuple:
        """The channel as (row digits, column digits, values): the digits
        (a, b, c, f) of each index, its pair operator |a b><c f|, as a (4, nnz) array."""
        d, (rows, cols, q) = self.dim, self.channel
        return (*(np.array(np.unravel_index(x, (d,) * 4)) for x in (rows, cols)), q)

    @cached_property
    def pairing_residuals(self) -> dict:
        """max |Q[r, c] - Q'[partner of (r, c)]| over the nonzeros, a partner not
        held counting as 0, for ``hermiticity_preserving``: each index's
        |a b><c f| to |c f><a b|, Q' = conj(Q); ``hs_self_adjoint``: (c, r),
        Q' = conj(Q); ``factor_swap``: each |a b><c f| to |b a><f c|, Q' = Q.
        Each pairing is an involution, so the nonzeros meet every mismatch.
        And ``pair_energy``: the largest |Q| of a nonzero that moves
        |a b><c f| to an operator of another row or column pair energy
        e_a + e_b or e_c + e_f, summed exactly as integers."""
        d, (rows, cols, q), (out, src, _) = self.dim, self.channel, self.moves
        e = np.array(self.model.energies, dtype=object)
        table = dict(zip(zip(rows.tolist(), cols.tolist()), q.tolist()))

        def mismatch(r, c, conj=True):      # (r, c): the partners of the nonzeros
            partner = [table.get(k, 0) for k in zip(r.tolist(), c.tolist())]
            return max((abs(v - (w.conjugate() if conj else w))
                        for v, w in zip(q.tolist(), partner)), default=0.0)

        def moved(perm):
            return (np.ravel_multi_index(x[perm], (d,) * 4) for x in (out, src))

        shifted = (e[out[::2]] + e[out[1::2]] != e[src[::2]] + e[src[1::2]]).any(axis=0)
        return {"hermiticity_preserving": mismatch(*moved([2, 3, 0, 1])),
                "hs_self_adjoint": mismatch(cols, rows),
                "factor_swap": mismatch(*moved([1, 0, 3, 2]), conj=False),
                "pair_energy": float(np.abs(q[shifted]).max(initial=0.0))}

    @cached_property
    def wild_matrix(self) -> np.ndarray:
        """The Wild convolution as one (d^4, d^2) matrix,

            W[(i, j, m, n), (k, l)] = sum_r Q[(k, r, l, r), (i, m, j, n)],

        the partial trace over the second output factor of the channel Q:
        the nonzeros whose two traced-out digits agree, summed in order,
        taken once per spec.
        """
        d = self.dim
        (k, r, l, s), (i, m, j, n), q = self.moves
        on = r == s
        w = np.zeros((d ** 4, d * d), dtype=complex)
        np.add.at(w, (np.ravel_multi_index((i, j, m, n), (d,) * 4)[on], (k * d + l)[on]), q[on])
        w.flags.writeable = False   # one array, shared by every caller
        return w

    def pair_hamiltonian(self) -> np.ndarray:
        h = self.model.hamiltonian()
        eye = np.eye(self.dim)
        return tensor(h, eye) + tensor(eye, h)


# ---------------------------------------------------------------------------
# verification of the defining axioms
# ---------------------------------------------------------------------------

@dataclass
class SpecReport:
    passes: bool
    residuals: dict
    violations: list


_PAIR_BLOCK = 1 << 21    # entries of the pair differences formed at once


def _merge_nodes(ws, us):
    """The nodes ``(weights, unitaries)`` with the weights of equal unitaries
    summed in order, each class kept as its first unitary: heaviest first,
    classes of equal weight in order of appearance."""
    keys = us + 0.0     # fold -0.0 into +0.0
    first = {}
    reps, cls = np.unique([first.setdefault(key.tobytes(), k) for k, key in enumerate(keys)],
                          return_inverse=True)
    merged = np.bincount(cls, weights=ws)
    order = np.argsort(-merged, kind="stable")
    return merged[order], us[reps[order]]


def symmetrize_nodes(nodes, d: int):
    """Close the nodes ``(weights, unitaries)`` under adjoints and swap conjugation.

    Each node is spread with weight w/4 over its orbit under
    {id, adjoint, swap, adjoint o swap}; equal unitaries are merged with
    summed weights.  Adjoint and swap act exactly on the floats, so each
    class of equal unitaries maps onto one class of the same weight, and
    the result satisfies the closure axioms however close its nodes lie.
    """
    ws, us = nodes
    v = swap_unitary(d)
    us = np.asarray(us, dtype=complex)
    sus = v @ us @ v.conj().T
    orbit = np.stack([us, us.conj().transpose(0, 2, 1),
                      sus, sus.conj().transpose(0, 2, 1)], axis=1)
    return _merge_nodes(np.repeat(ws / 4.0, 4), orbit.reshape(-1, d * d, d * d))


def _closure_residual(ws, us, image):
    """Worst mismatch between each node's image and the node it hits.

    ``us`` is the stack of nodes (weights ``ws``) and ``image`` maps a
    stack of nodes to their images under the closure map, which are formed
    ``_NODE_BLOCK`` nodes at a time.  Each image hits the node nearest to
    it in the max norm over the real and imaginary parts of the entries,
    the first in node order on a tie (``_nearest_nodes``).  Returns (matrix
    residual, weight residual) maximized over nodes: the complex max-abs
    distance to the hit, and the weight difference, reported as 0 when at
    most ``TOL_AXIOM``.
    """
    def real_rows(a):       # real and imaginary parts, interleaved; no copy
        return np.ascontiguousarray(a).reshape(len(a), -1).view(float)

    nearest = _nearest_nodes(real_rows(us))
    worst_mat = worst_w = 0.0
    for a in range(0, len(us), _NODE_BLOCK):
        images = image(us[a:a + _NODE_BLOCK])
        hit = nearest(real_rows(images))
        miss = us[hit]
        miss -= images
        worst_mat = max(worst_mat, float(np.abs(miss).max()))
        worst_w = max(worst_w, float(np.abs(ws[hit] - ws[a:a + _NODE_BLOCK]).max()))
    return worst_mat, worst_w if worst_w > TOL_AXIOM else 0.0


def _nearest_nodes(xs):
    """The map from rows ``ys`` to the index of the row of ``xs`` nearest
    to each in the max norm, the first on a tie.

    The rows of ``xs`` are sorted once by their projection on one fixed
    direction p.  Since |p . (x - y)| <= |p|_1 |x - y|_inf, the nearest
    row lies in the window of projections within |p|_1 r of y's, r the
    distance to the row nearest in projection, and ``_nearest_candidates``
    scans that window.  On a closed set a window holds about one row.  A
    window widens where the nearest row is about as far as the spread of
    the projections: on a hand-built set far from closed.  There a window
    can span every row, and the scan is quadratic in the number of rows.
    """
    p = np.random.default_rng(0).standard_normal(xs.shape[1])
    px = xs @ p
    order = np.argsort(px, kind="stable")
    proj = px[order]
    top = max(1.0, xs.max(), -xs.min())

    def nearest(ys):
        # the slack covers the rounding of the projections and of the window
        # bounds, at most a few hundred ulps of the largest entry
        slack = 1e-12 * max(top, ys.max(), -ys.min())
        py = ys @ p
        right = np.minimum(np.searchsorted(proj, py), len(proj) - 1)
        left = np.maximum(right - 1, 0)
        at = np.where(np.abs(proj[left] - py) <= np.abs(proj[right] - py), left, right)
        r = xs[order[at]]
        r -= ys
        r = np.abs(r, out=r).max(axis=1)
        half = (r + slack) * np.abs(p).sum()
        lo = np.minimum(np.searchsorted(proj, py - half, "left"), at)
        hi = np.maximum(np.searchsorted(proj, py + half, "right"), at + 1)
        return _nearest_candidates(xs, ys, lo, hi - lo, order)

    return nearest


def _nearest_candidates(xs, ys, lo, counts, order):
    """The index of the nearest of each row of ``ys`` among the ``counts``
    rows of ``xs`` listed from position ``lo`` of ``order``: the least
    index on a tie.  The windows are scanned in blocks of about
    ``_PAIR_BLOCK`` pair-difference entries, a longer window in a block of
    its own, so memory stays bounded however wide the windows are."""
    hit = np.empty(len(ys), dtype=int)
    ends = np.cumsum(counts)
    per_block = max(1, _PAIR_BLOCK // xs.shape[1])
    a = 0
    while a < len(ys):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + per_block, "right")))
        c = counts[a:b]
        starts = np.cumsum(c) - c
        block = order[np.arange(c.sum()) + np.repeat(lo[a:b] - starts, c)]
        diff = xs[block]
        diff -= np.repeat(ys[a:b], c, axis=0)
        dist = np.abs(diff, out=diff).max(axis=1)
        best = dist == np.repeat(np.minimum.reduceat(dist, starts), c)
        hit[a:b] = np.minimum.reduceat(np.where(best, block, len(xs)), starts)
        a = b
    return hit


def verify_spec(spec: CollisionSpec) -> SpecReport:
    """Check the defining axioms, reporting each residual (violated above TOL_AXIOM).

    Sampled specs are checked node-wise (unitarity, energy conservation,
    identity membership, adjoint and swap closure as weighted sets).
    Closed-form channels are checked as maps: trace preserving, unital,
    Hermiticity preserving, self-adjoint for the Hilbert-Schmidt pairing,
    symmetric under the factor swap, conserving the pair energy, and
    completely positive via the Choi matrix on its support.  A
    non-finite node or channel entry, which no residual can measure,
    raises ValueError.
    """
    residuals = {}
    d = spec.dim
    if spec.nodes is not None:
        ws, us = spec.nodes[0], spec.nodes[1].astype(complex, copy=False)
        h2 = spec.pair_hamiltonian()
        eye = np.eye(d * d)
        bad = np.flatnonzero(~(np.isfinite(ws) & np.isfinite(us).all(axis=(1, 2))))
        if bad.size:
            raise ValueError(f"nodes {bad.tolist()} have a non-finite weight or entry")
        unitary = commutes = 0.0
        identity = np.inf
        # node blocks bound the memory: no product of every node is formed
        for a in range(0, len(us), _NODE_BLOCK):
            block = us[a:a + _NODE_BLOCK]
            unitary = max(unitary, np.abs(block @ block.conj().transpose(0, 2, 1) - eye).max())
            commutes = max(commutes, np.abs(block @ h2 - h2 @ block).max())
            identity = min(identity, np.abs(block - eye).max(axis=(1, 2)).min())
        residuals["unitary"] = float(unitary)
        residuals["commutes_with_pair_hamiltonian"] = float(commutes)
        residuals["contains_identity"] = float(identity)
        residuals["weights_normalized"] = float(abs(ws.sum() - 1.0)) + (
            0.0 if ws.min() > 0 else float(-ws.min()) + 1.0)
        v = swap_unitary(d)
        residuals["closed_under_adjoint"] = float(max(
            _closure_residual(ws, us, lambda b: b.conj().transpose(0, 2, 1))))
        residuals["closed_under_swap"] = float(max(
            _closure_residual(ws, us, lambda b: v @ b @ v.conj().T)))
    else:
        rows, cols, q = spec.channel
        bad = np.count_nonzero(~np.isfinite(q))
        if bad:
            raise ValueError(f"the closed-form channel has {bad} non-finite entries")
        n, eye = d * d, np.eye(d * d).reshape(-1)

        def eye_residual(at, other):    # |vec(1) Q - vec(1)| (at = cols) or |Q vec(1) - vec(1)|
            out = np.zeros(n * n, dtype=complex)
            np.add.at(out, at, eye[other] * q)
            return float(np.abs(out - eye).max())

        residuals["trace_preserving"] = eye_residual(cols, rows)
        residuals["unital"] = eye_residual(rows, cols)
        residuals.update(spec.pairing_residuals)
        # the Choi matrix J[(i,k),(j,l)] = image(E_ij)[k,l] is PSD iff Q is CP; an
        # index whose row and column of J are zero adds only a zero eigenvalue
        live, at = np.unique(np.r_[cols // n * n + rows // n, cols % n * n + rows % n],
                             return_inverse=True)
        choi = np.zeros((live.size, live.size), dtype=complex)
        choi[at[:q.size], at[q.size:]] = q
        residuals["completely_positive"] = float(
            max(0.0, -np.linalg.eigvalsh(choi).min(initial=0.0)))
    violations = [f"{name}: residual {r:.3e}" for name, r in residuals.items()
                  if r > TOL_AXIOM]
    return SpecReport(not violations, residuals, violations)


# ---------------------------------------------------------------------------
# built-in qubit families
# ---------------------------------------------------------------------------

def _qubit_grid_nodes(points: int, tilted: bool):
    """Equispaced product-grid discretization of the four-torus family as
    nodes ``(weights, unitaries)``, one per distinct unitary, heaviest first.

    On the grid the family has the exact coincidences

        (phi, theta, psi, eta) ~ (phi + pi, -theta, psi, eta) ~ (phi, pi - theta, psi + pi, eta),

    and phi drops out where sin(theta) = 0, psi where cos(theta) = 0.  So
    each grid point (a, b, c, e) is keyed, in integer units of pi/n, by eta,
    theta folded into [0, pi/2], and psi and phi shifted by pi where
    cos(theta) and sin(theta) are negative, 0 where they vanish; the key
    determines the unitary.  Each class of equal keys sums its weights in
    grid order and is represented by its first grid point, and only the
    representatives' unitaries are formed.  Classes of equal weight stay in
    grid order.
    """
    if points < 4:
        raise ValueError("need at least 4 points per angle for exactness")
    if points > 32:
        raise ValueError("at most 32 points per angle: 4 are already exact, "
                         "and memory grows as points**4")
    n = points
    angles = 2.0 * np.pi * np.arange(n) / n
    if tilted:
        w1 = (1.0 + np.cos(angles)) / n
    else:
        w1 = np.full(n, 1.0 / n)
    wgrid = (w1[:, None, None, None] * w1[None, :, None, None]
             * w1[None, None, :, None] * w1[None, None, None, :]).reshape(-1)
    keep = wgrid > 1e-15
    wgrid = wgrid[keep]
    wgrid /= wgrid.sum()
    a, b, c, e = np.indices((n,) * 4, dtype=np.int32).reshape(4, -1)[:, keep]
    # in units of pi/n, mod 2n: theta = 2b folded into [0, n/2]; psi = 2c
    # and phi = 2a, moved by n where cos(theta) and sin(theta) are negative
    # and set to 0 where they vanish
    theta = np.minimum(np.minimum(2 * b, 2 * n - 2 * b), np.abs(n - 2 * b))
    cos_neg = (4 * b > n) & (4 * b < 3 * n)
    psi = np.where(4 * b % (2 * n) == n, 0, (2 * c + n * cos_neg) % (2 * n))
    phi = np.where(2 * b % n == 0, 0, (2 * a + n * (2 * b > n)) % (2 * n))
    key = ((e * 2 * n + theta) * 2 * n + psi) * 2 * n + phi
    del theta, cos_neg, psi, phi      # at 32 points, 1M entries each
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    ws = np.bincount(cls, weights=wgrid)
    by_grid = np.argsort(first)
    order = by_grid[np.argsort(-ws[by_grid], kind="stable")]
    rep = first[order]
    phi, theta, psi, eta = angles[a[rep]], angles[b[rep]], angles[c[rep]], angles[e[rep]]
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.zeros((rep.size, 4, 4), dtype=complex)
    # the family above is written with the first factor varying fastest;
    # the package ordering exchanges |01> and |10>
    u[:, 0, 0] = np.exp(1j * eta)
    u[:, 2, 2] = np.exp(1j * psi) * cos
    u[:, 2, 1] = -np.exp(1j * phi) * sin
    u[:, 1, 2] = np.exp(-1j * phi) * sin
    u[:, 1, 1] = np.exp(-1j * psi) * cos
    u[:, 3, 3] = 1.0
    return ws[order], u


QUBIT_MODEL = SingleParticleModel((0, 1))


def _qubit_spec(name: str, points_per_angle: int | None) -> CollisionSpec:
    """Shared constructor of the two qubit families: the closed-form channel
    without nodes, or with ``points_per_angle`` set the sampled grid, whose
    channel equals the closed form for 4 or more points."""
    tilted = name == "qubit_tilted"
    if points_per_angle is None:
        # the average scales |a><b| by damp[a, b], read off the measure moments, but maps
        # |01><01| and |10><10| to their mean; exchanging |01> and |10> keeps the table
        damp = np.diag([1.0, 0.0, 0.0, 1.0])
        if tilted:
            damp += np.array([[0, 1, 1, 4], [1, 0, 0, 2], [1, 0, 0, 2], [4, 2, 2, 0]]) / 8.0
        s = np.diag(damp.reshape(-1)).astype(complex)
        s[np.ix_([5, 10], [5, 10])] = 0.5
        rows, cols = np.nonzero(s)
        return CollisionSpec(QUBIT_MODEL, name, (rows, cols, s[rows, cols]))
    nodes = _qubit_grid_nodes(points_per_angle, tilted)
    return CollisionSpec(QUBIT_MODEL, f"{name}_sampled{points_per_angle}",
                         superoperator_from_nodes(nodes), nodes)


def qubit_uniform_spec(points_per_angle: int | None = None) -> CollisionSpec:
    """Uniform-measure qubit family.

    The averaged channel is the conditional expectation onto the pair
    energy algebra: diagonals project to shell averages, off-diagonal
    entries vanish.  With ``points_per_angle`` set, returns the sampled
    grid surrogate instead (exact for n >= 4).
    """
    return _qubit_spec("qubit_uniform", points_per_angle)


def qubit_tilted_spec(points_per_angle: int | None = None) -> CollisionSpec:
    """Tilted-measure qubit family: per-angle density (1 + cos x)/(2 pi).

    The averaged channel damps off-diagonal entries by 1/8, 1/4, 1/2
    instead of killing them, so it is not idempotent, but its powers
    converge to the same conditional expectation.
    """
    return _qubit_spec("qubit_tilted", points_per_angle)


def exact_EA2_spec(model: SingleParticleModel) -> CollisionSpec:
    """Exact conditional expectation onto the pair energy algebra.

    The channel maps X to sum_E Tr[P_E X] P_E / |E| over the two-particle
    shells.  It is the idempotent limit of every ergodic family on this
    model; no finite node family is attached.
    """
    d, e = model.dim, model.energies
    # the flat pair indices a d + b by exact pair energy e_a + e_b, each ascending
    shells = {}
    for a, b in np.ndindex(d, d):
        shells.setdefault(e[a] + e[b], []).append(a * d + b)
    # per shell, every pair of vec positions of its diagonal units |i><i|
    blocks = [(np.repeat(pos, pos.size), np.tile(pos, pos.size),
               np.full(pos.size ** 2, 1.0 / pos.size, dtype=complex))
              for pos in (np.array(shells[E]) * (d * d + 1) for E in sorted(shells))]
    return CollisionSpec(model, "exact_ea2", _channel(*map(np.concatenate, zip(*blocks))))


# ---------------------------------------------------------------------------
# sampled-node file format
# ---------------------------------------------------------------------------

def parse_sampled_nodes(text: str, dim: int):
    """Parse a plain-text weighted unitary list into normalized nodes ``(weights, unitaries)``.

    Grammar (comments start with '#'):

        dim <n>
        weight <w>
        <n rows of n "re im" pairs>
        weight <w>
        ...

    Matrices are read in the package's basis ordering (first factor most
    significant).
    """
    tokens = " ".join(line.split("#", 1)[0] for line in text.splitlines()).split()
    if len(tokens) < 2 or tokens[0] != "dim":
        raise ValueError("sampled-node file must start with 'dim <n>'")
    n = int(tokens[1])
    if n != dim:
        raise ValueError(f"file declares dim {n}, model requires {dim}")
    size = 2 + 2 * n * n          # 'weight', w, then n * n re/im pairs
    records = [tokens[k:k + size] for k in range(2, len(tokens), size)]
    if not records:
        raise ValueError("sampled-node file contains no matrices")
    if any(r[0] != "weight" for r in records):
        raise ValueError("expected 'weight <w>' before each matrix")
    if len(records[-1]) < size:
        raise ValueError("unexpected end of sampled-node file")
    values = np.array([[float(t) for t in r[1:]] for r in records])
    if not np.isfinite(values).all():
        raise ValueError("sampled-node file numbers must be finite")
    ws = values[:, 0]
    if ws.min() <= 0:
        raise ValueError("node weights must be positive")
    us = (values[:, 1::2] + 1j * values[:, 2::2]).reshape(-1, n, n)
    if np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(n)).max() > TOL_AXIOM:
        raise ValueError(f"sampled-node matrices must be unitary to within {TOL_AXIOM:g}")
    return ws / ws.cumsum()[-1], us      # the total summed in file order


def sampled_spec_from_file(path, model: SingleParticleModel) -> CollisionSpec:
    """Load a sampled specification from disk, closed by ``symmetrize_nodes``;
    every node must conserve the pair energy, |U h2 - h2 U| <= ``TOL_AXIOM``."""
    with open(path) as fh:
        nodes = symmetrize_nodes(parse_sampled_nodes(fh.read(), model.dim * model.dim),
                                 model.dim)
    spec = CollisionSpec(model, f"sampled_file:{path}", superoperator_from_nodes(nodes), nodes)
    h2, us = spec.pair_hamiltonian(), nodes[1]
    if np.abs(us @ h2 - h2 @ us).max() > TOL_AXIOM:
        raise ValueError("sampled-node matrices must conserve the pair energy "
                         f"to within {TOL_AXIOM:g}")
    return spec


def spec_by_name(name: str, model: SingleParticleModel,
                 points_per_angle: int | None = None) -> CollisionSpec:
    """Resolve the CLI spec names (``points_per_angle``: qubit specs only)."""
    if name in ("qubit_uniform", "qubit_tilted"):
        if model.dim != 2:
            raise ValueError("qubit specs need a two-level model")
        if model.energies[0] == model.energies[1]:
            raise ValueError("qubit specs need distinct energies")
        return _qubit_spec(name, points_per_angle)
    if points_per_angle is not None:
        raise ValueError(f"points_per_angle applies only to the qubit specs, not {name!r}")
    if name == "exact_ea2":
        return exact_EA2_spec(model)
    if name.startswith("sampled_file:"):
        return sampled_spec_from_file(name.split(":", 1)[1], model)
    raise ValueError(f"unknown collision spec '{name}'")

