import functools
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from qkac import collisions
from qkac.collisions import (_PAIR_BLOCK, CollisionSpec, _closure_residual,
                             exact_EA2_spec, parse_sampled_nodes, qubit_tilted_spec,
                             qubit_uniform_spec, sampled_spec_from_file, spec_by_name,
                             superoperator_from_nodes, symmetrize_nodes,
                             verify_spec)
from qkac.master import KacGenerator, is_ergodic
from qkac.operators import reorder_pair_basis, swap_unitary, tensor
from qkac.spectra import SingleParticleModel, shell_decomposition, shell_structure
from conftest import random_matrix, random_state, random_unitary
from oracles import (as_map, choi, dense_channel, fixed_space_of_Q, hs_norm, identity_spec,
                     nonzeros, shell_projector, shell_state)


# ---------------------------------------------------------------------------
# independent quadrature oracle: average the unitary family over the
# four-torus with a product trapezoid rule, built from scratch here
# ---------------------------------------------------------------------------

def quadrature_channel(points, tilted):
    """Columns are images of matrix units under the averaged conjugation.

    Built in the first-factor-fastest basis ordering |00>, |10>, |01>,
    |11> and converted at the end.  Trapezoid weights on the circle are
    exact for trigonometric polynomials of degree < points, and the
    integrands here have degree at most 3 per angle.
    """
    grid = 2 * np.pi * np.arange(points) / points
    if tilted:
        wk = (1 + np.cos(grid)) / points
    else:
        wk = np.full(points, 1.0 / points)
    smat = np.zeros((16, 16), dtype=complex)
    for iphi, itheta, ipsi, ieta in itertools.product(range(points), repeat=4):
        phi, theta, psi, eta = grid[iphi], grid[itheta], grid[ipsi], grid[ieta]
        w = wk[iphi] * wk[itheta] * wk[ipsi] * wk[ieta]
        if w == 0.0:
            continue
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([
            [np.exp(1j * eta), 0, 0, 0],
            [0, np.exp(1j * psi) * c, -np.exp(1j * phi) * s, 0],
            [0, np.exp(-1j * phi) * s, np.exp(-1j * psi) * c, 0],
            [0, 0, 0, 1.0],
        ])
        smat += w * np.kron(u, u.conj())
    perm = np.array([0, 2, 1, 3])
    s4 = smat.reshape(4, 4, 4, 4)[np.ix_(perm, perm, perm, perm)]
    return s4.reshape(16, 16)


def fastfirst_unit(r, c):
    """Matrix unit written in the first-factor-fastest ordering, converted."""
    unit = np.zeros((4, 4), dtype=complex)
    unit[r, c] = 1.0
    return reorder_pair_basis(unit)


def test_uniform_channel_matches_quadrature_oracle(uniform_spec):
    oracle = quadrature_channel(16, tilted=False)
    assert np.abs(dense_channel(uniform_spec) - oracle).max() < 1e-12


def test_tilted_channel_matches_quadrature_oracle(tilted_spec):
    oracle = quadrature_channel(16, tilted=True)
    assert np.abs(dense_channel(tilted_spec) - oracle).max() < 1e-12


def test_uniform_channel_entrywise(uniform_spec):
    q = as_map(dense_channel(uniform_spec))
    p0 = fastfirst_unit(0, 0)
    p1 = fastfirst_unit(1, 1) + fastfirst_unit(2, 2)
    p2 = fastfirst_unit(3, 3)
    # diagonal units map to shell averages
    assert np.abs(q(fastfirst_unit(0, 0)) - p0).max() < 1e-14
    assert np.abs(q(fastfirst_unit(1, 1)) - p1 / 2).max() < 1e-14
    assert np.abs(q(fastfirst_unit(2, 2)) - p1 / 2).max() < 1e-14
    assert np.abs(q(fastfirst_unit(3, 3)) - p2).max() < 1e-14
    # all off-diagonal units map to zero
    for r, c in itertools.product(range(4), repeat=2):
        if r != c:
            assert np.abs(q(fastfirst_unit(r, c))).max() < 1e-14


def test_tilted_channel_entrywise(tilted_spec):
    q = as_map(dense_channel(tilted_spec))
    factors = {(0, 1): 0.125, (0, 2): 0.125, (0, 3): 0.5,
               (1, 3): 0.25, (2, 3): 0.25, (1, 2): 0.0}
    for (r, c), f in factors.items():
        for a, b in ((r, c), (c, r)):
            got = q(fastfirst_unit(a, b))
            assert np.abs(got - f * fastfirst_unit(a, b)).max() < 1e-14
    assert np.abs(q(fastfirst_unit(1, 1))
                  - (fastfirst_unit(1, 1) + fastfirst_unit(2, 2)) / 2).max() < 1e-14


def test_channel_is_unital_and_trace_preserving(tilted_spec, rng):
    q = as_map(dense_channel(tilted_spec))
    assert np.abs(q(np.eye(4)) - np.eye(4)).max() < 1e-14
    a = random_matrix(rng, 4)
    assert abs(np.trace(q(a)) - np.trace(a)) < 1e-12


def test_uniform_channel_idempotent(uniform_spec):
    q = dense_channel(uniform_spec)
    assert np.abs(q @ q - q).max() < 1e-13


def test_closed_form_qubit_specs_carry_no_nodes(uniform_spec, tilted_spec):
    # their node families are the sampled grids, qubit_*_spec(points)
    assert uniform_spec.nodes is None and tilted_spec.nodes is None


def test_tilted_channel_powers_converge(tilted_spec, uniform_spec):
    q = dense_channel(tilted_spec)
    assert np.abs(q @ q - q).max() > 1e-3
    high = np.linalg.matrix_power(q, 200)
    higher = np.linalg.matrix_power(q, 201)
    assert np.abs(high - higher).max() < 1e-12
    # the limit is the conditional expectation onto the energy algebra
    assert np.abs(high - dense_channel(uniform_spec)).max() < 1e-12


def test_verify_passes_builtin_specs(uniform_spec, tilted_spec,
                                     uniform_sampled16, tilted_sampled16):
    # spectral_gap reads the gap off the eigenvalues by the axioms, the factor
    # swap and the pair energy included, so every built-in spec passes them all
    specs = [uniform_spec, tilted_spec, uniform_sampled16, tilted_sampled16,
             qubit_uniform_spec(4), qubit_tilted_spec(4),
             *(exact_EA2_spec(SingleParticleModel(e))
               for e in [(0, 1, 2), (0, 1, 4, 5), (0, 1, 1, 2), (0, 1, 3, 7, 12, 20, 30, 44)])]
    for spec in specs:
        report = verify_spec(spec)
        assert report.passes, (spec.name, report.violations)
        if spec.nodes is None:
            assert {"factor_swap", "pair_energy"} <= report.residuals.keys()


def test_verify_flags_missing_identity(tilted_sampled16):
    ws, us = tilted_sampled16.nodes
    keep = np.abs(us - np.eye(4)).max(axis=(1, 2)) > 1e-9
    nodes = ws[keep] / ws[keep].sum(), us[keep]
    spec = CollisionSpec(tilted_sampled16.model, "broken",
                         superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert not report.passes
    assert any("contains_identity" in v for v in report.violations)


def test_verify_flags_energy_violation(qubit_model, rng):
    # a Hadamard-like rotation mixes the shells, breaking energy conservation
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    bad = tensor(had, np.eye(2))
    nodes = symmetrize_nodes((np.array([0.5, 0.5]), np.stack([np.eye(4), bad])), 2)
    spec = CollisionSpec(qubit_model, "bad_energy", superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert not report.passes
    assert any("commutes_with_pair_hamiltonian" in v for v in report.violations)
    h2 = spec.pair_hamiltonian()
    assert report.residuals["commutes_with_pair_hamiltonian"] == pytest.approx(
        np.abs(bad @ h2 - h2 @ bad).max())


def test_verify_rejects_non_finite_nodes(tilted_sampled16):
    ws, us = tilted_sampled16.nodes
    us = us.copy()
    us[3, 1, 2] = np.nan
    nodes = ws, us
    spec = CollisionSpec(tilted_sampled16.model, "nan_node", superoperator_from_nodes(nodes), nodes)
    with pytest.raises(ValueError, match=r"nodes \[3\] have a non-finite weight or entry"):
        verify_spec(spec)


@pytest.mark.parametrize("tilted", [False, True], ids=["uniform", "tilted"])
def test_verify_residuals_do_not_depend_on_the_node_block(tilted, monkeypatch):
    spec = (qubit_tilted_spec if tilted else qubit_uniform_spec)(9)
    whole = verify_spec(spec).residuals
    monkeypatch.setattr(collisions, "_NODE_BLOCK", 97)
    assert len(spec.nodes[0]) > 10 * 97
    assert verify_spec(spec).residuals == whole
    # a non-finite node in a later block is still named
    us = spec.nodes[1].copy()
    us[500, 0, 0] = np.inf
    bad = CollisionSpec(spec.model, "inf_node", spec.channel, (spec.nodes[0], us))
    with pytest.raises(ValueError, match=r"nodes \[500\] have a non-finite"):
        verify_spec(bad)


@pytest.mark.parametrize("seed", range(20))
def test_symmetrized_nodes_within_1e_9_of_each_other_are_closed(qubit_model, seed):
    # the identity and 99 unitaries exp(1e-9 i H), H Hermitian and block
    # diagonal on the pair shells {|00>}, {|01>, |10>}, {|11>}: rounded to 9
    # decimals, a unitary and its adjoint or swap image fell into classes
    # that split differently and the merged weights broke the closure
    rng = np.random.default_rng(seed)
    us = [np.eye(4, dtype=complex)]
    for _ in range(99):
        h = np.zeros((4, 4), dtype=complex)
        for block in ([0], [1, 2], [3]):
            a = random_matrix(rng, len(block))
            h[np.ix_(block, block)] = a + a.conj().T
        w, v = np.linalg.eigh(h)
        us.append((v * np.exp(1e-9j * w)) @ v.conj().T)
    ws = rng.uniform(0.1, 1.0, 100)
    nodes = symmetrize_nodes((ws / ws.sum(), np.stack(us)), 2)
    report = verify_spec(CollisionSpec(qubit_model, "near_identity",
                                       superoperator_from_nodes(nodes), nodes))
    assert report.passes, report.violations
    assert report.residuals["closed_under_adjoint"] == report.residuals["closed_under_swap"] == 0


def test_merge_keeps_unitaries_apart_unless_equal():
    # -0.0 and +0.0 are one value; a difference of 1e-300 is not
    u = np.eye(4, dtype=complex)
    near = u.copy()
    near[1, 2] = 1e-300
    ws, us = collisions._merge_nodes(np.array([0.25, 0.25, 0.5]), np.stack([u, u.conj(), near]))
    assert ws.tolist() == [0.5, 0.5] and np.array_equal(us[1], near)


def assert_nonzeros_match_the_dense_oracle(spec):
    """The channel holds nonzeros only, each once in row-major order, and
    they are the dense channel's to 1e-15 (for a sampled spec the average
    of kron(U, conj(U)) over every node, summed in another order)."""
    rows, cols, values = spec.channel
    size = spec.dim ** 4
    assert np.all(np.diff(rows * size + cols) > 0) and np.all(values != 0)
    held = np.zeros((size, size), dtype=complex)
    held[rows, cols] = values
    assert np.abs(held - dense_channel(spec)).max() <= 1e-15


@pytest.mark.parametrize("build", [
    qubit_uniform_spec, qubit_tilted_spec,
    *(functools.partial(b, p) for p in (4, 8, 16) for b in (qubit_uniform_spec, qubit_tilted_spec)),
    *(functools.partial(exact_EA2_spec, SingleParticleModel(e))
      for e in [(0, 1, 2), (0, 0, 1), (0, 1, 2, 3)]),
])
def test_builtin_channel_nonzeros_match_the_dense_oracle(build):
    assert_nonzeros_match_the_dense_oracle(build())


def test_d8_spec_checks_hold_no_dense_channel():
    # the dense d^4 x d^4 channel of this model takes 268 MB; the spec, its
    # axiom checks and the N = 2 generator stay far below that
    import tracemalloc

    tracemalloc.start()
    try:
        spec = exact_EA2_spec(SingleParticleModel((0, 1, 3, 7, 12, 20, 30, 44)))
        report = verify_spec(spec)
        KacGenerator(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passes and len(spec.channel[0]) == 120
    assert peak < 32 << 20


def test_verify_rejects_a_non_finite_channel(tilted_spec):
    mat = dense_channel(tilted_spec)
    mat[5, 10] = np.nan
    spec = CollisionSpec(tilted_spec.model, "nan_channel", nonzeros(mat))
    with pytest.raises(ValueError, match="closed-form channel has 1 non-finite entries"):
        verify_spec(spec)


def one_excitation_rotation(theta=0.7, phase=0.3):
    """Energy-conserving qubit-pair unitary that is neither self-adjoint
    nor swap-symmetric."""
    u = np.eye(4, dtype=complex)
    u[1, 1] = np.cos(theta)
    u[1, 2] = -np.sin(theta) * np.exp(1j * phase)
    u[2, 1] = np.sin(theta) * np.exp(-1j * phase)
    u[2, 2] = np.cos(theta)
    return u


def test_symmetrize_closes_asymmetric_family(qubit_model):
    # a single non-symmetric node, plus identity, closes to a valid spec
    u = one_excitation_rotation()
    nodes = symmetrize_nodes((np.array([0.5, 0.5]), np.stack([np.eye(4), u])), 2)
    spec = CollisionSpec(qubit_model, "sym", superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert report.passes, report.violations


def test_verify_accepts_real_nodes(qubit_model):
    # real unitaries (identity and swap) have complex swap images; the
    # closure check must compare them with the nodes all the same
    nodes = np.array([0.5, 0.5]), np.stack([np.eye(4), swap_unitary(2).real])
    spec = CollisionSpec(qubit_model, "real", superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert report.passes, report.violations
    assert report.residuals["closed_under_swap"] == 0.0


def symmetrize_reference(nodes, d):
    """Per-node loop over each orbit {u, u*, su, su*}, merging unitaries
    equal to 9 decimals; the heaviest first, ties in order of appearance."""
    v = swap_unitary(d)
    merged = {}
    for w, u in zip(*nodes):
        su = v @ u @ v.conj().T
        for variant in (u, u.conj().T, su, su.conj().T):
            key = (np.round(variant, 9) + 0.0).tobytes()
            merged.setdefault(key, [0.0, variant])[0] += w / 4.0
    return sorted(((w, u) for w, u in merged.values()), key=lambda wu: -wu[0])


@pytest.mark.parametrize("d, size", [(2, 1), (2, 4), (3, 3)])
def test_symmetrize_matches_per_node_reference(rng, d, size):
    ws, us = [], []
    for _ in range(size):
        z = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        ws.append(float(rng.uniform(0.1, 1.0)))
        us.append(np.linalg.qr(z)[0])
    # an identity and an adjoint partner make orbits overlap, so nodes merge
    nodes = (np.array(ws + [0.3, 0.2]),
             np.stack(us + [np.eye(d * d, dtype=complex), us[0].conj().T]))
    got, want = symmetrize_nodes(nodes, d), symmetrize_reference(nodes, d)
    assert len(got[0]) < 4 * len(nodes[0])
    assert got[0].tolist() == [w for w, _ in want]
    assert len(got[1]) == len(want)
    assert all(np.array_equal(u, v) for u, (_, v) in zip(got[1], want))


def test_verify_flags_closure_violations(qubit_model):
    u = one_excitation_rotation()
    nodes = np.array([0.5, 0.5]), np.stack([np.eye(4, dtype=complex), u])
    spec = CollisionSpec(qubit_model, "unclosed", superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert sorted(msg.split(":")[0] for msg in report.violations) == [
        "closed_under_adjoint", "closed_under_swap"]

    # every partner present, but with the wrong weight
    v = swap_unitary(2)
    su = v @ u @ v.conj().T
    nodes = (np.array([0.5, 0.2, 0.1, 0.1, 0.1]),
             np.stack([np.eye(4, dtype=complex), u, u.conj().T, su, su.conj().T]))
    spec = CollisionSpec(qubit_model, "unbalanced", superoperator_from_nodes(nodes), nodes)
    report = verify_spec(spec)
    assert report.residuals["closed_under_adjoint"] == pytest.approx(0.1, abs=1e-12)
    assert report.residuals["closed_under_swap"] == pytest.approx(0.1, abs=1e-12)
    assert sorted(msg.split(":")[0] for msg in report.violations) == [
        "closed_under_adjoint", "closed_under_swap"]


# ---------------------------------------------------------------------------
# closure residual against a brute-force nearest-node oracle
# ---------------------------------------------------------------------------

def closure_oracle(nodes, transform, weight_tol=1e-9):
    """Scan every node for each transformed node.

    The image hits the node nearest to it in the max norm over the real
    and imaginary parts of the entries, the first in node order on a tie.
    Returns the worst complex max-abs distance to the hit, the worst
    weight difference (0 when at most weight_tol), and the worst distance
    to the nearest node in the complex max-abs norm itself.
    """
    ws, us = nodes
    worst_mat, worst_w, worst_nearest = 0.0, 0.0, 0.0
    for w, u in zip(ws, us):
        diffs = us - transform(u)
        real_dist = np.maximum(np.abs(diffs.real).max(axis=(1, 2)),
                               np.abs(diffs.imag).max(axis=(1, 2)))
        hit = int(np.argmin(real_dist))
        worst_mat = max(worst_mat, np.abs(diffs[hit]).max())
        worst_w = max(worst_w, abs(ws[hit] - w))
        worst_nearest = max(worst_nearest, np.abs(diffs).max(axis=(1, 2)).min())
    return worst_mat, (worst_w if worst_w > weight_tol else 0.0), worst_nearest


def test_closure_residual_matches_bruteforce_oracle(rng):
    v = swap_unitary(2)
    transforms = [lambda u: u.conj().T, lambda u: v @ u @ v.conj().T]

    def nodes_of(*pairs):
        return np.array([w for w, _ in pairs]), np.stack([u for _, u in pairs])

    def check(nodes):
        ws, us = nodes
        images = [lambda b: b.conj().transpose(0, 2, 1), lambda b: v @ b @ v.conj().T]
        out = []
        for transform, image in zip(transforms, images):
            mat, w, nearest = closure_oracle(nodes, transform)
            assert _closure_residual(ws, us, image) == (mat, w)
            # the hit is within sqrt(2) of the complex-nearest distance
            assert nearest <= mat <= np.sqrt(2) * nearest * (1 + 1e-12)
            out.append((mat, w))
        return out

    def check_variants(family):
        # the closed set of the family, one node dropped, one reweighted
        closed = symmetrize_nodes(nodes_of(*family), 2)
        k = int(rng.integers(1, len(closed[0])))
        dropped = np.delete(closed[0], k), np.delete(closed[1], k, axis=0)
        reweighted = closed[0] * np.where(np.arange(len(closed[0])) == k, 1.5, 1.0), closed[1]
        assert all(mat < 1e-12 and w == 0.0 for mat, w in check(closed))
        assert all(mat > 1e-3 for mat, _ in check(dropped))
        check(reweighted)
        return closed

    for _ in range(8):
        check_variants([(1.0, np.eye(4, dtype=complex))] + [
            (rng.uniform(0.2, 1.0), random_unitary(rng, 4)) for _ in range(2)])
    # one and two nodes
    assert check(nodes_of((1.0, np.eye(4, dtype=complex)))) == [(0.0, 0.0)] * 2
    check(nodes_of((0.5, np.eye(4, dtype=complex)), (0.5, random_unitary(rng, 4))))
    # the adjoint of w sits at exactly the same distance from x and from y:
    # the first of them in node order is hit, whatever the order
    phase = np.exp(0.7j)
    x, y, w = (np.diag(a).astype(complex) for a in
               ([phase, 1, 1, 1], [1, 1, 1, phase], [phase.conjugate(), 1, 1, phase.conjugate()]))
    check(nodes_of((0.2, x), (0.3, y), (0.5, w)))
    check(nodes_of((0.3, y), (0.2, x), (0.5, w)))
    # a closed family of hundreds of nodes
    closed = check_variants([(1.0, np.eye(4, dtype=complex))] + [
        (rng.uniform(0.2, 1.0), random_unitary(rng, 4)) for _ in range(80)])
    assert len(closed[0]) >= 300
    # far from closed, each window spans about every node and is scanned in
    # blocks of candidate rows; with small blocks every blocked loop of the
    # search runs many times
    far = nodes_of(*[(rng.uniform(0.2, 1.0), random_unitary(rng, 4)) for _ in range(600)])
    assert len(far[0]) ** 2 > 3 * (_PAIR_BLOCK // 32)
    mixed = tuple(np.concatenate([a[:300], b[:300]]) for a, b in zip(far, closed))
    check(far)
    check(mixed)
    # every node the same: every window is wide and every node ties
    check((np.full(100, 0.01), np.repeat(far[1][:1], 100, axis=0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collisions, "_PAIR_BLOCK", 1 << 10)
        check(far)
        # nodes and images in blocks of 64: the blocks meet the whole node set
        mp.setattr(collisions, "_NODE_BLOCK", 64)
        check(mixed)
        check(far)


def test_closure_residual_memory_is_bounded_on_wide_windows(rng, monkeypatch):
    # far from closed, each of the 2,500 projection windows spans about every
    # node: listing all their rows at once takes 2,500**2 indices, twice the
    # bound; with small blocks of candidate rows the scan stays far below it
    import tracemalloc

    monkeypatch.setattr(collisions, "_PAIR_BLOCK", 1 << 18)
    m = 2500
    nodes = rng.uniform(0.2, 1.0, m), np.stack([random_unitary(rng, 4) for _ in range(m)])
    tracemalloc.start()
    try:
        got = _closure_residual(*nodes, lambda b: b.conj().transpose(0, 2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.dtype(np.intp).itemsize * m * m / 2
    assert got == closure_oracle(nodes, lambda u: u.conj().T)[:2]


def test_fixed_space_dimensions(uniform_spec, tilted_spec, qubit_model):
    assert len(fixed_space_of_Q(dense_channel(uniform_spec))) == 3
    assert len(fixed_space_of_Q(dense_channel(tilted_spec))) == 3
    ident = identity_spec(qubit_model)
    assert len(fixed_space_of_Q(dense_channel(ident))) == 16


def test_fixed_space_spanned_by_shell_projectors(uniform_spec, qubit_model):
    fixed = fixed_space_of_Q(dense_channel(uniform_spec))
    projs = [shell_projector(qubit_model, 2, E) for E in (0, 1, 2)]
    for f in fixed:
        back = sum(np.vdot(p, f) / np.vdot(p, p) * p for p in projs)
        assert np.abs(f - back).max() < 1e-10


def test_is_ergodic(uniform_spec, tilted_spec, uniform_sampled16, qubit_model,
                    ea2_three_level):
    assert is_ergodic(uniform_spec)
    assert is_ergodic(tilted_spec)
    assert is_ergodic(uniform_sampled16)
    assert is_ergodic(ea2_three_level)
    assert not is_ergodic(identity_spec(qubit_model))


@pytest.mark.parametrize("energies", [(0, 1), (0, 1, 2), (0, 1, 4, 5), (0, 0, 1),
                                      (1, 10, 100)])
def test_exact_ea2_matches_projector_definition(energies):
    # the sum over shells of |vec P_E / |E|><vec P_E|, built from projectors
    model = SingleParticleModel(energies)
    want = sum(np.outer(shell_projector(model, 2, E).reshape(-1) / len(idx),
                        shell_projector(model, 2, E).reshape(-1))
               for E, idx in shell_decomposition(model, 2))
    assert np.array_equal(dense_channel(exact_EA2_spec(model)), want)


@pytest.mark.parametrize("energies", [(0, 1), (0, 1, 2), (0, 1, 4, 5), (0, 1, 1, 2),
                                      (0, 1, 3, 7, 12, 20, 30, 44), (1, 10, 100)])
def test_exact_ea2_groups_pair_energies_as_the_pair_shells_do(energies):
    # the channel arrays, bit for bit, as built from the N = 2 shell structure
    model, d = SingleParticleModel(energies), len(energies)
    blocks = [(np.repeat(pos, pos.size), np.tile(pos, pos.size),
               np.full(pos.size ** 2, 1.0 / pos.size, dtype=complex))
              for pos in (idx * (d * d + 1) for _, idx in shell_structure(model, 2).shells)]
    want = collisions._channel(*map(np.concatenate, zip(*blocks)))
    got = exact_EA2_spec(model).channel
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def test_exact_ea2_builds_past_the_size_guard_without_the_class_search():
    # 65 levels: 65^2 pair indices pass the guard of the N-particle structure
    start = time.perf_counter()
    spec = exact_EA2_spec(SingleParticleModel(tuple(range(65))))
    assert time.perf_counter() - start < 1
    # the pair shells E = 0..128 hold 1, 2, .., 65, .., 1 indices
    assert spec.channel[0].size == 2 * sum(k * k for k in range(1, 65)) + 65 ** 2 == 183_105


def test_exact_ea2_maps_product_units_to_shell_states(ea2_three_level):
    model = ea2_three_level.model
    q = as_map(dense_channel(ea2_three_level))
    for i, k in itertools.product(range(3), repeat=2):
        unit = np.zeros((9, 9), dtype=complex)
        unit[3 * i + k, 3 * i + k] = 1.0
        want = shell_state(model, 2, model.energies[i] + model.energies[k])
        assert np.abs(q(unit) - want).max() < 1e-14


def test_exact_ea2_fixes_energy_algebra(ea2_three_level):
    model = ea2_three_level.model
    q = as_map(dense_channel(ea2_three_level))
    x = sum(E * shell_projector(model, 2, E) for E in (0, 1, 2, 3, 4))
    assert np.abs(q(x) - x).max() < 1e-13


def test_exact_ea2_choi_psd(ea2_three_level):
    w = np.linalg.eigvalsh(choi(dense_channel(ea2_three_level)))
    assert w.min() > -1e-12


def test_kadison_inequality(uniform_spec, tilted_spec, ea2_three_level, rng):
    for spec in (uniform_spec, tilted_spec, ea2_three_level):
        q = as_map(dense_channel(spec))
        d = spec.dim ** 2
        for _ in range(20):
            a = random_matrix(rng, d)
            gap = q(a.conj().T @ a) - q(a).conj().T @ q(a)
            assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() > -1e-10


def test_hs_contraction_with_equality_on_fixed_space(tilted_spec, rng):
    q = as_map(dense_channel(tilted_spec))
    for _ in range(10):
        a = random_matrix(rng, 4)
        assert hs_norm(q(a)) <= hs_norm(a) + 1e-12
    # equality holds on the fixed space
    p1 = shell_projector(tilted_spec.model, 2, 1)
    assert abs(hs_norm(q(p1)) - hs_norm(p1)) < 1e-12
    # strict contraction away from it
    offdiag = np.zeros((4, 4), dtype=complex)
    offdiag[0, 1] = 1.0
    assert hs_norm(q(offdiag)) < hs_norm(offdiag) - 0.1


def test_swap_symmetry_of_pair_output(tilted_spec, rng):
    q = as_map(dense_channel(tilted_spec))
    v = swap_unitary(2)
    rho = random_state(rng, 2)
    out = q(tensor(rho, rho))
    a = random_matrix(rng, 2)
    lhs = np.trace(tensor(a, np.eye(2)) @ out)
    rhs = np.trace(tensor(np.eye(2), a) @ out)
    assert abs(lhs - rhs) < 1e-12
    assert np.abs(v @ out @ v.conj().T - out).max() < 1e-12


def test_sampled_file_round_trip(tmp_path, qubit_model):
    theta = 0.3
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = np.cos(theta)
    u[1, 2] = -np.sin(theta)
    u[2, 1] = np.sin(theta)
    lines = ["# example node file", "dim 4"]
    for w, mat in [(0.5, np.eye(4, dtype=complex)), (0.5, u)]:
        lines.append(f"weight {w}")
        for row in mat:
            lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    path = tmp_path / "nodes.txt"
    path.write_text("\n".join(lines) + "\n")
    spec = sampled_spec_from_file(path, qubit_model)
    report = verify_spec(spec)
    assert report.passes, report.violations
    assert abs(spec.nodes[0].sum() - 1.0) < 1e-12


def test_sampled_file_errors(tmp_path, qubit_model):
    path = tmp_path / "bad.txt"
    path.write_text("dim 3\n")
    with pytest.raises(ValueError):
        sampled_spec_from_file(path, qubit_model)
    with pytest.raises(ValueError, match="conserve the pair energy"):
        sampled_spec_from_file(Path(__file__).parent / "data" / "energy_violating_nodes.txt",
                               qubit_model)


def test_spec_by_name(qubit_model, three_level_model):
    assert spec_by_name("qubit_uniform", qubit_model).name == "qubit_uniform"
    assert spec_by_name("exact_ea2", three_level_model).name == "exact_ea2"
    with pytest.raises(ValueError):
        spec_by_name("qubit_uniform", three_level_model)
    with pytest.raises(ValueError):
        spec_by_name("nonsense", qubit_model)


def node_text(records, dim=4):
    """A node file with one ``weight`` line per (weight, matrix) record;
    weights are written verbatim, so they may be any token."""
    lines = ["# generated", f"dim {dim}"]
    for w, mat in records:
        lines.append(f"weight {w}")
        for row in np.asarray(mat, dtype=complex):
            lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "  # row")
    return "\n".join(lines) + "\n"


def test_parse_sampled_nodes_reads_records_in_order():
    u = np.eye(4, dtype=complex)[[0, 2, 1, 3]] * 1j
    ws, us = parse_sampled_nodes(node_text([(3, np.eye(4)), (1.0, u)]), 4)
    assert ws.tolist() == [0.75, 0.25]
    assert np.array_equal(us[0], np.eye(4))
    assert np.array_equal(us[1], u)


@pytest.mark.parametrize("text", [
    node_text([("nan", np.eye(4))]),
    node_text([("inf", np.eye(4))]),
    node_text([(1.0, np.eye(4)), ("-inf", np.eye(4))]),
    node_text([(1.0, np.full((4, 4), np.nan))]),
    node_text([(1.0, np.full((4, 4), np.inf))]),
    node_text([(0.0, np.eye(4))]),
    node_text([(1.0, np.eye(4)), (0, np.eye(4))]),
    node_text([(2.0, np.eye(4)), (-1.0, np.eye(4))]),
    node_text([(1.0, np.eye(4))]).replace("weight", "mass"),
    "\n".join(node_text([(1.0, np.eye(4))]).splitlines()[:-1]),
    node_text([]),
    "",
    "dim\n",
    "weight 1\n",
    node_text([(1.0, 2 * np.eye(4))]),
    node_text([(1.0, np.eye(4)), (1.0, np.eye(4) + 1e-8)]),
], ids=["weight_nan", "weight_inf", "weight_minus_inf", "entry_nan", "entry_inf",
        "weight_zero", "one_weight_zero", "one_weight_negative", "no_weight_keyword",
        "truncated", "no_matrices", "empty", "dim_without_value", "no_dim",
        "not_unitary", "unitary_only_to_1e-8"])
def test_parse_sampled_nodes_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_sampled_nodes(text, 4)


@pytest.mark.parametrize("name", ["exact_ea2", "sampled_file:unread.txt"])
def test_spec_by_name_rejects_points_for_non_qubit_specs(qubit_model, name):
    with pytest.raises(ValueError, match="points_per_angle"):
        spec_by_name(name, qubit_model, points_per_angle=8)


@pytest.mark.parametrize("points, uniform_count, tilted_count", [
    (4, 32, 21), (5, 525, 525), (8, 640, 553), (16, 12800, 11985)])
def test_merged_qubit_grid_node_counts(points, uniform_count, tilted_count):
    # grid points coincide under (phi, theta, psi) -> (phi + pi, -theta, psi)
    # and (phi, pi - theta, psi + pi), and where sin(theta) = 0 drops phi or
    # cos(theta) = 0 drops psi; one node per distinct unitary leaves the
    # channel unchanged but shrinks the node list to these counts
    for build, count in ((qubit_uniform_spec, uniform_count),
                         (qubit_tilted_spec, tilted_count)):
        ws = build(points).nodes[0]
        assert ws.size == count
        assert abs(ws.sum() - 1.0) < 1e-12
        assert ws.min() > 0 and np.all(np.diff(ws) <= 0)


def transpose_map(n):
    """The transpose on n x n matrices as a channel matrix: trace preserving,
    unital and HS self-adjoint, but not completely positive; its Choi
    matrix is the swap, with eigenvalue -1."""
    q = np.zeros((n * n, n * n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        q[i * n + j, j * n + i] = 1.0
    return q


def depolarizing(model):
    """Q(X) = Tr(X) 1 / d^2 on the pair: CP, unital and HS self-adjoint, but
    it moves every operator to the identity, across the pair energies."""
    n = model.dim ** 2
    diag = np.arange(n) * (n + 1)
    return CollisionSpec(model, "depolarizing", (np.repeat(diag, n), np.tile(diag, n),
                                                 np.full(n * n, 1.0 / n, dtype=complex)))


def test_closed_form_residuals_match_their_dense_formulas(qubit_model, rng):
    # verify_spec reads only the nonzeros; the seven residuals by their dense
    # formulas on the whole matrix, for maps that break each axiom: a random
    # complex matrix breaks all seven, the transpose complete positivity and
    # the pair energy, the population swap and the depolarizing channel only
    # the pair energy, the first-factor dephasing only the factor swap; the
    # maps |00><00| -> |00><11| and -> |11><00| move the column and the row
    # pair energy alone, and break the first four rows too (the second, CP)
    from test_symmetric import dephase_first_factor

    swap = np.zeros((16, 16), dtype=complex)
    swap[0, 15] = swap[15, 0] = 1.0
    swap[np.ix_([5, 10], [5, 10])] = 0.5
    column_move, row_move = np.zeros((2, 16, 16), dtype=complex)
    column_move[3, 0] = row_move[12, 0] = 1.0
    specs = [qubit_tilted_spec(), exact_EA2_spec(SingleParticleModel((0, 1, 2))),
             *(CollisionSpec(qubit_model, "map", nonzeros(q))
               for q in (random_matrix(rng, 16), transpose_map(4), swap)),
             qubit_uniform_spec(), qubit_tilted_spec(4), dephase_first_factor(),
             depolarizing(qubit_model), depolarizing(SingleParticleModel((0, 1, 2))),
             *(CollisionSpec(qubit_model, "map", nonzeros(q)) for q in (column_move, row_move))]
    for spec in specs:
        q = dense_channel(spec)
        n = spec.dim ** 2
        eye = np.eye(n).reshape(-1)
        s4 = q.reshape(n, n, n, n)
        s8 = q.reshape((spec.dim,) * 8)
        e2 = np.add.outer(*[np.array(spec.model.energies)] * 2).reshape(-1)
        moved = (e2[:, None, None, None] != e2[:, None]) | (e2[:, None, None] != e2)
        want = {"trace_preserving": np.abs(eye @ q - eye).max(),
                "unital": np.abs(q @ eye - eye).max(),
                "hermiticity_preserving": np.abs(s4 - s4.transpose(1, 0, 3, 2).conj()).max(),
                "hs_self_adjoint": np.abs(q - q.conj().T).max(),
                "factor_swap": np.abs(s8.transpose(1, 0, 3, 2, 5, 4, 7, 6) - s8).max(),
                "pair_energy": np.abs(s4[moved]).max(initial=0.0),
                "completely_positive": max(0.0, -np.linalg.eigvalsh(choi(q)).min())}
        got = spec.pairing_residuals
        if spec.nodes is None:      # verify_spec checks a sampled spec's nodes instead
            got = verify_spec(spec).residuals
            assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 for k in got), (spec.name, got, want)
    assert min(verify_spec(specs[2]).residuals.values()) > 0.1
    broken = [[v.split(":")[0] for v in verify_spec(spec).violations] for spec in specs[3:]]
    assert broken == [["pair_energy", "completely_positive"], ["pair_energy"], [], [],
                      ["factor_swap"], ["pair_energy"], ["pair_energy"],
                      ["trace_preserving", "unital", "hermiticity_preserving",
                       "hs_self_adjoint", "pair_energy"],
                      ["trace_preserving", "unital", "hermiticity_preserving",
                       "hs_self_adjoint", "pair_energy", "completely_positive"]]
    assert verify_spec(dephase_first_factor()).residuals["factor_swap"] == 1.0
    assert verify_spec(depolarizing(qubit_model)).residuals["pair_energy"] == 0.25


def test_cp_residual_on_the_choi_support_matches_the_full_eigensolve(qubit_model):
    # verify_spec solves the Choi matrix on its rows and columns that are not
    # both zero; every closed-form built-in spec at d <= 4 and the transpose
    # map agree with the eigensolve of the whole Choi matrix
    specs = [qubit_uniform_spec(), qubit_tilted_spec(),
             CollisionSpec(qubit_model, "transpose", nonzeros(transpose_map(4)))]
    specs += [exact_EA2_spec(SingleParticleModel(e))
              for e in [(0, 1), (0, 0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 4, 5)]]
    for spec in specs:
        want = max(0.0, -np.linalg.eigvalsh(choi(dense_channel(spec))).min())
        got = verify_spec(spec).residuals["completely_positive"]
        assert abs(got - want) <= 1e-15, spec.name
    transpose = verify_spec(specs[2])
    assert transpose.residuals["completely_positive"] == pytest.approx(1.0, abs=1e-15)
    assert [v.split(":")[0] for v in transpose.violations] == ["pair_energy",
                                                               "completely_positive"]


def assert_node_arrays(nodes, d2):
    """Float weights (m,) summing to one, heaviest first, and complex
    unitaries (m, d2, d2)."""
    ws, us = nodes
    assert isinstance(ws, np.ndarray) and ws.dtype == float and ws.ndim == 1
    assert isinstance(us, np.ndarray) and us.dtype == complex and us.shape == (len(ws), d2, d2)
    assert abs(ws.sum() - 1.0) < 1e-12
    assert np.all(np.diff(ws) <= 0)


def test_node_builders_return_weight_and_unitary_arrays(tmp_path, qubit_model):
    for tilted in (False, True):
        assert_node_arrays(collisions._qubit_grid_nodes(5, tilted), 4)
    u = one_excitation_rotation()
    assert_node_arrays(symmetrize_nodes((np.array([0.2, 0.8]), np.stack([np.eye(4), u])), 2), 4)
    # parsed nodes keep the file order, here heaviest first
    text = node_text([(3, np.eye(4)), (1.0, u)])
    assert_node_arrays(parse_sampled_nodes(text, 4), 4)
    path = tmp_path / "nodes.txt"
    path.write_text(text)
    assert_node_arrays(sampled_spec_from_file(path, qubit_model).nodes, 4)
