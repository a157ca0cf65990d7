import math
import time

import numpy as np
import pytest

from qkac import master
from qkac.collisions import (CollisionSpec, exact_EA2_spec, qubit_tilted_spec,
                             qubit_uniform_spec, spec_by_name, superoperator_from_nodes)
from qkac.errors import NumericalContractError
from qkac.master import (KacGenerator, _lanczos_fixed_vectors, _null_blocks, _sparse_blocks,
                         apply_LN, apply_pair_channel, apply_QN, entropy_production,
                         evolve_master, ln_null_basis, steady_state_classes,
                         steady_states_basis)
from qkac.operators import (commutator, partial_trace, relative_entropy, swap_unitary,
                            trace_norm)
from qkac.spectra import (SingleParticleModel, commutant_projection, is_fully_ergodic,
                          shell_structure)
from qkac.symmetric import SymmetricGenerator
from qkac.tolerances import TOL_PSD
from conftest import random_matrix, random_state, symmetrize_state
from oracles import (_shell_block, as_map, dense_channel, dense_block_fixed_vectors, embed_pair,
                     hermitian_function, identity_spec, permutation_covariance_check,
                     qn_spectrum, shell_state, tensor_power)
from test_pair_kernel import random_family_spec
from test_random_specs import closed_spec


def pair_sum_oracle(spec, rho, num_particles):
    """Direct summation oracle: embed every collision unitary at every
    pair, conjugate, and average with the node weights."""
    from qkac.operators import FactorShape

    shape = FactorShape(num_particles, spec.model.dim)
    total = np.zeros_like(rho)
    pairs = [(i, j) for i in range(num_particles)
             for j in range(i + 1, num_particles)]
    for (i, j) in pairs:
        for w, u in zip(*spec.nodes):
            ue = embed_pair(u, i, j, shape)
            total += w * (ue @ rho @ ue.conj().T)
    return total / len(pairs)


def test_apply_qn_fixes_shell_states(tilted_spec):
    gen = KacGenerator(tilted_spec, 3)
    for E in (0, 1, 2, 3):
        sigma = shell_state(tilted_spec.model, 3, E)
        assert np.abs(apply_QN(gen, sigma) - sigma).max() < 1e-13


def test_apply_qn_two_particles_is_the_pair_channel(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 2)
    q = as_map(dense_channel(tilted_spec))
    a = random_matrix(rng, 4)
    assert np.abs(apply_QN(gen, a) - q(a)).max() < 1e-13


def test_apply_qn_matches_direct_summation_oracle(uniform_spec):
    gen = KacGenerator(uniform_spec, 3)
    rho = np.zeros((8, 8), dtype=complex)
    rho[4, 4] = 1.0  # |100><100|
    got = apply_QN(gen, rho)
    want = pair_sum_oracle(qubit_uniform_spec(8), rho, 3)
    assert np.abs(got - want).max() < 1e-12
    # supported on the E=1 shell: indices 1, 2, 4
    support = np.where(np.abs(np.diag(got)) > 1e-14)[0]
    assert set(support) <= {1, 2, 4}
    assert abs(np.trace(got) - 1.0) < 1e-13


def test_apply_qn_random_oracle(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    rho = random_state(rng, 8)
    assert np.abs(apply_QN(gen, rho)
                  - pair_sum_oracle(qubit_tilted_spec(8), rho, 3)).max() < 1e-12


def test_apply_pair_channel_rejects_bad_pairs(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    a = random_matrix(rng, 8)
    for i, j in [(-1, 0), (0, -1), (0, 3), (3, 1), (1, 1)]:
        with pytest.raises(ValueError, match=rf"pair \({i}, {j}\)"):
            apply_pair_channel(gen, a, i, j)
    # a reversed pair is the channel with its two factors swapped
    swap = np.eye(4)[[0, 2, 1, 3]]
    sw = embed_pair(swap, 0, 2, gen.shape)
    want = sw @ apply_pair_channel(gen, sw @ a @ sw, 0, 2) @ sw
    assert np.abs(apply_pair_channel(gen, a, 2, 0) - want).max() < 1e-13


def test_kernel_rejects_mismatched_operands(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    # the (d,) * 2N tensor view is not an operand either
    for bad in (random_matrix(rng, 4), np.zeros((2,) * 4), np.zeros((8, 4)), np.zeros((2,) * 6)):
        with pytest.raises(ValueError, match="does not match dimension 8"):
            apply_QN(gen, bad)
        with pytest.raises(ValueError, match="does not match dimension 8"):
            apply_pair_channel(gen, bad, 0, 1)


def test_apply_ln_trivia(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    sigma = shell_state(tilted_spec.model, 3, 2)
    assert np.abs(apply_LN(gen, sigma)).max() < 1e-12
    rho = random_state(rng, 8)
    assert abs(np.trace(apply_LN(gen, rho))) < 1e-12


def units_block_oracle(gen, rows, cols):
    """Q_N on the rows x cols block, one matrix unit at a time."""
    dim = gen.shape.dim
    images = []
    for r in rows:
        for c in cols:
            unit = np.zeros((dim, dim), dtype=complex)
            unit[r, c] = 1.0
            images.append(apply_QN(gen, unit)[np.ix_(rows, cols)].reshape(-1))
    return np.array(images).T


@pytest.mark.parametrize("spec_name,energies,n,all_blocks", [
    ("qubit_tilted", (0, 1), 5, False),
    ("qubit_uniform", (0, 1), 4, False),
    ("exact_ea2", (0, 1, 2), 3, False),
    ("exact_ea2", (0, 1, 4, 5), 3, False),
    ("identity", (0, 1, 3), 3, True),
    ("qubit_tilted", (0, 1), 4, True),
    ("exact_ea2", (0, 1, 2), 3, True),
])
def test_shell_block_matches_matrix_unit_oracle(spec_name, energies, n,
                                                all_blocks):
    model = SingleParticleModel(energies)
    spec = (identity_spec(model) if spec_name == "identity"
            else spec_by_name(spec_name, model))
    gen = KacGenerator(spec, n)
    shells = shell_structure(model, n).shells
    for ei, (_, rows) in enumerate(shells):
        for ej, (_, cols) in enumerate(shells):
            if all_blocks or ei == ej:
                want = units_block_oracle(gen, rows, cols)
                assert np.abs(_shell_block(gen, rows, cols) - want).max() < 1e-12



@pytest.mark.parametrize("energies", [(0, 0, 1), (0, 1, 1, 2)])
def test_shell_block_sums_moves_that_meet_on_degenerate_levels(energies):
    # on degenerate levels a channel entry can move one digit of the row
    # and one of the column, so two pairs sharing that factor send one
    # block entry to the same place and both contributions must be kept
    model = SingleParticleModel(energies)
    gen = KacGenerator(exact_EA2_spec(model), 3)
    for _, rows in shell_structure(model, 3).shells:
        want = units_block_oracle(gen, rows, rows)
        assert np.abs(_shell_block(gen, rows, rows) - want).max() < 1e-12

@pytest.mark.parametrize("n", [2, 3])
def test_qn_spectrum_in_unit_interval(uniform_spec, tilted_spec, n):
    for spec in (uniform_spec, tilted_spec):
        w = qn_spectrum(KacGenerator(spec, n))
        assert w.min() > -1e-10
        assert w.max() < 1.0 + 1e-10


def test_evolve_time_zero(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 2)
    rho = random_state(rng, 4)
    assert np.array_equal(evolve_master(gen, rho, 0.0), rho)


def test_evolve_rejects_negative_time(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 2)
    with pytest.raises(ValueError):
        evolve_master(gen, random_state(rng, 4), -0.1)
    # a non-finite time would reach the piece count, math.ceil(N t / rate)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            evolve_master(gen, random_state(rng, 4), bad)
    # a negative tail tolerance would never end the jump series
    with pytest.raises(ValueError, match="tail tolerance must be non-negative"):
        evolve_master(gen, random_state(rng, 4), 0.1, tail_tol=-1e-12)


def test_evolve_checks_the_operand_at_time_zero(tilted_spec, rng):
    # at t = 0 the series is not summed, so no jump checks the operand
    gen = KacGenerator(tilted_spec, 3)
    for t in (0.0, 0.1):
        with pytest.raises(ValueError, match="does not match dimension 8"):
            evolve_master(gen, random_state(rng, 3), t)


def test_evolve_refuses_the_tensor_view(tilted_spec, rng):
    # the full-space generator takes only the d^N x d^N matrix
    gen = KacGenerator(tilted_spec, 3)
    with pytest.raises(ValueError, match="does not match dimension 8"):
        evolve_master(gen, random_state(rng, 8).reshape((2,) * 6), 0.5)


def test_evolve_semigroup_property(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    rho = random_state(rng, 8)
    one = evolve_master(gen, evolve_master(gen, rho, 0.35), 0.65)
    two = evolve_master(gen, rho, 1.0)
    assert np.abs(one - two).max() < 1e-9


def test_evolve_preserves_state_properties(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    rho = random_state(rng, 8)
    out = evolve_master(gen, rho, 2.0)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-11
    assert np.linalg.eigvalsh(out).min() > -1e-9


def test_evolve_long_time_reaches_commutant_projection(uniform_spec,
                                                       tilted_spec, rng):
    for spec in (uniform_spec, tilted_spec):
        for n in (2, 3):
            gen = KacGenerator(spec, n)
            rho = random_state(rng, 2 ** n)
            out = evolve_master(gen, rho, 50.0 / n)
            limit = commutant_projection(spec.model, n, rho)
            assert trace_norm(out - limit) < 1e-6


def test_evolve_long_horizon_splits_the_series(tilted_spec, rng):
    # a rate N t of 3000 stalls a single Poisson sum short of its tail
    # tolerance; the split series must still reach the limit
    gen = KacGenerator(tilted_spec, 3)
    rho = random_state(rng, 8)
    out = evolve_master(gen, rho, 1000.0)
    limit = commutant_projection(tilted_spec.model, 3, rho)
    assert np.abs(out - limit).max() < 1e-10


def test_null_space_matches_classes_ergodic(uniform_spec, tilted_spec):
    # cross-module oracle: fixed-space dimension equals the class count
    for spec in (uniform_spec, tilted_spec):
        for n in (2, 3):
            gen = KacGenerator(spec, n)
            basis = ln_null_basis(gen)
            assert len(basis) == n + 1  # one class per shell for two levels


def test_null_space_matches_classes_d3():
    model = SingleParticleModel((0, 1, 2))
    spec = exact_EA2_spec(model)
    from qkac.spectra import class_projections

    for n in (2, 3):
        gen = KacGenerator(spec, n)
        assert len(ln_null_basis(gen)) == len(class_projections(model, n))


def test_null_space_nonergodic_spec(qubit_model):
    # the identity-only spec fixes everything; all blocks are scanned
    gen = KacGenerator(identity_spec(qubit_model), 2)
    assert len(ln_null_basis(gen)) == 16


def test_null_vectors_commute_and_are_diagonal(uniform_spec):
    gen = KacGenerator(uniform_spec, 3)
    basis = ln_null_basis(gen)
    for a in basis:
        off = a - np.diag(np.diag(a))
        assert np.abs(off).max() < 1e-9
        for b in basis:
            assert np.abs(commutator(a, b)).max() < 1e-9


def test_steady_states_basis_two_particles(uniform_spec):
    states = steady_states_basis(KacGenerator(uniform_spec, 2))
    assert len(states) == 3
    by_energy = {E: s for E, s, _ in states}
    assert np.allclose(np.diag(by_energy[0]), [1, 0, 0, 0])
    assert np.allclose(np.diag(by_energy[1]), [0, 0.5, 0.5, 0])
    assert np.allclose(np.diag(by_energy[2]), [0, 0, 0, 1])
    gen = KacGenerator(uniform_spec, 2)
    for E, s, rank in states:
        # every basis state is a fixed point of the evolution,
        # diagonal in the product eigenbasis (hence separable)
        assert np.abs(evolve_master(gen, s, 1.0) - s).max() < 1e-12
        assert np.abs(s - np.diag(np.diag(s))).max() == 0.0


def test_steady_state_classes_at_N9_match_the_class_counts(tilted_spec):
    # N = 9 has a 15876-row E = 4 block; the sparse path needs no force
    gen = KacGenerator(tilted_spec, 9)
    _, counts = is_fully_ergodic(tilted_spec.model, 9)
    classes = steady_state_classes(gen)
    assert len(classes) == 10
    assert classes == [(E, math.comb(9, E)) for E in range(10)]
    assert all(counts[E] == 1 for E, _ in classes)


def make_spec(name, energies):
    model = SingleParticleModel(energies)
    if name == "half_swap":
        # moves one pair digit of the row and none of the column, e.g.
        # |01><00| to |10><00|: the row and column pair energies differ
        d = model.dim
        nodes = np.array([0.5, 0.5]), np.stack([np.eye(d * d, dtype=complex), swap_unitary(d)])
        return CollisionSpec(model, name, superoperator_from_nodes(nodes), nodes)
    if name == "random_family":
        return closed_spec(random_family_spec(energies, 0, 2), 0.5)
    return identity_spec(model) if name == "identity" else spec_by_name(name, model)


def dense_from_triples(diag, i, j, val):
    block = np.diag(diag).astype(complex)
    np.add.at(block, (i, j), val)
    return block


@pytest.mark.parametrize("spec_name,energies,n", [
    ("qubit_tilted", (0, 1), 4), ("qubit_uniform", (0, 1), 3), ("exact_ea2", (0, 1, 2), 3),
    ("exact_ea2", (0, 0, 1), 3), ("exact_ea2", (0, 1, 1, 2), 3), ("identity", (0, 1, 3), 3),
    ("half_swap", (0, 1, 3), 3), ("random_family", (0, 1, 2), 3),
])
def test_sparse_block_matches_dense_block(spec_name, energies, n, monkeypatch):
    # every shell block, off-diagonal ones included; the degenerate models
    # send moves on different pairs to one entry, which must be summed.  The
    # second pass assembles every block of more than 7 triples in batches
    gen = KacGenerator(make_spec(spec_name, energies), n)
    for chunk in (master.MATVEC_CHUNK, 7):
        monkeypatch.setattr(master, "MATVEC_CHUNK", chunk)
        blocks = list(_sparse_blocks(gen, diagonal_only=False))
        assert len(blocks) == len(shell_structure(gen.spec.model, n).shells) ** 2
        for _, rows, _, cols, (diag, i, j, val) in blocks:
            want = _shell_block(gen, rows, cols)
            assert np.abs(dense_from_triples(diag, i, j, val) - want).max() < 1e-15
    # qubit_uniform at N = 3 has at most 6 triples a block, identity none
    most = max(len(block[3]) for *_, block in blocks)
    assert most > 2 * chunk or spec_name in ("identity", "qubit_uniform")
    # the block diagonals, gathered from the pair diagonal, are the full one's
    assert "_diag" not in vars(gen)
    full = gen._diag.reshape(gen.shape.dim, -1)
    for _, rows, _, cols, (diag, *_) in blocks:
        assert np.array_equal(diag, full[np.ix_(rows, cols)].ravel().astype(complex))


@pytest.mark.parametrize("spec_name,energies,n", [
    ("qubit_tilted", (0, 1), 6), ("exact_ea2", (0, 1, 2), 4), ("random_family", (0, 1, 2), 3),
])
def test_real_blocks_are_searched_in_real_arithmetic(spec_name, energies, n):
    # the built-in specs have a real pair diagonal and real move weights, so
    # their blocks are float64; a random unitary family's are complex.  A real
    # block and its complex cast give one fixed space and one last run
    gen = KacGenerator(make_spec(spec_name, energies), n)
    blocks = [block for *_, block in _sparse_blocks(gen, diagonal_only=True)]
    want = complex if spec_name == "random_family" else np.float64
    assert all(diag.dtype == val.dtype == want for diag, _, _, val in blocks)
    if want is complex:
        return
    for diag, i, j, val in blocks:
        vecs, theta = _lanczos_fixed_vectors(diag, i, j, val, 1e-8)
        got, got_theta = _lanczos_fixed_vectors(diag.astype(complex), i, j, val.astype(complex),
                                                1e-8)
        assert vecs.dtype == np.float64 and got.dtype == complex
        assert np.abs(got.T @ got.conj() - vecs.T @ vecs.conj()).max() < 1e-12
        assert len(got_theta) == len(theta)
        assert np.abs(got_theta - theta).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("spec_name,energies,n", [
    ("qubit_tilted", (0, 1), 6), ("exact_ea2", (0, 1, 2), 4),
])
def test_only_apply_qn_builds_the_full_diagonal(spec_name, energies, n, monkeypatch, rng):
    made = []

    class Recorded(KacGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    # is_ergodic, which steady_state_classes calls, builds its own generator
    monkeypatch.setattr(master, "KacGenerator", Recorded)
    gen = Recorded(make_spec(spec_name, energies), n)
    steady_state_classes(gen)
    rho = random_state(rng, gen.shape.dim)
    apply_pair_channel(gen, rho, 0, n - 1)
    assert len(made) == 2 and not any("_diag" in vars(g) for g in made)
    apply_QN(gen, rho)
    assert "_diag" in vars(gen)


@pytest.mark.parametrize("spec_name,energies,n,all_blocks", [
    ("qubit_tilted", (0, 1), 2, True), ("qubit_tilted", (0, 1), 4, True),
    ("qubit_tilted", (0, 1), 6, False), ("qubit_uniform", (0, 1), 3, True),
    ("qubit_uniform", (0, 1), 6, False), ("exact_ea2", (0, 1, 2), 3, True),
    ("exact_ea2", (0, 1, 2), 4, False), ("exact_ea2", (0, 1, 4, 5), 3, True),
    ("identity", (0, 1), 2, True), ("identity", (0, 1, 3), 2, True),
    ("half_swap", (0, 1), 3, True), ("half_swap", (0, 1, 3), 3, True),
    # degenerate levels: moves on different pairs meet on one entry, and the
    # matvec sums the unmerged triples
    ("exact_ea2", (0, 0, 1), 3, True), ("exact_ea2", (0, 1, 1, 2), 3, True),
])
def test_lanczos_fixed_spaces_match_dense_eigh(spec_name, energies, n, all_blocks):
    gen = KacGenerator(make_spec(spec_name, energies), n)
    total = 0
    for _, rows, _, cols, vecs, _ in _null_blocks(gen, 1e-8, diagonal_only=not all_blocks):
        want = dense_block_fixed_vectors(gen, rows, cols)
        assert len(vecs) == len(want)
        assert np.abs(vecs.T @ vecs.conj() - want.T @ want.conj()).max() < 1e-12
        total += len(vecs)
    if spec_name == "identity":
        # Q_N = 1: every run finds one vector, deflates it and restarts
        assert total == len(energies) ** (2 * n)


@pytest.mark.parametrize("spec_name,energies,n", [
    ("qubit_tilted", (0, 1), 6), ("exact_ea2", (0, 1, 2), 4), ("exact_ea2", (0, 0, 1), 3),
])
def test_lanczos_matvec_sums_across_chunks(spec_name, energies, n, monkeypatch):
    # every test block, and every test sector, has far fewer triples than
    # one matvec pass gathers, so a tiny pass size makes the chunk loop sum
    # each matvec in pieces; the qubit sector has no triples to chunk
    import qkac.master as master

    gen = KacGenerator(make_spec(spec_name, energies), n)
    blocks = [block for *_, block in _sparse_blocks(gen, diagonal_only=True)]
    whole = [_lanczos_fixed_vectors(*block, 1e-8) for block in blocks]
    sector = SymmetricGenerator(gen.spec, n)
    c = [1, 1j] @ np.random.default_rng(n).standard_normal((2, sector.size))
    jump = sector.jump(c)
    monkeypatch.setattr(master, "MATVEC_CHUNK", 7)
    assert max(len(val) for *_, val in blocks) > 10 * master.MATVEC_CHUNK
    assert len(sector._qn[3]) > 5 * master.MATVEC_CHUNK or sector.spec.dim == 2
    for block, (vecs, theta) in zip(blocks, whole):
        got, got_theta = _lanczos_fixed_vectors(*block, 1e-8)
        assert len(got) == len(vecs) and len(got_theta) == len(theta)
        assert np.abs(got.T @ got.conj() - vecs.T @ vecs.conj()).max(initial=0.0) < 1e-12
        assert np.abs(got_theta - theta).max(initial=0.0) < 1e-12
    assert np.abs(sector.jump(c) - jump).max() < 1e-15


def test_ritz_values_are_the_bernoulli_laplace_spectrum_at_N8(tilted_spec):
    # the populations of shell E move like the Bernoulli-Laplace urn, whose
    # eigenvalues are 1 - j (N - j + 1) / (N (N - 1)), j <= min(E, N - E);
    # j = 0 is the fixed vector, so the last run starts at j = 1
    n = 8
    gen = KacGenerator(tilted_spec, n)
    for E, _, _, _, vecs, theta in _null_blocks(gen, 1e-8, diagonal_only=True):
        assert len(vecs) == 1
        top = np.sort(theta)[::-1][:min(E, n - E, 3)]
        want = [1 - j * (n - j + 1) / (n * (n - 1)) for j in range(1, len(top) + 1)]
        assert np.abs(top - want).max(initial=0.0) < 1e-12


def test_lanczos_stops_without_breakdown_on_a_dense_spectrum():
    # 1998 distinct eigenvalues in [0, 0.8] and 1 twice: no run breaks down
    # before step 1998, yet converged fixed vectors end the first two runs
    # and the start's vanishing fixed component ends the last one
    n = 2000
    diag = np.concatenate([np.random.default_rng(1).uniform(0.0, 0.8, n - 2), [1.0, 1.0]])
    empty = np.zeros(0, dtype=np.intp)
    vecs, theta = _lanczos_fixed_vectors(diag, empty, empty, np.zeros(0), 1e-8)
    want = np.zeros((n, n))
    want[-2:, -2:] = np.eye(2)
    assert len(vecs) == 2
    assert np.abs(vecs.T @ vecs.conj() - want).max() < 1e-12
    assert 0 < len(theta) < 100 and theta.max() < 0.8 + 1e-12


def test_lanczos_finds_a_fixed_vector_past_an_inexact_breakdown():
    # one fixed vector next to 1999 eigenvalues 1e-6 below it: the first
    # beta, about 1e-6 times the start's component n**-0.5 along the fixed
    # vector, lies under the breakdown threshold sqrt(n eps), though the
    # lone Ritz value is 1e-6 from 1; only the start's certificate can
    # tell that the run has not yet seen the fixed vector
    n = 2000
    diag = np.concatenate([[1.0], np.full(n - 1, 1.0 - 1e-6)])
    empty = np.zeros(0, dtype=np.intp)
    vecs, _ = _lanczos_fixed_vectors(diag, empty, empty, np.zeros(0), 1e-8)
    assert len(vecs) == 1
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12


def test_lanczos_stops_past_its_limit():
    # Q = 1 on 1000 rows: each run deflates one vector, and the search
    # ends once it holds one vector more than the limit
    n = 1000
    empty = np.zeros(0, dtype=np.intp)
    vecs, theta = _lanczos_fixed_vectors(np.ones(n), empty, empty, np.zeros(0), 1e-8, limit=3)
    assert len(vecs) == 4 and len(theta) == 0
    assert np.abs(vecs.conj() @ vecs.T - np.eye(4)).max() < 1e-12


def test_three_level_steady_states_at_N6_match_the_class_counts():
    # the exact_ea2 blocks of three levels have close eigenvalues whose
    # rounding hides the breakdown; the run stops on the start's certificate
    model = SingleParticleModel((0, 1, 2))
    start = time.perf_counter()
    classes = steady_state_classes(KacGenerator(exact_EA2_spec(model), 6))
    assert time.perf_counter() - start < 20
    _, counts = is_fully_ergodic(model, 6)
    assert [E for E, _ in classes] == sorted(counts)
    assert sum(rank for _, rank in classes) == 3 ** 6


@pytest.mark.parametrize("delta,raises", [(1e-6, True), (2e-9, False)])
def test_non_hermitian_block_raises(tilted_spec, delta, raises):
    # the channel gives its first move a weight off from its reverse's by
    # delta binom(N, 2); on the N = 3 blocks, which carry s / binom(N, 2),
    # the two differ by delta
    rows, cols, q = tilted_spec.channel
    first = np.flatnonzero(rows != cols)[0]
    q = q.copy()
    q[first] += delta * math.comb(3, 2)
    gen = KacGenerator(CollisionSpec(tilted_spec.model, "bent", (rows, cols, q)), 3)
    if raises:
        with pytest.raises(NumericalContractError, match="not Hermitian"):
            ln_null_basis(gen)
    else:
        assert len(ln_null_basis(gen)) == 4


def test_move_without_reverse_raises(tilted_spec):
    # the channel drops the reverse of its first move
    rows, cols, q = tilted_spec.channel
    first = np.flatnonzero(rows != cols)[0]
    keep = (rows != cols[first]) | (cols != rows[first])
    assert np.count_nonzero(~keep) == 1
    spec = CollisionSpec(tilted_spec.model, "one_way", (rows[keep], cols[keep], q[keep]))
    with pytest.raises(NumericalContractError, match="not Hermitian"):
        ln_null_basis(KacGenerator(spec, 3))


def test_steady_states_nonergodic_mismatch_raises(qubit_model):
    gen = KacGenerator(identity_spec(qubit_model), 2)
    with pytest.raises(NumericalContractError):
        steady_states_basis(gen)


def test_entropy_production_zero_at_fixed_point(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 2)
    rho = random_state(rng, 4)
    fixed = commutant_projection(tilted_spec.model, 2, rho)
    rate, _ = entropy_production(gen, fixed)
    assert abs(rate) < 1e-10


def test_entropy_production_nonnegative(uniform_spec, tilted_spec, rng):
    for spec in (uniform_spec, tilted_spec):
        for n in (2, 3):
            gen = KacGenerator(spec, n)
            for _ in range(25):
                rho = random_state(rng, 2 ** n)
                rate, ratio = entropy_production(gen, rho)
                assert rate > -1e-9
                assert ratio is None or ratio > -1e-9


def test_entropy_production_matches_finite_difference(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 2)
    rho = random_state(rng, 4)
    fixed = commutant_projection(tilted_spec.model, 2, rho)
    rate, _ = entropy_production(gen, rho)
    delta = 1e-5
    evolved = evolve_master(gen, rho, delta)
    fd = (relative_entropy(rho, fixed) - relative_entropy(evolved, fixed)) / delta
    assert abs(fd - rate) < 5e-4 * max(1.0, abs(rate))


def entropy_production_oracle(gen, rho):
    """entropy_production as it was before it diagonalized rho only once:
    rho and rho_inf are each diagonalized three times."""
    rho = np.asarray(rho, dtype=complex)
    rho_inf = commutant_projection(gen.spec.model, gen.num_particles, rho,
                                   force=gen.force)
    w_rho = np.linalg.eigvalsh(rho)
    w_inf = np.linalg.eigvalsh(rho_inf)
    ker_rho = (w_rho <= TOL_PSD).sum()
    ker_inf = (w_inf <= TOL_PSD).sum()
    if ker_rho > ker_inf:
        return float("inf"), None
    log_rho = hermitian_function(rho, lambda w: np.log(np.maximum(w, TOL_PSD)))
    log_inf = hermitian_function(rho_inf, lambda w: np.log(np.maximum(w, TOL_PSD)))
    rate = -np.trace(apply_LN(gen, rho) @ (log_rho - log_inf)).real
    rel = relative_entropy(rho, rho_inf)
    ratio = rate / rel if rel > TOL_PSD and np.isfinite(rel) else None
    return float(rate), ratio


@pytest.mark.parametrize("n", [2, 3, 4])
def test_entropy_production_matches_oracle(uniform_spec, tilted_spec, qubit_model, rng, n):
    pure = np.zeros((2 ** n, 2 ** n), dtype=complex)
    pure[0, 0] = 1.0
    one = random_state(rng, 2)
    for spec in (tilted_spec, uniform_spec, identity_spec(qubit_model)):
        gen = KacGenerator(spec, n)
        states = [random_state(rng, 2 ** n) for _ in range(3)]
        states += [tensor_power(one, n), pure,
                   commutant_projection(qubit_model, n, states[0])]
        for rho in states:
            rate, ratio = entropy_production(gen, rho)
            want_rate, want_ratio = entropy_production_oracle(gen, rho)
            if want_rate == float("inf"):
                assert (rate, ratio) == (want_rate, want_ratio)
                continue
            assert abs(rate - want_rate) < 1e-12
            assert (ratio is None) == (want_ratio is None)
            assert ratio is None or abs(ratio - want_ratio) < 1e-12 * max(1.0, abs(want_ratio))


def test_evolve_master_reports_the_negative_eigenvalue(tilted_spec):
    # a non-state input keeps a negative eigenvalue for a short time; the
    # Cholesky certificate fails and eigvalsh names the eigenvalue
    gen = KacGenerator(tilted_spec, 2)
    rho0 = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    image = evolve_master(gen, rho0, 1e-3, tol_psd=1.0)
    lo = np.linalg.eigvalsh((image + image.conj().T) / 2).min()
    assert lo < -0.1
    with pytest.raises(NumericalContractError, match=f"negative eigenvalue {lo:.3e}"):
        evolve_master(gen, rho0, 1e-3)


def test_permutation_covariance(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    rho = symmetrize_state(random_state(rng, 8), gen.shape)
    res = permutation_covariance_check(gen, rho, [1, 2, 0], rng=rng)
    assert res["symmetric_state"] < 1e-10
    assert res["pair_relabel"] < 1e-10
    res_id = permutation_covariance_check(gen, rho, [0, 1, 2], rng=rng)
    assert res_id["symmetric_state"] == 0.0
    res_swap = permutation_covariance_check(gen, rho, [1, 0, 2], rng=rng)
    assert res_swap["pair_relabel"] < 1e-10


def test_symmetric_states_stay_symmetric(tilted_spec, rng):
    gen = KacGenerator(tilted_spec, 3)
    rho = symmetrize_state(random_state(rng, 8), gen.shape)
    out = evolve_master(gen, rho, 0.7)
    assert np.abs(symmetrize_state(out, gen.shape) - out).max() < 1e-10


def test_marginal_flow_consistency(tilted_spec, rng):
    # for symmetric N-particle data the one-particle marginal flows with
    # twice the pair-channel gain of the two-particle marginal
    gen = KacGenerator(tilted_spec, 3)
    rho = symmetrize_state(random_state(rng, 8), gen.shape)
    m2 = partial_trace(rho, gen.shape, keep=2)
    q = as_map(dense_channel(tilted_spec))
    from qkac.operators import FactorShape

    want = 2.0 * (partial_trace(q(m2), FactorShape(2, 2), keep=1)
                  - partial_trace(m2, FactorShape(2, 2), keep=1))
    delta = 1e-6
    evolved = evolve_master(gen, rho, delta)
    fd = (partial_trace(evolved, gen.shape, keep=1)
          - partial_trace(rho, gen.shape, keep=1)) / delta
    assert np.abs(fd - want).max() < 1e-4


def test_generators_compare_without_reading_their_arrays(tilted_spec):
    # a dataclass __eq__ compared the ndarray fields and raised ValueError
    a, b = KacGenerator(tilted_spec, 3), KacGenerator(tilted_spec, 3)
    assert a == a and a != b
    assert a.pairs == [(0, 1), (0, 2), (1, 2)]
