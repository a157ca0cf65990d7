"""The symmetric-sector generator against the dense N-particle path.

Each spec's sector must have C(N + d^2 - 1, N) coefficients, the product
state's coefficients must expand to ``tensor_power``, and after
``evolve_master`` the expanded state and its one- and two-particle
marginals must match the dense evolution and ``partial_trace``.  For
qubits the spin blocks, each repeated as often as its irreducible
representation of the permutations, must hold the spectrum of the
expanded state.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from qkac.collisions import CollisionSpec, exact_EA2_spec, qubit_tilted_spec, qubit_uniform_spec
from qkac.errors import NumericalContractError
from qkac.master import KacGenerator, apply_QN, evolve_master
from qkac.operators import _negative_eigenvalue, partial_trace, random_density, tensor
from qkac.spectra import SingleParticleModel, _add_tables, _by_largest_type
from qkac.symmetric import SymmetricGenerator, _SpinBlocks
from oracles import tensor_power
from test_random_specs import CASES, random_specs, split_spec

NAMED = {
    "qubit_tilted": qubit_tilted_spec,
    "qubit_uniform": qubit_uniform_spec,
    "qubit_tilted_ppa4": lambda: qubit_tilted_spec(points_per_angle=4),
    "qubit_uniform_ppa4": lambda: qubit_uniform_spec(points_per_angle=4),
    "ea2_012": lambda: exact_EA2_spec(SingleParticleModel((0, 1, 2))),
    "ea2_0134": lambda: exact_EA2_spec(SingleParticleModel((0, 1, 3, 4))),
}
NAMED_CASES = [(name, n) for name, d in [("qubit_tilted", 2), ("qubit_uniform", 2),
                                         ("qubit_tilted_ppa4", 2), ("qubit_uniform_ppa4", 2),
                                         ("ea2_012", 3), ("ea2_0134", 4)]
               for n in range(2, 7) if d ** n <= 81]


def dyadic_state(d):
    """A full-rank state whose entries have a few binary digits, so the
    products of up to six of them are exact in any order."""
    top = 2 ** math.ceil(math.log2(d))
    rho = np.diag(np.full(d, 1.0 / top)).astype(complex)
    rho[0, 0] += 1.0 - d / top
    upper = np.triu(np.full((d, d), (1 + 1j) / 64), 1)
    return rho + upper + upper.conj().T


def assert_sector_matches_dense(spec, n, t=0.7):
    d = spec.dim
    gen, dense = SymmetricGenerator(spec, n), KacGenerator(spec, n)
    assert gen.size == math.comb(n + d * d - 1, n)
    rho = dyadic_state(d)
    c = gen.product_state(rho)
    assert np.array_equal(gen.expand(c), tensor_power(rho, n))
    assert gen.trace(c) == pytest.approx(1.0, abs=1e-15)
    rho = random_density(d, np.random.default_rng(n))
    c = gen.product_state(rho)
    assert np.abs(gen.expand(c) - tensor_power(rho, n)).max() < 1e-15
    got = evolve_master(gen, c, t)
    want = evolve_master(dense, tensor_power(rho, n), t)
    assert np.abs(gen.expand(got) - want).max() < 1e-13
    m1, m2 = gen.marginals(got)
    assert np.abs(m1 - partial_trace(want, dense.shape, keep=1)).max() < 1e-13
    assert np.abs(m2 - partial_trace(want, dense.shape, keep=2)).max() < 1e-13


@pytest.mark.parametrize("name,n", NAMED_CASES, ids=[f"{a}-N{n}" for a, n in NAMED_CASES])
def test_named_specs_match_the_dense_path(name, n):
    assert_sector_matches_dense(NAMED[name](), n)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(random_specs(CASES))
def test_random_sector_specs_match_the_dense_path(case):
    assert_sector_matches_dense(*case)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_non_ergodic_split_spec_matches_the_dense_path(n):
    assert_sector_matches_dense(split_spec(), n)


@pytest.mark.parametrize("num_types,n", [(4, 5), (9, 4), (25, 3), (64, 3)])
def test_rank_tables_add_one_particle_in_colex_order(num_types, n):
    # brute force: every multiset of k types, sorted, ranked by its reversed tuple
    for k, table in enumerate(_add_tables(num_types, n), 1):
        rank = {m: r for r, m in enumerate(sorted(
            itertools.combinations_with_replacement(range(num_types), k), key=lambda m: m[::-1]))}
        below = sorted(itertools.combinations_with_replacement(range(num_types), k - 1),
                       key=lambda m: m[::-1])
        assert table.shape == (len(below), num_types)
        want = [[rank[tuple(sorted(m + (t,)))] for t in range(num_types)] for m in below]
        assert np.array_equal(table, want)


@pytest.mark.parametrize("energies,n", [((0, 1, 2, 3, 4), 5), ((0, 1, 3, 7, 12, 20, 30, 44), 3)])
def test_product_marginals_past_a_base_n_plus_1_key(energies, n):
    # 25 types at N = 5 and 64 at N = 3 overflow an int64 key in base N + 1;
    # a product state's marginals are its factor and the factor's square
    spec = exact_EA2_spec(SingleParticleModel(energies))
    gen = SymmetricGenerator(spec, n)
    rho = random_density(spec.dim, np.random.default_rng(1))
    c = gen.product_state(rho)
    assert gen.trace(c) == pytest.approx(1.0, abs=1e-13)
    m1, m2 = gen.marginals(c)
    assert np.abs(m1 - rho).max() < 1e-15
    assert np.abs(m2 - tensor(rho, rho)).max() < 1e-15
    if spec.dim ** n <= 512:
        assert np.abs(gen.expand(c) - tensor_power(rho, n)).max() < 1e-15


def dephase_first_factor():
    """The closed-form channel that fully dephases the first factor of a
    qubit pair and keeps the second: it conserves the pair energy, but
    does not commute with the swap."""
    a, b, f = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    idx = np.ravel_multi_index((a.ravel(), b.ravel(), a.ravel(), f.ravel()), (2,) * 4)
    return CollisionSpec(SingleParticleModel((0, 1)), "dephase_first",
                         (idx, idx.copy(), np.ones(idx.size, complex)))


def test_swap_asymmetric_channel_is_refused():
    with pytest.raises(ValueError, match=r"factor swap \(residual 1\.000e\+00\)"):
        SymmetricGenerator(dephase_first_factor(), 3)


def test_swap_residual_is_measured_against_the_axiom_tolerance():
    rows, cols, q = qubit_tilted_spec().channel
    off = np.flatnonzero(rows != cols)[0]
    for size, refused in [(1e-12, False), (1e-6, True)]:
        bent = q.copy()
        bent[off] += size
        spec = CollisionSpec(SingleParticleModel((0, 1)), "bent", (rows, cols, bent))
        if refused:
            with pytest.raises(ValueError, match=r"residual 1\.000e-06"):
                SymmetricGenerator(spec, 2)
        else:
            SymmetricGenerator(spec, 2)


def test_sector_evolution_keeps_the_checks(tilted_spec):
    gen = SymmetricGenerator(tilted_spec, 3)
    c = gen.product_state(np.diag([0.5, 0.5]))
    with pytest.raises(NumericalContractError, match="trace drifted"):
        evolve_master(gen, 2 * c, 0.1)
    # a Hermitian product of trace one with a negative eigenvalue stays one
    with pytest.raises(NumericalContractError, match="negative eigenvalue"):
        evolve_master(gen, gen.product_state(np.diag([1.5, -0.5])), 0.01)
    with pytest.raises(ValueError, match="operand shape"):
        evolve_master(gen, c[:-1], 0.1)


def test_product_state_takes_a_one_particle_matrix(tilted_spec):
    gen = SymmetricGenerator(tilted_spec, 3)
    assert gen.product_state(np.eye(2) / 2).shape == (gen.size,) == (20,)
    for bad in (np.eye(3) / 3, np.full(4, 0.25), np.eye(4) / 4):
        with pytest.raises(ValueError, match=r"not \(2, 2\)"):
            gen.product_state(bad)


def test_sector_evolution_checks_the_operand_at_time_zero(tilted_spec):
    # at t = 0 the series is not summed, so no jump checks the operand
    gen = SymmetricGenerator(tilted_spec, 3)
    for t in (0.0, 0.1):
        with pytest.raises(ValueError, match=r"is not the sector's \(20,\)"):
            evolve_master(gen, np.ones(7), t)


def test_sector_refuses_weights_past_the_float_range(tilted_spec):
    # the trace weight C(N, N // 2) of the occupation (N // 2, 0, 0, N - N // 2)
    assert math.comb(1029, 514) <= sys.float_info.max < math.comb(1030, 515)
    for n in (1030, 1040):
        with pytest.raises(ValueError, match=f"N = {n} is past 1029"):
            SymmetricGenerator(tilted_spec, n, force=True)


@pytest.mark.parametrize("name,n", [("qubit_tilted", 6), ("qubit_uniform", 6),
                                    ("qubit_tilted", 40), ("qubit_uniform", 40),
                                    ("qubit_tilted", 100), ("qubit_uniform", 100),
                                    ("ea2_012", 4), ("ea2_0134", 3)])
def test_sector_triples_hold_each_entry_once(name, n):
    # Q_N is held as a shell block is: the diagonal apart, each off-diagonal
    # (row, column) once
    spec = NAMED[name]()
    gen = SymmetricGenerator(spec, n, force=True)
    diag, rows, cols, vals = gen._qn
    key = rows * gen.size + cols
    assert np.array_equal(np.unique(key), key) and not (rows == cols).any()
    assert diag.shape == (gen.size,) and rows.shape == cols.shape == vals.shape
    if spec.dim == 2:   # both qubit channels keep every occupation
        assert len(rows) == 0
    if spec.dim ** n <= 81:
        rng = np.random.default_rng(n)
        c = rng.standard_normal(gen.size) + 1j * rng.standard_normal(gen.size)
        want = apply_QN(KacGenerator(spec, n), gen.expand(c))
        assert np.abs(gen.expand(gen.jump(c)) - want).max() < 1e-15


QUBIT_NAMES = ["qubit_tilted", "qubit_uniform", "qubit_tilted_ppa4", "qubit_uniform_ppa4"]
QUBIT_CASES = [(name, n) for name in QUBIT_NAMES for n in range(2, 9)]


def assert_spin_blocks_hold_the_spectrum(spec, n):
    """On an evolved product state and on a non-positive perturbation of it,
    the block spectra, block k repeated C(N, k) - C(N, k - 1) times, are the
    spectrum of the expanded state."""
    gen = SymmetricGenerator(spec, n)
    c = evolve_master(gen, gen.product_state(random_density(2, np.random.default_rng(n))), 0.4)
    for state in (c, c - 0.3 * gen.product_state(np.eye(2) / 2)):
        full = gen.expand(state)
        want = np.linalg.eigvalsh((full + full.conj().T) / 2)
        got = np.concatenate([np.repeat(np.linalg.eigvalsh((b + b.conj().T) / 2),
                                        math.comb(n, k) - (math.comb(n, k - 1) if k else 0))
                              for k, (b, _) in enumerate(gen.blocks(state))])
        assert np.abs(np.sort(got) - want).max() < 1e-13


@pytest.mark.parametrize("name,n", QUBIT_CASES, ids=[f"{a}-N{n}" for a, n in QUBIT_CASES])
def test_spin_blocks_hold_the_spectrum_of_named_specs(name, n):
    assert_spin_blocks_hold_the_spectrum(NAMED[name](), n)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(random_specs([case for case in CASES if case[0] == (0, 1)]))
def test_spin_blocks_hold_the_spectrum_of_random_sector_specs(case):
    assert_spin_blocks_hold_the_spectrum(*case)


def test_product_spin_blocks_are_the_closed_form():
    # rho^{xN} with eigenvalues p > q has block k eigenvalues p^(N-s) q^s, s = k..N-k;
    # in a tilted eigenbasis the det^k fold cancels; values and bounds keep the block's scale
    u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    p, q = 0.6, 0.4
    flat = (u @ np.diag([p, q]) @ u.T).astype(complex).reshape(-1)
    for n in (2, 3, 8, 100):
        c = _by_largest_type(np.ones(1, complex), 4, n, lambda part, t: part * flat[t])
        for k, (block, err) in enumerate(_SpinBlocks(n)(c)):
            got = np.linalg.eigvalsh((block + block.conj().T) / 2)
            want = [p ** (n - s) * q ** s for s in range(n - k, k - 1, -1)]
            scale = p ** (n - k) * q ** k
            assert np.abs(got - want).max() < 1e-14 * scale
            assert err < 1e-12 * scale


def test_spin_block_error_bound_covers_the_rounding_of_a_pure_state():
    # det = 0 for a pure state, so every block past k = 0 is rounding noise alone
    psi = np.array([0.6, 0.8j])
    flat = np.outer(psi, psi.conj()).reshape(-1)
    for n in (6, 40):
        c = _by_largest_type(np.ones(1, complex), 4, n, lambda part, t: part * flat[t])
        blocks = _SpinBlocks(n)(c)
        noise = [np.abs(block).sum() for block, _ in blocks[1:]]
        assert max(noise) > 0
        assert all(size <= err for size, (_, err) in zip(noise, blocks[1:]))


@pytest.mark.parametrize("n", [3, 6])
def test_rejected_qubit_state_reports_the_expanded_eigenvalue(tilted_spec, n):
    gen = SymmetricGenerator(tilted_spec, n)
    c = gen.product_state(random_density(2, np.random.default_rng(3)))
    c = (c - 0.3 * gen.product_state(np.eye(2) / 2)) / 0.7
    want = _negative_eigenvalue(gen.expand(c), 1e-9)
    assert want < -1e-3
    got = min(_negative_eigenvalue(b, 1e-9, err) or 0.0 for b, err in gen.blocks(c))
    assert got == pytest.approx(want, abs=1e-13)
    with pytest.raises(NumericalContractError) as dense:
        evolve_master(KacGenerator(tilted_spec, n), gen.expand(c), 1e-4)
    with pytest.raises(NumericalContractError) as sector:
        evolve_master(gen, c, 1e-4)
    assert str(sector.value) == str(dense.value)


def test_qubit_sector_evolution_never_expands(tilted_spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the qubit sector state was expanded")

    monkeypatch.setattr(SymmetricGenerator, "expand", refuse)
    gen = SymmetricGenerator(tilted_spec, 6)
    c = evolve_master(gen, gen.product_state(np.diag([0.7, 0.3])), 0.5)
    assert gen.trace(c) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(NumericalContractError, match="negative eigenvalue"):
        evolve_master(gen, gen.product_state(np.diag([1.5, -0.5])), 0.01)
