"""Brute-force oracles for the facts read off the cached shell structure.

Each oracle works the relation e_i + e_j = e_k + e_l out on its own, by
enumeration or with dense matrices, and is compared with the library.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import null_space

from qkac.boltzmann import classify_steady_states
from qkac.collisions import (CollisionSpec, exact_EA2_spec, qubit_tilted_spec,
                             qubit_uniform_spec, verify_spec)
from qkac.master import KacGenerator, is_ergodic, steady_states_basis
from qkac.operators import FactorShape, partial_trace
from qkac.spectra import SingleParticleModel, classify_shell, shell_decomposition
from qkac.tolerances import TOL_FIXED_EIG
from conftest import random_matrix
from oracles import (accidental_relations, dense_channel, fixed_space_of_Q, identity_spec,
                     nonzeros, occupancy, shell_projector, shell_state, wild_diagonal)

MODELS = [(0, 1), (0, 1, 2), (0, 1, 4, 5), (1, 10, 100), (0, 2, 3, 7),
          (0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 1)]


def occupancy_vectors(d, n):
    """All length-d tuples of non-negative integers summing to n, in
    lexicographic order."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in occupancy_vectors(d - 1, n - first):
            yield (first,) + rest


def dense_is_ergodic(spec):
    """The fixed space of Q, projected onto the span of the normalized
    two-particle shell projectors, one dense projector per shell."""
    fixed = fixed_space_of_Q(dense_channel(spec))
    shells = shell_decomposition(spec.model, 2)
    if len(fixed) != len(shells):
        return False
    projs = [shell_projector(spec.model, 2, E) / np.sqrt(len(idxs)) for E, idxs in shells]
    return all(np.abs(f - sum(np.vdot(p, f) * p for p in projs)).max() <= TOL_FIXED_EIG
               for f in fixed)


@pytest.mark.parametrize("energies", MODELS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_accidental_relations_match_enumeration(energies, n):
    by_energy = {}
    for m in occupancy_vectors(len(energies), n):
        by_energy.setdefault(int(np.dot(m, energies)), []).append(m)
    want = sorted((E, ms) for E, ms in by_energy.items() if len(ms) > 1)
    assert accidental_relations(SingleParticleModel(energies), n) == want


@pytest.mark.parametrize("energies", MODELS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_occupancies_match_enumeration(energies, n):
    model = SingleParticleModel(energies)
    for E, _ in shell_decomposition(model, n):
        part = classify_shell(model, n, E)
        want = [{occupancy(a, model.dim) for a in block} for block in part.classes]
        assert part.class_occupancies == want


def decoy_spec(model):
    """A channel fixing one diagonal unit per two-particle shell, that of the
    shell's first pair: the fixed space has the right dimension but is not
    the pair energy algebra, since the shell e_0 + e_1 holds two pairs."""
    d2 = model.dim ** 2
    pos = np.sort([np.ravel_multi_index(idxs[0], (model.dim,) * 2)
                   for _, idxs in shell_decomposition(model, 2)]) * (d2 + 1)
    return CollisionSpec(model, "decoy", (pos, pos, np.ones(len(pos), dtype=complex)))


@pytest.mark.parametrize("energies", MODELS)
def test_is_ergodic_matches_dense_shell_projectors(energies):
    model = SingleParticleModel(energies)
    specs = (exact_EA2_spec(model), identity_spec(model), decoy_spec(model))
    assert [is_ergodic(spec) for spec in specs] == [True, False, False]
    assert [dense_is_ergodic(spec) for spec in specs] == [True, False, False]


@pytest.mark.parametrize("points", [None, 4, 5, 8])
def test_is_ergodic_matches_dense_shell_projectors_qubit(points):
    for spec in (qubit_uniform_spec(points), qubit_tilted_spec(points)):
        assert is_ergodic(spec) == dense_is_ergodic(spec)


def test_is_ergodic_matches_dense_shell_projectors_d8():
    # 36 two-particle shells and a 4096 x 4096 channel; the identity spec
    # is left out, since all 4096 of its matrix units enter the eigensolve
    model = SingleParticleModel((0, 1, 3, 7, 12, 20, 30, 44))
    for build, want in ((exact_EA2_spec, True), (decoy_spec, False)):
        spec = build(model)
        assert is_ergodic(spec) == dense_is_ergodic(spec) == want


def test_is_ergodic_refuses_a_channel_that_moves_pair_energy():
    # swaps the populations of the shells E=0 and E=2 and averages E=1: CP,
    # unital and HS self-adjoint, but its fixed vector |00><00| + |11><11|
    # spans two shell blocks, which the block scan cannot see; verify_spec
    # and the generator read the same pair-energy residual
    model = SingleParticleModel((0, 1))
    mat = np.zeros((16, 16), dtype=complex)
    mat[0, 15] = mat[15, 0] = 1.0       # |00><00| and |11><11| exchanged
    mat[np.ix_([5, 10], [5, 10])] = 0.5
    spec = CollisionSpec(model, "population_swap", nonzeros(mat))
    assert verify_spec(spec).violations == ["pair_energy: residual 1.000e+00"]
    assert not dense_is_ergodic(spec)
    with pytest.raises(ValueError, match=r"does not conserve the pair energy: .* 1\.000e\+00"):
        is_ergodic(spec)
    # ln_null_basis and steady_states_basis ask is_ergodic first
    with pytest.raises(ValueError, match="does not conserve the pair energy"):
        steady_states_basis(KacGenerator(spec, 3))


@pytest.mark.parametrize("energies", MODELS + [(0, 0)])
def test_steady_family_matches_enumerated_constraints(energies):
    # every quadruple with e_i + e_j = e_k + e_l over the distinct energies
    # gives a constraint x_i + x_j - x_k - x_l = 0; trivial ones are zero rows
    distinct = sorted(set(energies))
    m = len(distinct)
    rows = []
    for i, j, k, l in itertools.product(range(m), repeat=4):
        if distinct[i] + distinct[j] == distinct[k] + distinct[l]:
            row = np.zeros(m)
            np.add.at(row, [i, j], 1.0)
            np.add.at(row, [k, l], -1.0)
            rows.append(row)
    want = null_space(np.array(rows))
    family = classify_steady_states(SingleParticleModel(energies))
    assert family.distinct_energies == tuple(distinct)
    assert family.multiplicities == tuple(energies.count(e) for e in distinct)
    basis = family.constraint_basis
    assert basis.shape == (want.shape[1], m)
    assert np.abs(basis.T @ basis - want @ want.T).max() < 1e-12


@pytest.mark.parametrize("energies", MODELS + [(0, 0)])
def test_wild_diagonal_matches_enumerated_marginals(energies, rng):
    model = SingleParticleModel(energies)
    shape = FactorShape(2, model.dim)
    marginals = {E: partial_trace(shell_state(model, 2, E), shape, keep=1)
                 for E, _ in shell_decomposition(model, 2)}
    a, b = random_matrix(rng, model.dim), random_matrix(rng, model.dim)
    want = sum(a[i, i] * b[k, k] * marginals[energies[i] + energies[k]]
               for i in range(model.dim) for k in range(model.dim))
    assert np.abs(wild_diagonal(model, a, b) - want).max() < 1e-14
