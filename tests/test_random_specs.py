"""Random energy-conserving collision specs against the dense oracles.

Each drawn spec is a few random unitaries, block diagonal on the pair
energy shells, plus the identity, closed under adjoints and the factor
swap by ``symmetrize_nodes``.  It must pass ``verify_spec``, the fixed
vectors of every shell block of Q_N must be those of a dense ``eigh`` (up
to d^N = 27; the dense blocks at 81 take seconds), and the ergodicity and
steady-state verdicts must match their dense oracles.  At N <= 3 its
channel nonzeros must be the dense channel's, ``evolve_master`` must
agree with ``scipy.linalg.expm`` of the dense generator, and the Wild sum
with the RK4 oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qkac.boltzmann import qkbe_integrate
from qkac.collisions import (CollisionSpec, superoperator_from_nodes, symmetrize_nodes,
                             verify_spec)
from qkac.errors import NumericalContractError
from qkac.master import (KacGenerator, _null_blocks, evolve_master, is_ergodic,
                         steady_state_classes)
from qkac.operators import random_density
from qkac.spectra import classify_shell, shell_decomposition
from qkac.tolerances import TOL_FIXED_EIG
from kinetic_oracles import rk4_reference
from oracles import dense_block_fixed_vectors, dense_channel
from test_collisions import assert_nonzeros_match_the_dense_oracle
from test_pair_kernel import random_family_spec
from test_shell_oracles import dense_is_ergodic

MODELS = [(0, 1), (0, 1, 2), (0, 0, 1), (0, 1, 3)]
CASES = [(energies, n) for energies in MODELS for n in (2, 3, 4) if len(energies) ** n <= 81]
DENSE_DIM = 27      # largest d^N whose shell blocks are compared with dense eigh


def closed_spec(spec, identity_weight):
    """``spec`` with an identity node added, closed under adjoints and swap."""
    ws, us = spec.nodes
    d = spec.dim
    ws = np.concatenate([[identity_weight], ws])
    us = np.concatenate([np.eye(d * d, dtype=complex)[None], us])
    nodes = symmetrize_nodes((ws / ws.sum(), us), d)
    return CollisionSpec(spec.model, "closed_random", superoperator_from_nodes(nodes), nodes)


@st.composite
def random_specs(draw, cases=CASES):
    energies, n = draw(st.sampled_from(cases))
    spec = random_family_spec(energies, draw(st.integers(0, 2 ** 32 - 1)),
                              draw(st.integers(1, 2)))
    return closed_spec(spec, draw(st.floats(0.1, 1.0))), n


def assert_fixed_spaces_match_dense_eigh(gen):
    """Compare the fixed vectors of every shell block, counts and projectors;
    returns the largest entry of each vector off the operator diagonal."""
    off_diagonal = []
    for _, rows, _, cols, vecs, _ in _null_blocks(gen, TOL_FIXED_EIG, diagonal_only=False):
        want = dense_block_fixed_vectors(gen, rows, cols)
        assert len(vecs) == len(want)
        assert np.abs(vecs.T @ vecs.conj() - want.T @ want.conj()).max(initial=0.0) < 1e-12
        off = rows[:, None] != cols
        off_diagonal += [np.abs(f.reshape(off.shape)[off]).max(initial=0.0) for f in vecs]
    return off_diagonal


def dense_generator(spec, n):
    """L_N as a dense matrix on row-stacked operators: the dense channel laid
    on the axes (i, j, N+i, N+j) of every matrix unit at once, per pair."""
    d, dim = spec.dim, spec.dim ** n
    q = dense_channel(spec).reshape((d,) * 8)
    units = np.eye(dim * dim).reshape((d,) * (2 * n) + (dim * dim,))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    qn = sum(np.moveaxis(np.tensordot(q, units, axes=([4, 5, 6, 7], [i, j, n + i, n + j])),
                         [0, 1, 2, 3], [i, j, n + i, n + j]) for i, j in pairs)
    return n * (qn.reshape(dim * dim, dim * dim) / len(pairs) - np.eye(dim * dim))


def class_counts(model, n):
    return sorted((E, len(c)) for E, _ in shell_decomposition(model, n)
                  for c in classify_shell(model, n, E).classes)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(random_specs())
def test_random_closed_specs_match_the_dense_oracles(case):
    spec, n = case
    report = verify_spec(spec)
    assert report.passes, report.violations
    gen = KacGenerator(spec, n)
    if spec.dim ** n <= DENSE_DIM:
        assert_fixed_spaces_match_dense_eigh(gen)
    ergodic = is_ergodic(spec)
    assert ergodic == dense_is_ergodic(spec)
    if ergodic:
        assert sorted(steady_state_classes(gen)) == class_counts(spec.model, n)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(random_specs([(energies, n) for energies, n in CASES if n <= 3]))
def test_random_closed_specs_evolve_as_the_dense_oracles(case):
    spec, n = case
    assert_nonzeros_match_the_dense_oracle(spec)
    rng = np.random.default_rng(0)
    dim = spec.dim ** n
    rho = random_density(dim, rng)
    want = (expm(0.7 * dense_generator(spec, n)) @ rho.ravel()).reshape(dim, dim)
    assert np.abs(evolve_master(KacGenerator(spec, n), rho, 0.7) - want).max() < 1e-10
    rho, grid = random_density(spec.dim, rng), np.linspace(0.0, 2.0, 5)
    assert np.abs(qkbe_integrate(spec, rho, grid) - rk4_reference(spec, rho, grid)).max() < 1e-10


def split_spec():
    """A closed spec on (0, 0, 1) that is not ergodic.

    The pair shell E = 0 holds |00>, |01>, |10>, |11>; every node acts on
    {|00>, |11>} and on {|01>, |10>} by one unitary W that commutes with
    sigma_x, so swap conjugation keeps it and the fixed space of E = 0 is
    the 8-dimensional commutant, with operators that are not diagonal.
    """
    spec = random_family_spec((0, 0, 1), 3, 2)
    ws, us = spec.nodes
    rng = np.random.default_rng(4)
    sigma_x = np.array([[0, 1], [1, 0]])
    for u in us:
        theta, phi = rng.uniform(0, 2 * np.pi, 2)
        w = np.exp(1j * phi) * (np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * sigma_x)
        u[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = 0.0
        u[np.ix_([0, 4], [0, 4])] = w
        u[np.ix_([1, 3], [1, 3])] = w
    return closed_spec(CollisionSpec(spec.model, "split", superoperator_from_nodes((ws, us)),
                                     (ws, us)), 0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_split_degenerate_shell_is_not_ergodic(n):
    spec = split_spec()
    assert verify_spec(spec).passes
    assert not is_ergodic(spec) and not dense_is_ergodic(spec)
    gen = KacGenerator(spec, n)
    assert max(assert_fixed_spaces_match_dense_eigh(gen)) > 1e-3
    with pytest.raises(NumericalContractError, match="class count"):
        steady_state_classes(gen)
