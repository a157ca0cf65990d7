"""The sparse pair-channel kernel against the dense tensor-contraction formula.

``apply_QN`` and ``apply_pair_channel`` apply the channel as a diagonal
product plus strided slices, one per off-diagonal nonzero.  The oracles
``tensordot_QN`` and ``tensordot_pair_channel`` contract the dense
(d,) * 8 channel with the operand's axes (i, j, N+i, N+j) and move the
image axes back, one pair at a time.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qkac.collisions import (CollisionSpec, exact_EA2_spec, qubit_tilted_spec,
                             qubit_uniform_spec, superoperator_from_nodes)
from qkac.master import KacGenerator, apply_pair_channel, apply_QN
from qkac.spectra import SingleParticleModel, shell_structure
from conftest import random_matrix, random_unitary
from oracles import tensordot_pair_channel, tensordot_QN

MODELS = {2: [(0, 1)], 3: [(0, 1, 2)], 4: [(0, 1, 4, 5), (0, 1, 2, 3)]}
NAMED = {"uniform": qubit_uniform_spec, "tilted": qubit_tilted_spec,
         "tilted_sampled4": lambda: qubit_tilted_spec(points_per_angle=4)}
MAX_DIM = 256       # largest d^N drawn: the dense oracle is slow past it


@functools.lru_cache(maxsize=None)
def named_spec(name, energies=None):
    if name == "exact_ea2":
        return exact_EA2_spec(SingleParticleModel(energies))
    return NAMED[name]()


def random_family_spec(energies, seed, num_nodes):
    """A weighted family of random pair unitaries, each block diagonal on
    the two-particle energy shells, so every node conserves energy."""
    rng = np.random.default_rng(seed)
    model = SingleParticleModel(energies)
    d = model.dim
    ws = rng.uniform(0.2, 1.0, num_nodes)
    us = np.zeros((num_nodes, d * d, d * d), dtype=complex)
    for u in us:
        for _, idx in shell_structure(model, 2).shells:
            u[np.ix_(idx, idx)] = random_unitary(rng, idx.size)
    nodes = ws / ws.sum(), us
    return CollisionSpec(model, "random_family", superoperator_from_nodes(nodes), nodes)


# every (d, N, energies, spec) combination with d^N <= MAX_DIM, drawn with
# equal weight; "random" is a fresh random node family on each draw
COMBOS = [(d, n, energies, name)
          for d, models in MODELS.items() for energies in models
          for n in range(2, 6) if d ** n <= MAX_DIM
          for name in ["exact_ea2", "random"] + (list(NAMED) if d == 2 else [])]


@st.composite
def kernel_cases(draw):
    d, n, energies, name = draw(st.sampled_from(COMBOS))
    if name == "random":
        spec = random_family_spec(energies, draw(st.integers(0, 2 ** 32 - 1)),
                                  draw(st.integers(1, 3)))
    else:
        spec = named_spec(name, energies if name == "exact_ea2" else None)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return spec, n, i, j, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=kernel_cases())
def test_sparse_kernel_matches_tensordot_oracle(case):
    spec, n, i, j, seed = case
    gen = KacGenerator(spec, n)
    dim = spec.dim ** n
    a = random_matrix(np.random.default_rng(seed), dim)
    got_qn, got_pair = apply_QN(gen, a), apply_pair_channel(gen, a, i, j)
    assert got_qn.shape == got_pair.shape == (dim, dim)
    assert np.abs(got_qn - tensordot_QN(spec, a, n)).max() <= 1e-12
    assert np.abs(got_pair - tensordot_pair_channel(spec, a, n, i, j)).max() <= 1e-12


def test_two_particle_kernel_reproduces_every_channel_entry():
    # this sampled spec has 20 nonzeros at roundoff level; a tolerance
    # that dropped them would move the images by ~1e-17 only, so the
    # images of the matrix units are compared exactly with the spec's own
    # nonzeros
    spec = named_spec("tilted_sampled4")
    mat = np.zeros((16, 16), dtype=complex)
    mat[spec.channel[:2]] = spec.channel[2]
    assert np.count_nonzero(mat) == len(spec.channel[2]) == 36
    assert np.count_nonzero(np.abs(mat) > 1e-12) == 16
    gen = KacGenerator(spec, 2)
    for k, unit in enumerate(np.eye(16, dtype=complex)):
        assert np.array_equal(apply_pair_channel(gen, unit.reshape(4, 4), 0, 1).ravel(), mat[:, k])
        assert np.array_equal(apply_QN(gen, unit.reshape(4, 4)).ravel(), mat[:, k])
