import itertools

import numpy as np
import pytest

from qkac.collisions import (exact_EA2_spec, qubit_tilted_spec,
                             qubit_uniform_spec)
from qkac.operators import permute_factors
from qkac.spectra import SingleParticleModel


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture(scope="session")
def uniform_spec():
    return qubit_uniform_spec()


@pytest.fixture(scope="session")
def tilted_spec():
    return qubit_tilted_spec()


@pytest.fixture(scope="session")
def uniform_sampled16():
    return qubit_uniform_spec(points_per_angle=16)


@pytest.fixture(scope="session")
def tilted_sampled16():
    return qubit_tilted_spec(points_per_angle=16)


@pytest.fixture(scope="session")
def qubit_model():
    return SingleParticleModel((0, 1))


@pytest.fixture(scope="session")
def three_level_model():
    return SingleParticleModel((0, 1, 2))


@pytest.fixture(scope="session")
def ea2_qubit():
    return exact_EA2_spec(SingleParticleModel((0, 1)))


@pytest.fixture(scope="session")
def ea2_three_level():
    return exact_EA2_spec(SingleParticleModel((0, 1, 2)))


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def symmetrize_state(rho, shape):
    """Average a state over all N! factor permutations."""
    rho = np.asarray(rho, dtype=complex)
    perms = list(itertools.permutations(range(shape.num_factors)))
    acc = np.zeros_like(rho)
    for p in perms:
        acc += permute_factors(rho, list(p), shape)
    return acc / len(perms)
