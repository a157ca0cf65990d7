import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkac.operators import (FactorShape, _negative_eigenvalue,
                            entropy_and_relative_entropy, is_hermitian,
                            partial_trace, permute_factors,
                            random_density, relative_entropy, reorder_pair_basis,
                            swap_unitary, tensor, trace_norm,
                            validate_density_matrix, von_neumann_entropy)
from conftest import random_matrix, random_state, random_unitary
from oracles import (embed_pair, hermitian_function, is_positive_semidefinite,
                     is_unitary, permutation_unitary, trace_first)


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_pair_hamiltonian_spectrum():
    h = np.diag([0.0, 1.0])
    h2 = tensor(h, np.eye(2)) + tensor(np.eye(2), h)
    assert np.allclose(np.diag(h2), [0, 1, 1, 2])
    assert np.allclose(h2, np.diag(np.diag(h2)))


def test_tensor_trace_multiplicative(rng):
    for _ in range(5):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 2)
        # independent oracle: sum the diagonal of the Kronecker block layout
        direct = sum(a[i, i] * b[k, k] for i in range(3) for k in range(2))
        assert abs(np.trace(tensor(a, b)) - direct) < 1e-12
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_tensor_block_structure(rng):
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 3)
    t = tensor(a, b)
    for i, j in itertools.product(range(2), repeat=2):
        assert np.allclose(t[3 * i:3 * i + 3, 3 * j:3 * j + 3], a[i, j] * b)


def test_embed_pair_identity():
    shape = FactorShape(3, 2)
    assert np.allclose(embed_pair(np.eye(4), 0, 1, shape), np.eye(8))


def test_embed_pair_swap_moves_basis_vector():
    shape = FactorShape(2, 2)
    swap = swap_unitary(2)
    e10 = np.zeros(4)
    e10[2] = 1.0  # |10> in first-factor-major ordering
    out = embed_pair(swap, 0, 1, shape) @ e10
    e01 = np.zeros(4)
    e01[1] = 1.0
    assert np.allclose(out, e01)


def test_embed_pair_disjoint_commute(rng):
    shape = FactorShape(4, 2)
    x = random_matrix(rng, 4)
    y = random_matrix(rng, 4)
    a = embed_pair(x, 0, 1, shape)
    b = embed_pair(y, 2, 3, shape)
    assert np.abs(a @ b - b @ a).max() < 1e-12


def test_embed_pair_against_kron(rng):
    # embedding at (0, 1) is a plain Kronecker product with the identity
    shape = FactorShape(3, 2)
    x = random_matrix(rng, 4)
    assert np.allclose(embed_pair(x, 0, 1, shape), tensor(x, np.eye(2)))


def test_embed_pair_errors():
    shape = FactorShape(3, 2)
    with pytest.raises(ValueError):
        embed_pair(np.eye(4), 0, 3, shape)
    with pytest.raises(ValueError):
        embed_pair(np.eye(3), 0, 1, shape)


def test_permutation_identity():
    shape = FactorShape(3, 2)
    assert np.array_equal(permutation_unitary([0, 1, 2], shape), np.eye(8))


def test_permutation_transposition_swaps_factors(rng):
    shape = FactorShape(2, 2)
    u = permutation_unitary([1, 0], shape)
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    assert np.allclose(u @ tensor(a, b) @ u.conj().T, tensor(b, a))


def test_permutation_composition_homomorphism():
    shape = FactorShape(3, 2)
    perms = list(itertools.permutations(range(3)))
    for p, q in itertools.product(perms, repeat=2):
        compose = [p[q[k]] for k in range(3)]
        lhs = permutation_unitary(compose, shape)
        rhs = permutation_unitary(p, shape) @ permutation_unitary(q, shape)
        assert np.array_equal(lhs, rhs)


def test_permutation_slot_action(rng):
    # conjugation moves the factor in slot m to slot pi(m)
    shape = FactorShape(3, 2)
    mats = [random_matrix(rng, 2) for _ in range(3)]
    pi = [2, 0, 1]
    u = permutation_unitary(pi, shape)
    got = u @ tensor(*mats) @ u.conj().T
    slots = [None] * 3
    for m in range(3):
        slots[pi[m]] = mats[m]
    assert np.abs(got - tensor(*slots)).max() < 1e-12


def test_permute_factors_matches_unitary_conjugation(rng):
    shape = FactorShape(3, 2)
    a = random_matrix(rng, 8)
    for pi in itertools.permutations(range(3)):
        u = permutation_unitary(list(pi), shape)
        assert np.abs(permute_factors(a, list(pi), shape)
                      - u @ a @ u.conj().T).max() < 1e-12


def test_permutation_unitary_is_unitary():
    shape = FactorShape(4, 2)
    for pi in [(1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)]:
        assert is_unitary(permutation_unitary(list(pi), shape))


def test_permutation_invalid():
    with pytest.raises(ValueError):
        permutation_unitary([0, 0, 1], FactorShape(3, 2))


def test_partial_trace_product(rng):
    r1 = random_state(rng, 2)
    r2 = random_state(rng, 2)
    got = partial_trace(tensor(r1, r2), FactorShape(2, 2), keep=1)
    assert np.abs(got - r1).max() < 1e-12


def test_partial_trace_bell_state():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    got = partial_trace(rho, FactorShape(2, 2), keep=1)
    assert np.abs(got - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_keep_all(rng):
    rho = random_state(rng, 8)
    assert np.array_equal(partial_trace(rho, FactorShape(3, 2), keep=3), rho)


def test_partial_trace_adjointness(rng):
    # Tr[(A x 1) rho] = Tr[A Tr_rest(rho)] for d = 2, 3 and N <= 4
    for d, n in [(2, 3), (2, 4), (3, 2), (3, 3)]:
        shape = FactorShape(n, d)
        for k in range(1, n):
            a = random_matrix(rng, d ** k)
            rho = random_state(rng, shape.dim)
            lhs = np.trace(tensor(a, np.eye(d ** (n - k))) @ rho)
            rhs = np.trace(a @ partial_trace(rho, shape, keep=k))
            assert abs(lhs - rhs) < 1e-11


def test_trace_first(rng):
    r1 = random_state(rng, 2)
    r2 = random_state(rng, 4)
    got = trace_first(tensor(r1, r2), FactorShape(3, 2), drop=1)
    assert np.abs(got - r2).max() < 1e-12


def test_reorder_pair_basis_involution(rng):
    m = random_matrix(rng, 4)
    assert np.array_equal(reorder_pair_basis(reorder_pair_basis(m)), m)


def test_reorder_pair_basis_swaps_tensor_order(rng):
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    # in the other ordering the roles of the two factors exchange
    assert np.abs(reorder_pair_basis(tensor(a, b)) - tensor(b, a)).max() < 1e-12


def test_reorder_pair_basis_reads_factor_dim_off_shape(rng):
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert np.abs(reorder_pair_basis(tensor(a, b)) - tensor(b, a)).max() < 1e-12
    with pytest.raises(ValueError):
        reorder_pair_basis(random_matrix(rng, 5))


def test_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_entropy_maximally_mixed():
    for d in (2, 3, 5):
        s = von_neumann_entropy(np.eye(d, dtype=complex) / d)
        assert abs(s - np.log(d)) < 1e-12


def test_entropy_two_thirds():
    # scalar evaluation: -(2/3)log(2/3) - (1/3)log(1/3)
    want = np.log(3.0) - (2.0 / 3.0) * np.log(2.0)
    got = von_neumann_entropy(np.diag([2 / 3, 1 / 3]).astype(complex))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.6365141682948128) < 1e-12


def test_entropy_bounds(rng):
    for d in (2, 4):
        rho = random_state(rng, d)
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= np.log(d) + 1e-12


def test_relative_entropy_self(rng):
    rho = random_state(rng, 3)
    assert abs(relative_entropy(rho, rho)) < 1e-10


def diagonal_entropies(rho, sigma):
    """entropy_and_relative_entropy for a sigma that is diagonal."""
    return entropy_and_relative_entropy(np.linalg.eigvalsh(rho), rho.diagonal().real,
                                        sigma.diagonal().real)


def test_relative_entropy_pure_vs_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.eye(2, dtype=complex) / 2
    assert abs(relative_entropy(rho, sigma) - np.log(2.0)) < 1e-12
    entropy, rel = diagonal_entropies(rho, sigma)
    assert entropy == 0.0 and abs(rel - np.log(2.0)) < 1e-12


def test_relative_entropy_support_violation():
    rho = np.eye(2, dtype=complex) / 2
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == float("inf")
    assert diagonal_entropies(rho, sigma)[1] == float("inf")


def test_entropies_to_a_diagonal_state_match_the_general_ones(rng):
    # zeros on sigma's diagonal where rho has (next to) no weight: finite
    for sigma_diag in ([0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.0, 0.5]):
        sigma = np.diag(sigma_diag).astype(complex)
        support = np.flatnonzero(sigma_diag)
        rho = np.zeros((4, 4), dtype=complex)
        rho[np.ix_(support, support)] = random_state(rng, len(support))
        entropy, rel = diagonal_entropies(rho, sigma)
        assert abs(entropy - von_neumann_entropy(rho)) < 1e-14
        assert abs(rel - relative_entropy(rho, sigma)) < 1e-12
    with pytest.raises(ValueError, match="negative eigenvalue"):
        diagonal_entropies(np.diag([1.5, -0.5]).astype(complex), np.eye(2) / 2)


def test_relative_entropy_nonnegative(rng):
    for _ in range(10):
        rho = random_state(rng, 3)
        sigma = random_state(rng, 3)
        assert relative_entropy(rho, sigma) >= -1e-10


def test_predicates(rng):
    u = np.linalg.qr(random_matrix(rng, 4))[0]
    assert is_unitary(u)
    assert not is_unitary(u + 0.01)
    h = u + u.conj().T
    assert is_hermitian(h)
    assert is_positive_semidefinite(h @ h.conj().T + 1e-3 * np.eye(4))
    assert not is_positive_semidefinite(np.diag([1.0, -1.0]))


def test_validate_density_matrix(rng):
    validate_density_matrix(random_state(rng, 4))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_random_density_is_exactly_hermitian(dim):
    rho = random_density(dim, np.random.default_rng(0))
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > 0.0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([-10.0, -2.0, -0.5, 0.0, 1.0]), st.sampled_from([0.0, 1e-9, 1e-6]))
def test_positivity_certificate_agrees_with_the_eigenvalues(n, seed, place, tol):
    # the smallest eigenvalue sits at place * tol, the others in [0.01, 1]
    rng = np.random.default_rng(seed)
    w = np.concatenate([[place * tol], rng.uniform(0.01, 1.0, n - 1)])
    u = random_unitary(rng, n)
    a = (u * w) @ u.conj().T
    a = (a + a.conj().T) / 2
    lo = np.linalg.eigvalsh(a).min()
    work = a.copy()
    got = _negative_eigenvalue(work, tol)
    assert np.array_equal(work, a)
    assert (got is not None) == (lo < -tol)
    assert got is None or got == lo


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_positivity_certificate_fails_non_finite(bad):
    # Cholesky rejects NaN and eigvalsh returns it, and NaN < -tol is false;
    # an inf entry can even factor, so non-finite input is never certified
    for a in (np.diag([1.0, bad]), np.full((3, 3), bad), np.eye(4) + 0j):
        a = a.astype(complex)
        a[-1, 0] = bad
        got = _negative_eigenvalue(a, 1e-9)
        assert got is not None and np.isnan(got)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_density_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(np.diag([1.0, bad]))
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(np.full((2, 2), bad))


def test_hermitian_function_log_exp_roundtrip(rng):
    rho = random_state(rng, 4)
    lg = hermitian_function(rho, np.log)
    back = hermitian_function(lg, np.exp)
    assert np.abs(back - rho).max() < 1e-10


def test_hermitian_function_rejects_non_hermitian(rng):
    with pytest.raises(ValueError):
        hermitian_function(random_matrix(rng, 3), np.log)


def test_trace_norm_matches_singular_value_sum(rng):
    for d in (2, 5, 16):
        a = random_matrix(rng, d)
        h = a + a.conj().T
        want = np.linalg.svd(h, compute_uv=False).sum()
        assert abs(trace_norm(h) - want) <= 1e-12 * max(1.0, want)
        diff = random_state(rng, d) - random_state(rng, d)
        assert abs(trace_norm(diff) - np.linalg.svd(diff, compute_uv=False).sum()) <= 1e-12


def test_trace_norm_rejects_non_hermitian(rng):
    with pytest.raises(ValueError, match="trace norm requires Hermitian input"):
        trace_norm(random_matrix(rng, 3))
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = 1e-9      # just past the Hermiticity tolerance
    with pytest.raises(ValueError, match="residual"):
        trace_norm(a)


def test_unitary_conjugation_preserves_trace_and_hermiticity(rng):
    # budget: 10 * machine eps * dimension
    d = 16
    u = np.linalg.qr(random_matrix(rng, d))[0]
    a = random_state(rng, d)
    out = u @ a @ u.conj().T
    eps = np.finfo(float).eps
    assert abs(np.trace(out) - np.trace(a)) <= 10 * eps * d
    assert np.abs(out - out.conj().T).max() <= 10 * eps * d
