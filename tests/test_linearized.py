import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qkac import linearized
from qkac.boltzmann import (classify_steady_states, collision_invariants_basis,
                            gibbs, wild)
from qkac.collisions import exact_EA2_spec, qubit_tilted_spec, qubit_uniform_spec, spec_by_name
from qkac.linearized import (BKMGeometry, bkm_inner, build_K, divide_super,
                             multiply_super, spectral_gap)
from qkac.spectra import SingleParticleModel
from conftest import random_matrix, random_state
from oracles import UnsupportedOperationError, as_map, complement_gap, dirichlet_form


def hermitian(rng, dim):
    a = random_matrix(rng, dim)
    return (a + a.conj().T) / 2


def simpson_bkm(rho, a, b, panels=64):
    """Independent quadrature oracle for Tr[A^* int_0^1 rho^s B rho^{1-s} ds]."""
    w, v = np.linalg.eigh(rho)

    def power(s):
        return v @ np.diag(w ** s) @ v.conj().T

    s_grid = np.linspace(0.0, 1.0, 2 * panels + 1)
    vals = np.array([np.trace(a.conj().T @ power(s) @ b @ power(1 - s))
                     for s in s_grid])
    h = s_grid[1] - s_grid[0]
    weights = np.ones(s_grid.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * np.dot(weights, vals)


def test_bkm_maximally_mixed(rng):
    geo = BKMGeometry(np.eye(3, dtype=complex) / 3)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    want = np.trace(a.conj().T @ b) / 3
    assert abs(bkm_inner(geo, a, b) - want) < 1e-12


def test_bkm_identity_normalization(rng):
    geo = BKMGeometry(np.diag([0.2, 0.5, 0.3]).astype(complex))
    eye = np.eye(3, dtype=complex)
    assert abs(bkm_inner(geo, eye, eye) - 1.0) < 1e-13


def test_bkm_matches_simpson_oracle(rng):
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    geo = BKMGeometry(rho)
    for _ in range(5):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        assert abs(bkm_inner(geo, a, b) - simpson_bkm(rho, a, b)) < 1e-10


def test_bkm_positive_definite(rng):
    geo = BKMGeometry(random_state(rng, 3) + 0.2 * np.eye(3))
    for _ in range(10):
        a = random_matrix(rng, 3)
        val = bkm_inner(geo, a, a)
        assert abs(val.imag) < 1e-12
        assert val.real > 0


def test_bkm_rejects_singular_reference():
    with pytest.raises(ValueError):
        BKMGeometry(np.diag([1.0, 0.0]).astype(complex))


def test_bkm_rejects_nan_reference():
    # NaN compares False with any bound, so it must fail the check, not pass it
    with pytest.raises(ValueError, match="strictly positive"):
        BKMGeometry(np.diag([np.nan, 1.0]).astype(complex))


def test_multiply_divide_inverse(rng):
    rho = random_state(rng, 4) + 0.1 * np.eye(4)
    rho = rho / np.trace(rho).real
    geo = BKMGeometry(rho)
    a = random_matrix(rng, 4)
    assert np.abs(divide_super(geo, multiply_super(geo, a)) - a).max() < 1e-10
    assert np.abs(multiply_super(geo, divide_super(geo, a)) - a).max() < 1e-10


def test_multiply_commuting_case(rng):
    vals = np.array([0.5, 0.3, 0.2])
    geo = BKMGeometry(np.diag(vals).astype(complex))
    a = np.diag(rng.standard_normal(3)).astype(complex)
    assert np.abs(multiply_super(geo, a) - np.diag(vals) @ a).max() < 1e-12



@pytest.mark.parametrize("vals", [
    [0.500000001, 0.499999999], [0.4, 0.4 + 3e-12, 0.2 - 3e-12],
    [0.3, 0.3 + 1e-9, 0.4 - 1e-9], [0.2, 0.2 + 1e-15, 0.6 - 1e-15], [1e-5, 0.99999],
    [0.3, 0.7], [1e-8, 0.25, 0.75 - 1e-8]])
def test_multiplier_table_matches_decimal_reference(vals):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geo = BKMGeometry(np.diag(vals).astype(complex))
    w = geo.eigvals
    with localcontext() as ctx:
        ctx.prec = 60
        dw = [Decimal(float(x)) for x in w]
        want = np.array([[float(a if a == b else (a - b) / (a.ln() - b.ln()))
                          for b in dw] for a in dw])
    assert np.abs(geo.multipliers / want - 1).max() < 1e-14

def test_multiply_matrix_unit_multiplier():
    # on a matrix unit the multiplier is the logarithmic mean of the
    # eigenvalue pair; verified against explicit quadrature
    vals = np.array([0.7, 0.3])
    geo = BKMGeometry(np.diag(vals).astype(complex))
    unit = np.zeros((2, 2), dtype=complex)
    unit[0, 1] = 1.0
    got = multiply_super(geo, unit)
    lmean = (vals[0] - vals[1]) / (np.log(vals[0]) - np.log(vals[1]))
    assert abs(got[0, 1] - lmean) < 1e-14
    quad = simpson_bkm(np.diag(vals).astype(complex), unit, unit)
    assert abs(quad - lmean) < 1e-10  # <E01, [rho] E01> picks the multiplier


def test_hermiticity_preserved(rng):
    geo = BKMGeometry(random_state(rng, 3) + 0.2 * np.eye(3))
    a = hermitian(rng, 3)
    for op in (multiply_super, divide_super):
        out = op(geo, a)
        assert np.abs(out - out.conj().T).max() < 1e-11


def test_perturbation_parametrization(rng):
    # rho = [rho_inf](1 + A) recovers A by division
    rho_inf = np.diag([0.6, 0.4]).astype(complex)
    geo = BKMGeometry(rho_inf)
    a = hermitian(rng, 2) * 0.05
    a = a - np.trace(multiply_super(geo, a)) * np.eye(2) / np.trace(rho_inf)
    rho = rho_inf + multiply_super(geo, a)
    assert np.abs(divide_super(geo, rho - rho_inf) - a).max() < 1e-12


def test_build_k_rejects_non_steady(tilted_spec):
    geo = BKMGeometry(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="not steady"):
        build_K(tilted_spec, geo)


def test_k_kills_collision_invariants(uniform_spec, tilted_spec):
    geo = BKMGeometry(np.diag([0.35, 0.65]).astype(complex))
    for spec in (uniform_spec, tilted_spec):
        k = as_map(build_K(spec, geo))
        for inv in collision_invariants_basis(spec.model):
            assert np.abs(k(inv)).max() < 1e-12
        assert np.abs(k(np.eye(2, dtype=complex))).max() < 1e-12


def test_k_offdiagonal_eigenvalues(uniform_spec, tilted_spec):
    unit = np.zeros((2, 2), dtype=complex)
    unit[0, 1] = 1.0
    for a in (0.2, 0.5, 0.8):
        geo = BKMGeometry(np.diag([a, 1 - a]).astype(complex))
        ku = as_map(build_K(uniform_spec, geo))
        assert np.abs(ku(unit) + 2.0 * unit).max() < 1e-12
        kt = as_map(build_K(tilted_spec, geo))
        lam = (2 - a) / 4 - 2
        assert np.abs(kt(unit) - lam * unit).max() < 1e-12


def test_k_matches_finite_difference_of_flow(tilted_spec, rng):
    # oracle: first-order difference of F(rho) = 2(rho*rho - rho) around
    # the steady state, in the direction [rho_inf]X with Tr[[rho_inf]X]=0
    rho_inf = np.diag([0.45, 0.55]).astype(complex)
    geo = BKMGeometry(rho_inf)
    k = as_map(build_K(tilted_spec, geo))
    x = hermitian(rng, 2)
    x = x - np.trace(multiply_super(geo, x)) * np.eye(2)
    kx = k(x)

    def flow(rho):
        return 2.0 * (wild(tilted_spec, rho, rho) - rho)

    errs = []
    eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
    for eps in eps_list:
        fd = divide_super(geo, flow(rho_inf + eps * multiply_super(geo, x))) / eps
        errs.append(np.abs(fd - kx).max())
    # O(eps): slope of the log-log fit close to 1
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_k_bkm_self_adjoint_and_dissipative(uniform_spec, tilted_spec, rng):
    geo = BKMGeometry(np.diag([0.4, 0.6]).astype(complex))
    for spec in (uniform_spec, tilted_spec):
        k = as_map(build_K(spec, geo))
        for _ in range(30):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, 2)
            lhs = bkm_inner(geo, b, k(a))
            rhs = np.conjugate(bkm_inner(geo, a, k(b)))
            assert abs(lhs - rhs) < 1e-9
        for _ in range(30):
            a = hermitian(rng, 2)
            val = bkm_inner(geo, a, k(a))
            assert val.real <= 1e-9
            assert abs(val.imag) < 1e-10


def test_dirichlet_form_matches_k(uniform_spec, tilted_spec, rng):
    geo = BKMGeometry(np.diag([0.3, 0.7]).astype(complex))
    # the 8-point grids carry the nodes of the same channels
    for spec, grid in ((uniform_spec, qubit_uniform_spec(8)),
                       (tilted_spec, qubit_tilted_spec(8))):
        k = as_map(build_K(spec, geo))
        for _ in range(10):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, 2)
            df = dirichlet_form(grid, geo, a, b)
            assert abs(df - bkm_inner(geo, b, k(a))) < 1e-9
        for inv in collision_invariants_basis(spec.model):
            assert abs(dirichlet_form(grid, geo, inv, inv)) < 1e-12
        for _ in range(20):
            a = hermitian(rng, 2)
            assert dirichlet_form(grid, geo, a, a).real <= 1e-9


def test_dirichlet_unsupported_without_nodes(ea2_qubit):
    geo = BKMGeometry(np.diag([0.5, 0.5]).astype(complex))
    a = np.eye(2, dtype=complex)
    with pytest.raises(UnsupportedOperationError):
        dirichlet_form(ea2_qubit, geo, a, a)


def test_spectral_gap_uniform_independent_of_state(uniform_spec):
    for a in (0.2, 0.35, 0.5, 0.65, 0.8):
        geo = BKMGeometry(np.diag([a, 1 - a]).astype(complex))
        gap, kernel_dim = spectral_gap(uniform_spec, geo)
        assert abs(gap - 2.0) < 1e-10
        assert kernel_dim == 2


def test_spectral_gap_tilted_depends_on_state(tilted_spec):
    for a in (0.2, 0.5, 0.8):
        geo = BKMGeometry(np.diag([a, 1 - a]).astype(complex))
        gap, kernel_dim = spectral_gap(tilted_spec, geo)
        assert abs(gap - (6 + a) / 4) < 1e-10
        assert kernel_dim == 2


def test_spectral_gap_exact_ea2_nondegenerate(ea2_qubit):
    geo = BKMGeometry(gibbs(ea2_qubit.model, 0.4))
    gap, kernel_dim = spectral_gap(ea2_qubit, geo)
    assert abs(gap - 2.0) < 1e-10
    assert kernel_dim == 2


def test_kernel_dimension_matches_invariant_count():
    # a three-level model with independent-like energies has a
    # three-dimensional invariant space
    model = SingleParticleModel((1, 10, 100))
    spec = exact_EA2_spec(model)
    family = classify_steady_states(model)
    geo = BKMGeometry(gibbs(model, 0.01))
    gap, kernel_dim = spectral_gap(spec, geo)
    assert kernel_dim == family.dimension == 3
    assert gap > 0



def test_spectral_gap_rejects_an_operator_that_is_not_self_adjoint(ea2_qubit, rng, monkeypatch):
    geo = BKMGeometry(np.diag([0.3, 0.7]).astype(complex))
    k_op = build_K(ea2_qubit, geo) + 1e-6 * random_matrix(rng, 4)
    monkeypatch.setattr(linearized, "build_K", lambda spec, geo: k_op)
    with pytest.raises(ValueError, match="not BKM self-adjoint"):
        spectral_gap(ea2_qubit, geo)

def reference_hermitian_basis(d):
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    r = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = r
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j * r
            e[j, i] = 1j * r
            basis.append(e)
    return basis


def reference_spectral_gap(spec, geo):
    """spectral_gap with the basis built element by element and both forms
    filled entry by entry from bkm_inner."""
    k_op = as_map(build_K(spec, geo))
    basis = reference_hermitian_basis(geo.dim)
    nb = len(basis)
    kmat = np.empty((nb, nb))
    gram = np.empty((nb, nb))
    images = [k_op(e) for e in basis]
    for p in range(nb):
        for q in range(nb):
            kv = bkm_inner(geo, basis[p], images[q])
            gv = bkm_inner(geo, basis[p], basis[q])
            assert abs(kv.imag) <= 1e-9 and abs(gv.imag) <= 1e-9
            kmat[p, q] = kv.real
            gram[p, q] = gv.real
    kmat = (kmat + kmat.T) / 2
    gram = (gram + gram.T) / 2
    rates = scipy.linalg.eigh(-kmat, gram, eigvals_only=True)
    kernel_dim = int((np.abs(rates) < 1e-8).sum())
    coords = np.stack([[np.vdot(e, inv).real for e in basis]
                       for inv in collision_invariants_basis(spec.model)])
    comp = scipy.linalg.null_space(coords @ gram)
    gap = scipy.linalg.eigh(-(comp.T @ kmat @ comp), comp.T @ gram @ comp,
                            eigvals_only=True).min()
    return float(gap), kernel_dim


@pytest.mark.parametrize("energies", [(0, 1, 2), (0, 1, 4, 5)])
@pytest.mark.parametrize("beta", [0.3, -0.8])
def test_spectral_gap_matches_entrywise_reference(energies, beta):
    spec = exact_EA2_spec(SingleParticleModel(energies))
    geo = BKMGeometry(gibbs(spec.model, beta))
    gap, kernel_dim = spectral_gap(spec, geo)
    want_gap, want_dim = reference_spectral_gap(spec, geo)
    assert kernel_dim == want_dim
    assert abs(gap - want_gap) < 1e-12


D8 = (0, 1, 3, 7, 12, 20, 30, 44)


def assert_gap_is_the_complement_minimum(spec, geo):
    gap, kernel_dim = spectral_gap(spec, geo)
    assert abs(gap - complement_gap(spec, geo)) <= 1e-12
    assert kernel_dim == classify_steady_states(spec.model).dimension


# at beta 0.7 the d = 8 Gibbs state has a level below TOL_PSD, so it stops at 0.3
@pytest.mark.parametrize("name,energies,beta", [
    *((name, energies, beta) for name, energies in
      [("qubit_tilted", (0, 1)), ("qubit_uniform", (0, 1)), ("exact_ea2", (0, 1, 2)),
       ("exact_ea2", (0, 1, 4, 5)), ("exact_ea2", (0, 1, 1, 2)), ("exact_ea2", (0, 0, 1))]
      for beta in (0.0, 0.3, 0.7, 2.0)),
    ("exact_ea2", D8, 0.0), ("exact_ea2", D8, 0.3)])
def test_gap_is_the_eigenvalue_past_the_invariants(name, energies, beta):
    model = SingleParticleModel(energies)
    spec = spec_by_name(name, model)
    assert_gap_is_the_complement_minimum(spec, BKMGeometry(gibbs(model, beta)))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from(["qubit_tilted", "qubit_uniform"]), st.floats(1e-3, 1 - 1e-3))
def test_gap_is_the_eigenvalue_past_the_invariants_on_diag_references(name, a):
    spec = spec_by_name(name, SingleParticleModel((0, 1)))
    assert_gap_is_the_complement_minimum(spec, BKMGeometry(np.diag([a, 1 - a]).astype(complex)))
