import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkac import boltzmann
from qkac.boltzmann import (classify_steady_states, collision_invariants_basis,
                            conserved_check, gibbs, qkbe_integrate,
                            steady_state_from_coeffs, wild, wild_sum_plan)
from qkac.collisions import (CollisionSpec, exact_EA2_spec, qubit_tilted_spec,
                             qubit_uniform_spec, spec_by_name)
from qkac.errors import NumericalContractError
from qkac.operators import (FactorShape, partial_trace, random_density,
                            relative_entropy, tensor, von_neumann_entropy)
from qkac.spectra import SingleParticleModel, shell_structure
from qkac.tolerances import TOL_PSD
from conftest import random_matrix, random_state, random_unitary
from kinetic_oracles import picard_solve, rk4_reference, stacked_wild_sum
from oracles import (as_map, dense_channel, identity_spec, is_steady, nonzeros, trace_first,
                     wild_diagonal)


def qubit_state(a, z):
    return np.array([[a, z], [np.conjugate(z), 1 - a]], dtype=complex)


# ---------------------------------------------------------------------------
# Wild convolution
# ---------------------------------------------------------------------------

def test_wild_tilted_closed_form(tilted_spec, rng):
    for _ in range(20):
        a, b = rng.uniform(0.1, 0.9, size=2)
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * np.sqrt(a * (1 - a)) / 2
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * np.sqrt(b * (1 - b)) / 2
        r1, r2 = qubit_state(a, z), qubit_state(b, w)
        got = wild(tilted_spec, r1, r2)
        want = np.array([[(a + b) / 2, z * (2 - b) / 8],
                         [np.conjugate(z) * (2 - b) / 8, 1 - (a + b) / 2]])
        assert np.abs(got - want).max() < 1e-12
        # non-commutativity whenever z(2-b) != w(2-a)
        if abs(z * (2 - b) - w * (2 - a)) > 1e-6:
            rev = wild(tilted_spec, r2, r1)
            assert np.abs(got - rev).max() > 1e-9


def reference_wild(spec, a, b):
    """The Wild convolution by its definition: the pair channel on the
    Kronecker product, then the partial trace over the second factor."""
    image = as_map(dense_channel(spec))(tensor(a, b))
    return partial_trace(image, FactorShape(2, spec.dim), keep=1)


@pytest.mark.parametrize("make_spec", [
    qubit_uniform_spec, qubit_tilted_spec,
    lambda: qubit_uniform_spec(points_per_angle=4),
    lambda: qubit_tilted_spec(points_per_angle=4),
    lambda: exact_EA2_spec(SingleParticleModel((0, 1))),
    lambda: exact_EA2_spec(SingleParticleModel((0, 1, 2))),
    lambda: exact_EA2_spec(SingleParticleModel((0, 1, 4, 5))),
    lambda: identity_spec(SingleParticleModel((0, 1, 2))),
], ids=["uniform", "tilted", "uniform_ppa4", "tilted_ppa4", "ea2_01", "ea2_012",
        "ea2_0145", "identity_012"])
def test_wild_matches_definition(make_spec, rng):
    spec = make_spec()
    d = spec.dim
    ops = [random_matrix(rng, d) for _ in range(6)]
    for a, b in zip(ops, ops[::-1]):
        assert np.abs(wild(spec, a, b) - reference_wild(spec, a, b)).max() < 1e-13
    # leading axes are a stack of operands, each convolved on its own
    stack = np.stack(ops)
    want = np.stack([reference_wild(spec, a, ops[0]) for a in ops])
    assert np.abs(wild(spec, stack, ops[0]) - want).max() < 1e-13
    for bad in (np.eye(d + 1), np.eye(d)[0], np.ones((d, d + 1)), 1.0):
        with pytest.raises(ValueError):
            wild(spec, bad, ops[0])
        with pytest.raises(ValueError):
            wild(spec, ops[0], bad)


def einsum_wild(spec, a, b):
    """The Wild convolution as one contraction of the (d,) * 8 view of the
    channel, summing over the traced-out index r on every call."""
    d = spec.dim
    return np.einsum("krlrimjn,...ij,...mn->...kl",
                     dense_channel(spec).reshape((d,) * 8), a, b)


@pytest.mark.parametrize("spec_name", [
    "tilted_spec", "uniform_spec", "tilted_sampled16", "ea2_three_level", "ea2_0145"])
def test_wild_matrix_matches_einsum(spec_name, request, rng):
    spec = (exact_EA2_spec(SingleParticleModel((0, 1, 4, 5))) if spec_name == "ea2_0145"
            else request.getfixturevalue(spec_name))
    d = spec.dim
    assert spec.wild_matrix.shape == (d ** 4, d * d)
    assert spec.wild_matrix is spec.wild_matrix
    a = np.stack([random_matrix(rng, d) for _ in range(5)])
    b = np.stack([random_matrix(rng, d) for _ in range(5)])
    for left, right in ((a[0], b[0]), (a, b[0]), (a[0], b), (a, b),
                        (a[:, None], b[None, :3])):
        got = wild(spec, left, right)
        want = einsum_wild(spec, left, right)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-13


def test_wild_square_instantiated(tilted_spec):
    rho = qubit_state(0.3, 0.1)
    got = wild(tilted_spec, rho, rho)
    want = np.array([[0.3, 0.0212500], [0.0212500, 0.7]])
    assert np.abs(got - want).max() < 1e-12


def test_wild_maximally_mixed_fixed(tilted_spec):
    half = np.eye(2, dtype=complex) / 2
    assert np.abs(wild(tilted_spec, half, half) - half).max() < 1e-14


def test_wild_trace_multiplicative(tilted_spec, rng):
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    out = wild(tilted_spec, a, b)
    assert abs(np.trace(out) - np.trace(a) * np.trace(b)) < 1e-12


def test_wild_psd_preserving(tilted_spec, rng):
    for _ in range(5):
        r1, r2 = random_state(rng, 2), random_state(rng, 2)
        w = np.linalg.eigvalsh(wild(tilted_spec, r1, r2))
        assert w.min() > -1e-12


def test_wild_swap_identity(tilted_spec, uniform_spec, rng):
    for spec in (tilted_spec, uniform_spec):
        q = as_map(dense_channel(spec))
        rho = random_state(rng, 2)
        out = q(tensor(rho, rho))
        shape = FactorShape(2, 2)
        tr2 = partial_trace(out, shape, keep=1)
        tr1 = trace_first(out, shape, drop=1)
        assert np.abs(tr2 - tr1).max() < 1e-12


def test_wild_diagonal_trivia():
    model = SingleParticleModel((0, 1, 2))
    ground = np.diag([1.0, 0, 0]).astype(complex)
    assert np.abs(wild_diagonal(model, ground, ground) - ground).max() < 1e-14
    mid = np.diag([0, 1.0, 0]).astype(complex)
    got = wild_diagonal(model, mid, mid)
    assert np.abs(got - np.eye(3) / 3).max() < 1e-14


def test_wild_diagonal_matches_channel(ea2_three_level, rng):
    model = ea2_three_level.model
    for _ in range(10):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        got = wild_diagonal(model, a, b)
        want = wild(ea2_three_level, a, b)
        assert np.abs(got - want).max() < 1e-12


def test_wild_diagonal_degenerate_spectrum(rng):
    # degenerate levels: the shell-state marginals weight partners by
    # multiplicity, and the identity A*B = wild(exact_ea2) must still hold
    model = SingleParticleModel((0, 0, 1))
    spec = exact_EA2_spec(model)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert np.abs(wild_diagonal(model, a, b) - wild(spec, a, b)).max() < 1e-12


def test_nondegenerate_square_is_diagonal_projection(ea2_qubit, rng):
    rho = random_state(rng, 2)
    got = wild(ea2_qubit, rho, rho)
    assert np.abs(got - np.diag(np.diagonal(rho))).max() < 1e-12


# ---------------------------------------------------------------------------
# kinetic trajectories
# ---------------------------------------------------------------------------

def test_gibbs_states():
    model = SingleParticleModel((0, 1))
    assert np.allclose(gibbs(model, 0.0), np.eye(2) / 2)
    assert np.allclose(np.diag(gibbs(model, np.log(2.0))), [2 / 3, 1 / 3])
    assert np.allclose(np.diag(gibbs(model, -np.log(2.0))), [1 / 3, 2 / 3])


@pytest.mark.parametrize("energies", [(0, 1), (1, 10, 100), (0, 10)])
@pytest.mark.parametrize("beta", [1e6, -1e6, 1e308, -1e308])
def test_gibbs_extreme_beta_is_the_pure_extreme_level(energies, beta):
    # exp(-beta E) under- or overflows for every level at these betas, and
    # at +-1e308 so does -beta E itself
    rho = gibbs(SingleParticleModel(energies), beta)
    want = np.zeros(len(energies))
    want[0 if beta > 0 else -1] = 1.0
    assert np.array_equal(rho, np.diag(want).astype(complex))


def test_gibbs_is_stationary(tilted_spec):
    rho = gibbs(tilted_spec.model, 0.7)
    grid = np.linspace(0.0, 5.0, 21)
    traj = qkbe_integrate(tilted_spec, rho, grid)
    assert np.abs(traj - rho).max() < 1e-10


def test_tilted_offdiagonal_decay(tilted_spec):
    a, z = 0.3, 0.1
    grid = np.linspace(0.0, 1.0, 11)
    traj = qkbe_integrate(tilted_spec, qubit_state(a, z), grid)
    exact = z * np.exp(((2 - a) / 4 - 2) * grid)
    assert np.abs(traj[:, 0, 1] - exact).max() < 1e-8
    # diagonal entries do not move
    assert np.abs(traj[:, 0, 0] - a).max() < 1e-12


def test_nondegenerate_model_linear_flow():
    # for a model with all pair sums distinct the equation is linear:
    # rho(t) = diag(rho) + exp(-2t) (rho - diag(rho))
    model = SingleParticleModel((0, 1, 3))
    spec = exact_EA2_spec(model)
    rho0 = np.array([[0.5, 0.1 + 0.05j, 0.02j],
                     [0.1 - 0.05j, 0.3, -0.03],
                     [-0.02j, -0.03, 0.2]], dtype=complex)
    grid = np.linspace(0.0, 2.0, 9)
    traj = qkbe_integrate(spec, rho0, grid)
    diag = np.diag(np.diag(rho0))
    for t, got in zip(grid, traj):
        want = diag + np.exp(-2 * t) * (rho0 - diag)
        assert np.abs(got - want).max() < 1e-8


def test_picard_agrees_with_rk4(tilted_spec):
    # the name predates the Wild-sum integrator, which Picard now checks
    rho0 = qubit_state(0.35, 0.12 - 0.07j)
    grid = np.linspace(0.0, 0.5, 6)
    rk = qkbe_integrate(tilted_spec, rho0, grid)
    # trapezoid quadrature converges at second order; refine accordingly
    pc = picard_solve(tilted_spec, rho0, grid, tol=1e-12, refine=128)
    assert np.abs(rk - pc).max() < 1e-6
    coarse = picard_solve(tilted_spec, rho0, grid, tol=1e-12, refine=32)
    fine_err = np.abs(rk - pc).max()
    coarse_err = np.abs(rk - coarse).max()
    assert fine_err < coarse_err / 8


@pytest.mark.parametrize("make_spec, t_max, steps, seed", [
    (qubit_tilted_spec, 20.0, 20, 0),
    (lambda: exact_EA2_spec(SingleParticleModel((0, 1, 4, 5))), 40.0, 10, 0),
    (lambda: qubit_tilted_spec(points_per_angle=16), 1.0, 50, 1),
    # a Wild sum that pairs Q_k with Q_k instead of Q_{n-k} is off by 1e-3
    # here, and within 1e-12 on the three configs above
    (lambda: exact_EA2_spec(SingleParticleModel((0, 1, 2))), 2.0, 8, 0),
], ids=["tilted_t20", "ea2_0145_t40", "tilted_ppa16_t1", "ea2_012_t2"])
def test_wild_sum_agrees_with_rk4_oracle(make_spec, t_max, steps, seed):
    spec = make_spec()
    rho0 = random_density(spec.dim, np.random.default_rng(seed))
    grid = np.linspace(0.0, t_max, steps + 1)
    got = qkbe_integrate(spec, rho0, grid)
    assert np.abs(got - rk4_reference(spec, rho0, grid)).max() < 1e-10


def test_wild_sum_plan():
    subs, terms = wild_sum_plan([0.0, 0.1, 1.0, 21.0])
    assert subs.tolist() == [1.0, 4.0, 80.0]
    # tau^M is the tail mass left out: below eps with M terms, not with M - 1
    tau = -np.expm1(-2 * np.diff([0.0, 0.1, 1.0, 21.0]) / subs)
    eps = np.finfo(float).eps
    assert terms.tolist() == [22.0, 36.0, 39.0]
    assert np.all(tau ** terms < eps) and np.all(tau ** (terms - 1) >= eps)
    # a span past any run is planned at once, or refused, without forming it
    subs, terms = wild_sum_plan([0.0, 1e300])
    assert subs[0] == 4e300 and terms[0] == 39.0
    with pytest.raises(ValueError, match="too long"):
        wild_sum_plan([0.0, 1e308])
    for bad in ([0.5, 1.0], [0.0, 0.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="increase from 0"):
            wild_sum_plan(bad)
    # a NaN compares false with everything, so no difference test catches it
    for bad in ([0.0, np.nan], [0.0, 1.0, np.nan], [np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite and increase from 0"):
            wild_sum_plan(bad)


def test_integrator_forms_the_planned_wild_sum_terms(monkeypatch, tilted_spec):
    # one summed-first term per Wild-sum term past the first, one
    # positivity certificate per substep, and the trajectory of the form
    # with one stacked wild call per term
    grid = [0.0, 0.1, 1.0, 2.5]
    subs, terms = wild_sum_plan(grid)
    formed, certified = [], []
    inner_term, inner_cert = boltzmann._wild_sum_term, boltzmann._negative_eigenvalue
    monkeypatch.setattr(boltzmann, "_wild_sum_term",
                        lambda w, flat, n: formed.append(n) or inner_term(w, flat, n))
    monkeypatch.setattr(boltzmann, "_negative_eigenvalue",
                        lambda *args: certified.append(1) or inner_cert(*args))
    rho0 = qubit_state(0.3, 0.1 + 0.2j)
    got = qkbe_integrate(tilted_spec, rho0, grid)
    assert len(formed) == subs @ (terms - 1) == 1 * 21 + 4 * 35 + 6 * 38
    assert len(certified) == subs.sum() == 11
    assert formed[:3] == [2, 3, 4]
    assert np.abs(got - stacked_wild_sum(tilted_spec, rho0, grid)).max() < 1e-14


@pytest.fixture(scope="module")
def node_file_spec(tmp_path_factory):
    """A ``sampled_file:`` spec on the three-level model (0, 1, 3): the
    identity and two unitaries drawn at random in every pair-energy shell,
    closed by the loader."""
    model = SingleParticleModel((0, 1, 3))
    rng = np.random.default_rng(7)
    lines = ["dim 9"]
    for w in (0.5, 0.25, 0.25):
        u = np.eye(9, dtype=complex)
        if w < 0.5:
            for _, idx in shell_structure(model, 2).shells:
                u[np.ix_(idx, idx)] = random_unitary(rng, len(idx))
        lines.append(f"weight {w}")
        lines += [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in u]
    path = tmp_path_factory.mktemp("nodes") / "shells.txt"
    path.write_text("\n".join(lines) + "\n")
    return spec_by_name(f"sampled_file:{path}", model)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(["qubit_tilted", "qubit_uniform", "exact_ea2", "sampled_file"]),
       st.lists(st.integers(0, 9), min_size=2, max_size=4), st.integers(0, 2 ** 32 - 1),
       st.integers(2, 24))
def test_summed_first_terms_match_stacked_wild(node_file_spec, kind, energies, seed, m):
    if kind == "exact_ea2":
        spec = exact_EA2_spec(SingleParticleModel(tuple(sorted(energies))))
    elif kind == "sampled_file":
        spec = node_file_spec
    else:
        spec = spec_by_name(kind, SingleParticleModel((0, 1)))
    rng = np.random.default_rng(seed)
    q = np.stack([random_state(rng, spec.dim) for _ in range(m)])
    flat = q.reshape(m, -1)
    for n in range(2, m + 1):
        want = wild(spec, q[:n - 1], q[n - 2::-1]).sum(0) / (n - 1)
        got = boltzmann._wild_sum_term(spec.wild_matrix, flat, n)
        assert np.abs(got - want.reshape(-1)).max() < 1e-13


@pytest.mark.parametrize("c", [5000.0, 1e100])
def test_non_cp_spec_fails_within_the_planned_calls(monkeypatch, c):
    # Q(A) = (1 - c) A + c Z1 A Z1 is not completely positive for c > 1/2,
    # so the Wild sum is no convex combination: at c = 5000 it breaks
    # positivity by far, at c = 1e100 it overflows to NaN; the call must
    # raise, never return NaN, and form no more Wild-sum terms than it planned
    import qkac.boltzmann as boltzmann

    z1 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    mat = (1 - c) * np.eye(16) + c * np.kron(z1, z1)
    spec = CollisionSpec(SingleParticleModel((0, 1)), "stiff", nonzeros(mat))
    calls = []
    inner = boltzmann._wild_sum_term
    monkeypatch.setattr(boltzmann, "_wild_sum_term",
                        lambda *args: calls.append(1) or inner(*args))
    rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    subs, terms = wild_sum_plan([0.0, 1.0])
    with np.errstate(all="ignore"), pytest.raises(NumericalContractError,
                                                  match="negative eigenvalue"):
        qkbe_integrate(spec, rho0, [0.0, 1.0])
    assert 0 < len(calls) <= subs @ (terms - 1)


@pytest.mark.parametrize("make_spec", [
    qubit_tilted_spec, lambda: exact_EA2_spec(SingleParticleModel((0, 1, 4, 5)))],
    ids=["tilted", "ea2_0145"])
def test_long_horizon_stays_hermitian_with_trace_one(make_spec):
    # the trace direction grows like e^{2t}: without the per-step
    # projection these runs end non-Hermitian (tilted) or in NaN (ea2)
    spec = make_spec()
    rho0 = random_density(spec.dim, np.random.default_rng(0))
    traj = qkbe_integrate(spec, rho0, [0.0, 40.0])
    end = traj[-1]
    assert np.abs(end - end.conj().T).max() == 0.0
    assert abs(np.trace(end) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(end).min() > 0.1


_BUILTIN_SPECS = {
    "qubit_uniform": qubit_uniform_spec(),
    "qubit_tilted": qubit_tilted_spec(),
    "exact_ea2_012": exact_EA2_spec(SingleParticleModel((0, 1, 2))),
    "exact_ea2_0145": exact_EA2_spec(SingleParticleModel((0, 1, 4, 5))),
}


@settings(max_examples=16, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_BUILTIN_SPECS)), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_checkpoints_are_states(name, seed, weights):
    spec = _BUILTIN_SPECS[name]
    d = spec.dim
    u = random_unitary(np.random.default_rng(seed), d)
    lam = np.asarray(weights[:d]) / sum(weights[:d])
    rho0 = (u * lam) @ u.conj().T
    for rho in qkbe_integrate(spec, rho0, [0.0, 5.0, 20.0]):
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -TOL_PSD



@settings(max_examples=24, derandomize=True, deadline=None)
@given(st.sampled_from(["qubit_uniform", "qubit_tilted", "exact_ea2_012"]),
       st.integers(0, 2 ** 32 - 1), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.floats(0.01, 20.0))
def test_checkpoints_are_positive_without_the_certificate(name, seed, weights, t_max):
    # every Wild-sum term is a state, so positivity holds by construction:
    # with the certificate made to pass everything, no checkpoint may dip
    # below zero by more than rounding, boundary states included
    spec = _BUILTIN_SPECS[name]
    lam = np.asarray(weights[:spec.dim])
    assume(lam.sum() > 0)
    u = random_unitary(np.random.default_rng(seed), spec.dim)
    rho0 = (u * (lam / lam.sum())) @ u.conj().T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boltzmann, "_negative_eigenvalue", lambda *args: None)
        traj = qkbe_integrate(spec, rho0, np.linspace(0.0, t_max, 5))
    for rho in traj:
        assert np.linalg.eigvalsh(rho).min() >= -1e-14

def test_integrator_validates_grid(tilted_spec):
    rho = qubit_state(0.5, 0.0)
    with pytest.raises(ValueError):
        qkbe_integrate(tilted_spec, rho, [0.5, 1.0])
    with pytest.raises(ValueError):
        qkbe_integrate(tilted_spec, rho, [0.0, 0.0])


# ---------------------------------------------------------------------------
# steady family, invariants, conservation
# ---------------------------------------------------------------------------

def test_steady_family_dimensions():
    # evenly spaced levels force thermal states (constants + energies)
    for n in (3, 4, 5):
        model = SingleParticleModel(tuple(range(n)))
        assert classify_steady_states(model).dimension == 2
    # two levels: no constraints at all
    assert classify_steady_states(SingleParticleModel((0, 1))).dimension == 2
    # independent-like energies: no nontrivial quadruples
    assert classify_steady_states(SingleParticleModel((1, 10, 100))).dimension == 3


def test_steady_family_contains_constants_and_energies():
    for energies in ((0, 1, 2), (0, 1, 4, 5), (1, 10, 100)):
        model = SingleParticleModel(energies)
        family = classify_steady_states(model)
        basis = family.constraint_basis
        for target in (np.ones(len(family.distinct_energies)),
                       np.asarray(family.distinct_energies, dtype=float)):
            coef, res, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
            recon = basis.T @ coef
            assert np.abs(recon - target).max() < 1e-10


def test_steady_states_from_family_are_steady(tilted_spec, ea2_three_level, rng):
    for spec in (tilted_spec, ea2_three_level):
        family = classify_steady_states(spec.model)
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, size=family.dimension)
            rho = steady_state_from_coeffs(family, coeffs)
            assert is_steady(spec, rho, tol=1e-10)


def test_is_steady_examples(tilted_spec):
    model = tilted_spec.model
    assert is_steady(tilted_spec, gibbs(model, np.log(2.0)))
    assert is_steady(tilted_spec, np.eye(2, dtype=complex) / 2)
    assert not is_steady(tilted_spec, qubit_state(0.5, 0.2))


def test_collision_invariants_are_conserved(tilted_spec, rng):
    invs = collision_invariants_basis(tilted_spec.model)
    grid = np.linspace(0.0, 1.0, 6)
    rho0 = random_state(rng, 2)
    traj = qkbe_integrate(tilted_spec, rho0, grid)
    for a in invs:
        assert conserved_check(traj, a) < 1e-8
    assert conserved_check(traj, np.eye(2, dtype=complex)) < 1e-12
    assert conserved_check(traj, tilted_spec.model.hamiltonian()) < 1e-8


def test_non_invariant_drifts():
    # h^2 is not a collision invariant for evenly spaced three levels
    model = SingleParticleModel((0, 1, 2))
    spec = exact_EA2_spec(model)
    rho0 = np.diag([0.6, 0.1, 0.3]).astype(complex)
    grid = np.linspace(0.0, 1.0, 6)
    traj = qkbe_integrate(spec, rho0, grid)
    h = model.hamiltonian()
    assert conserved_check(traj, h) < 1e-8
    assert conserved_check(traj, h @ h) > 1e-3


def test_entropy_monotone_along_trajectories(tilted_spec, rng):
    grid = np.linspace(0.0, 2.0, 21)
    for _ in range(5):
        rho0 = random_state(rng, 2)
        traj = qkbe_integrate(tilted_spec, rho0, grid)
        entropies = [von_neumann_entropy(r) for r in traj]
        diffs = np.diff(entropies)
        assert diffs.min() > -1e-9
        if not is_steady(tilted_spec, rho0, tol=1e-8):
            assert entropies[-1] > entropies[0]


def test_relative_entropy_decreases_to_steady_states(tilted_spec, rng):
    family = classify_steady_states(tilted_spec.model)
    grid = np.linspace(0.0, 2.0, 21)
    rho0 = random_state(rng, 2)
    traj = qkbe_integrate(tilted_spec, rho0, grid)
    for coeffs in ([0.0, 0.0], [0.5, -0.3], [1.0, 1.0]):
        rho_inf = steady_state_from_coeffs(family, coeffs)
        rel = [relative_entropy(r, rho_inf) for r in traj]
        assert np.diff(rel).max() < 1e-9
