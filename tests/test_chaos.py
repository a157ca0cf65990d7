import numpy as np
import pytest

from qkac.boltzmann import qkbe_integrate
from qkac.chaos import (ChaosExperiment, derivation_check, g_k, gamma_k,
                        run_chaos_experiment)
from qkac.master import KacGenerator, apply_LN, evolve_master
from qkac.operators import op_norm, partial_trace, tensor, trace_norm
from conftest import random_matrix, random_state, symmetrize_state


def hermitian(rng, dim):
    a = random_matrix(rng, dim)
    return (a + a.conj().T) / 2


def test_gamma_kills_identity(tilted_spec):
    for k in (1, 2):
        out = gamma_k(tilted_spec, np.eye(2 ** k, dtype=complex))
        assert np.abs(out).max() < 1e-13


def test_gamma1_uniform_closed_form(uniform_spec):
    # hand evaluation: B x 1 = diag(1,1,0,0), the channel averages the
    # middle shell, so Gamma_1(B) = 2(Q - 1)(B x 1) = diag(0,-1,1,0)
    b = np.diag([1.0, 0.0]).astype(complex)
    got = gamma_k(uniform_spec, b)
    assert np.abs(got - np.diag([0.0, -1.0, 1.0, 0.0])).max() < 1e-13


def test_gamma_norm_bound(tilted_spec, uniform_spec, rng):
    for spec in (tilted_spec, uniform_spec):
        for k in (1, 2):
            for _ in range(50):
                b = random_matrix(rng, 2 ** k)
                assert op_norm(gamma_k(spec, b)) <= 4 * k * op_norm(b) + 1e-10


def test_composed_gamma_norm_bound(tilted_spec, rng):
    # || Gamma_{k+l} ... Gamma_k (B) || <= 4^{l+1} (k+l)(k+l-1)...k ||B||
    for k in (1, 2):
        for ell in (1, 2):
            for _ in range(10):
                b = random_matrix(rng, 2 ** k)
                out = b
                for m in range(ell + 1):
                    out = gamma_k(tilted_spec, out)
                bound = 4.0 ** (ell + 1) * np.prod(
                    [float(j) for j in range(k, k + ell + 1)])
                assert op_norm(out) <= bound * op_norm(b) + 1e-9


def test_g_kills_identity(tilted_spec):
    for k in (1, 2):
        out = g_k(tilted_spec, np.eye(2 ** k, dtype=complex), 6)
        assert np.abs(out).max() < 1e-13


def test_g_approaches_gamma(tilted_spec, rng):
    b = random_matrix(rng, 4)
    gam = gamma_k(tilted_spec, b)
    prev = None
    for n in (10, 100, 1000, 10000):
        dev = np.abs(g_k(tilted_spec, b, n) - gam).max()
        if prev is not None:
            assert dev < prev / 5
        prev = dev
    assert prev < 1e-3 * op_norm(b)


def test_g_gamma_deviation_bound_and_scaling(tilted_spec, rng):
    # deviation bound 6 k^2/(N-1) ||B||, and exact 1/(N-1) scaling
    for k in (1, 2):
        for n in (4, 8):
            for _ in range(25):
                b = random_matrix(rng, 2 ** k)
                dev = op_norm(g_k(tilted_spec, b, n) - gamma_k(tilted_spec, b))
                assert dev <= 6.0 * k * k / (n - 1) * op_norm(b) + 1e-10
    for _ in range(5):
        b = random_matrix(rng, 4)
        gam = gamma_k(tilted_spec, b)
        n = 5
        dev_n = op_norm(g_k(tilted_spec, b, n) - gam)
        dev_2n = op_norm(g_k(tilted_spec, b, 2 * n - 1) - gam)
        if dev_2n > 1e-12:
            assert abs(dev_n / dev_2n - 2.0) < 0.2 * 2.0


def test_g_requires_k_below_n(tilted_spec, rng):
    with pytest.raises(ValueError):
        g_k(tilted_spec, random_matrix(rng, 4), 2)


def test_hierarchy_consistency_with_generator(tilted_spec, rng):
    # Tr[rho L_N(B_k x 1)] = Tr[rho G_k(B_k) x 1] for symmetric rho
    n, k = 4, 2
    gen = KacGenerator(tilted_spec, n)
    rho = symmetrize_state(random_state(rng, 2 ** n), gen.shape)
    b = random_matrix(rng, 2 ** k)
    lhs = np.trace(rho @ apply_LN(gen, tensor(b, np.eye(2 ** (n - k)))))
    rhs = np.trace(rho @ tensor(g_k(tilted_spec, b, n), np.eye(2 ** (n - k - 1))))
    assert abs(lhs - rhs) < 1e-10


def test_derivation_identity(tilted_spec, rng):
    for _ in range(10):
        x = random_matrix(rng, 2)
        y = random_matrix(rng, 2)
        assert derivation_check(tilted_spec, x, y) < 1e-10


def test_derivation_identity_identity_input(tilted_spec, rng):
    # X = 1 reduces both sides to the hierarchy step on Y alone
    y = random_matrix(rng, 2)
    assert derivation_check(tilted_spec, np.eye(2, dtype=complex), y) < 1e-12


def test_derivation_hermitian_consistency(tilted_spec, rng):
    x = hermitian(rng, 2)
    y = hermitian(rng, 2)
    assert derivation_check(tilted_spec, x, y) < 1e-10
    out = gamma_k(tilted_spec, tensor(x, y))
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_derivation_mixed_sizes(tilted_spec, rng):
    x = random_matrix(rng, 2)
    y = random_matrix(rng, 4)
    assert derivation_check(tilted_spec, x, y) < 1e-10
    assert derivation_check(tilted_spec, y, x) < 1e-10


# ---------------------------------------------------------------------------
# the experiment driver
# ---------------------------------------------------------------------------

def qubit_state(a, z):
    return np.array([[a, z], [np.conjugate(z), 1 - a]], dtype=complex)


def test_chaos_zero_time_is_exact(tilted_spec):
    exp = ChaosExperiment(tilted_spec, qubit_state(0.5, 0.25),
                          [2, 3], np.array([0.0, 0.1]))
    rows = run_chaos_experiment(exp)
    for r in rows:
        if r.t == 0.0:
            assert r.delta1 == pytest.approx(0.0, abs=1e-13)
            assert r.delta2 == pytest.approx(0.0, abs=1e-13)
        else:
            assert r.delta1 > 0.0


def test_chaos_two_particle_correlation_oracle(tilted_spec):
    # at N = 2 the experiment must reproduce the correlation built by a
    # single pair collision, computed here directly
    rho0 = qubit_state(0.5, 0.3)
    t_grid = np.array([0.0, 0.5])
    exp = ChaosExperiment(tilted_spec, rho0, [2], t_grid)
    rows = [r for r in run_chaos_experiment(exp) if r.t == 0.5]
    gen = KacGenerator(tilted_spec, 2)
    evolved = evolve_master(gen, tensor(rho0, rho0), 0.5)
    kinetic = qkbe_integrate(tilted_spec, rho0, t_grid)[-1]
    want1 = trace_norm(partial_trace(evolved, gen.shape, keep=1) - kinetic)
    want2 = trace_norm(evolved - tensor(kinetic, kinetic))
    assert rows[0].delta1 == pytest.approx(want1, abs=1e-12)
    assert rows[0].delta2 == pytest.approx(want2, abs=1e-12)
    assert rows[0].delta2 > 1e-4


def test_chaos_distance_decreases_with_n(tilted_spec):
    exp = ChaosExperiment(tilted_spec, qubit_state(0.5, 0.3),
                          [2, 3, 4], np.array([0.0, 0.5]))
    rows = [r for r in run_chaos_experiment(exp) if r.t > 0]
    d = {r.N: r.delta1 for r in rows}
    assert d[2] > d[3] > d[4] > 0


def test_chaos_grid_validation(tilted_spec):
    with pytest.raises(ValueError):
        ChaosExperiment(tilted_spec, qubit_state(0.5, 0.1), [2],
                        np.array([0.1, 0.2]))
    # the grid is checked by the kinetic solver's own rule, which refuses
    # non-finite times before any N-particle work
    for bad in ([0.0, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite and increase from 0"):
            ChaosExperiment(tilted_spec, qubit_state(0.5, 0.1), [2], bad)


def test_chaos_refuses_one_particle_at_construction(tilted_spec):
    # before any kinetic or N-particle work is run
    with pytest.raises(ValueError, match="needs N >= 2"):
        ChaosExperiment(tilted_spec, qubit_state(0.5, 0.1), [1], np.array([0.0, 0.5]))


def test_chaos_never_reaches_the_dense_kernel(tilted_spec, monkeypatch):
    # a product state stays in the symmetric sector: no d^N x d^N generator
    import qkac.chaos as chaos
    import qkac.master as master

    def refuse(*args, **kwargs):
        raise AssertionError("the dense path was used")

    monkeypatch.setattr(master, "apply_QN", refuse)
    monkeypatch.setattr(chaos, "KacGenerator", refuse)
    exp = ChaosExperiment(tilted_spec, qubit_state(0.5, 0.3), [2, 5], np.array([0.0, 0.5]))
    assert len(run_chaos_experiment(exp)) == 4
