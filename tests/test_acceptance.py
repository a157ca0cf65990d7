"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Tolerances are fixed here and nowhere loosened.

Criterion 4's N = 4 clause for the evenly spaced four-level model
asserts one class on every shell E = 0..12, and lists by hand the
occupancy vectors of the single class on the shells E = 3, 6 and 9.  An
earlier version expected two classes on those shells; that count
contradicted the brute-force breadth-first search over raw multi-indices
that the same criterion checks, because the pair move {0, 3} <-> {1, 2}
keeps the pair energy and so connects the configurations it held apart.
"""

import time

import numpy as np
import pytest

from qkac.boltzmann import (classify_steady_states, collision_invariants_basis,
                            gibbs, qkbe_integrate, steady_state_from_coeffs,
                            wild)
from qkac.chaos import ChaosExperiment, derivation_check, g_k, gamma_k, run_chaos_experiment
from qkac.collisions import exact_EA2_spec, qubit_tilted_spec, qubit_uniform_spec
from qkac.linearized import BKMGeometry, bkm_inner, build_K, divide_super, multiply_super, spectral_gap
from qkac.master import KacGenerator, evolve_master, ln_null_basis
from qkac.operators import (commutator, op_norm, relative_entropy,
                            trace_norm, von_neumann_entropy)
from qkac.spectra import (SingleParticleModel, classify_shell, commutant_projection,
                         is_fully_ergodic)
from conftest import random_matrix, random_state
from oracles import as_map, dense_channel

from test_spectra import bfs_class_counts


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number:02d} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s): {self.label}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def hermitian(rng, dim):
    a = random_matrix(rng, dim)
    return (a + a.conj().T) / 2


def qubit_state(a, z):
    return np.array([[a, z], [np.conjugate(z), 1 - a]], dtype=complex)


def test_criterion_01_uniform_channel_fidelity():
    with Criterion(1, "uniform qubit channel vs 16-point torus quadrature", 1.0):
        closed = qubit_uniform_spec()
        quad = qubit_uniform_spec(points_per_angle=16)
        # columns of the channel matrices are the images of all 16 units
        assert np.abs(dense_channel(closed) - dense_channel(quad)).max() < 1e-12


def test_criterion_02_tilted_channel_fidelity():
    with Criterion(2, "tilted qubit channel vs 16-point torus quadrature", 1.0):
        closed = qubit_tilted_spec()
        quad = qubit_tilted_spec(points_per_angle=16)
        assert np.abs(dense_channel(closed) - dense_channel(quad)).max() < 1e-12
        # damping factors 1/8, 1/4, 1/2 on the off-diagonal units
        q = as_map(dense_channel(closed))
        from qkac.operators import reorder_pair_basis

        def unit(r, c):
            u = np.zeros((4, 4), dtype=complex)
            u[r, c] = 1.0
            return reorder_pair_basis(u)

        for (r, c), f in {(0, 1): 1 / 8, (0, 2): 1 / 8, (0, 3): 1 / 2,
                          (1, 3): 1 / 4, (2, 3): 1 / 4}.items():
            assert np.abs(q(unit(r, c)) - f * unit(r, c)).max() < 1e-12


def test_criterion_03_wild_convolution_closed_form():
    with Criterion(3, "Wild convolution 2x2 closed form and non-commutativity", 1.0):
        spec = qubit_tilted_spec()
        rng = np.random.default_rng(3)
        witnessed = 0
        for _ in range(20):
            a, b = rng.uniform(0.1, 0.9, size=2)
            z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * np.sqrt(a * (1 - a)) / 2
            w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * np.sqrt(b * (1 - b)) / 2
            r1, r2 = qubit_state(a, z), qubit_state(b, w)
            got = wild(spec, r1, r2)
            want = np.array([[(a + b) / 2, z * (2 - b) / 8],
                             [np.conjugate(z) * (2 - b) / 8, 1 - (a + b) / 2]])
            assert np.abs(got - want).max() < 1e-12
            if abs(z * (2 - b) - w * (2 - a)) > 1e-8:
                assert np.abs(got - wild(spec, r2, r1)).max() > 1e-10
                witnessed += 1
        assert witnessed > 0


def test_criterion_04_ergodicity_combinatorics():
    with Criterion(4, "energy-shell ergodicity combinatorics", 10.0):
        # evenly spaced three-level model: fully ergodic through N = 6
        m3 = SingleParticleModel((0, 1, 2))
        for n in range(2, 7):
            ok, _ = is_fully_ergodic(m3, n)
            assert ok
        # library classification agrees with brute-force BFS over raw
        # multi-indices for N <= 5
        m4 = SingleParticleModel((0, 1, 2, 3))
        for n in range(2, 6):
            _, counts = is_fully_ergodic(m4, n)
            assert counts == bfs_class_counts((0, 1, 2, 3), n)
        # class structure at N = 4, worked out by hand: every shell
        # E = 0..12 is one class.  On the shells E = 0 mod 3 the move
        # {0,3} <-> {1,2} (0+3 = 1+2) joins the occupancy patterns:
        #   E = 3: 0003 -> 0012 by {0,3}->{1,2}, 0012 -> 0111 by {0,2}->{1,1};
        #   E = 6: 0033 -> 0123 by {0,3}->{1,2}; from 0123, {0,3}->{1,2}
        #          gives 1122, {0,2}->{1,1} gives 1113, {1,3}->{2,2} gives 0222;
        #   E = 9: the mirror image of E = 3 under level j -> 3 - j.
        # Occupancy vectors are (n0, n1, n2, n3).
        _, counts = is_fully_ergodic(m4, 4)
        assert counts == {E: 1 for E in range(13)}
        expected_occupancies = {
            3: {(3, 0, 0, 1), (2, 1, 1, 0), (1, 3, 0, 0)},
            6: {(2, 0, 0, 2), (1, 1, 1, 1), (0, 2, 2, 0), (0, 3, 0, 1),
                (1, 0, 3, 0)},
            9: {(1, 0, 0, 3), (0, 1, 1, 2), (0, 0, 3, 1)},
        }
        for E, occs in expected_occupancies.items():
            part = classify_shell(m4, 4, E)
            assert part.num_classes == 1
            assert part.class_occupancies[0] == occs


def test_criterion_05_steady_state_structure():
    with Criterion(5, "null-space structure for the uniform qubit model", 30.0):
        spec = qubit_uniform_spec()
        for n in (2, 3):
            gen = KacGenerator(spec, n)
            basis = ln_null_basis(gen)
            # class count: one class per shell, N+1 shells for two levels
            assert len(basis) == n + 1
            for a in basis:
                assert np.abs(a - np.diag(np.diag(a))).max() < 1e-9
                for b in basis:
                    assert np.abs(commutator(a, b)).max() < 1e-9


def test_criterion_06_long_time_limit():
    with Criterion(6, "master-equation long-time limit vs conditional expectation", 60.0):
        rng = np.random.default_rng(6)
        for spec in (qubit_uniform_spec(), qubit_tilted_spec()):
            for n in (2, 3):
                gen = KacGenerator(spec, n)
                for _ in range(10):
                    rho = random_state(rng, 2 ** n)
                    out = evolve_master(gen, rho, 50.0 / n)
                    limit = commutant_projection(spec.model, n, rho)
                    assert trace_norm(out - limit) < 1e-6


def test_criterion_07_kinetic_trajectories():
    with Criterion(7, "kinetic trajectories vs closed forms", 10.0):
        tilted = qubit_tilted_spec()
        # thermal states stay put
        grid5 = np.linspace(0.0, 5.0, 26)
        for beta in (0.0, 0.7, -0.4):
            rho = gibbs(tilted.model, beta)
            traj = qkbe_integrate(tilted, rho, grid5)
            assert np.abs(traj - rho).max() < 1e-10
        # tilted off-diagonal decay
        a, z = 0.3, 0.1
        grid1 = np.linspace(0.0, 1.0, 11)
        traj = qkbe_integrate(tilted, qubit_state(a, z), grid1)
        exact = z * np.exp(((2 - a) / 4 - 2) * grid1)
        assert np.abs(traj[:, 0, 1] - exact).max() < 1e-8
        # exact conditional expectation on a model with distinct pair
        # sums: linear flow onto the diagonal
        model = SingleParticleModel((0, 1, 3))
        spec = exact_EA2_spec(model)
        rho0 = np.array([[0.5, 0.1 + 0.05j, 0.02j],
                         [0.1 - 0.05j, 0.3, -0.03],
                         [-0.02j, -0.03, 0.2]], dtype=complex)
        grid2 = np.linspace(0.0, 2.0, 11)
        traj = qkbe_integrate(spec, rho0, grid2)
        diag = np.diag(np.diag(rho0))
        for t, got in zip(grid2, traj):
            want = diag + np.exp(-2 * t) * (rho0 - diag)
            assert np.abs(got - want).max() < 1e-8


def test_criterion_08_conservation_and_monotonicity():
    with Criterion(8, "conservation and entropy monotonicity along 20 trajectories", 30.0):
        spec = qubit_tilted_spec()
        family = classify_steady_states(spec.model)
        steady_refs = [steady_state_from_coeffs(family, c)
                       for c in np.eye(family.dimension)]
        steady_refs.append(steady_state_from_coeffs(family, np.zeros(family.dimension)))
        h = spec.model.hamiltonian()
        grid = np.linspace(0.0, 2.0, 21)
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho0 = random_state(rng, 2)
            traj = qkbe_integrate(spec, rho0, grid)
            energy = np.einsum("tij,ji->t", traj, h).real
            assert np.abs(energy - energy[0]).max() < 1e-8
            ent = np.array([von_neumann_entropy(r) for r in traj])
            assert np.diff(ent).min() > -1e-9
            for ref in steady_refs:
                rel = np.array([relative_entropy(r, ref) for r in traj])
                assert np.diff(rel).max() < 1e-9


def test_criterion_09_hierarchy_bounds():
    with Criterion(9, "hierarchy norm bounds and the derivation identity", 10.0):
        spec = qubit_tilted_spec()
        rng = np.random.default_rng(9)
        for k in (1, 2):
            for _ in range(100):
                b = random_matrix(rng, 2 ** k)
                nb = op_norm(b)
                assert op_norm(gamma_k(spec, b)) <= 4 * k * nb + 1e-10
                for n in (4, 8):
                    dev = op_norm(g_k(spec, b, n) - gamma_k(spec, b))
                    assert dev <= 6.0 * k * k / (n - 1) * nb + 1e-10
        for _ in range(20):
            x = random_matrix(rng, 2)
            y = random_matrix(rng, 2)
            assert derivation_check(spec, x, y) < 1e-10


def test_criterion_10_propagation_of_chaos():
    with Criterion(10, "propagation of chaos, N = 2..6", 300.0):
        spec = qubit_tilted_spec()
        rho0 = qubit_state(0.5, 0.3)
        t_grid = np.array([0.0, 0.25, 0.5, 1.0])
        exp = ChaosExperiment(spec, rho0, [2, 3, 4, 5, 6], t_grid)
        rows = run_chaos_experiment(exp)
        table = {(r.N, r.t): r for r in rows}
        for n in (2, 3, 4, 5, 6):
            assert table[(n, 0.0)].delta1 == pytest.approx(0.0, abs=1e-13)
            assert table[(n, 0.0)].delta2 == pytest.approx(0.0, abs=1e-13)
        for t in (0.25, 0.5, 1.0):
            deltas = [table[(n, t)].delta1 for n in (2, 3, 4, 5, 6)]
            assert all(x > y for x, y in zip(deltas, deltas[1:])), (t, deltas)
            assert deltas[-1] < deltas[0] / 2


def test_criterion_11_linearization():
    with Criterion(11, "linearized operator: symmetry, kernel, gaps", 30.0):
        uniform, tilted = qubit_uniform_spec(), qubit_tilted_spec()
        rng = np.random.default_rng(11)
        geo = BKMGeometry(np.diag([0.45, 0.55]).astype(complex))
        for spec in (uniform, tilted):
            k_mat = build_K(spec, geo)
            k = as_map(k_mat)
            for _ in range(50):
                a, b = random_matrix(rng, 2), random_matrix(rng, 2)
                assert abs(bkm_inner(geo, b, k(a))
                           - np.conjugate(bkm_inner(geo, a, k(b)))) < 1e-9
                ah = hermitian(rng, 2)
                assert bkm_inner(geo, ah, k(ah)).real <= 1e-9
            _, kernel_dim = spectral_gap(spec, geo)
            assert kernel_dim == len(collision_invariants_basis(spec.model))
        # finite-difference oracle with measured slope about 1
        k = as_map(build_K(tilted, geo))
        x = hermitian(rng, 2)
        x = x - np.trace(multiply_super(geo, x)) * np.eye(2)
        kx = k(x)
        eps_list = [1e-3, 1e-4, 1e-5, 1e-6]
        errs = []
        for eps in eps_list:
            pert = geo.rho_inf + eps * multiply_super(geo, x)
            fd = divide_super(geo, 2.0 * (wild(tilted, pert, pert) - pert)) / eps
            errs.append(np.abs(fd - kx).max())
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 1.0) < 0.2
        # derived gap values
        for a in (0.2, 0.35, 0.5, 0.65, 0.8):
            g = BKMGeometry(np.diag([a, 1 - a]).astype(complex))
            gap_u, _ = spectral_gap(uniform, g)
            assert abs(gap_u - 2.0) < 1e-10
            gap_t, _ = spectral_gap(tilted, g)
            assert abs(gap_t - (6 + a) / 4) < 1e-10


def test_criterion_12_kadison_inequality():
    with Criterion(12, "Kadison inequality for every built channel", 5.0):
        rng = np.random.default_rng(12)
        specs = [qubit_uniform_spec(), qubit_tilted_spec(),
                 qubit_uniform_spec(points_per_angle=8),
                 qubit_tilted_spec(points_per_angle=8),
                 exact_EA2_spec(SingleParticleModel((0, 1))),
                 exact_EA2_spec(SingleParticleModel((0, 1, 2)))]
        for spec in specs:
            q = as_map(dense_channel(spec))
            d = spec.dim ** 2
            for _ in range(100):
                a = random_matrix(rng, d)
                gap = q(a.conj().T @ a) - q(a).conj().T @ q(a)
                w = np.linalg.eigvalsh((gap + gap.conj().T) / 2)
                assert w.min() > -1e-10
