import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkac.chaos import ChaosExperiment, derivation_check
from qkac.cli import _cmd_ergodicity, _size
from qkac.collisions import exact_EA2_spec
from qkac.master import KacGenerator
from qkac.operators import FactorShape
from qkac import spectra
from qkac.spectra import (SingleParticleModel, _add_tables, _by_largest_type, _digits,
                          classify_shell, class_projections, commutant_projection,
                          is_fully_ergodic, shell_decomposition, shell_structure)
from qkac.symmetric import SymmetricGenerator
from qkac.tolerances import OCCUPATION_GUARD
from conftest import random_matrix, random_state
from oracles import (accidental_relations, occupancy, row_shell_structure, shell_projector,
                     shell_state)


def bfs_class_counts(energies, num_particles):
    """Brute-force breadth-first search over raw multi-indices.

    Independent oracle: explores single pair moves directly on tuples,
    with no occupancy-vector reduction.
    """
    d = len(energies)
    shells = {}
    for a in itertools.product(range(d), repeat=num_particles):
        shells.setdefault(sum(energies[x] for x in a), []).append(a)
    counts = {}
    for E, idxs in shells.items():
        idxset, seen, nclass = set(idxs), set(), 0
        for start in idxs:
            if start in seen:
                continue
            nclass += 1
            stack = [start]
            seen.add(start)
            while stack:
                cur = stack.pop()
                for i in range(num_particles):
                    for j in range(i + 1, num_particles):
                        s = energies[cur[i]] + energies[cur[j]]
                        for bi in range(d):
                            for bj in range(d):
                                if energies[bi] + energies[bj] != s:
                                    continue
                                nxt = list(cur)
                                nxt[i], nxt[j] = bi, bj
                                nxt = tuple(nxt)
                                if nxt in idxset and nxt not in seen:
                                    seen.add(nxt)
                                    stack.append(nxt)
        counts[E] = nclass
    return counts


def test_model_validation():
    with pytest.raises(ValueError):
        SingleParticleModel((1,))
    with pytest.raises(ValueError):
        SingleParticleModel((1, 0))
    with pytest.raises(ValueError):
        SingleParticleModel((0, 1.5))


def test_shell_dims_two_level():
    model = SingleParticleModel((0, 1))
    shells = shell_decomposition(model, 3)
    assert [(E, len(ix)) for E, ix in shells] == [(0, 1), (1, 3), (2, 3), (3, 1)]
    shells1 = shell_decomposition(model, 1)
    assert [(E, len(ix)) for E, ix in shells1] == [(0, 1), (1, 1)]


def test_shell_dims_three_level_enumeration_oracle():
    model = SingleParticleModel((0, 1, 2))
    shells = shell_decomposition(model, 2)
    # oracle: direct enumeration of all 9 ordered pairs
    want = {}
    for a in itertools.product(range(3), repeat=2):
        want[a[0] + a[1]] = want.get(a[0] + a[1], 0) + 1
    assert {E: len(ix) for E, ix in shells} == want
    assert [len(ix) for _, ix in shells] == [1, 2, 3, 2, 1]


def test_shells_partition_everything():
    model = SingleParticleModel((0, 1, 3))
    shells = shell_decomposition(model, 3)
    total = sum(len(ix) for _, ix in shells)
    assert total == 27


def test_shell_projector_two_level():
    model = SingleParticleModel((0, 1))
    p1 = shell_projector(model, 2, 1)
    # the E=1 shell is spanned by |01> and |10>, indices 1 and 2
    assert np.allclose(np.diag(p1), [0, 1, 1, 0])
    total = sum(shell_projector(model, 2, E) for E, _ in shell_decomposition(model, 2))
    assert np.allclose(total, np.eye(4))


def test_shell_state_normalized():
    model = SingleParticleModel((0, 1, 2))
    for E, _ in shell_decomposition(model, 3):
        sigma = shell_state(model, 3, E)
        assert abs(np.trace(sigma) - 1.0) < 1e-14


def test_shell_projector_bad_energy():
    model = SingleParticleModel((0, 1))
    with pytest.raises(ValueError):
        shell_projector(model, 2, 5)


def test_occupancy_basic():
    assert occupancy((0, 0, 1), 2) == (2, 1)
    assert occupancy((2, 2, 2, 2), 3) == (0, 0, 4)


def test_occupancy_energy_two_ways(rng):
    model = SingleParticleModel((0, 2, 5, 9))
    for _ in range(20):
        alpha = tuple(rng.integers(0, 4, size=5))
        m = occupancy(alpha, 4)
        assert sum(model.energies[a] for a in alpha) == int(
            np.dot(m, model.energies))


@pytest.mark.parametrize("energies,N", [
    ((0, 1), 4),
    ((0, 1, 2), 3),
    ((0, 1, 2), 4),
    ((0, 1, 2, 3), 3),
    ((0, 1, 2, 3), 4),
    ((0, 1, 4, 5), 4),
    ((0, 1, 4, 5), 5),
    ((1, 10, 100), 3),
    ((0, 2, 3, 7), 4),
])
def test_classify_matches_bruteforce_bfs(energies, N):
    model = SingleParticleModel(energies)
    oracle = bfs_class_counts(energies, N)
    _, counts = is_fully_ergodic(model, N)
    assert counts == oracle


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energies=st.lists(st.integers(0, 12), min_size=2, max_size=4).map(sorted),
       N=st.integers(1, 4))
def test_classify_matches_bruteforce_bfs_random_spectra(energies, N):
    test_classify_matches_bruteforce_bfs(tuple(energies), N)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energies=st.lists(st.integers(0, 12), min_size=2, max_size=5).map(sorted),
       N=st.integers(1, 6))
@example(energies=list(range(12)), N=3)
@example(energies=[0, 0, 1, 2, 2, 3, 5, 6, 6, 8, 11, 12], N=3)
def test_shell_structure_matches_the_row_oracle(energies, N):
    # the occupation table and its derived flat view against np.unique over
    # the count rows and the loop over every occupation and pair: every
    # array equal, dtypes included
    model = SingleParticleModel(tuple(energies))
    got, want = shell_structure(model, N, force=True), row_shell_structure(model, N)
    for name in ("labels", "class_energies", "occupancies"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert [E for E, _ in got.shells] == [E for E, _ in want.shells]
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for (_, a), (_, b) in zip(got.shells, want.shells))
    # each derived shell's indices unravel to the oracle's multi-indices
    for _, idx in got.shells:
        digits = _digits(idx, model.dim, N)
        assert digits.dtype == want.digits.dtype and np.array_equal(digits, want.digits[idx])
    # each row's energy, class and multinomial are those of the indices it counts
    row = want.occupancy_of
    assert np.array_equal(got.energies[row], np.asarray(energies)[want.digits].sum(axis=1))
    assert np.array_equal(got.classes[row], want.labels)
    assert got.multinomials.tolist() == np.bincount(row).tolist()
    assert got.class_ranks() == np.bincount(want.labels).tolist()
    rows = list(map(tuple, got.occupancies.tolist()))
    assert rows == sorted(set(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energies=st.lists(st.integers(0, 6), min_size=2, max_size=5).map(sorted),
       N=st.integers(1, 5))
@example(energies=[0, 1, 1, 2], N=5)
@example(energies=[0, 0, 3], N=4)
def test_occupation_rows_match_the_row_oracle(energies, N):
    # the ergodicity rows and the class ranks read off the occupations alone,
    # repeated levels included, against the shells of the flat indices
    model = SingleParticleModel(tuple(energies))
    want = row_shell_structure(model, N)
    _, rows = _cmd_ergodicity(SimpleNamespace(model=model, force=True), {"N": N})
    assert rows == [(E, len(idx), len(np.unique(want.labels[idx]))) for E, idx in want.shells]
    assert sum(dim for _, dim, _ in rows) == model.dim ** N
    assert shell_structure(model, N, force=True).class_ranks() == \
        np.bincount(want.labels).tolist()


def test_rank_tables_rank_each_occupation_where_it_is_listed():
    # folding an occupation's types through the tables, in ascending or in
    # descending order, gives the rank at which _by_largest_type lists it
    for num_types in range(1, 17):
        tables, eye = list(_add_tables(num_types, 6)), np.eye(num_types, dtype=np.intp)
        for k in range(1, 7):
            occs = _by_largest_type(np.zeros((1, num_types), np.intp), num_types, k,
                                    lambda part, t: part + eye[t])
            types = np.repeat(np.tile(np.arange(num_types), len(occs)), occs.ravel())
            for order in (types.reshape(-1, k), types.reshape(-1, k)[:, ::-1]):
                rank = np.zeros(len(occs), np.intp)
                for table, column in zip(tables, order.T):
                    rank = table[rank, column]
                assert np.array_equal(rank, np.arange(len(occs))), (num_types, k)


def test_classes_cover_shell_disjointly():
    model = SingleParticleModel((0, 1, 4, 5))
    for E, idxs in shell_decomposition(model, 4):
        part = classify_shell(model, 4, E)
        merged = sorted(a for c in part.classes for a in c)
        assert merged == sorted(idxs)
        assert part.dim == len(idxs)


def test_classes_closed_under_permutation():
    model = SingleParticleModel((0, 1, 4, 5))
    for E in (4, 8):
        part = classify_shell(model, 4, E)
        for block in part.classes:
            members = set(block)
            for alpha in block:
                for perm in itertools.permutations(alpha):
                    assert perm in members


def test_evenly_spaced_four_levels_single_class_shell():
    # E = 4 at N = 3 is a single class; so is every other shell of this
    # model (the {0,3} <-> {1,2} move connects everything), which the
    # BFS parametrization above confirms
    part = classify_shell(SingleParticleModel((0, 1, 2, 3)), 3, 4)
    assert part.num_classes == 1


def test_two_class_shell_example():
    # the occupancies (0,4,0,0) and (3,0,1,0) share E=4 but no chain of
    # energy-preserving pair moves connects them
    model = SingleParticleModel((0, 1, 4, 5))
    part = classify_shell(model, 4, 4)
    assert part.num_classes == 2
    occs = sorted(tuple(sorted(c)) for c in part.class_occupancies)
    assert occs == [(((0, 4, 0, 0)),), (((3, 0, 1, 0)),)]


def test_fully_ergodic_examples():
    for n in range(2, 7):
        ok, _ = is_fully_ergodic(SingleParticleModel((0, 1, 2)), n)
        assert ok
    for n in range(2, 7):
        ok, _ = is_fully_ergodic(SingleParticleModel((0, 1)), n)
        assert ok
    ok, counts = is_fully_ergodic(SingleParticleModel((0, 1, 4, 5)), 4)
    assert not ok
    assert {E for E, c in counts.items() if c > 1} == {4, 8, 12, 16}


def test_independent_energies_classes_are_orbits():
    model = SingleParticleModel((1, 10, 100))
    for E, _ in shell_decomposition(model, 3):
        part = classify_shell(model, 3, E)
        assert part.num_classes == 1
        assert len(part.class_occupancies[0]) == 1
    assert accidental_relations(model, 3) == []


def test_accidental_relations_detects_degeneracy():
    model = SingleParticleModel((0, 1, 2))
    rels = accidental_relations(model, 2)
    # E = 2 is realized by the occupancies (1,0,1) and (0,2,0)
    assert any(E == 2 for E, _ in rels)


def test_commutant_projection_fixed_point(rng):
    model = SingleParticleModel((0, 1))
    rho = random_state(rng, 4)
    out = commutant_projection(model, 2, rho)
    again = commutant_projection(model, 2, out)
    assert np.abs(out - again).max() < 1e-12


def test_commutant_projection_basis_state():
    model = SingleParticleModel((0, 1))
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0  # |10><10|
    out = commutant_projection(model, 2, rho)
    assert np.allclose(np.diag(out), [0, 0.5, 0.5, 0])
    assert np.abs(out - np.diag(np.diag(out))).max() == 0.0


def test_commutant_projection_properties(rng):
    model = SingleParticleModel((0, 1, 2))
    shape = FactorShape(2, 3)
    for _ in range(5):
        rho = random_state(rng, shape.dim)
        out = commutant_projection(model, 2, rho)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
        # diagonal in the product eigenbasis, hence separable
        assert np.abs(out - np.diag(np.diag(out))).max() < 1e-14
    # self-adjoint for the Hilbert-Schmidt pairing
    a = random_state(rng, shape.dim)
    b = random_state(rng, shape.dim)
    ea = commutant_projection(model, 2, a)
    eb = commutant_projection(model, 2, b)
    assert abs(np.vdot(ea, b) - np.vdot(a, eb)) < 1e-12


def test_commutant_projection_matches_class_loop(rng):
    # reference: average the diagonal over each class, one class at a time
    model = SingleParticleModel((0, 1, 4, 5))
    n = 4
    shape = FactorShape(n, model.dim)
    a = random_matrix(rng, shape.dim)
    want = np.zeros(shape.dim, dtype=complex)
    for E, _ in shell_decomposition(model, n):
        for block in classify_shell(model, n, E).classes:
            idx = [np.ravel_multi_index(alpha, (model.dim,) * n) for alpha in block]
            want[idx] = np.diagonal(a)[idx].sum() / len(idx)
    got = commutant_projection(model, n, a)
    assert np.abs(got - np.diag(want)).max() < 1e-14


def test_class_projections_resolve_shells():
    model = SingleParticleModel((0, 1, 4, 5))
    projs = class_projections(model, 3)
    total = sum(p for _, p, _ in projs)
    assert np.allclose(total, np.eye(model.dim ** 3))
    for _, p, rank in projs:
        assert np.allclose(p @ p, p)
        assert round(np.trace(p).real) == rank


def test_size_guard():
    model = SingleParticleModel((0, 1, 2, 3))
    with pytest.raises(ValueError):
        shell_decomposition(model, 7)  # 4**7 > 4096
    shell_decomposition(model, 7, force=True)
    # a structure cached by the forced call must not bypass the guard
    with pytest.raises(ValueError):
        shell_decomposition(model, 7)


def test_forced_ergodicity_never_forms_d_to_the_N():
    # 3**12 = 531,441 flat indices: the occupation table has 91 rows, and the
    # flat view is derived only by the callers that hold a d^N operand
    import tracemalloc

    spectra._build_shell_structure.cache_clear()
    tracemalloc.start()
    try:
        assert is_fully_ergodic(QUTRIT, 12, force=True)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    held = vars(shell_structure(QUTRIT, 12, force=True))
    assert "_flat" not in held
    assert all(a.size < 3 ** 12 for a in held.values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("energies, n", [((0, 1, 2, 3, 4, 5, 6, 7), 30), ((0, 1), 10 ** 6),
                                         ((0, 1, 2), 10 ** 60)],
                         ids=["d8_N30", "qubit_N1e6", "qutrit_N1e60"])
def test_forced_occupations_past_the_bound_are_refused_at_once(energies, n):
    # qubits at N = 10**6 have few occupations, but each multinomial has N bits
    model, start = SingleParticleModel(energies), time.perf_counter()
    occupations = math.comb(n + model.dim - 1, n)
    assert occupations * (n + model.dim) > OCCUPATION_GUARD
    with pytest.raises(ValueError, match=f"gives C\\(N\\+d-1, N\\) = {occupations} occupations"):
        shell_structure(model, n, force=True)
    assert time.perf_counter() - start < 0.1


def test_the_occupation_bound_admits_four_levels_at_N150(monkeypatch):
    # 585,276 occupations, the size the t = infinity chaos error needs; the
    # build itself takes seconds, so only the guard is run here
    monkeypatch.setattr(spectra, "_build_shell_structure", lambda *args: args)
    model = SingleParticleModel((0, 1, 2, 3))
    assert shell_structure(model, 150, force=True) == (model, 150)
    with pytest.raises(ValueError, match="C\\(N\\+d-1, N\\) = 644956 occupations"):
        shell_structure(model, 155, force=True)


HUGE_N = 10 ** 7
QUTRIT = SingleParticleModel((0, 1, 2))


@pytest.mark.parametrize("call", [
    lambda: shell_structure(QUTRIT, HUGE_N),
    lambda: commutant_projection(QUTRIT, HUGE_N, np.eye(3)),
    lambda: KacGenerator(exact_EA2_spec(QUTRIT), HUGE_N),
    lambda: ChaosExperiment(exact_EA2_spec(QUTRIT), np.eye(3) / 3, [2, HUGE_N], [0.0, 1.0]),
    lambda: _size(HUGE_N, "params.N", QUTRIT, False, minimum=1),
    lambda: SymmetricGenerator(exact_EA2_spec(QUTRIT), HUGE_N),
], ids=["shell_structure", "commutant_projection", "KacGenerator", "ChaosExperiment",
        "cli._size", "SymmetricGenerator"])
def test_huge_N_meets_the_size_guard_without_forming_d_to_the_N(call):
    # 3**N at this N takes seconds to form and cannot be printed in full
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"N = {HUGE_N} gives total dimension "
                                         f"3\\*\\*{HUGE_N}, past the guard 4096"):
        call()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("energies, n", [
    ((0, 2 ** 62), 4), ((0, 2 ** 63), 2), ((0, 1, 2 ** 62), 2), ((-2 ** 62, 0), 2)])
def test_energies_past_int64_are_refused(energies, n):
    # the N-particle energies are int64 sums: at N max|e| >= 2^63 they would wrap
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        shell_structure(SingleParticleModel(energies), n)


def test_energies_just_inside_int64_are_exact():
    top = 2 ** 62 - 1
    st = shell_structure(SingleParticleModel((0, top)), 2)
    assert [(E, len(idx)) for E, idx in st.shells] == [(0, 1), (top, 2), (2 * top, 1)]
    assert all(type(E) is int for E, _ in st.shells)


def test_derivation_check_meets_the_size_guard(tilted_spec):
    # the operand shapes bound N here: X on 58 qubits, as a broadcast view
    x = np.broadcast_to(np.complex128(0), (2 ** 58,))
    with pytest.raises(ValueError, match="N = 60 gives total dimension 2\\*\\*60"):
        derivation_check(tilted_spec, x, np.eye(2))
