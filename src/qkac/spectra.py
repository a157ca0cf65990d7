"""Single-particle spectral model, N-particle energy shells, and the
pair-move classes that label the minimal projections of the fixed-point
algebra.

Energies are exact integers, so shells and the pair-move condition
e_i + e_j = e_k + e_l are decided exactly; rational spectra must be
pre-scaled by the caller.  Permuting a multi-index is a chain of pair
moves, so shells and classes are decided on the C(N + d - 1, N)
occupancy vectors alone, and only callers that hold a d^N operand derive
the flat view.  Occupations of k particles are ranked in colex order by
``_add_tables``, which the symmetric sector shares: those with largest
type t follow the C(t + k - 1, k) with smaller largest types.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import OCCUPATION_GUARD, check_size_guard


@dataclass(frozen=True)
class SingleParticleModel:
    """Diagonal single-particle Hamiltonian with integer energy levels, sorted
    ascending: level j of the standard basis has energy ``energies[j]``."""

    energies: tuple

    def __post_init__(self):
        e = tuple(int(x) for x in self.energies)
        if len(e) < 2:
            raise ValueError("need at least two levels")
        if any(int(x) != x for x in self.energies):
            raise ValueError("energies must be integers")
        if list(e) != sorted(e):
            raise ValueError("energies must be sorted ascending")
        object.__setattr__(self, "energies", e)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def hamiltonian(self) -> np.ndarray:
        return np.diag(np.asarray(self.energies, dtype=complex))


@dataclass(frozen=True)
class ShellStructure:
    """The occupancy vectors of N particles in lexicographic order, with the
    energy, pair-move class and count N!/prod n_t! of multi-indices of each.
    Classes are numbered by energy, then by smallest flat index.  The flat
    view, ``shells`` as (E, ascending flat indices) sorted by E and
    ``labels[k]`` the class of flat index k, is derived on first use and
    cached.  The arrays are read-only because they are shared.
    """

    occupancies: np.ndarray
    energies: np.ndarray
    classes: np.ndarray
    multinomials: np.ndarray

    @property
    def class_energies(self) -> np.ndarray:
        return self.energies[np.unique(self.classes, return_index=True)[1]]

    def class_ranks(self) -> list:
        """The number of flat indices in each class, as exact integers."""
        ranks = np.zeros(self.classes.max() + 1, dtype=object)
        np.add.at(ranks, self.classes, self.multinomials)
        return ranks.tolist()

    @functools.cached_property
    def _flat(self) -> tuple:
        # colex ranks by the tables: of each flat index by factor, of each row by type
        (m, d), n = self.occupancies.shape, int(self.occupancies[0].sum())
        types = np.repeat(np.tile(np.arange(d), m), self.occupancies.ravel()).reshape(m, n)
        flat, colex = np.zeros(1, np.intp), np.zeros(m, np.intp)
        for table, column in zip(_add_tables(d, n), types.T):
            flat, colex = table[flat[:, None], np.arange(d)].ravel(), table[colex, column]
        row = np.argsort(colex)[flat]
        es, shell = np.unique(self.energies, return_inverse=True)
        shell, labels = shell[row], self.classes[row]
        by_energy = np.argsort(shell, kind="stable")
        labels.flags.writeable = by_energy.flags.writeable = False
        starts = np.cumsum(np.bincount(shell))[:-1]
        return tuple(zip(es.tolist(), np.split(by_energy, starts))), labels

    shells = property(lambda self: self._flat[0])
    labels = property(lambda self: self._flat[1])


def shell_structure(model: SingleParticleModel, num_factors: int,
                    force: bool = False) -> ShellStructure:
    """The cached shell structure of N particles.  Unforced, d^N must pass
    the size guard; forced, the C(N + d - 1, N) occupations times N + d
    (the d C(N + d, N) rank-table entries the build fills) must not pass
    ``OCCUPATION_GUARD``.  The energies are int64 sums, so N max|e| < 2^63."""
    check_size_guard(model.dim, num_factors, force=force)
    occupations = math.comb(num_factors + model.dim - 1, num_factors)
    if occupations * (num_factors + model.dim) > OCCUPATION_GUARD:
        raise ValueError(f"N = {num_factors} on {model.dim} levels gives C(N+d-1, N) = "
                         f"{occupations} occupations, past the {OCCUPATION_GUARD} / (N + d) "
                         "that a shell structure is built for in memory")
    if num_factors * max(map(abs, model.energies)) >= 1 << 63:
        raise ValueError(f"N = {num_factors} times the largest |energy| reaches 2^63, "
                         "past the range of the int64 N-particle energies")
    return _build_shell_structure(model, num_factors)


@functools.lru_cache(maxsize=16)
def _build_shell_structure(model: SingleParticleModel, n: int) -> ShellStructure:
    d = model.dim
    occs = _by_largest_type(np.zeros((1, d), np.intp), d, n,
                            lambda part, t: part + (np.arange(d) == t))
    lex = np.lexsort(occs.T[::-1])
    occs, energy = occs[lex], (occs @ np.asarray(model.energies))[lex]
    # pair moves keep the energy, so one closure over all occupancy vectors yields
    # the classes of every shell; at N = 1 the empty table leaves no moves
    tables = collections.deque([np.zeros((0, d), np.intp)], maxlen=2)
    tables.extend(_add_tables(d, n))
    # an occupation's smallest flat index lists its types in ascending order,
    # so of a class's occupations the last in lexicographic order has the smallest
    _, last, raw = np.unique(_occupancy_classes(model, *tables)[lex[::-1]],
                             return_index=True, return_inverse=True)
    last, raw = len(raw) - 1 - last, raw[::-1]
    factorial = np.cumprod(np.maximum(np.arange(n + 1, dtype=object), 1))
    st = ShellStructure(occs, energy, np.argsort(np.lexsort((-last, energy[last])))[raw],
                        factorial[n] // factorial[occs].prod(axis=1))
    for a in (st.occupancies, st.energies, st.classes, st.multinomials):
        a.flags.writeable = False
    return st


def _add_tables(num_types: int, n: int):
    """Yield, for k = 1..n, the table whose entry [r, t] is the rank among
    the occupations of k particles of the occupation of rank r among k - 1
    particles with one particle of type t added."""
    types = np.arange(num_types)
    table = types[None, :]
    yield table
    for k in range(2, n + 1):
        # the occupations of k - 1 particles: the first of each largest type, and their count
        first = np.array([math.comb(t + k - 2, k - 1) for t in range(num_types + 1)])
        rank = np.arange(first[-1])
        top = np.searchsorted(first, rank, side="right") - 1
        offset = np.array([math.comb(t + k - 1, k) for t in types])
        table = np.where(types >= top[:, None], offset + rank[:, None],
                         offset[top, None] + table[(rank - first[top])[:, None], types])
        yield table


def _by_largest_type(start: np.ndarray, num_types: int, k: int, add) -> np.ndarray:
    """Values on the occupations of k particles, by rank, from ``start`` on
    the empty occupation: those of j particles with largest type t are the
    occupations of j - 1 particles of rank below C(t + j - 1, j - 1), their
    values passed through ``add(values, t)``."""
    values = start
    for j in range(1, k + 1):
        values = np.concatenate([add(values[:math.comb(t + j - 1, j - 1)], t)
                                 for t in range(num_types)])
    return values


def _digits(idx, d: int, n: int) -> np.ndarray:
    """The multi-index of each flat index, first factor most significant."""
    return np.asarray(idx)[:, None] // d ** np.arange(n - 1, -1, -1) % d


def _multi_indices(idx, d: int, n: int) -> list:
    return [tuple(a) for a in _digits(idx, d, n).tolist()]


def shell_decomposition(model: SingleParticleModel, num_factors: int,
                        force: bool = False) -> list:
    """(E, multi-indices) of each shell, sorted by E; the multi-indices are in
    lexicographic order, the order of the flat basis index."""
    st = shell_structure(model, num_factors, force=force)
    return [(E, _multi_indices(idx, model.dim, num_factors)) for E, idx in st.shells]


# ---------------------------------------------------------------------------
# equivalence classes of multi-indices under energy-conserving pair moves
# ---------------------------------------------------------------------------

@dataclass
class EnergyShellPartition:
    """Equivalence classes of one energy shell: ``classes[c]`` lists the
    multi-indices of class c, ``class_occupancies[c]`` the set of occupancy
    vectors those multi-indices realize."""

    E: int
    multi_indices: list
    classes: list
    class_occupancies: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.multi_indices)

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _pair_move_groups(energies) -> dict:
    """Unordered index pairs of ``energies`` grouped by energy sum."""
    groups = {}
    for i, j in itertools.combinations_with_replacement(range(len(energies)), 2):
        groups.setdefault(energies[i] + energies[j], []).append((i, j))
    return groups


def _occupancy_classes(model: SingleParticleModel, into: np.ndarray,
                       last: np.ndarray) -> np.ndarray:
    """Class label of each occupation of N particles, by colex rank, under
    energy-conserving pair moves; ``into`` and ``last`` are the rank tables
    of ``_add_tables`` for N - 1 and N particles."""
    # each group's first pair joins its others; m + e_i + e_j has rank last[into[m, i], j]
    pairs = [(*g[0], *p) for g in _pair_move_groups(model.energies).values() for p in g[1:]]
    # every move can be undone, so the edges, gathered one pair at a time, go both
    # ways; propagate the smallest label along them, with pointer jumping, until it settles
    label = np.arange(last.max() + 1)
    while True:
        new = label.copy()
        for i, j, k, l in pairs:
            a, b = last[into[:, i], j], last[into[:, k], l]
            np.minimum.at(new, a, label[b])
            np.minimum.at(new, b, label[a])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def classify_shell(model: SingleParticleModel, num_factors: int, E: int,
                   force: bool = False) -> EnergyShellPartition:
    """Split the shell at energy E into pair-move equivalence classes: two
    multi-indices are equivalent iff connected by a chain of moves that
    replace the levels at two positions by levels with the same energy sum,
    leaving all other positions fixed."""
    st = shell_structure(model, num_factors, force=force)
    idx = dict(st.shells).get(E)
    if idx is None:
        raise ValueError(f"E={E} is not an N-particle energy of this model")
    # every occupation of a class is realized by its multi-indices
    labels, shape = st.labels[idx], (model.dim, num_factors)
    found = np.flatnonzero(st.class_energies == E)     # classes are numbered by energy
    return EnergyShellPartition(
        E, _multi_indices(idx, *shape),
        [_multi_indices(idx[labels == c], *shape) for c in found],
        [set(map(tuple, st.occupancies[st.classes == c].tolist())) for c in found])


def is_fully_ergodic(model: SingleParticleModel, num_factors: int,
                     force: bool = False):
    """True iff every shell is a single class.  Also returns per-shell counts."""
    st = shell_structure(model, num_factors, force=force)
    energies, num = np.unique(st.class_energies, return_counts=True)
    counts = dict(zip(energies.tolist(), num.tolist()))
    return all(c == 1 for c in counts.values()), counts


def class_projections(model: SingleParticleModel, num_factors: int,
                      force: bool = False) -> list:
    """(E, projection matrix, rank) of each minimal class projection, sorted
    by shell and class."""
    st = shell_structure(model, num_factors, force=force)
    return [(E, np.diag((st.labels == c).astype(complex)), rank)
            for c, (E, rank) in enumerate(zip(st.class_energies.tolist(), st.class_ranks()))]


def commutant_projection(model: SingleParticleModel, num_factors: int,
                         rho: np.ndarray, force: bool = False) -> np.ndarray:
    """Conditional expectation onto the span of the minimal class projections.

    Maps rho to  sum_c Tr[P_c rho] / rank(P_c) * P_c.  Idempotent, trace
    preserving, positivity preserving, and Hilbert-Schmidt self-adjoint.
    The output is diagonal in the product eigenbasis, hence separable.
    """
    labels = shell_structure(model, num_factors, force=force).labels
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (labels.size,) * 2:
        raise ValueError(f"state has shape {rho.shape}, expected {(labels.size,) * 2}")
    diag = np.diagonal(rho)
    sums = np.bincount(labels, diag.real) + 1j * np.bincount(labels, diag.imag)
    return np.diag((sums / np.bincount(labels))[labels])
