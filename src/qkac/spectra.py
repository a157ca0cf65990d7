"""Single-particle spectral model, N-particle energy shells, and the
collision-move equivalence classes that label the minimal projections of
the fixed-point algebra.

Energies are exact integers so shell membership and the pair-move
condition e_i + e_j = e_k + e_l are decided exactly; rational spectra
must be pre-scaled by the caller.

Classification runs over occupancy vectors rather than raw multi-indices:
permuting a multi-index is itself a chain of allowed pair moves, so each
class is a union of permutation orbits and the quotient state space is
the (much smaller) set of occupancy vectors.

Occupations of k particles are ranked in colex order: those with largest
type t follow the C(t + k - 1, k) with smaller largest types.  A flat
index's occupation is ranked by adding its factors one at a time through
``_add_tables``, and the classes are closed over those ranks; the
symmetric sector ranks its occupations by the same tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import check_size_guard


@dataclass(frozen=True)
class SingleParticleModel:
    """Diagonal single-particle Hamiltonian with integer energy levels.

    The standard basis is the eigenbasis; level j has energy
    ``energies[j]``.  Energies must be sorted ascending.
    """

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
    """The product basis of N factors, partitioned into energy shells and
    pair-move classes.

    ``digits[k]`` is the multi-index of flat basis index k (first factor
    most significant); ``shells`` lists (E, ascending flat indices) sorted
    by E; ``labels[k]`` is the class of index k, with classes numbered by
    shell and then by smallest flat index; ``class_energies[c]`` is the
    energy of class c; ``occupancies`` holds the distinct occupancy vectors
    in lexicographic order and ``occupancy_of[k]`` the row of index k among
    them, the colex rank of its occupation mapped to that row.  The arrays
    are read-only because they are shared.
    """

    digits: np.ndarray
    shells: tuple
    labels: np.ndarray
    class_energies: np.ndarray
    occupancies: np.ndarray
    occupancy_of: np.ndarray


def shell_structure(model: SingleParticleModel, num_factors: int,
                    force: bool = False) -> ShellStructure:
    """The cached shell and class structure of the N-factor product basis;
    its energies are int64 sums, so N max|e| must be below 2^63."""
    check_size_guard(model.dim, num_factors, force=force)
    if num_factors * max(map(abs, model.energies)) >= 1 << 63:
        raise ValueError(f"N = {num_factors} times the largest |energy| reaches 2^63, "
                         "past the range of the int64 N-particle energies")
    return _build_shell_structure(model, num_factors)


@functools.lru_cache(maxsize=16)
def _build_shell_structure(model: SingleParticleModel,
                           num_factors: int) -> ShellStructure:
    d = model.dim
    digits = np.indices((d,) * num_factors).reshape(num_factors, -1).T
    # the colex rank of each index's occupation, its factors added one at a time
    tables = [np.zeros((0, d), np.intp), *_add_tables(d, num_factors)]
    colex = np.zeros(len(digits), np.intp)
    for table, column in zip(tables[1:], digits.T):
        colex = table[colex, column]
    occs = _by_largest_type(np.zeros((1, d), np.intp), d, num_factors,
                            lambda part, t: part + (np.arange(d) == t))
    energy = (occs @ np.asarray(model.energies))[colex]
    lex = np.lexsort(occs.T[::-1])
    # pair moves keep the energy, so one closure over all occupancy vectors yields
    # the classes of every shell; at N = 1 the empty table leaves no moves
    moves = _occupancy_classes(model, *tables[-2:])
    _, first, raw = np.unique(moves[colex], return_index=True, return_inverse=True)
    # number the classes by energy, then by smallest flat index
    order = np.lexsort((first, energy[first]))
    by_energy = np.argsort(energy, kind="stable")
    es, starts = np.unique(energy[by_energy], return_index=True)
    st = ShellStructure(digits=digits,
                        shells=tuple(zip(es.tolist(), np.split(by_energy, starts[1:]))),
                        labels=np.argsort(order)[raw],
                        class_energies=energy[first[order]],
                        occupancies=occs[lex],
                        occupancy_of=np.argsort(lex)[colex])
    for a in (st.digits, st.labels, st.class_energies, st.occupancies, st.occupancy_of,
              *(idx for _, idx in st.shells)):
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


def _multi_indices(st: ShellStructure, idx) -> list:
    return [tuple(a) for a in st.digits[idx].tolist()]


def shell_decomposition(model: SingleParticleModel, num_factors: int,
                        force: bool = False) -> list:
    """Partition the product basis by total energy.

    Returns a list of (E, multi-index list) sorted by E; the lists order
    multi-indices lexicographically, matching the flat basis index.
    """
    st = shell_structure(model, num_factors, force=force)
    return [(E, _multi_indices(st, idx)) for E, idx in st.shells]


# ---------------------------------------------------------------------------
# equivalence classes of multi-indices under energy-conserving pair moves
# ---------------------------------------------------------------------------

@dataclass
class EnergyShellPartition:
    """Equivalence classes of one energy shell.

    ``classes[c]`` lists the multi-indices of class c; ``class_occupancies[c]``
    is the set of occupancy vectors those multi-indices realize.
    """

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
    d = len(energies)
    for i in range(d):
        for j in range(i, d):
            groups.setdefault(energies[i] + energies[j], []).append((i, j))
    return groups


def _occupancy_classes(model: SingleParticleModel, into: np.ndarray,
                       last: np.ndarray) -> np.ndarray:
    """Class label of each occupation of N particles, by colex rank, under
    energy-conserving pair moves; ``into`` and ``last`` are the rank tables
    of ``_add_tables`` for N - 1 and N particles."""
    # each group's first pair joins its others; m + e_i + e_j has rank last[into[m, i], j]
    pairs = [(g[0], p) for g in _pair_move_groups(model.energies).values() for p in g[1:]]
    (i, j), (k, l) = np.array(pairs, np.intp).reshape(-1, 2, 2).transpose(1, 2, 0)
    rest = np.arange(len(into))[:, None]
    a, b = last[into[rest, i], j].ravel(), last[into[rest, k], l].ravel()
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    # every move can be undone, so the edges go both ways; propagate the
    # smallest label along them, with pointer jumping, until it settles
    label = np.arange(last.max() + 1)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def classify_shell(model: SingleParticleModel, num_factors: int, E: int,
                   force: bool = False) -> EnergyShellPartition:
    """Split the shell at energy E into pair-move equivalence classes.

    Two multi-indices are equivalent iff connected by a chain of moves that
    replace the levels at two positions by levels with the same energy sum,
    leaving all other positions fixed.
    """
    st = shell_structure(model, num_factors, force=force)
    idx = dict(st.shells).get(E)
    if idx is None:
        raise ValueError(f"E={E} is not an N-particle energy of this model")
    labels = st.labels[idx]
    blocks = [idx[labels == c] for c in np.unique(labels)]
    return EnergyShellPartition(
        E=E,
        multi_indices=_multi_indices(st, idx),
        classes=[_multi_indices(st, block) for block in blocks],
        class_occupancies=[set(map(tuple, st.occupancies[st.occupancy_of[block]].tolist()))
                           for block in blocks],
    )


def is_fully_ergodic(model: SingleParticleModel, num_factors: int,
                     force: bool = False):
    """True iff every shell is a single class.  Also returns per-shell counts."""
    st = shell_structure(model, num_factors, force=force)
    energies, num = np.unique(st.class_energies, return_counts=True)
    counts = dict(zip(energies.tolist(), num.tolist()))
    return all(c == 1 for c in counts.values()), counts


def class_projections(model: SingleParticleModel, num_factors: int,
                      force: bool = False) -> list:
    """Minimal projections, one per class, over all shells.

    Returns a list of (E, projection matrix, rank) sorted by shell and class.
    """
    st = shell_structure(model, num_factors, force=force)
    out = []
    for c, E in enumerate(st.class_energies.tolist()):
        member = st.labels == c
        out.append((E, np.diag(member.astype(complex)), int(member.sum())))
    return out


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
