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
"""

from __future__ import annotations

import functools
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
    them.  The arrays are read-only because they are shared.
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
    energy = np.asarray(model.energies)[digits].sum(axis=1)
    occs, occ_of = np.unique((digits[:, :, None] == np.arange(d)).sum(axis=1),
                             axis=0, return_inverse=True)
    occ_of = occ_of.ravel()
    # pair moves keep the energy, so one closure over all occupancy
    # vectors yields the classes of every shell at once
    moves = _occupancy_classes(model, [tuple(m) for m in occs.tolist()])
    _, first, raw = np.unique(moves[occ_of], return_index=True, return_inverse=True)
    # number the classes by energy, then by smallest flat index
    order = np.lexsort((first, energy[first]))
    rank = np.argsort(order)
    by_energy = np.argsort(energy, kind="stable")
    es, starts = np.unique(energy[by_energy], return_index=True)
    st = ShellStructure(digits=digits,
                        shells=tuple(zip(es.tolist(), np.split(by_energy, starts[1:]))),
                        labels=rank[raw],
                        class_energies=energy[first[order]],
                        occupancies=occs,
                        occupancy_of=occ_of)
    for a in (st.digits, st.labels, st.class_energies, st.occupancies, st.occupancy_of,
              *(idx for _, idx in st.shells)):
        a.flags.writeable = False
    return st


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


def _occupancy_classes(model: SingleParticleModel, occupancies) -> np.ndarray:
    """Class label of each occupancy vector under energy-conserving pair
    moves; ``occupancies`` must hold every vector a move can reach."""
    pos = {m: k for k, m in enumerate(occupancies)}
    groups = _pair_move_groups(model.energies).values()
    edges = []
    for m in occupancies:
        for pairs in groups:
            for (i, j) in pairs:
                rest = list(m)
                rest[i] -= 1
                rest[j] -= 1
                if min(rest) < 0:
                    continue
                for (k, l) in pairs:
                    if (k, l) != (i, j):
                        mm = rest.copy()
                        mm[k] += 1
                        mm[l] += 1
                        edges.append((pos[m], pos[tuple(mm)]))
    # every move can be undone, so the edges are symmetric; propagate the
    # smallest label along them, with pointer jumping, until it settles
    src, dst = np.array(edges, dtype=int).reshape(-1, 2).T
    label = np.arange(len(occupancies))
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
