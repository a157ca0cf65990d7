"""The public surface that code outside the library reads: every function
the benchmark traces and every name the acceptance suite imports resolves,
the helpers only tests call live in ``oracles``, not in ``qkac``, only
``collisions`` reads a spec's channel, only ``spectra`` defines the
occupation rank tables, and the library's qubit grid nodes are those of
the brute-force oracle there."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qkac
import oracles
from qkac.collisions import _qubit_grid_nodes

ROOT = Path(__file__).resolve().parents[1]

MOVED_TO_ORACLES = (
    "is_unitary", "is_positive_semidefinite", "embed_pair", "trace_first",
    "hermitian_function", "hs_norm", "permutation_unitary",
    "occupancy", "shell_projector", "shell_state", "accidental_relations",
    "identity_spec", "wild_diagonal", "is_steady", "TOL_STEADY",
    "qn_spectrum", "permutation_covariance_check",
    "dirichlet_form", "UnsupportedOperationError", "merged_qubit_grid_nodes",
    "fixed_space_of_Q", "_shell_block", "dense_channel", "tensor_power", "complement_gap",
)


def traced_names():
    """(module, name) for each entry of ``TRACED`` in perfbench/spans.py."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return [(f"qkac.{mod}", name) for mod, names in traced.items() for name in names]


def acceptance_imports():
    """(module, name) for each qkac import in tests/test_acceptance.py,
    nested imports included."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "qkac"
            for alias in node.names]


def qkac_modules():
    return [qkac] + [importlib.import_module(f"qkac.{m.name}")
                     for m in pkgutil.iter_modules(qkac.__path__)]


def test_traced_and_acceptance_names_resolve():
    traced, imported = traced_names(), acceptance_imports()
    assert traced and imported
    missing = [f"{mod}.{name}" for mod, name in traced + imported if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_test_only_helpers_left_the_library():
    left = [f"{m.__name__}.{name}" for m in qkac_modules()
            for name in MOVED_TO_ORACLES if hasattr(m, name)]
    assert left == []
    assert all(hasattr(oracles, name) for name in MOVED_TO_ORACLES)


def test_a_spec_holds_the_channel_matrix_and_node_arrays():
    # no wrapper class and no kind field: a spec is sampled iff it has nodes
    assert [m.__name__ for m in qkac_modules() if hasattr(m, "Superoperator")] == []
    fields = [f.name for f in dataclasses.fields(qkac.CollisionSpec)]
    assert fields == ["model", "name", "channel", "nodes"]
    # the channel is held as its nonzeros (rows, cols, values), not as a matrix
    rows, cols, values = qkac.qubit_tilted_spec().channel
    assert rows.ndim == cols.ndim == values.ndim == 1 and len(rows) == len(cols) == len(values)


def test_only_the_spec_reads_its_channel():
    # every other module reads the spec's decoded ``moves`` and its cached
    # pairing residuals, so the channel is decoded and checked once per spec
    readers = sorted(path.name for path in (ROOT / "src" / "qkac").glob("*.py")
                     if any(isinstance(node, ast.Attribute) and node.attr == "channel"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["collisions.py"]


def test_occupations_are_ranked_by_one_set_of_tables():
    # the shell structure and the symmetric sector share the colex rank tables
    defined = sorted((path.name, node.name) for path in (ROOT / "src" / "qkac").glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef)
                     and node.name in ("_add_tables", "_by_largest_type"))
    assert defined == [("spectra.py", "_add_tables"), ("spectra.py", "_by_largest_type")]


@pytest.mark.parametrize("tilted", [False, True], ids=["uniform", "tilted"])
def test_qubit_grid_nodes_match_the_merge_oracle(tilted):
    # the distinct grid points only, against every grid unitary merged to
    # 9 decimals: the same nodes in the same order, weights and matrices
    # equal bit for bit
    for points in range(4, 17):
        got = _qubit_grid_nodes(points, tilted)
        want = oracles.merged_qubit_grid_nodes(points, tilted)
        assert len(got[0]) == len(want[0])
        assert got[0].tolist() == want[0].tolist()
        assert np.array_equal(got[1], want[1])
