import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkac
from qkac import cli
from qkac.cli import main
from qkac.collisions import spec_by_name
from qkac.master import KacGenerator, evolve_master
from qkac.operators import random_density, relative_entropy, trace_norm, von_neumann_entropy
from qkac.spectra import SingleParticleModel, commutant_projection
from oracles import tensor_power
from test_pair_kernel import random_family_spec


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(tmp_path, doc, extra=()):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--output", str(out), *extra])
    return code, out


QUBIT = {"dim": 2, "energies": [0, 1]}


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_command_exits_1(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"command": "bogus", "model": QUBIT})
    assert code == 1
    assert not (out / "manifest.txt").exists()
    assert "command" in capsys.readouterr().err


def test_invalid_model_diagnostic_names_field(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "ergodicity",
                                 "model": {"dim": 2, "energies": [0, 0.5]},
                                 "params": {"N": 2}})
    assert code == 1
    assert "model.energies" in capsys.readouterr().err


def test_unknown_tolerance_rejected(tmp_path, capsys):
    doc = {"command": "ergodicity", "model": QUBIT, "params": {"N": 2}}
    cfg = write_config(tmp_path, doc)
    assert main(["--config", str(cfg), "--output", str(tmp_path / "o"),
                 "--tol", "nope=1"]) == 1


MASTER_RANDOM = {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
                 "params": {"N": 3, "t_max": 1.0, "steps": 2,
                            "initial": {"kind": "random"}}}


def gibbs_qkbe(beta):
    return {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
            "params": {"t_max": 1.0, "steps": 2,
                       "initial": {"kind": "gibbs", "beta": beta}}}


def conserved(invariants):
    return {"command": "check-conserved", "model": QUBIT, "spec": "qubit_tilted",
            "params": {"t_max": 1.0, "steps": 2,
                       "initial": {"kind": "maximally_mixed"},
                       "invariants": invariants}}


def gap(rho_inf):
    return {"command": "gap", "model": QUBIT, "spec": "qubit_tilted",
            "params": {"rho_inf": rho_inf}}


ERGODICITY = {"command": "ergodicity", "model": QUBIT, "params": {"N": 2}}
NAN_WEIGHT_NODES = f"sampled_file:{Path(__file__).parent / 'data' / 'nan_weight_nodes.txt'}"
NON_UNITARY_NODES = f"sampled_file:{Path(__file__).parent / 'data' / 'non_unitary_nodes.txt'}"
ENERGY_VIOLATING_NODES = (
    f"sampled_file:{Path(__file__).parent / 'data' / 'energy_violating_nodes.txt'}")


@pytest.mark.parametrize("doc", [
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "initial": "oops"}},
    {**ERGODICITY, "tolerances": {"psd": "x"}},
    {"command": "verify-spec", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"points_per_angle": "x"}},
    gap([{"kind": "gibbs", "beta": 0.0}, 3]),
    {**ERGODICITY, "seed": [1]},
    gibbs_qkbe([1]),
    gibbs_qkbe(float("inf")),
    gap([{"kind": "gibbs", "beta": [1]}]),
    conserved([{"diag": 3}]),
    {"command": "verify-spec", "model": QUBIT, "spec": ["qubit_tilted"]},
    {**ERGODICITY, "output_dir": ["x"]},
    {**ERGODICITY, "force": "no"},
    {**ERGODICITY, "seed": True},
    {**ERGODICITY, "params": {"N": True}},
    {**ERGODICITY, "tolerances": {"psd": True}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": True, "initial": {"kind": "maximally_mixed"}}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "initial": {"kind": "matrix",
                                          "state": [[["1", "0"], 0], [0, 0]]}}},
    conserved(3),
    gap({"kind": "diag", "values": [[0.5], [0.5]]}),
    {"command": "verify-spec", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"points_per_angle": 33}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": NAN_WEIGHT_NODES,
     "params": {"t_max": 1.0, "steps": 2, "initial": {"kind": "maximally_mixed"}}},
    {"command": "verify-spec", "model": QUBIT, "spec": NAN_WEIGHT_NODES},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": NON_UNITARY_NODES,
     "params": {"t_max": 1.0, "steps": 2, "initial": {"kind": "maximally_mixed"}}},
    {"command": "verify-spec", "model": QUBIT, "spec": NON_UNITARY_NODES},
    {"command": "steady-states", "model": QUBIT, "spec": ENERGY_VIOLATING_NODES,
     "params": {"N": 3}},
    {"command": "evolve-master", "model": QUBIT, "spec": ENERGY_VIOLATING_NODES, "seed": 1,
     "params": {"N": 3, "t_max": 0.5, "steps": 2, "initial": {"kind": "random"}}},
    {"command": "verify-spec", "model": QUBIT, "spec": ENERGY_VIOLATING_NODES},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "step": 2, "initial": {"kind": "maximally_mixed"}}},
    {**ERGODICITY, "params": {"N": 2, "points_per_angle": 8}},
    {"command": "verify-spec", "model": QUBIT, "spec": "exact_ea2",
     "params": {"points_per_angle": 8}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "steps": 1000000000,
                "initial": {"kind": "maximally_mixed"}}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "steps": 100001, "initial": {"kind": "maximally_mixed"}}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 10 ** 400, "initial": {"kind": "maximally_mixed"}}},
], ids=["initial_not_object", "tolerance_not_number",
        "points_per_angle_not_integer", "rho_inf_item_not_object",
        "seed_list", "gibbs_beta_list", "gibbs_beta_infinite", "rho_inf_beta_list",
        "diag_invariant_number", "spec_not_string", "output_dir_list", "force_string",
        "seed_bool", "N_bool", "tolerance_bool", "t_max_bool", "matrix_part_string",
        "invariants_not_list", "rho_inf_values_nested", "points_per_angle_33",
        "node_file_weight_nan_evolve", "node_file_weight_nan_verify",
        "node_file_not_unitary_evolve", "node_file_not_unitary_verify",
        "node_file_energy_steady_states", "node_file_energy_evolve_master",
        "node_file_energy_verify", "param_typo_step",
        "param_unread_by_command", "points_per_angle_for_exact_ea2", "steps_1e9",
        "steps_past_bound", "t_max_integer_past_float_range"])
def test_malformed_config_exits_1_without_outputs(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), **doc})
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("doc", [
    {"command": "check-conserved", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 200.0, "initial": {"kind": "random"},
                "invariants": ["identity", "bogus"]}},
    {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"N": 12, "t_max": -1, "initial": {"kind": "random"}}},
    {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"N": 13, "t_max": 1.0, "initial": {"kind": "random"}}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 1.0, "steps": 0, "initial": {"kind": "random"}}},
    {"command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"N_list": [2, 3], "t_max": "1", "initial": {"kind": "random"}}},
    gap([{"kind": "gibbs", "beta": 0.0}, {"kind": "diag", "values": [1.0, 0.0]}]),
    {**gibbs_qkbe(0.0), "spec": "no_such_spec"},
], ids=["check_conserved_bad_invariant", "evolve_master_bad_t_max",
        "evolve_master_past_size_guard", "evolve_qkbe_bad_steps", "chaos_bad_t_max",
        "gap_bad_second_item", "unknown_spec"])
def test_params_read_before_any_work(tmp_path, capsys, monkeypatch, doc):
    # every param is parsed before the initial state is drawn, the spec is
    # built or anything is integrated; the stand-ins raise an error that
    # main() does not catch, so reaching any of them fails the test
    def reached(*args, **kwargs):
        raise AssertionError("reached work before every param was read")

    names = ["random_density", "qkbe_integrate", "KacGenerator", "ChaosExperiment",
             "spectral_gap"]
    if doc["spec"] != "no_such_spec":
        names.append("spec_by_name")
    for name in names:
        monkeypatch.setattr(f"qkac.cli.{name}", reached)
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_steady_states_at_N9_match_the_ergodicity_counts(tmp_path):
    # the size guard admits qubits at N = 9, whose E = 4 block of Q_N has
    # 126**2 = 15876 rows (about 4 GB as a dense matrix).  The run gets a
    # 1 GB address-space limit, so a dense block or a d^N x d^N matrix per
    # class would end it in a MemoryError.
    import resource

    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    tables = {}
    for command in ("steady-states", "ergodicity"):
        cfg = write_config(tmp_path, {
            "command": command, "model": QUBIT, "spec": "qubit_tilted",
            "params": {"N": 9}, "output_dir": str(tmp_path / command)}, f"{command}.json")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 30
        header, *rows = read_csv(tmp_path / command / f"{command}.csv")
        tables[command] = [dict(zip(header, row)) for row in rows]
    steady, ergodicity = tables["steady-states"], tables["ergodicity"]
    assert len(steady) == 10
    per_shell = {}
    for row in steady:
        per_shell[row["E"]] = per_shell.get(row["E"], 0) + 1
    assert per_shell == {row["E"]: int(row["class_count"]) for row in ergodicity}
    assert [row["rank"] for row in steady] == [row["dim_KE"] for row in ergodicity]


def test_steady_states_at_N11_assemble_blocks_in_batches(tmp_path):
    # the largest block at N = 11 has 213,444 rows and 1,746,360 triples, so
    # it is assembled over two MATVEC_CHUNK batches and searched in real
    # arithmetic; the run gets a 1 GB address-space limit
    import resource

    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    cfg = write_config(tmp_path, {
        "command": "steady-states", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N": 11}, "output_dir": str(tmp_path / "out")})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 20
    header, *rows = read_csv(tmp_path / "out" / "steady-states.csv")
    assert [[int(x) for x in row] for row in rows] == [[E, E, math.comb(11, E)] for E in range(12)]


HUGE_N = 10_000_000_000


@pytest.mark.parametrize("command, params", [
    ("ergodicity", {"N": HUGE_N}),
    ("ergodicity", {"N": 100_000_000}),
    ("evolve-master", {"N": HUGE_N, "t_max": 1.0, "initial": {"kind": "random"}}),
    ("chaos", {"N_list": [2, HUGE_N], "t_max": 1.0, "initial": {"kind": "maximally_mixed"}}),
], ids=["ergodicity", "ergodicity_1e8", "evolve_master", "chaos"])
def test_huge_N_fails_the_size_guard_without_forming_d_to_the_N(tmp_path, command, params):
    # 2**N for these N takes gigabytes (or exceeds the integer-to-text digit
    # limit); under a 1 GB address-space limit, forming it would end in a
    # traceback instead of the size-guard message
    import resource

    cfg = write_config(tmp_path, {
        "command": command, "model": QUBIT, "spec": "qubit_tilted", "params": params,
        "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    n = params.get("N", HUGE_N)
    assert f"N = {n}" in proc.stderr and "guard 4096" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_forced_huge_N_out_of_memory_exits_1_without_traceback(tmp_path):
    # forced past the size guard, the 10**8 + 1 qubit occupations exceed the
    # memory bound of the shell structure; under a 1 GB address-space limit
    # the run exits 1 at once, with no traceback
    import resource

    cfg = write_config(tmp_path, {
        "command": "ergodicity", "model": QUBIT, "params": {"N": 100_000_000},
        "force": True, "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_out_of_memory_names_the_wild_matrix(tmp_path):
    # the kinetic equation at d = 24 needs the d^4 x d^2 Wild matrix of
    # exact_ea2, 16 d^6 bytes = 3.06 GB; under a 1 GB address-space limit
    # the message names it, and lowering N or dropping --force, which cannot
    # help, is not suggested
    import resource

    cfg = write_config(tmp_path, {
        "command": "evolve-qkbe", "model": {"dim": 24, "energies": list(range(24))},
        "spec": "exact_ea2", "params": {"t_max": 1.0, "steps": 1, "initial": {"kind": "random"}},
        "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory")
    assert "d^4 x d^2 Wild matrix takes 3.06 GB" in proc.stderr
    assert "(N = 1)" in proc.stderr and "--force" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command, params", [
    ("verify-spec", {}),
    ("steady-states", {"N": 2}),
    ("gap", {"rho_inf": [{"kind": "gibbs", "beta": 0.0}]}),
], ids=["verify-spec", "steady-states", "gap"])
def test_d12_pair_commands_run_in_3_gb(tmp_path, command, params):
    # the dense d^4 x d^4 channel of this d = 12 model would take 6.9 GB;
    # held as its nonzeros, each command runs under a 3 GB address-space limit
    import resource

    cfg = write_config(tmp_path, {
        "command": command, "spec": "exact_ea2", "params": params,
        "model": {"dim": 12, "energies": [0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122]},
        "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 3 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / f"{command}.csv").exists()


def test_tol_psd_reaches_the_initial_state_check(tmp_path, capsys):
    # an initial matrix 1e-8 below positive passes only under a looser psd
    doc = {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
           "params": {"N": 2, "t_max": 0.1, "steps": 1, "initial": {
               "kind": "matrix",
               "state": [[1 + 1e-8, 0, 0, 0], [0, -1e-8, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}}}
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert "state has negative eigenvalue -1.000e-08" in capsys.readouterr().err
    assert not out.exists()
    code, out = run_cli(tmp_path, doc, extra=("--tol", "psd=1e-6"))
    assert code == 0, capsys.readouterr().err
    assert (out / "evolve-master.csv").exists()


# each Wild-sum term past the first of a substep is one Wild product, the
# count the case ids have named "wild calls" since the bound was set
@pytest.mark.parametrize("command, params, bound", [
    pytest.param("evolve-qkbe", {"initial": {"kind": "maximally_mixed"}}, "Wild-sum terms",
                 id="evolve-qkbe-params0-wild calls"),
    pytest.param("check-conserved", {"initial": {"kind": "maximally_mixed"}}, "Wild-sum terms",
                 id="check-conserved-params1-wild calls"),
    ("evolve-master", {"N": 3, "initial": {"kind": "random"}}, "N t_max"),
    pytest.param("chaos", {"N_list": [2], "initial": {"kind": "maximally_mixed"}},
                 "Wild-sum terms", id="chaos-params3-wild calls"),
])
def test_huge_t_max_exits_1_at_once(tmp_path, command, params, bound):
    # a huge finite t_max would take about 1.5e302 Wild-sum terms, or a jump
    # series split into about 1e297 pieces; it is refused before any work
    cfg = write_config(tmp_path, {
        "command": command, "model": QUBIT, "spec": "qubit_tilted",
        "params": {"t_max": 1e300, "steps": 2, **params},
        "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    # 4 Wild-sum terms for each of the 100000 steps that used to be allowed
    limit = 100000 if bound == "N t_max" else 400000
    assert bound in proc.stderr and f"bound {limit}" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("t_max, ok", [(2630.0, True), (2630.5, False)])
def test_t_max_bound_counts_rk4_steps(tmp_path, capsys, monkeypatch, t_max, ok):
    # 10 grid steps of 263 take 1052 substeps of 0.25 each, whose 39 Wild-sum
    # terms form 38 past the first: 399,760 terms, within 4 * 100000; steps of
    # 263.05 take 1053 substeps of 0.2498 with 39 terms, 400,140 formed, and
    # so does every t_max in between.  The integrator is stubbed, only the
    # bound is under test.
    monkeypatch.setattr("qkac.cli.qkbe_integrate",
                        lambda spec, rho0, grid, tol_psd: np.stack([rho0] * len(grid)))
    code, out = run_cli(tmp_path, {
        "command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"t_max": t_max, "steps": 10, "initial": {"kind": "maximally_mixed"}}})
    assert code == (0 if ok else 1)
    assert ok or "Wild-sum terms, past the bound 400000" in capsys.readouterr().err


def test_master_rate_bound_is_on_N_times_t_max(tmp_path, capsys):
    doc = {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
           "params": {"N": 4, "t_max": 25_000.5, "steps": 1,
                      "initial": {"kind": "random"}}}
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert "N t_max = 4 * 25000.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["--config", "c.json", "--bogus"],
                                  ["--tol"], ["--config"]])
def test_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    assert "usage: qkac" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: qkac" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["herm", "trace", "picard", "steady"])
def test_unread_tolerance_names_rejected(tmp_path, capsys, name):
    # these tolerances are not passed on by any command, so --tol may not name them
    code, out = run_cli(tmp_path, ERGODICITY, extra=("--tol", f"{name}=1"))
    assert code == 1
    assert "unknown tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config_tols, argv", [
    (None, ("--tol", "tail=2")),
    (None, ("--tol", "tail=0")),
    (None, ("--tol", "psd=-1")),
    (None, ("--tol", "psd=1")),
    ({"fixed_eig": 0}, ()),
    ({"tail": 1.5}, ()),
], ids=["tail_2", "tail_0", "psd_negative", "psd_1", "config_fixed_eig_0",
        "config_tail_1.5"])
def test_tolerances_outside_the_unit_interval_rejected(tmp_path, capsys, config_tols, argv):
    # tail=2 ended every jump series at its first term, so each row repeated
    # the t=0 row; tail=0 never met the tail and psd=-1 failed as a negative
    # eigenvalue
    doc = MASTER_RANDOM if config_tols is None else {**MASTER_RANDOM,
                                                     "tolerances": config_tols}
    code, out = run_cli(tmp_path, doc, extra=argv)
    assert code == 1
    assert "must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


# one small run of each command; verify-spec on a sampled grid, so that the
# closure check runs too
SMALL_RUNS = {
    "verify-spec": {"spec": "qubit_tilted", "params": {"points_per_angle": 4}},
    "ergodicity": {"params": {"N": 3}},
    "evolve-master": {"spec": "qubit_tilted", "params": MASTER_RANDOM["params"]},
    "steady-states": {"spec": "qubit_uniform", "params": {"N": 2}},
    "evolve-qkbe": {"spec": "qubit_tilted", "params": gibbs_qkbe(0.5)["params"]},
    "steady-family": {},
    "check-conserved": {"spec": "qubit_tilted", "params": {
        "t_max": 1.0, "steps": 2, "initial": {"kind": "random"},
        "invariants": ["identity", "h"]}},
    "chaos": {"spec": "qubit_tilted", "params": {
        "N_list": [2, 3], "t_max": 0.5, "steps": 2, "initial": {"kind": "maximally_mixed"}}},
    "gap": {"spec": "qubit_tilted", "params": {"rho_inf": [{"kind": "gibbs", "beta": 0.5}]}},
}


def run_fresh(tmp_path, runs: dict, check: str):
    """Run each of ``runs`` (command -> config fields) through ``cli.run`` in
    one fresh interpreter, then run the statement ``check`` there."""
    paths = [str(write_config(tmp_path, {"command": command, "model": QUBIT,
                                         "output_dir": str(tmp_path / command), **doc},
                              f"{command}.json"))
             for command, doc in runs.items()]
    code = ("import sys\n"
            "import qkac.cli as cli\n"
            "for path in sys.argv[1:]:\n"
            "    assert cli.run(cli.load_config(path, None, False, {})) == 0, path\n"
            + check + "\n")
    src = str(Path(qkac.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, *paths], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_runs_every_command_without_scipy(tmp_path):
    # numpy is the only runtime dependency: no command loads any part of
    # scipy, nor numpy.ma, which a flag-less np.unique imports on first call
    assert sorted(SMALL_RUNS) == sorted(cli.COMMANDS)
    run_fresh(tmp_path, SMALL_RUNS,
              "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
              "assert not loaded, loaded\n"
              "assert 'numpy.ma' not in sys.modules")
    for command in cli.COMMANDS:
        assert len(read_csv(tmp_path / command / f"{command}.csv")) > 1


def test_commands_that_draw_nothing_never_load_numpy_random(tmp_path):
    # the generator is built only where a random initial state is drawn, so
    # these commands skip importing numpy.random, about 10 ms
    chaos = copy.deepcopy(SMALL_RUNS["chaos"])
    chaos["params"]["initial"] = {"kind": "matrix", "state": [[0.75, 0], [0, 0.25]]}
    run_fresh(tmp_path, {"chaos": chaos, "ergodicity": SMALL_RUNS["ergodicity"],
                         "gap": SMALL_RUNS["gap"]},
              "assert 'numpy.random' not in sys.modules")
    for command in ("chaos", "ergodicity", "gap"):
        assert len(read_csv(tmp_path / command / f"{command}.csv")) > 1


def test_verify_spec_command(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "verify-spec", "model": QUBIT, "spec": "qubit_tilted"})
    assert code == 0
    rows = read_csv(out / "verify-spec.csv")
    assert rows[0] == ["check", "residual", "passes"]
    assert all(r[2] == "True" for r in rows[1:])
    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256" in manifest and "seed: 0" in manifest


def test_verify_spec_on_a_node_file_of_thousands_of_unitaries(tmp_path):
    # 3,000 random energy-conserving unitaries and the identity, about 12,000
    # nodes once symmetrized on load: every projection window of the closure
    # search holds about one node, so the check is fast
    us = np.concatenate([np.eye(4)[None], random_family_spec((0, 1), 5, 3000).nodes[1]])
    lines = ["dim 4"]
    for u in us:
        lines.append("weight 1")
        lines += [" ".join(f"{x.real:.17g} {x.imag:.17g}" for x in row) for row in u]
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out = run_cli(tmp_path, {
        "command": "verify-spec", "model": QUBIT, "spec": f"sampled_file:{nodes}"})
    assert time.perf_counter() - start < 10
    assert code == 0
    rows = read_csv(out / "verify-spec.csv")
    assert len(rows) == 7 and all(r[2] == "True" for r in rows[1:])
    assert len(spec_by_name(f"sampled_file:{nodes}", SingleParticleModel((0, 1))).nodes[0]) > 11_000


def test_ergodicity_command_matches_library(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "ergodicity",
        "model": {"dim": 4, "energies": [0, 1, 4, 5]},
        "params": {"N": 4}})
    assert code == 0
    rows = read_csv(out / "ergodicity.csv")
    assert rows[0] == ["E", "dim_KE", "class_count"]
    counts = {int(r[0]): int(r[2]) for r in rows[1:]}
    assert {E for E, c in counts.items() if c == 2} == {4, 8, 12, 16}
    dims = {int(r[0]): int(r[1]) for r in rows[1:]}
    assert sum(dims.values()) == 4 ** 4


@pytest.mark.parametrize("energies, n, shells, split, most, seconds", [
    ([0, 1, 2], 100, 201, 0, 1, 2.0),
    ([0, 1, 4, 5], 60, 301, 293, 16, 5.0),
], ids=["qutrit_N100", "d4_N60"])
def test_forced_ergodicity_runs_on_occupations_past_the_guard(tmp_path, energies, n, shells,
                                                              split, most, seconds):
    # 3**100 and 4**60 flat indices: only the C(N+d-1, N) occupations are formed,
    # and dim_KE is written as an exact integer (3**40 already overflows int64)
    start = time.perf_counter()
    code, out = run_cli(tmp_path, {"command": "ergodicity",
                                   "model": {"dim": len(energies), "energies": energies},
                                   "params": {"N": n}}, extra=("--force",))
    assert time.perf_counter() - start < seconds
    assert code == 0
    rows = read_csv(out / "ergodicity.csv")[1:]
    counts = [int(r[2]) for r in rows]
    assert len(rows) == shells and sum(c > 1 for c in counts) == split and max(counts) == most
    assert sum(int(r[1]) for r in rows) == len(energies) ** n


def test_forced_occupations_past_the_bound_exit_1_at_once(tmp_path, capsys):
    # 8 levels at N = 30 have C(37, 30) = 10,295,472 occupations
    start = time.perf_counter()
    code, out = run_cli(tmp_path, {"command": "ergodicity",
                                   "model": {"dim": 8, "energies": list(range(8))},
                                   "params": {"N": 30}}, extra=("--force",))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out.exists()
    assert "C(N+d-1, N) = 10295472 occupations" in capsys.readouterr().err


def test_evolve_qkbe_offdiagonal_column(tmp_path):
    a, z = 0.3, 0.1
    code, out = run_cli(tmp_path, {
        "command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"t_max": 1.0, "steps": 10,
                   "initial": {"kind": "matrix",
                               "state": [[a, z], [z, 1 - a]]}}})
    assert code == 0
    rows = read_csv(out / "evolve-qkbe.csv")
    header = rows[0]
    t_col = header.index("t")
    z_col = header.index("rho_01_re")
    for row in rows[1:]:
        t = float(row[t_col])
        want = z * np.exp(((2 - a) / 4 - 2) * t)
        assert abs(float(row[z_col]) - want) < 1e-8


@pytest.mark.parametrize("seed", [0, 2])
def test_evolve_qkbe_random_state_stays_a_state_to_t20(tmp_path, seed):
    # rounding in the trace direction grows like e^{2t}: seed 0 used to
    # exit 2 (positivity violated by 1.2e-9), seed 2 to write rho_00_im = -2.2
    code, out = run_cli(tmp_path, {
        "command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted", "seed": seed,
        "params": {"t_max": 20.0, "steps": 20, "initial": {"kind": "random"}}})
    assert code == 0
    header, *rows = read_csv(out / "evolve-qkbe.csv")
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        rho = np.array([[cells[f"rho_{i}{j}_re"] + 1j * cells[f"rho_{i}{j}_im"]
                         for j in range(2)] for i in range(2)])
        assert np.abs(rho - rho.conj().T).max() < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > 0.0


@pytest.mark.parametrize("beta, level", [(1e6, 0), (-1e6, 1)])
def test_evolve_qkbe_gibbs_extreme_beta(tmp_path, beta, level):
    # exp(-beta E) under- or overflows at this beta; the state is the pure
    # lowest or highest level, which the kinetic equation keeps fixed
    code, out = run_cli(tmp_path, gibbs_qkbe(beta))
    assert code == 0
    header, *rows = read_csv(out / "evolve-qkbe.csv")
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        assert cells["energy"] == level
        assert cells[f"rho_{level}{level}_re"] == 1.0
        assert cells[f"rho_{1 - level}{1 - level}_re"] == 0.0


PURE_GROUND = {"kind": "gibbs", "beta": 1e308}


@pytest.mark.parametrize("doc", [
    {"command": "evolve-qkbe", "model": {"dim": 3, "energies": [0, 1, 2]},
     "spec": "exact_ea2", "params": {"t_max": 1.0, "steps": 2, "initial": PURE_GROUND}},
    {"command": "chaos", "model": {"dim": 3, "energies": [0, 1, 2]}, "spec": "exact_ea2",
     "params": {"N_list": [2, 3], "t_max": 1.0, "steps": 2, "initial": PURE_GROUND}},
    {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"N": 2, "t_max": 1.0, "steps": 2,
                "initial": {"kind": "matrix", "state": np.diag([1, 0, 0, 0]).tolist()}}},
], ids=["evolve-qkbe", "chaos", "evolve-master"])
def test_pure_states_write_entropy_0_not_minus_0(tmp_path, doc):
    # the ground state is pure and stays fixed; -sum w log w over its one
    # eigenvalue 1 is -0.0, which the CSV would print as -0
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    header, *rows = read_csv(out / f"{doc['command']}.csv")
    columns = [k for k, name in enumerate(header) if "entropy" in name]
    assert len(columns) == 2 - (doc["command"] == "evolve-qkbe")
    assert {row[k] for row in rows for k in columns} == {"0"}


def test_negative_seed_names_the_field(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {**ERGODICITY, "seed": -1})
    assert code == 1
    assert "field 'seed'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("tail", ["1e-17", "1e-300"])
def test_evolve_master_meets_a_tail_below_the_rounding_of_one(tmp_path, tail):
    # 1 - tail rounds to 1, which the summed Poisson weights may never reach;
    # the bound on the tail ends the series instead
    (tmp_path / "default").mkdir()
    (tmp_path / "tight").mkdir()
    code, out = run_cli(tmp_path / "default", MASTER_RANDOM)
    assert code == 0
    code, tight = run_cli(tmp_path / "tight", MASTER_RANDOM, extra=("--tol", f"tail={tail}"))
    assert code == 0
    rows, tight_rows = (read_csv(d / "evolve-master.csv") for d in (out, tight))
    assert tight_rows[0] == rows[0]
    assert np.abs(np.array(tight_rows[1:], dtype=float)
                  - np.array(rows[1:], dtype=float)).max() < 1e-10


def test_evolve_master_converges(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "evolve-master", "model": QUBIT, "spec": "qubit_uniform",
        "seed": 7,
        "params": {"N": 2, "t_max": 25.0, "steps": 5,
                   "initial": {"kind": "random"}}})
    assert code == 0
    rows = read_csv(out / "evolve-master.csv")
    dist = [float(r[1]) for r in rows[1:]]
    assert dist[0] > 1e-3
    assert dist[-1] < 1e-6


@pytest.mark.parametrize("model, spec", [(QUBIT, "qubit_tilted"),
                                         ({"dim": 4, "energies": [0, 1, 4, 5]}, "exact_ea2")])
def test_evolve_qkbe_random_initial_row_has_real_diagonal(tmp_path, model, spec):
    # random_density is exactly Hermitian; g g^* alone left 1e-17 on the diagonal
    code, out = run_cli(tmp_path, {
        "command": "evolve-qkbe", "model": model, "spec": spec, "seed": 0,
        "params": {"t_max": 1.0, "steps": 1, "initial": {"kind": "random"}}})
    assert code == 0
    header, first, *_ = read_csv(out / "evolve-qkbe.csv")
    cells = dict(zip(header, map(float, first)))
    assert cells["t"] == 0.0
    assert [cells[f"rho_{i}{i}_im"] for i in range(model["dim"])] == [0.0] * model["dim"]


def _json_matrix(rho):
    return [[[float(x.real), float(x.imag)] for x in row] for row in rho]


def _master_initial_states(n, seed):
    """A random state, a product state and a basis state whose limit
    vanishes off the shell E = 1, each as (name, CLI initial data, state)."""
    one = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    basis = np.zeros((2 ** n, 2 ** n), dtype=complex)
    basis[1, 1] = 1.0
    product = tensor_power(one, n)
    return [("random", {"kind": "random"}, random_density(2 ** n, np.random.default_rng(seed))),
            ("product", {"kind": "matrix", "state": _json_matrix(product)}, product),
            ("basis", {"kind": "matrix", "state": _json_matrix(basis)}, basis)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evolve_master_columns_match_the_general_entropies(tmp_path, n):
    model, t_max, steps, seed = SingleParticleModel((0, 1)), 1.0, 2, 3
    gen = KacGenerator(spec_by_name("qubit_tilted", model), n)
    for name, initial, state in _master_initial_states(n, seed):
        (tmp_path / name).mkdir()
        code, out = run_cli(tmp_path / name, {
            "command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
            "seed": seed, "params": {"N": n, "t_max": t_max, "steps": steps,
                                     "initial": initial}})
        assert code == 0
        header, *rows = read_csv(out / "evolve-master.csv")
        assert header == ["t", "distance_to_limit", "entropy", "relative_entropy_to_limit"]
        limit = commutant_projection(model, n, state)
        if name == "basis":
            assert (limit.diagonal().real == 0).sum() == 2 ** n - n
        for k, row in enumerate(rows):
            if k:
                state = evolve_master(gen, state, t_max / steps)
            _, dist, entropy, rel = map(float, row)
            assert dist == trace_norm(state - limit)
            assert abs(entropy - von_neumann_entropy(state)) < 1e-12
            assert abs(rel - relative_entropy(state, limit)) < 1e-12


def test_evolve_master_checkpoint_makes_two_eigensolves(tmp_path, monkeypatch):
    # one eigvalsh for both entropies and one for the trace distance per
    # checkpoint; the positivity check is a Cholesky factorization and the
    # diagonal limit is never diagonalized
    n, dim = 4, 2 ** 4
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = write_config(tmp_path, {
        "command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N": n, "t_max": 0.5, "steps": 1, "initial": {"kind": "random"}}})
    assert cli.run(cli.load_config(str(cfg), str(tmp_path / "out"), False, {})) == 0
    assert len(read_csv(tmp_path / "out" / "evolve-master.csv")) == 3
    assert [c for c in calls if c[1] == (dim, dim)] == [("eigvalsh", (dim, dim))] * 4


def test_steady_states_command(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "steady-states", "model": QUBIT, "spec": "qubit_uniform",
        "params": {"N": 2}})
    assert code == 0
    rows = read_csv(out / "steady-states.csv")
    assert rows[0] == ["E", "class_index", "rank"]
    assert [(int(r[0]), int(r[2])) for r in rows[1:]] == [(0, 1), (1, 2), (2, 1)]


def test_steady_family_command(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "steady-family",
        "model": {"dim": 3, "energies": [1, 10, 100]}})
    assert code == 0
    rows = read_csv(out / "steady-family.csv")
    indices = {int(r[0]) for r in rows[1:]}
    assert indices == {0, 1, 2}


def test_check_conserved_command(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "check-conserved", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"t_max": 1.0, "steps": 10,
                   "initial": {"kind": "matrix",
                               "state": [[0.6, [0.1, 0.05]], [[0.1, -0.05], 0.4]]},
                   "invariants": ["identity", "h"]}})
    assert code == 0
    rows = read_csv(out / "check-conserved.csv")
    drifts = {r[0]: float(r[1]) for r in rows[1:]}
    assert drifts["identity"] < 1e-12
    assert drifts["h"] < 1e-8


def test_chaos_command_columns(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N_list": [2, 3], "t_max": 0.5, "steps": 2,
                   "initial": {"kind": "matrix",
                               "state": [[0.5, 0.2], [0.2, 0.5]]}}})
    assert code == 0
    rows = read_csv(out / "chaos.csv")
    assert rows[0] == ["N", "t", "delta1", "delta2", "entropy_N", "entropy_qkbe"]
    final = {int(r[0]): float(r[2]) for r in rows[1:] if float(r[1]) == 0.5}
    assert final[3] < final[2]


def test_chaos_passes_the_tolerances_on(tmp_path, monkeypatch):
    # --tol psd and the config's tail reach both solvers, as the manifest says
    import qkac.chaos as chaos

    seen = []

    def recording(name, inner):
        def call(*args, **kw):
            seen.append((name, kw))
            return inner(*args, **kw)
        return call

    for name in ("evolve_master", "qkbe_integrate"):
        monkeypatch.setattr(chaos, name, recording(name, getattr(chaos, name)))
    doc = {"command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
           "tolerances": {"tail": 1e-11},
           "params": {"N_list": [2, 3], "t_max": 0.5, "steps": 2,
                      "initial": {"kind": "maximally_mixed"}}}
    code, out = run_cli(tmp_path, doc, extra=("--tol", "psd=2e-9"))
    assert code == 0
    assert seen[0] == ("qkbe_integrate", {"tol_psd": 2e-9})
    assert seen[1:] == [("evolve_master", {"tail_tol": 1e-11, "tol_psd": 2e-9})] * 4
    assert f"psd={2e-9:.17g} tail={1e-11:.17g}" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("command, energies, n, spec", [
    ("ergodicity", [0, 2 ** 62], 4, None),
    ("ergodicity", [0, 2 ** 63], 2, None),
    ("steady-states", [0, 1, 2 ** 62], 2, "exact_ea2"),
], ids=["ergodicity_N4", "ergodicity_2_63", "steady_states_exact_ea2"])
def test_energies_past_int64_exit_1(tmp_path, capsys, command, energies, n, spec):
    # the N-particle energies would wrap in int64 and merge or mislabel shells
    doc = {"command": command, "model": {"dim": len(energies), "energies": energies},
           "params": {"N": n}}
    if spec:
        doc["spec"] = spec
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert "reaches 2^63" in capsys.readouterr().err
    assert not out.exists()


def test_chaos_refuses_a_swap_asymmetric_spec(tmp_path, monkeypatch, capsys):
    # the symmetric sector is exact only for a channel that commutes with the swap
    from test_symmetric import dephase_first_factor

    monkeypatch.setattr(cli, "spec_by_name", lambda *args: dephase_first_factor())
    code, out = run_cli(tmp_path, {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N_list": [2, 3], "t_max": 0.5, "steps": 2,
                   "initial": {"kind": "maximally_mixed"}}})
    assert code == 1
    assert "factor swap (residual 1.000e+00)" in capsys.readouterr().err
    assert not out.exists()


def test_chaos_past_the_float_weights_exits_1(tmp_path, capsys):
    # C(1040, 520) > 1.8e308: the sector's weights would overflow a float
    code, out = run_cli(tmp_path, {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N_list": [1040], "t_max": 1.0, "steps": 1,
                   "initial": {"kind": "maximally_mixed"}}}, extra=("--force",))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: N = 1040 is past 1029") and "Traceback" not in err
    assert not out.exists()


def test_chaos_at_n_10_runs_within_its_budget(tmp_path):
    # the symmetric sector holds 286 coefficients at N = 10, where the dense
    # path held 1024 x 1024 matrices and took seconds for the evolution alone
    start = time.perf_counter()
    code, out = run_cli(tmp_path, {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N_list": [10], "t_max": 1.0, "steps": 4,
                   "initial": {"kind": "matrix", "state": [[0.6, [0.1, 0.05]], [[0.1, -0.05], 0.4]]}}})
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert len(read_csv(out / "chaos.csv")) == 6


def test_chaos_past_the_size_guard_runs_within_its_budget(tmp_path):
    # 2^40 is far past the guard, but the qubit sector holds C(43, 3)
    # coefficients and its certificate reads spin blocks of at most 41 rows
    import resource

    cfg = write_config(tmp_path, {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted", "force": True,
        "params": {"N_list": [40], "t_max": 1.0, "steps": 4,
                   "initial": {"kind": "matrix", "state": [[0.6, [0.1, 0.05]], [[0.1, -0.05], 0.4]]}},
        "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(tmp_path / "out" / "chaos.csv")) == 6


def test_chaos_entropy_reads_the_psd_tolerance(tmp_path):
    # eigenvalues at or below the psd tolerance count as zero in both
    # entropies, so the kinetic column equals evolve-qkbe's at any tolerance
    params = {"t_max": 0.5, "steps": 2,
              "initial": {"kind": "matrix", "state": [[0.999, 0], [0, 0.001]]}}
    extra = ("--tol", "psd=0.01")
    (tmp_path / "chaos").mkdir()
    (tmp_path / "qkbe").mkdir()
    code, out = run_cli(tmp_path / "chaos", {
        "command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"N_list": [2], **params}}, extra)
    assert code == 0
    header, *rows = read_csv(out / "chaos.csv")
    chaos_entropy = [float(r[header.index("entropy_qkbe")]) for r in rows]
    code, out = run_cli(tmp_path / "qkbe", {
        "command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
        "params": params}, extra)
    assert code == 0
    header, *rows = read_csv(out / "evolve-qkbe.csv")
    qkbe_entropy = [float(r[header.index("entropy")]) for r in rows]
    assert len(chaos_entropy) == len(qkbe_entropy) == 3
    assert np.abs(np.subtract(chaos_entropy, qkbe_entropy)).max() < 1e-12


def test_gap_reads_the_psd_tolerance(tmp_path, capsys):
    doc = gap([{"kind": "diag", "values": [5e-10, 1.0]}])
    code, out = run_cli(tmp_path, doc)
    assert code == 1
    assert ("reference state must be strictly positive (min eigenvalue 5.000e-10)"
            in capsys.readouterr().err)
    assert not out.exists()
    code, out = run_cli(tmp_path, doc, extra=("--tol", "psd=1e-12"))
    assert code == 0
    a = 5e-10 / (1 + 5e-10)
    (row,) = read_csv(out / "gap.csv")[1:]
    assert abs(float(row[2]) - (6 + a) / 4) < 1e-12


def test_gap_command(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "gap", "model": QUBIT, "spec": "qubit_tilted",
        "params": {"rho_inf": [{"kind": "diag", "values": [0.3, 0.7]},
                               {"kind": "gibbs", "beta": 0.0}]}})
    assert code == 0
    rows = read_csv(out / "gap.csv")
    assert rows[0] == ["spec", "rho_inf_params", "gap", "kernel_dim"]
    gaps = [float(r[2]) for r in rows[1:]]
    assert abs(gaps[0] - (6 + 0.3) / 4) < 1e-9
    assert abs(gaps[1] - (6 + 0.5) / 4) < 1e-9
    assert all(r[3] == "2" for r in rows[1:])



@pytest.mark.parametrize("energies,spec,rho_inf,want_gap,want_dim", [
    # close eigenvalues: the log-mean table loses digits without log1p
    ([0, 1], "qubit_tilted", {"kind": "diag", "values": [0.500000001, 0.499999999]},
     (6 + 0.500000001) / 4, 2),
    ([0, 1], "qubit_tilted", {"kind": "gibbs", "beta": 1e-8},
     (6 + 1 / (1 + np.exp(-1e-8))) / 4, 2),
    # small eigenvalues: rho_inf x rho_inf has eigenvalues below the PSD tolerance
    ([0, 1], "qubit_tilted", {"kind": "diag", "values": [1e-5, 0.99999]}, (6 + 1e-5) / 4, 2),
    ([0, 1, 4, 5], "exact_ea2", {"kind": "gibbs", "beta": 2.5}, 1.0, 3),
], ids=["diag_close", "gibbs_close", "diag_small", "ea2_0145_gibbs_small"])
def test_gap_admits_every_strictly_positive_state(tmp_path, energies, spec, rho_inf,
                                                  want_gap, want_dim):
    code, out = run_cli(tmp_path, {
        "command": "gap", "model": {"dim": len(energies), "energies": energies},
        "spec": spec, "params": {"rho_inf": [rho_inf]}})
    assert code == 0
    (row,) = read_csv(out / "gap.csv")[1:]
    assert abs(float(row[2]) - want_gap) < 1e-9
    assert row[3] == str(want_dim)

def test_reruns_byte_reproduce_csv(tmp_path):
    doc = {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted",
           "seed": 11,
           "params": {"N": 3, "t_max": 2.0, "steps": 4,
                      "initial": {"kind": "random"}}}
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["--config", str(cfg), "--output", str(out2)]) == 0
    a = (out1 / "evolve-master.csv").read_bytes()
    b = (out2 / "evolve-master.csv").read_bytes()
    assert a == b


def test_size_guard_and_force(tmp_path, capsys):
    doc = {"command": "ergodicity",
           "model": {"dim": 4, "energies": [0, 1, 2, 3]},
           "params": {"N": 7}}
    code, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert "guard" in capsys.readouterr().err
    code, out = run_cli(tmp_path, doc, extra=("--force",))
    assert code == 0


def test_numerical_contract_violation_exits_2(tmp_path, capsys):
    # an identity-only node family fixes every operator, so the class
    # projections cannot span the numerical null space; the steady-state
    # cross-check must trip and map to exit code 2
    lines = ["dim 4", "weight 1"]
    eye = np.eye(4)
    for row in eye:
        lines.append(" ".join(f"{v:.1f} 0.0" for v in row))
    nodes = tmp_path / "identity_nodes.txt"
    nodes.write_text("\n".join(lines) + "\n")
    code, _ = run_cli(tmp_path, {
        "command": "steady-states", "model": QUBIT,
        "spec": f"sampled_file:{nodes}", "params": {"N": 2}})
    assert code == 2
    assert "contract" in capsys.readouterr().err


def test_identity_nodes_at_N9_exit_2_before_filling_memory(tmp_path):
    # Q_N = 1 fixes all 2**18 operators at N = 9; the count of fixed
    # vectors must stop at the 10 classes, not after gigabytes of them
    import resource

    lines = ["dim 4", "weight 1"] + [" ".join(f"{v:.1f} 0.0" for v in row) for row in np.eye(4)]
    nodes = tmp_path / "identity_nodes.txt"
    nodes.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {
        "command": "steady-states", "model": QUBIT, "spec": f"sampled_file:{nodes}",
        "params": {"N": 9}, "output_dir": str(tmp_path / "out")})
    src = str(Path(qkac.__file__).resolve().parents[1])
    limit = 1 << 30
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qkac.cli", "--config", str(cfg)], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert "passes the class count 10" in proc.stderr


def test_crlf_line_endings(tmp_path):
    code, out = run_cli(tmp_path, {
        "command": "steady-family", "model": QUBIT})
    raw = (out / "steady-family.csv").read_bytes()
    assert b"\r\n" in raw


# one cheap valid config per command, each run in a fresh directory
CHEAP_CONFIGS = [
    {"command": "verify-spec", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"points_per_angle": 4}},
    {"command": "ergodicity", "model": {"dim": 3, "energies": [0, 1, 2]},
     "params": {"N": 3}, "seed": 0, "force": False, "tolerances": {"psd": 1e-9}},
    {"command": "evolve-master", "model": QUBIT, "spec": "qubit_tilted", "seed": 1,
     "params": {"N": 2, "t_max": 0.5, "steps": 2, "initial": {"kind": "random"}}},
    {"command": "steady-states", "model": QUBIT, "spec": "qubit_uniform",
     "params": {"N": 2}},
    {"command": "evolve-qkbe", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 0.5, "steps": 2,
                "initial": {"kind": "matrix",
                            "state": [[0.6, [0.1, 0.05]], [[0.1, -0.05], 0.4]]}}},
    {"command": "steady-family", "model": {"dim": 3, "energies": [0, 1, 2]}},
    {"command": "check-conserved", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"t_max": 0.5, "steps": 2, "initial": {"kind": "gibbs", "beta": 0.5},
                "invariants": ["identity", {"diag": [0, 1]}]}},
    {"command": "chaos", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"N_list": [2, 3], "t_max": 0.5, "steps": 2,
                "initial": {"kind": "maximally_mixed"}}},
    {"command": "gap", "model": QUBIT, "spec": "qubit_tilted",
     "params": {"rho_inf": [{"kind": "diag", "values": [0.3, 0.7]},
                            {"kind": "gibbs", "beta": 1.0}]}},
    {"command": "evolve-qkbe", "model": {"dim": 3, "energies": [0, 1, 2]},
     "spec": "exact_ea2", "params": {"t_max": 0.5, "steps": 2,
                                     "initial": {"kind": "gibbs", "beta": -0.5}}},
]
CHEAP_CONFIGS = [{"output_dir": "out", **doc} for doc in CHEAP_CONFIGS]


def field_paths(node, path=()):
    """The key path of every field, list item and nested value in a config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


DELETE = object()
FIELDS = [(k, path) for k, doc in enumerate(CHEAP_CONFIGS) for path in field_paths(doc)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS),
       st.sampled_from([DELETE, None, False, True, "x", [1], {"k": 1}, -1, 0, 2.5, 1e300]))
def test_mutated_config_fails_cleanly_or_writes_finite_csv(field, value):
    k, path = field
    doc = copy.deepcopy(CHEAP_CONFIGS[k])
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cfg = write_config(Path(tmp), doc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--config", str(cfg)])
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert os.listdir(tmp) == ["config.json"]
            else:
                assert code == 0, err.getvalue()
                [csv_path] = Path(tmp).rglob("*.csv")
                cells = {c.lower() for row in read_csv(csv_path) for c in row}
                assert not cells & {"nan", "-nan", "inf", "-inf"}
        finally:
            os.chdir(cwd)
