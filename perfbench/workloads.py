"""The benchmark's workloads: lists of qkac CLI configurations made from a seed.

Each job is a dict with a ``name``, the CLI ``config`` (without
``output_dir``, which the runner fills in) and an optional ``check``: a
correctness check from ``gate.py`` that holds for every seed, with its
arguments.  The same seed always gives the same configurations.
"""

from __future__ import annotations

import math
import random

QUBIT = {"dim": 2, "energies": [0, 1]}
QUDIT4 = {"dim": 4, "energies": [0, 1, 4, 5]}
QUTRIT = {"dim": 3, "energies": [0, 1, 2]}
D8 = {"dim": 8, "energies": [0, 1, 3, 7, 12, 20, 30, 44]}


def _qubit_state(rng: random.Random) -> list:
    """A strictly positive qubit density matrix (Bloch radius 0.2..0.8) as
    a CLI matrix with [re, im] off-diagonal entries."""
    r = rng.uniform(0.2, 0.8)
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    x = r * math.sin(theta) * math.cos(phi)
    y = r * math.sin(theta) * math.sin(phi)
    z = r * math.cos(theta)
    return [[(1 + z) / 2, [x / 2, -y / 2]], [[x / 2, y / 2], (1 - z) / 2]]


def _job(name, command, model, seed, spec=None, params=None, check=None):
    config = {"command": command, "model": model, "seed": seed,
              "params": params or {}}
    if spec is not None:
        config["spec"] = spec
    return {"name": name, "config": config, "check": check}


def _master(seed, rng):
    return [_job("evolve_master_n9", "evolve-master", QUBIT, seed, "qubit_tilted",
                 {"N": 9, "t_max": 0.25, "steps": 1, "initial": {"kind": "random"}},
                 {"kind": "relative_entropy_nonincreasing"})]


def _chaos(seed, rng):
    return [_job("chaos_n2_8", "chaos", QUBIT, seed, "qubit_tilted",
                 {"N_list": [2, 3, 4, 5, 6, 7, 8], "t_max": 1.0, "steps": 4,
                  "initial": {"kind": "matrix", "state": _qubit_state(rng)}},
                 {"kind": "delta1_zero_at_t0"})]


def _shells(seed, rng):
    return [
        _job("ergodicity_d8_n4", "ergodicity", D8, seed, params={"N": 4}),
        _job("ergodicity_d4_n6", "ergodicity", QUDIT4, seed, params={"N": 6}),
        _job("ergodicity_qubit_n6", "ergodicity", QUBIT, seed, params={"N": 6}),
        _job("ergodicity_d3_n4", "ergodicity", QUTRIT, seed, params={"N": 4}),
        _job("steady_states_qubit_n6", "steady-states", QUBIT, seed, "qubit_tilted",
             {"N": 6}, {"kind": "steady_count", "ergodicity_job": "ergodicity_qubit_n6"}),
        _job("steady_states_d3_n4", "steady-states", QUTRIT, seed, "exact_ea2",
             {"N": 4}, {"kind": "steady_count", "ergodicity_job": "ergodicity_d3_n4"}),
    ]


def _kinetic(seed, rng):
    a = round(rng.uniform(0.1, 0.9), 6)
    beta = round(rng.uniform(0.0, 2.0), 6)
    p0 = 1.0 / (1.0 + math.exp(-beta))  # gibbs(beta) = diag(p0, 1 - p0)
    return [
        _job("qkbe_qubit_t20", "evolve-qkbe", QUBIT, seed, "qubit_tilted",
             {"t_max": 20.0, "steps": 20,
              "initial": {"kind": "matrix", "state": _qubit_state(rng)}}),
        _job("qkbe_d4_random", "evolve-qkbe", QUDIT4, seed, "exact_ea2",
             {"t_max": 40.0, "steps": 10, "initial": {"kind": "random"}}),
        _job("check_conserved_ppa16", "check-conserved", QUBIT, seed, "qubit_tilted",
             {"t_max": 1.0, "steps": 50, "points_per_angle": 16,
              "initial": {"kind": "matrix", "state": _qubit_state(rng)},
              "invariants": ["identity", "h", "h_squared"]},
             {"kind": "drift_bound", "invariants": ["identity", "h"], "bound": 1e-10}),
        _job("verify_spec_ppa16", "verify-spec", QUBIT, seed, "qubit_tilted",
             {"points_per_angle": 16}),
        _job("gap_qubit_tilted", "gap", QUBIT, seed, "qubit_tilted",
             {"rho_inf": [{"kind": "diag", "values": [a, 1 - a]},
                          {"kind": "gibbs", "beta": beta}]},
             {"kind": "gap_closed_form", "expected": [(6 + a) / 4, (6 + p0) / 4]}),
        _job("gap_qubit_uniform", "gap", QUBIT, seed, "qubit_uniform",
             {"rho_inf": [{"kind": "diag", "values": [a, 1 - a]},
                          {"kind": "gibbs", "beta": beta}]},
             {"kind": "gap_closed_form", "expected": [2.0, 2.0]}),
        _job("gap_d4_exact", "gap", QUDIT4, seed, "exact_ea2",
             {"rho_inf": [{"kind": "gibbs", "beta": beta}, {"kind": "gibbs", "beta": 0.0}]}),
        _job("steady_family_d3", "steady-family", {"dim": 3, "energies": [1, 10, 100]}, seed),
    ]


_BUILDERS = {"master": _master, "chaos": _chaos, "shells": _shells, "kinetic": _kinetic}
NAMES = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list:
    """The jobs of ``workload`` for ``seed``.  The config seed is reduced
    mod 2**32 because the CLI's generator rejects negative seeds."""
    return _BUILDERS[workload](seed % 2**32, random.Random(f"{workload}:{seed}"))
