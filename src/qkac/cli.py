"""Reproducible experiment driver.

Reads a JSON configuration document, dispatches to the library, and
writes ``<command>.csv`` plus ``manifest.txt`` into the output directory.
Outputs are deterministic given the same configuration: any randomized
initial data is drawn from the recorded seed, and CSV files are written
atomically with floats at 17 significant digits.

Exit codes: 0 success (and ``--help``), 1 usage, configuration or
validation failure or a run out of memory (no partial outputs),
2 numerical contract violation (positivity or convergence).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .boltzmann import (classify_steady_states, conserved_check, gibbs,
                        qkbe_integrate, wild_sum_plan)
from .chaos import ChaosExperiment, run_chaos_experiment
from .collisions import spec_by_name, verify_spec
from .errors import NumericalContractError
from .linearized import BKMGeometry, spectral_gap
from .master import KacGenerator, evolve_master, steady_state_classes
from .operators import (entropy_and_relative_entropy, random_density, trace_norm,
                        validate_density_matrix, von_neumann_entropy)
from .spectra import SingleParticleModel, commutant_projection, shell_structure
from .tolerances import NAMED_TOLERANCES, TOL_AXIOM, check_size_guard

MAX_STEPS = 100_000


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    model: SingleParticleModel
    spec_name: str | None
    params: dict
    output_dir: str
    seed: int
    force: bool
    tols: dict
    raw_bytes: bytes = field(repr=False, default=b"")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _number(value, what: str, integer: bool = False, minimum=None):
    """``value`` if it is a finite JSON number (an integer when ``integer``)
    of at least ``minimum``.  JSON booleans, which Python reads as
    integers, are rejected, and so are the NaN and Infinity that Python's
    JSON reader accepts, and integers past the float range where a float is read."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or (isinstance(value, float) and not math.isfinite(value))
            or (not integer and abs(value) > sys.float_info.max)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be {'an integer' if integer else 'a finite number'}"
                          f"{bound}, got {value!r}")
    return value


def _numbers(values, what: str, count: int) -> np.ndarray:
    """A JSON list of ``count`` numbers, as a float array."""
    if not isinstance(values, list) or len(values) != count:
        raise ConfigError(f"{what} must be a list of {count} numbers")
    return np.array([_number(v, f"each of {what}") for v in values], dtype=float)


def _parse_matrix(obj, dim: int) -> np.ndarray:
    """Matrix from nested lists; entries are numbers or [re, im] pairs."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigError(f"matrix must be a list of {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"matrix row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0)
            what = f"matrix entry ({i},{j}), or each part of its [re, im] pair,"
            out[i, j] = complex(_number(re, what), _number(im, what))
    return out


def _tolerances(items, source: str) -> dict:
    """Named tolerance overrides, each checked for a known name and a
    number in (0, 1)."""
    if not isinstance(items, dict):
        raise ConfigError(f"{source} must map tolerance names to numbers")
    out = {}
    for name, value in items.items():
        if name not in NAMED_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r} in {source}; "
                              f"known: {sorted(NAMED_TOLERANCES)}")
        if isinstance(value, str):      # --tol values arrive as text
            try:
                value = float(value)
            except ValueError:
                pass
        value = float(_number(value, f"tolerance {name!r} in {source}"))
        if not 0 < value < 1:
            raise ConfigError(f"tolerance {name!r} in {source} must lie in (0, 1), "
                              f"got {value!r}")
        out[name] = value
    return out


def load_config(path: str, output_override: str | None, force_flag: bool,
                tol_overrides: dict) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"field 'command' must be one of {COMMANDS}, got {command!r}")
    model_doc = doc.get("model")
    if not isinstance(model_doc, dict):
        raise ConfigError("field 'model' must be an object with dim and energies")
    energies = model_doc.get("energies")
    if not isinstance(energies, list) or not energies:
        raise ConfigError("field 'model.energies' must be a non-empty list")
    for e in energies:
        _number(e, "each of field 'model.energies'", integer=True)
    dim = _number(model_doc.get("dim", len(energies)), "field 'model.dim'", integer=True)
    if dim != len(energies):
        raise ConfigError("field 'model.dim' disagrees with the energy count")
    try:
        model = SingleParticleModel(tuple(energies))
    except ValueError as exc:
        raise ConfigError(f"field 'model.energies': {exc}") from exc
    tols = dict(NAMED_TOLERANCES)
    tols.update(_tolerances(doc.get("tolerances", {}), "field 'tolerances'"))
    tols.update(_tolerances(tol_overrides, "--tol"))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'params' must be an object")
    reads = _COMMANDS[command][1]
    unread = sorted(set(params) - reads)
    if unread:
        raise ConfigError(f"'{command}' does not read params {unread}; "
                          f"it reads {sorted(reads)}")
    output_dir = output_override or doc.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        raise ConfigError("an output directory is required ('output_dir' or --output), "
                          "given as a string")
    force = doc.get("force", False)
    if not isinstance(force, bool):
        raise ConfigError(f"field 'force' must be true or false, got {force!r}")
    return RunConfig(
        command=command,
        model=model,
        spec_name=doc.get("spec"),
        params=params,
        output_dir=output_dir,
        seed=_number(doc.get("seed", 0), "field 'seed'", integer=True, minimum=0),
        force=force or force_flag,
        tols=tols,
        raw_bytes=raw,
    )


def _size(value, what: str, model: SingleParticleModel, force: bool, minimum: int) -> int:
    """An integer N whose total dimension d**N the size guard admits."""
    n = _number(value, what, integer=True, minimum=minimum)
    check_size_guard(model.dim, n, force)
    return n


def _read_params(cfg: RunConfig) -> dict:
    """Every param the command reads, checked before any work is done: the
    sizes, the time grid, the invariants, the reference states, the initial
    state and last the spec, which every command reading
    ``points_per_angle`` takes."""
    params, model, d = cfg.params, cfg.model, cfg.model.dim
    names = _COMMANDS[cfg.command][1]
    out = {}
    if "N" in names:
        out["N"] = _size(params.get("N"), "params.N", model, cfg.force,
                         minimum=1 if cfg.command == "ergodicity" else 2)
    if "N_list" in names:
        n_list = params.get("N_list")
        if not isinstance(n_list, list) or not n_list:
            raise ConfigError("params.N_list must be a list of integers >= 2")
        out["N_list"] = [_size(n, "each of params.N_list", model, cfg.force, minimum=2)
                         for n in n_list]
    if "t_max" in names:
        t_max = _number(params.get("t_max"), "params.t_max")
        if t_max <= 0:
            raise ConfigError("params.t_max must be a positive number")
        steps = _number(params.get("steps", 100), "params.steps", integer=True, minimum=1)
        if steps > MAX_STEPS:
            raise ConfigError(f"params.steps must be at most {MAX_STEPS}, got {steps}")
        out["grid"] = np.linspace(0.0, float(t_max), steps + 1)
        # the Wild-sum terms the kinetic solver plans past the first of each
        # substep, at most 4 * MAX_STEPS; the jump series of the master
        # equation grows with N t_max
        if cfg.command != "evolve-master":
            subs, terms = wild_sum_plan(out["grid"])
            formed = subs @ (terms - 1)
            if formed > 4 * MAX_STEPS:
                raise ConfigError(f"params.t_max = {t_max} needs {formed:.3g} Wild-sum terms, "
                                  f"past the bound {4 * MAX_STEPS}")
        n_max = max(out.get("N_list") or [out.get("N", 1)])
        if t_max > MAX_STEPS / n_max:
            raise ConfigError(f"N t_max = {n_max} * {t_max} is past the bound {MAX_STEPS}")
    if "invariants" in names:
        h = model.hamiltonian()
        named = {"identity": np.eye(d, dtype=complex), "h": h, "h_squared": h @ h}
        wanted = params.get("invariants", ["identity", "h"])
        if not isinstance(wanted, list):
            raise ConfigError("params.invariants must be a list")
        out["invariants"] = []
        for item in wanted:
            if isinstance(item, str) and item in named:
                out["invariants"].append((item, named[item]))
            elif isinstance(item, dict) and "diag" in item:
                op = np.diag(_numbers(item["diag"], "a diagonal invariant", d)).astype(complex)
                out["invariants"].append(("diag:" + ",".join(map(str, item["diag"])), op))
            else:
                raise ConfigError(f"unknown invariant {item!r}")
    if "rho_inf" in names:
        states = params.get("rho_inf")
        if isinstance(states, dict):
            states = [states]
        if not isinstance(states, list) or not states:
            raise ConfigError("params.rho_inf must be an object or list of objects")
        out["geometries"] = []
        for item in states:
            if not isinstance(item, dict):
                raise ConfigError(f"params.rho_inf item {item!r} must be an object")
            kind = item.get("kind")
            if kind == "gibbs":
                beta = float(_number(item.get("beta", 0.0), "params.rho_inf beta"))
                rho_inf = gibbs(model, beta)
                label = f"gibbs(beta={_fmt(beta)})"
            elif kind == "diag":
                vals = _numbers(item.get("values"), "diag rho_inf values", d)
                if vals.min() <= 0:
                    raise ConfigError("diag rho_inf needs positive values, one per level")
                rho_inf = np.diag(vals / vals.sum()).astype(complex)
                label = "diag:" + ",".join(_fmt(float(v)) for v in vals)
            else:
                raise ConfigError(f"unknown rho_inf kind {kind!r}")
            out["geometries"].append((label, BKMGeometry(rho_inf,
                                                         tol_psd=cfg.tols["psd"])))
    if "initial" in names:
        init, dim = params.get("initial"), d ** out.get("N", 1)
        if not isinstance(init, dict):
            raise ConfigError("params.initial must be an object with a 'kind' field")
        kind = init.get("kind")
        if kind == "maximally_mixed":
            out["rho0"] = np.eye(dim, dtype=complex) / dim
        elif kind == "matrix":
            out["rho0"] = validate_density_matrix(_parse_matrix(init.get("state"), dim),
                                                  tol_psd=cfg.tols["psd"])
        elif kind == "gibbs":
            if dim != d:
                raise ConfigError("gibbs initial data is single-particle only")
            beta = _number(init.get("beta", 0.0), "params.initial.beta")
            out["rho0"] = gibbs(model, float(beta))
        elif kind == "random":
            out["rho0"] = random_density(dim, np.random.default_rng(cfg.seed))
        else:
            raise ConfigError(f"unknown initial-state kind '{kind}'")
    if "points_per_angle" in names:
        if not cfg.spec_name or not isinstance(cfg.spec_name, str):
            raise ConfigError("field 'spec' is required for this command, as a spec name")
        points = (_number(params["points_per_angle"], "params.points_per_angle",
                          integer=True, minimum=4)
                  if "points_per_angle" in params else None)
        try:
            out["spec"] = spec_by_name(cfg.spec_name, model, points)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"field 'spec': {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# command implementations, each returning (header, rows) from _read_params
# ---------------------------------------------------------------------------

def _cmd_verify_spec(cfg: RunConfig, p: dict):
    report = verify_spec(p["spec"])
    rows = [(name, resid, resid <= TOL_AXIOM)
            for name, resid in sorted(report.residuals.items())]
    return ["check", "residual", "passes"], rows


def _cmd_ergodicity(cfg: RunConfig, p: dict):
    # read off the occupations: the class ranks are exact, past int64 from 3**40 on
    st = shell_structure(cfg.model, p["N"], force=cfg.force)
    es, first, counts = np.unique(st.class_energies, return_index=True, return_counts=True)
    ranks = st.class_ranks()
    return ["E", "dim_KE", "class_count"], [(E, sum(ranks[i:i + c]), c) for E, i, c in
                                            zip(es.tolist(), first.tolist(), counts.tolist())]


def _cmd_evolve_master(cfg: RunConfig, p: dict):
    n, grid, rho0 = p["N"], p["grid"], p["rho0"]
    gen = KacGenerator(p["spec"], n, force=cfg.force)
    limit = commutant_projection(cfg.model, n, rho0, force=cfg.force)
    rows = []
    state = rho0
    for idx, t in enumerate(grid):
        if idx > 0:
            state = evolve_master(gen, state, float(grid[idx] - grid[idx - 1]),
                                  tail_tol=cfg.tols["tail"],
                                  tol_psd=cfg.tols["psd"])
        # the limit is diagonal: one eigensolve of the state gives both entropies
        rows.append((float(t), trace_norm(state - limit), *entropy_and_relative_entropy(
            np.linalg.eigvalsh(state), state.diagonal().real, limit.diagonal().real,
            tol_psd=cfg.tols["psd"])))
    return ["t", "distance_to_limit", "entropy", "relative_entropy_to_limit"], rows


def _cmd_steady_states(cfg: RunConfig, p: dict):
    gen = KacGenerator(p["spec"], p["N"], force=cfg.force)
    classes = steady_state_classes(gen, tol=cfg.tols["fixed_eig"])
    rows = [(E, k, rank) for k, (E, rank) in enumerate(classes)]
    return ["E", "class_index", "rank"], rows


def _cmd_evolve_qkbe(cfg: RunConfig, p: dict):
    d = cfg.model.dim
    traj = qkbe_integrate(p["spec"], p["rho0"], p["grid"], tol_psd=cfg.tols["psd"])
    h = cfg.model.hamiltonian()
    header = ["t", "energy", "entropy"] + [f"rho_{i}{j}_{part}" for i in range(d)
                                           for j in range(d) for part in ("re", "im")]
    rows = [(float(t), float(np.trace(rho @ h).real),
             von_neumann_entropy(rho, tol_psd=cfg.tols["psd"]), *rho.reshape(-1).view(float))
            for t, rho in zip(p["grid"], traj)]
    return header, rows


def _cmd_steady_family(cfg: RunConfig, p: dict):
    family = classify_steady_states(cfg.model)
    rows = [(k, e, float(coeff)) for k, row in enumerate(family.constraint_basis)
            for e, coeff in zip(family.distinct_energies, row)]
    return ["basis_index", "energy", "coefficient"], rows


def _cmd_check_conserved(cfg: RunConfig, p: dict):
    traj = qkbe_integrate(p["spec"], p["rho0"], p["grid"], tol_psd=cfg.tols["psd"])
    rows = [(name, conserved_check(traj, op)) for name, op in p["invariants"]]
    return ["invariant", "max_drift"], rows


def _cmd_chaos(cfg: RunConfig, p: dict):
    exp = ChaosExperiment(p["spec"], p["rho0"], p["N_list"], p["grid"], force=cfg.force)
    rows = [(r.N, r.t, r.delta1, r.delta2, r.entropy_N, r.entropy_qkbe)
            for r in run_chaos_experiment(exp, tail_tol=cfg.tols["tail"],
                                          tol_psd=cfg.tols["psd"])]
    return ["N", "t", "delta1", "delta2", "entropy_N", "entropy_qkbe"], rows


def _cmd_gap(cfg: RunConfig, p: dict):
    rows = [(p["spec"].name, label, *spectral_gap(p["spec"], geo))
            for label, geo in p["geometries"]]
    return ["spec", "rho_inf_params", "gap", "kernel_dim"], rows


# each command's runner and the params it reads; any other name is an error
_COMMANDS = {
    "verify-spec": (_cmd_verify_spec, {"points_per_angle"}),
    "ergodicity": (_cmd_ergodicity, {"N"}),
    "evolve-master": (_cmd_evolve_master, {"points_per_angle", "N", "t_max", "steps",
                                           "initial"}),
    "steady-states": (_cmd_steady_states, {"points_per_angle", "N"}),
    "evolve-qkbe": (_cmd_evolve_qkbe, {"points_per_angle", "t_max", "steps", "initial"}),
    "steady-family": (_cmd_steady_family, set()),
    "check-conserved": (_cmd_check_conserved, {"points_per_angle", "t_max", "steps",
                                               "initial", "invariants"}),
    "chaos": (_cmd_chaos, {"points_per_angle", "N_list", "t_max", "steps", "initial"}),
    "gap": (_cmd_gap, {"points_per_angle", "rho_inf"}),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _manifest_text(cfg: RunConfig) -> str:
    lines = [
        f"command: {cfg.command}",
        f"config_sha256: {hashlib.sha256(cfg.raw_bytes).hexdigest()}",
        f"library_version: {__version__}",
        f"seed: {cfg.seed}",
        "tolerances: " + " ".join(f"{k}={_fmt(float(v))}"
                                  for k, v in sorted(cfg.tols.items())),
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    ]
    return "\n".join(lines) + "\n"


def _out_of_memory(cfg: RunConfig) -> str:
    """The Wild matrix's 16 d^6 bytes against the largest d^N x d^N operator's 16 d^2N,
    each a power past 2^1000: only when the operator is larger does a smaller N help."""
    d, p = cfg.model.dim, cfg.params
    n = max([p.get("N", 1), *p.get("N_list", [])])    # read and checked before any large array
    gb = [f"{16 * d ** k / 1e9:.3g} GB" if k * math.log2(d) < 1000 else f"16 * {d}**{k} bytes"
          for k in (6, 2 * n)]
    return (f"out of memory: the d^4 x d^2 Wild matrix takes {gb[0]}, and the largest "
            f"d^N x d^N operator (N = {n}) takes {gb[1]}" + "; lower N or drop --force" * (n > 3))


def run(cfg: RunConfig) -> int:
    params = _read_params(cfg)
    header, rows = _COMMANDS[cfg.command][0](cfg, params)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_atomic(os.path.join(cfg.output_dir, f"{cfg.command}.csv"),
                  _csv_text(header, rows))
    _write_atomic(os.path.join(cfg.output_dir, "manifest.txt"),
                  _manifest_text(cfg))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkac",
        description="Quantum mean-field collision-model laboratory")
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--force", action="store_true",
                        help="override the d**N size guard")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the contract-violation code
        return 1 if exc.code else 0
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            print(f"error: --tol expects NAME=VALUE, got {item!r}", file=sys.stderr)
            return 1
        name, value = item.split("=", 1)
        overrides[name] = value
    cfg = None
    try:
        cfg = load_config(args.config, args.output, args.force, overrides)
        return run(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {_out_of_memory(cfg) if cfg else 'out of memory'}", file=sys.stderr)
        return 1
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
