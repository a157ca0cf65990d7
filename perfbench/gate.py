"""Correctness gate for the CSV files the benchmark's jobs write.

Two kinds of check, both counted as job failures by the runner:

* golden: for the default seed, each job's CSV must match the CSV recorded
  in ``golden/<workload>/<job>.csv``.  Integer columns and text cells must
  match exactly; other numeric cells within ``GOLDEN_TOL``.
* invariants: the per-job checks named in ``workloads.py``, which hold for
  every seed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The CLI prints floats at 17 significant digits, of which the last few
# depend on the BLAS/LAPACK summation order (thread count, CPU kernel).
# 1e-9 (relative above 1, absolute below) is the package's positivity
# tolerance: orders of magnitude above that rounding noise and orders
# below any change in the physics the outputs report.
GOLDEN_TOL = 1e-9

# Columns holding integers, per command; these must match exactly.
INT_COLUMNS = {
    "ergodicity": {"E", "dim_KE", "class_count"},
    "steady-states": {"E", "class_index", "rank"},
    "chaos": {"N"},
    "gap": {"kernel_dim"},
    "steady-family": {"basis_index", "energy"},
}


def read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= GOLDEN_TOL * max(1.0, abs(b))


def compare_golden(command: str, path, golden_path) -> list:
    """Differences between a job's CSV and its golden CSV, as messages."""
    header, rows = read_csv(path)
    g_header, g_rows = read_csv(golden_path)
    if header != g_header:
        return [f"header {header} != golden {g_header}"]
    if len(rows) != len(g_rows):
        return [f"{len(rows)} rows != golden {len(g_rows)}"]
    ints = INT_COLUMNS.get(command, set())
    problems = []
    for r, (row, g_row) in enumerate(zip(rows, g_rows)):
        for col, cell, g_cell in zip(header, row, g_row):
            if cell == g_cell:
                continue
            try:
                numeric = col not in ints and _close(float(cell), float(g_cell))
            except ValueError:
                numeric = False
            if not numeric:
                problems.append(f"row {r} {col}: {cell} != golden {g_cell}")
    return problems


def _column(path, name) -> list:
    header, rows = read_csv(path)
    k = header.index(name)
    return [row[k] for row in rows]


def check_invariant(check: dict, path, outputs: dict) -> list:
    """Messages for each way the CSV at ``path`` breaks ``check``.

    ``outputs`` maps the workload's job names to their CSV paths, for
    checks that compare two jobs.
    """
    kind = check["kind"]
    if kind == "relative_entropy_nonincreasing":
        vals = [float(v) for v in _column(path, "relative_entropy_to_limit")]
        return [f"relative entropy rose from {a!r} to {b!r}"
                for a, b in zip(vals, vals[1:]) if b > a + 1e-12]
    if kind == "delta1_zero_at_t0":
        pairs = zip(_column(path, "t"), _column(path, "delta1"))
        return [f"delta1 = {d} at t = 0" for t, d in pairs
                if float(t) == 0.0 and float(d) > 1e-12]
    if kind == "steady_count":
        count = len(read_csv(path)[1])
        classes = sum(int(c) for c in _column(outputs[check["ergodicity_job"]],
                                                 "class_count"))
        return [] if count == classes else [
            f"{count} steady states != {classes} ergodicity classes"]
    if kind == "gap_closed_form":
        gaps = [float(g) for g in _column(path, "gap")]
        if len(gaps) != len(check["expected"]):
            return [f"{len(gaps)} gaps for {len(check['expected'])} reference states"]
        return [f"gap {g!r} != closed form {e!r}"
                for g, e in zip(gaps, check["expected"]) if abs(g - e) > 1e-9]
    if kind == "drift_bound":
        drift = dict(zip(_column(path, "invariant"), _column(path, "max_drift")))
        return [f"{name} drift {drift.get(name)} exceeds {check['bound']}"
                for name in check["invariants"]
                if name not in drift or float(drift[name]) > check["bound"]]
    raise ValueError(f"unknown check kind {kind!r}")


def check_job(workload: str, seed: int, job: dict, outputs: dict) -> list:
    """All correctness problems of one job's output; empty when it passes."""
    path = outputs[job["name"]]
    problems = []
    if job["check"]:
        problems += check_invariant(job["check"], path, outputs)
    if seed == DEFAULT_SEED:
        problems += compare_golden(job["config"]["command"], path,
                                   GOLDEN_DIR / workload / f"{job['name']}.csv")
    return problems
