"""Informational N-sweeps: how wall time and peak memory grow with N.

    python3 perfbench/sweep.py [--out PATH]

Each point is one CLI config run once in a fresh child (``child.py``); the
sweep records ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` per N, and a
child that fails or is killed is recorded as failed.  These runs are not
gated and not part of ``BENCHMARK.json``.  ``steady-states`` at N=8 is
left out on purpose, and the output says so: it needs more than 3 GB,
too much for a shared 8 GB machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import workloads

POINT_LIMIT_S = 900
QUBIT_STATE = [[0.6, [0.1, 0.2]], [[0.1, -0.2], 0.4]]

SWEEPS = {
    "evolve-master": [
        (n, {"command": "evolve-master", "model": workloads.QUBIT, "spec": "qubit_tilted",
             "seed": 0, "params": {"N": n, "t_max": 1.0, "steps": 1,
                                   "initial": {"kind": "random"}}})
        for n in range(4, 11)],
    "chaos": [
        (n, {"command": "chaos", "model": workloads.QUBIT, "spec": "qubit_tilted",
             "params": {"N_list": [n], "t_max": 1.0, "steps": 1,
                        "initial": {"kind": "matrix", "state": QUBIT_STATE}}})
        for n in range(2, 11)],
    "steady-states": [
        (n, {"command": "steady-states", "model": workloads.QUBIT, "spec": "qubit_tilted",
             "params": {"N": n}})
        for n in range(4, 8)],
    "ergodicity": [
        (n, {"command": "ergodicity", "model": workloads.QUDIT4, "params": {"N": n},
             "force": True})
        for n in range(4, 8)],
}
SKIPPED = [{"sweep": "steady-states", "N": 8,
            "reason": "needs more than 3 GB of memory (dense matrix units per shell "
                      "block); too much for a shared 8 GB machine"}]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(run.OUT / "sweep.json"))
    args = parser.parse_args(argv)
    workdir = run.OUT / "sweep"
    shutil.rmtree(workdir, ignore_errors=True)
    points = []
    for sweep, configs in SWEEPS.items():
        for n, config in configs:
            tag = f"{sweep}-N{n}"
            configs, _ = run.write_configs([{"name": tag, "config": config}], workdir)
            child = run.spawn({"configs": configs, "trace": False, "probe": False},
                              workdir / "jobs" / tag, "child",
                              time.monotonic() + POINT_LIMIT_S)
            ok = child["ok"] and child["status"] == [0]
            point = {"sweep": sweep, "N": n, "ok": ok, "exit": child["exit"],
                     "killed": child["killed"], "peak_rss_mb": child["peak_rss_mb"]}
            if child["ok"]:
                point.update(wall_s=child["wall_s"], cpu_s=child["cpu_s"],
                             status=child["status"])
            points.append(point)
            print(f"{tag:<20} {'ok' if ok else 'FAILED'}  wall {point.get('wall_s', 0):8.2f} s"
                  f"  rss {point['peak_rss_mb']:8.1f} MB", flush=True)
    record = {"environment": run.environment(0), "points": points, "skipped": SKIPPED}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    for item in SKIPPED:
        print(f"skipped {item['sweep']} N={item['N']}: {item['reason']}")
    return 0 if all(p["ok"] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
