"""Benchmark of the qkac CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI configs (``workloads.py``) in fresh child processes
(``child.py``) for about ``--seconds`` seconds, checks every output
(``gate.py``), prints the environment, one line per metric and
``fail_frac``, and, as the last line, a JSON object ``{"correct",
"attempted", "failed", "metrics"}``.

* ``--trace 0``: end-to-end metrics, each the median over the run's
  children.  ``setup_s`` is measured in every child: the rounds and
  set-up-only probe children, which run first and fill the time left at
  the end.
  The times are normalised to a reference host speed (``calibrate.py``):
  each child's wall times are multiplied by ``calibrate.REF_S`` over the
  median wall time of the calibration kernel that it and its neighbours
  measured (``normalise``), and its CPU times likewise by the kernel's CPU
  time.  The raw medians are printed and recorded beside them.
* ``--trace 1``: untraced and traced rounds alternate; the per-layer
  metrics (``spans.py``) are medians over the traced rounds, and
  ``trace.overhead_frac`` compares the two kinds' median wall times.

The full record (quartiles, sample counts, every round, failures and the
environment) goes to ``.perfbench_out/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COUNTS_FILE = gate.GOLDEN_DIR / "counts.json"

PROBES = 4          # set-up-only children before the first round
THREADS = 1         # BLAS/OpenMP threads per child: steadier on a shared box
RUN_LIMIT_S = 170   # children still running past this are killed
MIN_KERNELS = 20    # kernel times behind each child's normalisation, at least
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def spawn(plan: dict, workdir: Path, tag: str, kill_at: float) -> dict:
    """Run ``child.py`` on ``plan``; return its timings, rusage and status.

    ``setup_s`` runs from just before the spawn to the child's ``ready``
    stamp (both on the system-wide monotonic clock).  ``job_s`` and
    ``job_cpu_s`` are each job's wall and CPU seconds, ``wall_s`` sums the
    jobs' times and ``cpu_s`` is the child's user+sys time, set-up
    included.  ``kernel_s`` and ``kernel_cpu_s`` list the wall and CPU times
    of the child's calibration kernels.
    ``ok`` is False when the child was killed, exited non-zero or wrote no
    result.
    """
    plan = dict(plan, result=str(workdir / f"{tag}.result.json"),
                spans=str(workdir / f"{tag}.spans.json"), src=str(SRC))
    plan_path = workdir / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan))
    Path(plan["result"]).unlink(missing_ok=True)
    with open(workdir / f"{tag}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)],
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        pid, killed = 0, False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.monotonic() > kill_at:
                    proc.kill()
                    killed = True
                time.sleep(0.01)
        finally:
            if not pid:  # interrupted: leave no child behind
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"tag": tag, "exit": proc.returncode, "killed": killed,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        res = json.loads(Path(plan["result"]).read_text())
    except (OSError, ValueError):
        res = None
    out["ok"] = proc.returncode == 0 and res is not None
    if out["ok"]:
        out.update(setup_s=res["ready"] - start, wall_s=sum(res["job_s"]),
                   cpu_s=usage.ru_utime + usage.ru_stime, status=res["status"],
                   job_s=res["job_s"], job_cpu_s=res["job_cpu_s"],
                   kernel_parts=res["kernel_parts"],
                   kernel_s=[calibrate.kernel_s(p["wall"]) for p in res["kernel_parts"]],
                   kernel_cpu_s=[calibrate.kernel_s(p["cpu"]) for p in res["kernel_parts"]])
    return out


def summary(values: list) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def normalise(timeline: list, min_kernels: int = MIN_KERNELS) -> None:
    """Set each child's ``scale`` and ``cpu_scale``: ``calibrate.REF_S`` over
    the median of the wall and of the CPU kernel times measured by the
    child and its neighbours in ``timeline``, one on each side, or as many
    as it takes to hold ``min_kernels`` kernel times."""
    for i, child in enumerate(timeline):
        reach = 1
        while True:
            near = timeline[max(0, i - reach):i + reach + 1]
            if (sum(len(c["kernel_s"]) for c in near) >= min_kernels
                    or len(near) == len(timeline)):
                break
            reach += 1
        for scale, key in (("scale", "kernel_s"), ("cpu_scale", "kernel_cpu_s")):
            child[scale] = calibrate.REF_S / statistics.median(k for c in near for k in c[key])


def _library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: THREADS for var in THREAD_VARS},
            **_library_versions(), "git_commit": _git_commit(), "seed": seed}


def write_configs(jobs: list, workdir: Path) -> tuple[list, dict]:
    """Write each job's config; return the config paths and the CSV path
    each job writes, by job name."""
    paths, outputs = [], {}
    for job in jobs:
        jobdir = workdir / "jobs" / job["name"]
        jobdir.mkdir(parents=True, exist_ok=True)
        path = jobdir / "config.json"
        path.write_text(json.dumps(dict(job["config"], output_dir=str(jobdir))))
        paths.append(str(path))
        outputs[job["name"]] = jobdir / f"{job['config']['command']}.csv"
    return paths, outputs


def gate_round(workload: str, seed: int, jobs: list, outputs: dict, child: dict) -> list:
    """(job, problem) for every job of a round that failed."""
    if not child["ok"]:
        why = "killed" if child["killed"] else f"child exit {child['exit']}"
        return [(job["name"], why) for job in jobs]
    failures = []
    for job, status in zip(jobs, child["status"]):
        if status != 0:
            failures.append((job["name"], f"exit {status}"))
            continue
        try:
            problems = gate.check_job(workload, seed, job, outputs)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        failures += [(job["name"], p) for p in problems]
    return failures


def count_problems(workload: str, traced: list) -> list:
    """Traced counts that differ from those pinned for the default seed."""
    pinned = json.loads(COUNTS_FILE.read_text())[workload]
    return [f"{name}: {m[name]} != pinned {pinned[name]}"
            for m in traced for name in spans.COUNT_METRICS if m[name] != pinned[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qkac" / "cli.py").is_file():
        print(f"error: no qkac sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline, kill_at = start + args.seconds, start + RUN_LIMIT_S
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed)
    configs, outputs = write_configs(jobs, workdir)

    setup_samples, probe_s = [], []  # set-up: the probes and the untraced rounds
    timeline = []  # every child that finished, in order

    def set_up_only() -> bool:
        tag = f"probe{len(probe_s)}"
        probe_start = time.monotonic()
        probe = spawn({"configs": configs, "trace": False, "probe": True}, workdir, tag, kill_at)
        probe_s.append(time.monotonic() - probe_start)
        if not probe["ok"]:
            print(f"error: set-up failed, see {workdir}/{tag}.log", file=sys.stderr)
            return False
        setup_samples.append(probe)
        timeline.append(probe)
        return True

    for _ in range(PROBES):
        if not set_up_only():
            return 1

    kinds = (False, True) if args.trace else (False,)
    rounds = {False: [], True: []}
    traced_metrics, failures, attempted, cycles = [], [], 0, []
    while not cycles or time.monotonic() + statistics.median(cycles) <= deadline:
        cycle_start = time.monotonic()
        for traced in kinds:
            tag = f"round{len(cycles)}{'-traced' if traced else ''}"
            for path in outputs.values():
                path.unlink(missing_ok=True)
            child = spawn({"configs": configs, "trace": traced, "probe": False},
                          workdir, tag, kill_at)
            attempted += len(jobs)
            failed = gate_round(args.workload, args.seed, jobs, outputs, child)
            failures += [(tag, name, why) for name, why in failed]
            if child["ok"]:
                rounds[traced].append(child)
                timeline.append(child)
                if traced:
                    span_list = json.loads(Path(workdir / f"{tag}.spans.json").read_text())
                    traced_metrics.append(spans.layer_metrics(span_list))
                else:
                    setup_samples.append(child)
        cycles.append(time.monotonic() - cycle_start)
        if time.monotonic() > kill_at:
            break
    # the rest of the time goes to set-up samples
    while time.monotonic() + statistics.median(probe_s) <= deadline:
        if not set_up_only():
            return 1

    plain = rounds[False]
    if not plain or (args.trace and not traced_metrics):
        print(f"error: no round completed, see the logs in {workdir}", file=sys.stderr)
        return 1
    normalise(timeline)
    kernel = summary([k for c in timeline for k in c["kernel_s"]])
    times = {"setup_s": (setup_samples, lambda c: c["setup_s"], "scale"),
             "wall_s": (plain, lambda c: c["wall_s"], "scale"),
             "cpu_s": (plain, lambda c: sum(c["job_cpu_s"]), "cpu_scale")}
    raw = {name: summary([get(c) for c in kids]) for name, (kids, get, _) in times.items()}
    summaries = {name: summary([get(c) * c[scale] for c in kids])
                 for name, (kids, get, scale) in times.items()}
    summaries["peak_rss_mb"] = summary([c["peak_rss_mb"] for c in plain])
    problems = [f"{tag} {name}: {why}" for tag, name, why in failures]
    if args.trace:
        metrics = spans.median_metrics(traced_metrics)
        untraced = raw["wall_s"]["median"]
        traced_wall = statistics.median(c["wall_s"] for c in rounds[True])
        metrics["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        units = dict(spans.METRICS, **{"trace.overhead_frac": "fraction"})
        if args.seed == gate.DEFAULT_SEED:
            problems += count_problems(args.workload, traced_metrics)
    else:
        metrics = {name: summaries[name]["median"] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    failed = len({(tag, name) for tag, name, _ in failures})

    env = environment(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "jobs": [job["name"] for job in jobs], "summaries": summaries,
              "raw_summaries": raw, "kernel_s": kernel, "kernel_ref_s": calibrate.REF_S,
              "fail_frac": failed / attempted, "attempted": attempted,
              "problems": problems, "metrics": metrics,
              "children": [{k: v for k, v in c.items() if k != "status"} for c in timeline]}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)} result={workdir}/result.json")
    print("  environment " + json.dumps(env))
    for name, unit in END_TO_END:
        s = summaries[name]
        line = (f"  {name:<12} {s['median']:.6g} {unit}  "
                f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        if name in raw:
            line += f"  raw {raw[name]['median']:.6g} {unit}"
        print(line)
    print(f"  {'kernel_s':<12} {kernel['median']:.6g} s  (q1 {kernel['q1']:.6g}, "
          f"q3 {kernel['q3']:.6g}, n={kernel['n']}; normalised to {calibrate.REF_S} s)")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g}  ({failed}/{attempted} jobs)")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g} {units[name]}")
    for p in problems:
        print(f"  FAIL {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
