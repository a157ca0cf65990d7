"""Record the golden CSVs and pinned trace counts for the default seed.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each workload once, traced, with the default seed, copies every
job's CSV to ``golden/<workload>/`` and stores the per-layer counts in
``golden/counts.json``.  Re-record only in a change that alters the
benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run
import spans
import workloads


def record(workload: str) -> dict:
    workdir = run.OUT / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.build(workload, gate.DEFAULT_SEED)
    configs, outputs = run.write_configs(jobs, workdir)
    child = run.spawn({"configs": configs, "trace": True, "probe": False}, workdir,
                      "record", time.monotonic() + run.RUN_LIMIT_S)
    if not child["ok"] or any(child["status"]):
        raise SystemExit(f"{workload}: a job failed, see {workdir}/record.log")
    golden = gate.GOLDEN_DIR / workload
    shutil.rmtree(golden, ignore_errors=True)
    golden.mkdir(parents=True)
    for name, path in outputs.items():
        shutil.copyfile(path, golden / f"{name}.csv")
    metrics = spans.layer_metrics(json.loads((workdir / "record.spans.json").read_text()))
    return {name: metrics[name] for name in spans.COUNT_METRICS}


def main(names) -> int:
    path = run.COUNTS_FILE
    counts = json.loads(path.read_text()) if path.exists() else {}
    for workload in names or workloads.NAMES:
        counts[workload] = record(workload)
        print(workload, counts[workload])
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
