"""The benchmark's correctness gate on every seed-0 job of its workloads.

Each job of ``perfbench/workloads.py`` runs in process through
``qkac.cli.load_config`` and ``qkac.cli.run``, and ``perfbench/gate.py``
checks its CSV: the golden file within ``GOLDEN_TOL`` and the job's
invariant.  Both modules are loaded from their files and left unchanged.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qkac import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate, workloads = _load("gate"), _load("workloads")


@pytest.mark.parametrize("workload", ["master", "chaos", "shells", "kinetic"])
def test_seed_zero_jobs_pass_the_benchmark_gate(workload, tmp_path):
    seed, jobs, outputs = gate.DEFAULT_SEED, workloads.build(workload, gate.DEFAULT_SEED), {}
    for job in jobs:
        out = tmp_path / job["name"]
        out.mkdir()
        path = out / "config.json"
        path.write_text(json.dumps(dict(job["config"], output_dir=str(out))))
        assert cli.run(cli.load_config(str(path), None, False, {})) == 0
        outputs[job["name"]] = out / f"{job['config']['command']}.csv"
    problems = [(job["name"], p) for job in jobs
                for p in gate.check_job(workload, seed, job, outputs)]
    assert problems == []
