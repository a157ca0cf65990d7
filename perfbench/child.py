"""One benchmark round in a fresh process: ``python3 child.py PLAN.json``.

The plan (written by ``run.py``) lists the job configs, whether to trace,
and where to write the round's result.  The child imports qkac from the
checkout's ``src``, runs every config through ``qkac.cli.load_config``
(the end of set-up), then ``qkac.cli.run`` for each job in turn.  It times
the calibration kernel (``calibrate.py``) once after set-up and once after
each job, outside every timed span.  It writes the monotonic ``ready``
stamp, each job's exit ``status``, wall seconds ``job_s`` and CPU seconds
``job_cpu_s``, the calibration part times ``kernel_parts``, and the spans when
tracing.  A probe plan stops after set-up and one calibration.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

# exit status of each job, mirroring ``qkac.cli.main``
CONFIG_ERROR, CONTRACT_ERROR, CRASH = 1, 2, 3


def _run_job(cli, errors, cfg) -> int:
    try:
        return cli.run(cfg)
    except ValueError:  # includes cli.ConfigError
        traceback.print_exc()
        return CONFIG_ERROR
    except errors.NumericalContractError:
        traceback.print_exc()
        return CONTRACT_ERROR
    except Exception:  # one broken job must not hide the others' results
        traceback.print_exc()
        return CRASH


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    from qkac import cli, errors

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qkac imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    cfgs = [cli.load_config(path, None, False, {}) for path in plan["configs"]]
    out = {"ready": time.monotonic(), "status": [], "job_s": [], "job_cpu_s": []}
    import calibrate  # after the ready stamp: not part of set-up

    out["kernel_parts"] = [calibrate.kernel_parts()]
    for cfg in [] if plan["probe"] else cfgs:
        start, cpu_start = time.monotonic(), time.process_time()
        out["status"].append(_run_job(cli, errors, cfg))
        out["job_cpu_s"].append(time.process_time() - cpu_start)
        out["job_s"].append(time.monotonic() - start)
        out["kernel_parts"].append(calibrate.kernel_parts())
    if tracer is not None:
        tracer.dump(plan["spans"])
    with open(plan["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
