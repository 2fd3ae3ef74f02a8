"""Re-pin ``bench/golden.json``: the sha256 of every output of one job per
workload at the pinned seed.

Run from the repository root with ``python3 bench/pin.py``.  Each output is
accepted only after it passes the same oracle checks ``bench/run.py``
applies to unpinned seeds, so pinning cannot record a wrong result; re-pin
only when a change is meant to alter report bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    golden = {"seed": 0, "outputs": {}}
    for workload, plan_for in run.WORKLOADS.items():
        work = run.WORK / workload
        (run.ROOT / work).mkdir(parents=True, exist_ok=True)
        try:
            plan = plan_for(golden["seed"], work, {})
            _, errors = run.run_job(plan, work, False, 0, time.monotonic() + run.RUN_LIMIT_S)
        finally:
            shutil.rmtree(run.ROOT / run.WORK, ignore_errors=True)
        if any(errors):
            print(f"{workload}: not pinned: {errors}", file=sys.stderr)
            return 1
        golden["outputs"][workload] = {o.label: o.sha for outs in plan.outputs for o in outs}
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"pinned {sum(map(len, golden['outputs'].values()))} outputs in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
