"""One benchmark job, run in a fresh interpreter by ``bench/run.py``.

Usage: ``python3 bench/job.py SPEC.json``.  The spec names the package
source directory, the CLI argument lists to pass to
``scalesense.cli.run`` one after another, whether to trace, and where to
write the result.  The result holds, per call, the in-process wall time,
exit code, captured stdout and any escaped exception; the job's own peak
RSS; and, when traced, the span list.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import scalesense.cli

    if src not in Path(scalesense.cli.__file__).resolve().parents:
        print(f"scalesense was imported from {scalesense.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calls = []
    clock = time.perf_counter
    job_start = clock()
    for argv in spec["calls"]:
        stdout = io.StringIO()
        error = None
        start = clock()
        try:
            with contextlib.redirect_stdout(stdout):
                code = scalesense.cli.run(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        calls.append(
            {
                "command": argv[0],
                "seconds": clock() - start,
                "code": code,
                "stdout": stdout.getvalue(),
                "error": error,
            }
        )
    job_s = clock() - job_start
    result = {
        "job_s": job_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
