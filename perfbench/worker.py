"""One measured iteration in a fresh process: run CLI commands in-process.

Usage: python3 worker.py JOB.json

The job names the source tree to import ``retrans`` from, the commands, and
whether to trace. ``retrans.cli`` is imported before the clock starts, so the
per-command times hold only the work of ``retrans.cli.main(argv)``. The
result (times, exit codes, captured stdout, peak RSS and, when traced, the
per-layer metrics) is written to the job's result path as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import retrans.cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["workload"])
        tracer.install()

    results = []
    for label, argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        started = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = retrans.cli.main(argv)
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc(file=err)
                code = -1
        seconds = perf_counter() - started
        results.append({"label": label, "seconds": seconds, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})

    report = {
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main(sys.argv[1])
