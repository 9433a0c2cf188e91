"""Traced stand-in for `python -m glycanrules.minismt`.

The benchmark's traced runs point the solver executable at this script.  It
wraps the bundled solver's layers in spans, serves the session exactly as the
plain module does, and at exit writes its spans and counters as JSON to
`$PERFBENCH_TRACE_DIR/<job>-<pid>.json`, where `<job>` is `$PERFBENCH_JOB`.
Nothing is written when `PERFBENCH_TRACE_DIR` is unset.  Standard output
carries the SMT-LIB2 protocol, so this script prints nothing else.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
from glycanrules.minismt import __main__ as front  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    solvers = []
    spans.install_minismt(tracer, solvers)
    tracer.seconds["minismt.start_s"] = time.perf_counter() - STARTED
    try:
        return front.main()
    finally:
        out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
        if out_dir:
            counts = dict(tracer.counts, **spans.solver_sizes(solvers))
            job = os.environ.get("PERFBENCH_JOB", "job")
            path = pathlib.Path(out_dir) / f"{job}-{os.getpid()}.json"
            path.write_text(json.dumps({"seconds": tracer.seconds, "counts": counts}))


if __name__ == "__main__":
    sys.exit(main())
