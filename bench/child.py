"""Run one wrapcat CLI call in this fresh process; print one JSON record.

Usage: python3 bench/child.py '<json spec>' with spec keys ``argv`` (the
CLI arguments) and ``trace`` (null, "spans" or "counts"; see tracing.py).  The command's clock starts when
``wrapcat.cli.main`` is called, after the interpreter has started and
``wrapcat`` has been imported; the caller measures set-up as the time from
spawning this process to ``t_call``.  Both clocks are CLOCK_MONOTONIC.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    import wrapcat.cli as cli
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer, spec["trace"])
    real_stdout, sys.stdout = sys.stdout, io.StringIO()
    rc, error = None, None
    t_call = time.monotonic()
    try:
        rc = cli.main(spec["argv"])
    except Exception as exc:  # a traceback is an outcome to count, not a crash
        error = type(exc).__name__
    t_end = time.monotonic()
    report, sys.stdout = sys.stdout.getvalue(), real_stdout
    record = {"t_call": t_call, "t_end": t_end, "rc": rc, "error": error,
              "report": report,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
