"""Benchmark worker: one fresh process per workload run.

Usage: python3 worker.py SRC_DIR INVOCATIONS_JSON

Reads commands from stdin, one per line:
  pass <index> <traced 0|1>   run every invocation once through
                              starktree.cli.main and print one JSON line
                              with the pass wall time and, per call, its
                              latency, exit code, stdout and stderr
  end                         print the peak RSS and all recorded spans

The parent checks a pass's outputs before it sends the next command, so
the load is a closed loop from one client.

Pass k runs on CPU k mod n of the process's n allowed CPUs.  The CPUs of
a shared host can differ in speed by a third at the same moment, and the
scheduler keeps a process on one of them, so without the rotation a run
would measure whichever CPU it happened to land on.  Moving once per pass
instead of once per call keeps migration out of the call latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_pass(cli, invocations):
    calls = []
    start = perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            rc = None
            err.write(traceback.format_exc())
        calls.append([perf_counter() - t0, rc, out.getvalue(), err.getvalue()])
    return {"wall": perf_counter() - start, "calls": calls}


def main():
    src, invocations_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from starktree import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"starktree imported from {cli.__file__}, not from {src}")
    import tracing

    with open(invocations_path, encoding="utf-8") as handle:
        invocations = json.load(handle)
    tracer = tracing.Tracer()
    cpus = sorted(os.sched_getaffinity(0))
    protocol = sys.stdout
    for line in sys.stdin:
        command = line.split()
        if command[0] == "end":
            break
        tracer.pass_index = int(command[1])
        traced = command[2] == "1"
        if traced:
            tracer.install()
        try:
            os.sched_setaffinity(0, {cpus[tracer.pass_index % len(cpus)]})
            record = run_pass(cli, invocations)
        finally:
            tracer.uninstall()
        protocol.write(json.dumps(record) + "\n")
        protocol.flush()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    protocol.write(json.dumps({"maxrss_kb": maxrss_kb, "spans": tracer.spans}) + "\n")
    protocol.flush()


if __name__ == "__main__":
    main()
