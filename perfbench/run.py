"""starktree benchmark: CLI workloads measured end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {beat,tree,enum,sweep} --seed N \
        --seconds S --trace {0,1}

The workload's invocation list (see workloads.py) runs through
`starktree.cli.main` in a fresh worker process, one pass after another,
until S seconds of pass time have been measured (at least one pass).  Load
is a closed loop from one client: each call starts after the previous one
returns, and the next pass starts after this process has checked every
output of the last one (checks.py).  Outputs go to a temporary directory
under `.bench_tmp/`, removed at the end.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median time for a fresh interpreter to import starktree.cli
  wall_s       median wall time of one pass over the invocation list
  cmd_p50_s    median latency of one cli.main call
  cmd_tail_s   latency at the highest percentile with ten calls beyond it
               (the slowest call when a pass has fewer than 100 calls, as
               in beat, tree and enum, where that percentile would be
               under p90)
Both latencies are taken per pass and reported as the median over passes,
so that a burst of host noise in one pass does not set them.
  peak_rss_mb  peak resident memory of the worker process
fail_frac (failed / attempted) is printed in the report and carried exactly
by the result's `attempted` and `failed`; it is 0 on three workloads, so it
is not a bounded metric.

--trace 1 interleaves untraced and traced passes and prints the per-layer
metrics: self times from spans around the package's entry points
(tracing.py), their counts, and the tracing overhead (traced minus
untraced pass wall time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without src/starktree beside this
directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

SETUP_REPEATS = 10
TAIL_BEYOND = 10
TAIL_MIN_CALLS = 10 * TAIL_BEYOND
IMPORT_PROBE = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "import starktree.cli; os._exit(0)")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git": sha}


def measure_setup(workdir: str) -> float:
    """Median time for a fresh interpreter to import starktree.cli.

    One unmeasured probe first, so bytecode compilation is not counted.
    Probes rotate over the CPUs, as the worker's calls do.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(SETUP_REPEATS + 1):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           cwd=workdir, check=True)
            if i:
                times.append(perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, calls beyond it) at the highest percentile that
    has TAIL_BEYOND calls beyond it.  Below TAIL_MIN_CALLS calls that
    percentile would sit under p90, so the slowest call is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_CALLS:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Tally:
    """Failed invocations and output checks of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bad: list[str] = []
        self.defects = Counter()
        self.oracle_err = 0.0

    def add(self, verdict):
        self.attempted += 1
        self.oracle_err = max(self.oracle_err, verdict.oracle_err)
        if verdict.kind == "ok":
            return
        self.failed += 1
        if verdict.kind == "bad":
            self.bad.append(verdict.reason)
        else:
            self.defects[verdict.kind] += 1

    @property
    def correct(self) -> bool:
        return not self.bad


def measure(invocations, seconds: float, trace: bool, workdir: str, checker):
    """Run passes in a fresh worker until `seconds` of pass time are measured.

    The invocations write into `workdir/out`, emptied after every pass.

    The number of passes is even; with trace, passes run in groups of
    four: untraced, traced, traced, untraced.
    Returns (passes, tally, maxrss_kb, spans); each pass holds its wall
    time, traced flag, call latencies and output-derived counts.
    """
    outdir = os.path.join(workdir, "out")
    plan = os.path.join(workdir, "invocations.json")
    with open(plan, "w", encoding="utf-8") as handle:
        json.dump(invocations, handle)
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC), plan],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=workdir)
    tally = Tally()
    passes = []
    try:
        measured = 0.0
        # the worker runs pass k on CPU k mod n: with two CPUs, this order
        # gives each kind of pass as many runs on each CPU
        while measured < seconds or len(passes) % (4 if trace else 2) or not passes:
            traced = trace and len(passes) % 4 in (1, 2)
            worker.stdin.write(f"pass {len(passes)} {int(traced)}\n")
            worker.stdin.flush()
            record = json.loads(worker.stdout.readline())
            counts = Counter()
            for argv, (_, rc, out, err) in zip(invocations, record["calls"]):
                verdict = checker.check(argv, rc, out, err)
                tally.add(verdict)
                counts.update(verdict.counts)
            for name in os.listdir(outdir):
                os.unlink(os.path.join(outdir, name))
            passes.append({"wall": record["wall"], "traced": traced,
                           "latencies": [call[0] for call in record["calls"]],
                           "counts": counts})
            measured += record["wall"]
        worker.stdin.write("end\n")
        worker.stdin.flush()
        final = json.loads(worker.stdout.readline())
    finally:
        worker.stdin.close()
        try:
            worker.wait(timeout=60)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with {worker.returncode}")
    return passes, tally, final["maxrss_kb"], final["spans"]


def end_to_end(passes, maxrss_kb: int, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cmd_p50_s": statistics.median(
            statistics.median(p["latencies"]) for p in passes),
        "cmd_tail_s": statistics.median(tail(p["latencies"])[0] for p in passes),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def per_layer(passes, spans, oracle_err: float) -> dict:
    import tracing
    rows = []
    for index, p in enumerate(passes):
        if not p["traced"]:
            continue
        layer = tracing.layer_metrics(spans, index)
        self_sum = sum(layer[m] for m in set(tracing.SELF_TIME.values()))
        compute = self_sum - layer["cli.self_s"]
        bytes_out = p["counts"]["bytes_out"]
        rows.append({
            "partitions.count_s": layer["partitions.count_s"],
            "partitions.enum_s": layer["partitions.enum_s"],
            "partitions.parts": layer["parts"],
            "anticontinuum.sets_s": layer["anticontinuum.sets_s"],
            "anticontinuum.sets": layer["sets"],
            "anticontinuum.tree_s": layer["anticontinuum.tree_s"],
            "anticontinuum.tree_samples": layer["tree_samples"],
            "anticontinuum.build_state_s": layer["anticontinuum.build_state_s"],
            "continuation.continue_s": layer["continuation.continue_s"],
            "continuation.calls": layer["calls"],
            "continuation.newton_iters": layer["newton_iters"],
            "continuation.iters_per_step":
                layer["newton_iters"] / layer["steps"] if layer["steps"] else 0.0,
            "continuation.ms_per_iter":
                1e3 * layer["continuation.continue_s"] / layer["newton_iters"]
                if layer["newton_iters"] else 0.0,
            "continuation.failed": layer["failed"],
            "dynamics.evolve_s": layer["dynamics.evolve_s"],
            "dynamics.rk4_steps": layer["rk4_steps"],
            "dynamics.steps_per_s":
                layer["rk4_steps"] / layer["evolve_span_s"]
                if layer["evolve_span_s"] else 0.0,
            "dynamics.trace_bytes": layer["trace_bytes"],
            "dynamics.spectrum_s": layer["dynamics.spectrum_s"],
            "dynamics.norm_drift": layer["norm_drift"],
            "dynamics.energy_drift": layer["energy_drift"],
            "dynamics.oracle_err": oracle_err,
            "cli.self_s": layer["cli.self_s"],
            "cli.bytes_out": bytes_out,
            "cli.rows_out": p["counts"]["rows_out"],
            "cli.out_mb_per_s": bytes_out / 1e6 / layer["cli.self_s"],
            "cli.output_to_compute":
                layer["cli.self_s"] / compute if compute else 0.0,
            "trace.wall_s": p["wall"],
            "trace.self_sum_frac": self_sum / p["wall"],
        })
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["trace.untraced_wall_s"] = statistics.median(
        p["wall"] for p in passes if not p["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def report(args, info, invocations, passes, tally, metrics, units):
    calls = sum(len(p["latencies"]) for p in passes)
    print(f"# starktree benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# run: passes={len(passes)} invocations={calls} "
          f"({len(invocations)} per pass), closed loop, 1 client, 1 process")
    print("# pass walls (s): " + " ".join(
        f"{p['wall']:.4g}{'T' if p['traced'] else ''}" for p in passes))
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        _, percentile, beyond = tail(passes[0]["latencies"])
        print(f"# cmd_tail_s is the median over {len(passes)} passes of "
              f"p{percentile:.2f} of the pass's {len(invocations)} calls, "
              f"{beyond} beyond it")
    print(f"{'fail_frac':32s} {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted})")
    import checks
    for kind, count in sorted(tally.defects.items()):
        print(f"# known defect ({kind}) x{count}: {checks.KNOWN_DEFECTS[kind]}")
    for reason in tally.bad[:10]:
        print(f"# CHECK FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starktree" / "cli.py").is_file():
        print(f"error: no starktree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    bench = spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        outdir = os.path.join(workdir, "out")
        os.mkdir(outdir)
        invocations = workloads.BUILDERS[args.workload](outdir, args.seed)
        setup_s = None if args.trace else measure_setup(workdir)
        passes, tally, maxrss_kb, spans = measure(
            invocations, args.seconds, bool(args.trace), workdir, checks.Checker())
    finally:
        shutil.rmtree(workdir)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if args.trace:
        computed = per_layer(passes, spans, tally.oracle_err)
    else:
        computed = end_to_end(passes, maxrss_kb, setup_s)
    metrics = {name: computed[name] for name in units}
    report(args, machine(), invocations, passes, tally, metrics, units)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
