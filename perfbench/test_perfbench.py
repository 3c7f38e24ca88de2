"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from starktree import cli  # noqa: E402
from starktree.anticontinuum import enumerate_solution_sets  # noqa: E402

# Over 12 Bloch periods the beat lines at 0.25, 1 and 1.25 lie three bins
# apart, and RK4 at dt = 2 pi/1024 stays within the density tolerance.
T_END = str(12 * 2 * math.pi)
DT = str(2 * math.pi / 1024)


def tiny(name: str, outdir: str) -> list[list[str]]:
    """Each workload's calls at a size that runs in about a second."""
    out = lambda f: os.path.join(outdir, f)  # noqa: E731
    return {
        "beat": [
            ["evolve", "--x", "1.5", "--t-end", T_END, "--dt", DT, "--stride", "8",
             "--out", out("beat.csv")],
            ["evolve", "--set=0,1", "--x", "1.5", "--beta", "0.01", "--t-end", T_END,
             "--dt", DT, "--stride", "8", "--out", out("hop.csv")],
        ],
        "tree": [
            ["tree", "--x-min", "0", "--x-max", "8", "--samples", "41",
             "--out", out("tree.csv")],
            ["tree", "--x-min", "0", "--x-max", "6", "--samples", "31",
             "--format", "json", "--out", out("tree.json")],
        ],
        "enum": [
            ["count", "--x", "60"],
            ["tree", "--x-min", "11", "--x-max", "12", "--samples", "2",
             "--out", out("slice.csv")],
        ],
        "sweep": workloads.sweep(outdir, seed=3, x="4.5"),
    }[name]


def call(argv):
    """Run one invocation in this process; returns (rc, stdout, stderr)."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def measure(name, tmp_path, trace):
    outdir = tmp_path / "out"
    outdir.mkdir(exist_ok=True)
    invocations = tiny(name, str(outdir))
    return run.measure(invocations, 0, trace, str(tmp_path), checks.Checker())


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_metric_is_emitted_and_checks_pass(name, tmp_path):
    bench = run.spec()
    passes, tally, maxrss_kb, spans = measure(name, tmp_path, trace=False)
    assert tally.correct, tally.bad
    e2e = run.end_to_end(passes, maxrss_kb, setup_s=0.1)
    assert {m["name"] for m in bench["end_to_end"]} <= set(e2e)
    assert all(v > 0 for v in e2e.values())

    passes, tally, _, spans = measure(name, tmp_path, trace=True)
    assert tally.correct, tally.bad
    assert [p["traced"] for p in passes] == [False, True, True, False]
    layers = run.per_layer(passes, spans, tally.oracle_err)
    assert {m["name"] for m in bench["per_layer"]} <= set(layers)
    assert layers["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.1)


def test_benchmark_json_lists_the_workloads_and_their_reasons():
    bench = run.spec()
    assert [w["name"] for w in bench["workloads"]] == ["beat", "tree", "enum"]
    assert all(workloads.WHY[w["name"]] == w["why"] for w in bench["workloads"])


def tracing_times(layer):
    """Keys of layer_metrics that are times, which differ between passes."""
    return [k for k in layer if k.endswith("_s")]


def _counts_by_pass(passes, spans):
    import tracing
    return [(p["counts"], tracing.layer_metrics(spans, i) if p["traced"] else None)
            for i, p in enumerate(passes)]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_and_untraced_passes_do_the_same_work(name, tmp_path):
    passes, tally, _, spans = measure(name, tmp_path, trace=True)
    (untraced, _), (traced, layer), (traced2, layer2), (untraced2, _) = \
        _counts_by_pass(passes, spans)
    assert untraced == traced == traced2 == untraced2
    assert layer2 == {**layer, **{k: layer2[k] for k in tracing_times(layer)}}
    assert layer["parts"] == layer["sets"] == traced["branches"]
    assert layer["rk4_steps"] == traced["rk4_steps"]
    if name == "sweep":  # beat's evolve continues a state but writes no path
        assert layer["newton_iters"] == traced["newton_iters"]
    if name == "tree":
        assert layer["tree_samples"] == traced["rows_out"]
    # a second run repeats every exact count
    again, _, _, spans_again = measure(name, tmp_path, trace=True)
    (_, _), (traced_again, layer_again), _, _ = _counts_by_pass(again, spans_again)
    assert traced_again == traced
    exact = ("parts", "sets", "tree_samples", "calls", "newton_iters", "steps",
             "failed", "rk4_steps", "trace_bytes")
    assert {k: layer_again[k] for k in exact} == {k: layer[k] for k in exact}


def _check(checker, argv, rc, out="", err=""):
    return checker.check(argv, rc, out, err)


def test_perturbed_tree_row_fails_and_raises_fail_frac(tmp_path):
    argv = ["tree", "--x-min", "0", "--x-max", "7", "--samples", "15",
            "--out", str(tmp_path / "t.csv")]
    assert call(argv)[0] == 0
    tally = run.Tally()
    tally.add(_check(checks.Checker(), argv, 0))
    assert (tally.correct, tally.failed) == (True, 0)

    lines = (tmp_path / "t.csv").read_text().splitlines()
    fields = lines[20].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-12))
    lines[20] = ",".join(fields)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    tally.add(_check(checks.Checker(), argv, 0))
    assert (tally.correct, tally.failed) == (False, 1)
    assert tally.failed / tally.attempted == 0.5


def test_dropped_tree_row_fails(tmp_path):
    argv = ["tree", "--x-min", "0", "--x-max", "7", "--samples", "15",
            "--format", "json", "--out", str(tmp_path / "t.json")]
    assert call(argv)[0] == 0
    assert _check(checks.Checker(), argv, 0).kind == "ok"
    payload = json.loads((tmp_path / "t.json").read_text())
    del payload["branches"][3]["samples"][-1]
    (tmp_path / "t.json").write_text(json.dumps(payload))
    assert _check(checks.Checker(), argv, 0).kind == "bad"


def test_wrong_peak_or_density_fails(tmp_path):
    argv = tiny("beat", str(tmp_path))[0]
    assert call(argv)[0] == 0
    good = _check(checks.Checker(), argv, 0)
    assert good.kind == "ok", good.reason
    assert good.oracle_err < checks.DENSITY_TOL

    companion = tmp_path / "beat.json"
    original = companion.read_text()
    payload = json.loads(original)
    bin_width = 2 * math.pi / float(T_END)
    payload["peaks"] = [[f + 3 * bin_width if abs(f - 1.25) < 0.1 else f, p]
                        for f, p in payload["peaks"]]
    companion.write_text(json.dumps(payload))
    assert _check(checks.Checker(), argv, 0).kind == "bad"

    companion.write_text(original)
    data = tmp_path / "beat.csv"
    lines = data.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.split(",")[1:2] == ["0"]
               and float(line.split(",")[0]) > 1.0)
    t, site, abs2 = lines[row].split(",")
    lines[row] = f"{t},{site},{float(abs2) + 1e-5!r}"
    data.write_text("\n".join(lines) + "\n")
    assert _check(checks.Checker(), argv, 0).kind == "bad"


def test_continue_residual_and_known_defects(tmp_path):
    out = str(tmp_path / "c.json")
    argv = ["continue", "--set=0,1", "--x", "4.5", "--beta", "0.02",
            "--steps", "10", "--signs=+-", "--out", out]
    assert call(argv)[0] == 0
    assert _check(checks.Checker(), argv, 0).kind == "ok"
    payload = json.loads(Path(out).read_text())
    payload["coefficients"]["1"] += 1e-8
    Path(out).write_text(json.dumps(payload))
    assert _check(checks.Checker(), argv, 0).kind == "bad"

    # the all-minus two-site pattern cannot get through argparse
    minus = argv[:-3] + ["--signs=--", "--out", str(tmp_path / "m.json")]
    rc, out_text, err = call(minus)
    assert rc == 2 and "expected 2 signs, got 0" in err
    assert _check(checks.Checker(), minus, rc, out_text, err).kind == checks.DEFECT_SIGNS
    # any other failure is not excused
    assert _check(checks.Checker(), argv[:-2], 2, "", "boom").kind == "bad"


def test_count_against_euler_odd_parts():
    argv = ["count", "--x", "60"]
    rc, out, err = call(argv)
    assert _check(checks.Checker(), argv, rc, out, err).kind == "ok"
    wrong = out.replace("F = ", "F = 1", 1)
    assert _check(checks.Checker(), argv, rc, wrong, err).kind == "bad"


def test_sweep_sets_match_the_package_enumeration():
    sets = workloads.canonical_sets(float(workloads.SWEEP_X))
    assert len(sets) == 371
    assert sets == [s.sites for s in enumerate_solution_sets(20.37)]
    first = workloads.sweep("/o", seed=5)
    assert first == workloads.sweep("/o", seed=5)
    assert first != workloads.sweep("/o", seed=6)
    assert all(a.startswith(("--set=", "--signs=")) or not a.startswith("-")
               or a in ("--x", "--beta", "--steps", "--out")
               for argv in first for a in argv[1:])


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(99)]) == (98.0, 100.0, 0)
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1000)]) == (989.0, 99.0, 10)


def test_missing_sources_exit_2_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tree", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
