import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import starktree
from starktree import (DynamicsTrace, LatticeParams, SolutionSet,
                       anticontinuum, beat_periods, bifurcation_tree,
                       birth_threshold, cli, continuation, continue_in_beta,
                       q_distinct)
from starktree.cli import fmt, load_state_vector, main


def run(argv):
    return main(argv)


def run_process(argv, cwd):
    """Run the CLI as a process in `cwd`, with every warning an error, so a
    warning or an exception escaping main shows on stderr."""
    src = str(Path(starktree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "starktree.cli", *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path})


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# count


def test_count_worked_example(capsys):
    assert run(["count", "--x", "3.1"]) == 0
    out = capsys.readouterr().out
    assert "F = 4, branches = 5" in out
    assert "asymptotic" in out


def test_count_below_first_bifurcation(capsys):
    assert run(["count", "--x", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "F = 0, branches = 1" in out
    assert "asymptotic" not in out  # only printed for x >= 1


def test_count_ten(capsys):
    assert run(["count", "--x", "10"]) == 0
    assert "F = 32, branches = 33" in capsys.readouterr().out


def test_count_invalid_input(capsys):
    assert run(["count", "--x", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tree


def test_tree_csv_dataset(tmp_path):
    out = tmp_path / "tree.csv"
    assert run(["tree", "--x-min", "0", "--x-max", "10", "--samples", "1001",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert set(rows[0]) == {"x", "branch_id", "set", "mu_over_f", "n_modes",
                            "birth_x"}
    ids = {row["branch_id"] for row in rows}
    assert len(ids) == 33
    births = {row["branch_id"]: float(row["birth_x"]) for row in rows}
    assert all(b == int(b) for b in births.values())
    jump_counts = Counter(int(b) for b in births.values())
    for n in range(1, 10):
        assert jump_counts[n] == q_distinct(n)
    # every row satisfies the branch energy identity exactly
    for row in rows:
        sites = [int(tok) for tok in row["set"].split("+")]
        n = int(row["n_modes"])
        assert float(row["mu_over_f"]) == float(row["x"]) / n + sum(sites) / n
        assert float(row["x"]) > float(row["birth_x"])


def test_tree_triplet_born_above_three(tmp_path):
    out = tmp_path / "tree.csv"
    assert run(["tree", "--x-min", "0", "--x-max", "5", "--samples", "501",
                "--out", str(out)]) == 0
    xs = [float(row["x"]) for row in read_csv(out) if row["set"] == "0+1+2"]
    assert min(xs) > 3.0
    assert min(xs) <= 3.02


def test_tree_json_format(tmp_path):
    out = tmp_path / "tree.json"
    assert run(["tree", "--x-min", "0", "--x-max", "4", "--samples", "41",
                "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {b["set"][0] for b in payload["branches"]} == {0}
    singleton = next(b for b in payload["branches"] if b["set"] == [0])
    assert singleton["birth_x"] == 0


def test_tree_17_digit_round_trip(tmp_path):
    out = tmp_path / "tree.csv"
    assert run(["tree", "--x-min", "0.1", "--x-max", "7.3", "--samples", "97",
                "--out", str(out)]) == 0
    for row in read_csv(out)[:500]:
        for key in ("x", "mu_over_f", "birth_x"):
            assert fmt(float(row[key])) == row[key]


def test_tree_unwritable_path_is_io_error(capsys):
    assert run(["tree", "--x-min", "0", "--x-max", "2",
                "--out", "/nonexistent-dir/tree.csv"]) == 3
    # the message names the --out path, not the temporary file next to it
    err = capsys.readouterr().err
    assert "'/nonexistent-dir/tree.csv'" in err
    assert ".tmp-" not in err


def test_tree_invalid_range(capsys):
    assert run(["tree", "--x-min", "5", "--x-max", "1"]) == 2


def test_tree_over_the_sample_cap_exits_2(monkeypatch, capsys):
    def enumeration_must_not_run(*args, **kwargs):
        raise AssertionError("an over-cap tree reached the set enumeration")

    monkeypatch.setattr(anticontinuum, "enumerate_solution_sets",
                        enumeration_must_not_run)
    # about 97.7M samples over 749,293 sets
    assert run(["tree", "--x-min", "0", "--x-max", "80"]) == 2
    assert "cap" in capsys.readouterr().err


def test_tree_over_the_enumeration_cap_exits_2(monkeypatch, capsys):
    def partitions_must_not_run(*args, **kwargs):
        raise AssertionError("an over-cap tree reached the partitions")

    monkeypatch.setattr(anticontinuum, "enumerate_distinct_partitions",
                        partitions_must_not_run)
    # 22,884,026 samples pass the sample cap, but over F(110) + 1 =
    # 11,442,013 sets
    assert run(["tree", "--x-min", "109.5", "--x-max", "110",
                "--samples", "2"]) == 2
    assert "enumeration cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["tree", "--x-min", "0", "--x-max", "10", "--samples", "10000000000"],
     "samples must be <="),
    (["tree", "--x-min", "0", "--x-max", "1e12"], "cap"),
])
def test_tree_over_the_cap_is_refused_before_the_grid(monkeypatch, capsys,
                                                      argv, message):
    def grid_must_not_be_built(*args, **kwargs):
        raise AssertionError("an over-cap tree reached the grid allocation")

    monkeypatch.setattr(np, "linspace", grid_must_not_be_built)
    monkeypatch.setattr(np, "arange", grid_must_not_be_built)
    assert run(argv) == 2
    assert message in capsys.readouterr().err


# The streamed writers against the text the standard library makes from
# each set's samples, computed from the grid alone: csv.writer rows and
# json.dumps(indent=2).


def set_samples(tree):
    """(set, birth, xs, mu/f) per set of the tree, in set order, from
    `x_grid` alone: the grid points above the set's birth threshold, and
    xs / N + sum(S) / N there, as the tree computes its rows."""
    for sset in tree.sets:
        birth = birth_threshold(sset)
        xs = tree.x_grid[tree.x_grid > birth]
        n = len(sset.sites)
        yield sset, birth, xs, xs / n + sum(sset.sites) / n


def tree_csv_oracle(tree):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "branch_id", "set", "mu_over_f", "n_modes", "birth_x"])
    samples = list(set_samples(tree))
    for k, x in enumerate(tree.x_grid):
        for i, (sset, birth, xs, mus) in enumerate(samples):
            first = tree.x_grid.size - xs.size
            if k >= first:
                writer.writerow([fmt(x), i, "+".join(map(str, sset.sites)),
                                 fmt(mus[k - first]), len(sset.sites),
                                 fmt(birth)])
    return buffer.getvalue()


def tree_json_oracle(tree):
    payload = {
        "x_grid": [float(x) for x in tree.x_grid],
        "branches": [
            {"id": i, "set": list(sset.sites), "n_modes": len(sset.sites),
             "birth_x": birth,
             "samples": [[float(x), float(m)] for x, m in zip(xs, mus)]}
            for i, (sset, birth, xs, mus) in enumerate(set_samples(tree))
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


TREES = {
    "from_zero": ("0", "12", "101"),
    "from_above_zero": ("0.3", "7.3", "97"),
    "below_the_first_bifurcation": ("0", "0.5", "2"),
    "live_at_the_first_point": ("2.5", "9", "7"),
    "many_branch_slice": ("20", "21", "3"),
    # (N, sum S) = (3, 6) is first seen at threshold 6, past the first grid
    # point, and seen again at 9, whose samples start later still
    "curve_reused_inside_the_range": ("5.5", "10", "9"),
}


@pytest.mark.parametrize("fmt_name, oracle", [("csv", tree_csv_oracle),
                                              ("json", tree_json_oracle)])
@pytest.mark.parametrize("name", sorted(TREES))
def test_streamed_tree_matches_the_library_writers(tmp_path, capsys, name,
                                                   fmt_name, oracle):
    x_min, x_max, samples = TREES[name]
    expected = oracle(bifurcation_tree(float(x_min), float(x_max),
                                       samples=int(samples)))
    argv = ["tree", "--x-min", x_min, "--x-max", x_max, "--samples", samples,
            "--format", fmt_name]
    out = tmp_path / "tree"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("x_min, x_max, samples",
                         [*TREES.values(), ("51", "52", "2")],
                         ids=[*TREES, "enum_slice"])
def test_branch_samples_are_the_csv_rows_and_rows_the_block_rows(
        x_min, x_max, samples):
    tree = bifurcation_tree(float(x_min), float(x_max), samples=int(samples))
    # the tree_samples count of perfbench/tracing.py against the data rows
    # the CSV writer makes, one per branch sample
    written = "".join(cli._tree_csv(tree)).count("\n") - 1
    assert sum(b.xs.size for b in tree.branches) == written
    # tree.rows lists the rows of the blocks, in order, as views of them
    rows = iter(tree.rows)
    for block in tree.blocks:
        for block_row in block:
            row = next(rows)
            assert np.shares_memory(row, block_row)
            assert np.array_equal(row, block_row)
    assert next(rows, None) is None


def test_a_curve_first_seen_inside_the_range_is_reused_later():
    x_min, x_max, samples = TREES["curve_reused_inside_the_range"]
    tree = bifurcation_tree(float(x_min), float(x_max), samples=int(samples))
    pair = [b for b in tree.branches if b.set.sites in ((0, 2, 4), (0, 1, 5))]
    assert [b.birth for b in pair] == [6, 9]
    assert tree.x_grid.size > pair[0].xs.size > pair[1].xs.size
    # the later branch reads a suffix of the earlier one's row
    assert np.shares_memory(pair[0].mu_over_f, pair[1].mu_over_f)


def test_tree_slice_memory_held_and_streamed():
    # the enum workload's 35,680-branch slice on 1,033 curves.  Measured on
    # Python 3.11 and numpy 2.4, the tree holds 2.10 MB, its sets as int64
    # site arrays, grid and curve arrays, and streaming its CSV peaks
    # 4.56 MB above that.  With one `SolutionSet` tuple per set it held
    # 4.06 MB, and 4.72 MB with a dataclass around each tuple besides; with
    # a `Branch` per branch built eagerly 6.8-8.5 MB, and 10.6-11.5 MB with
    # one mu view per branch besides; a fresh int per tree-wide row id in
    # the CSV getters peaks 5.28 MB above the tree: each breaks a bound.
    bifurcation_tree(51.0, 52.0, samples=2)  # first-call allocations
    tracemalloc.start()
    try:
        tree = bifurcation_tree(51.0, 52.0, samples=2)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in cli._tree_csv(tree):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.sets) == 35680
    assert held < 3_000_000
    assert peak - held < 5_000_000


def test_tree_cli_builds_no_branch_and_the_library_builds_them_once(
        monkeypatch, capsys):
    # the writers read the sets and the curve arrays; a Branch is built
    # only when a library caller reads `branches`, and only once
    def branch_must_not_be_built(*args, **kwargs):
        raise AssertionError("the tree CLI built a Branch")

    trees = []

    def kept_tree(*args, **kwargs):
        trees.append(bifurcation_tree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(anticontinuum, "Branch", branch_must_not_be_built)
    monkeypatch.setattr(cli, "bifurcation_tree", kept_tree)
    for fmt_name in ("csv", "json"):
        assert run(["tree", "--x-min", "0", "--x-max", "12", "--samples",
                    "101", "--format", fmt_name]) == 0
    capsys.readouterr()
    assert "branches" not in vars(trees[0])
    monkeypatch.undo()
    branches = trees[0].branches
    assert [b.set for b in branches] == list(trees[0].sets)
    assert trees[0].branches is branches


@pytest.mark.parametrize("x_min, x_max, samples",
                         [("0", "12", "101"), ("51", "52", "2")])
def test_tree_cli_makes_no_solution_set(monkeypatch, tmp_path, x_min, x_max,
                                        samples):
    # the writers read the sites from the tree's int arrays; a `SolutionSet`
    # is made only when a library caller reads one from `tree.sets` or
    # `tree.branches`
    def solution_set_must_not_be_made(*args, **kwargs):
        raise AssertionError("the tree CLI made a SolutionSet")

    trees = []

    def kept_tree(*args, **kwargs):
        trees.append(bifurcation_tree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(SolutionSet, "__new__", solution_set_must_not_be_made)
    monkeypatch.setattr(SolutionSet, "_trusted", solution_set_must_not_be_made)
    monkeypatch.setattr(cli, "bifurcation_tree", kept_tree)
    for fmt_name in ("csv", "json"):
        assert run(["tree", "--x-min", x_min, "--x-max", x_max, "--samples",
                    samples, "--format", fmt_name,
                    "--out", str(tmp_path / f"tree.{fmt_name}")]) == 0
    monkeypatch.undo()
    tree = trees[0]
    validated = [SolutionSet(sites) for arrays in tree.sets.site_arrays
                 for array in arrays for sites in array.tolist()]
    assert len(validated) == len(tree.sets)
    assert list(tree.sets) == validated
    assert [b.set for b in tree.branches] == validated


def test_tree_is_written_in_chunks():
    tree = bifurcation_tree(0.0, 12.0, samples=101)
    chunks = list(cli._tree_csv(tree))
    # the header, then one chunk per grid point and live birth threshold
    births = sorted({b.birth for b in tree.branches})
    live = sum(int(np.sum(tree.x_grid > n)) for n in births)
    assert len(chunks) == 1 + live
    assert len(list(cli._tree_json(tree))) == 2 + len(tree.branches)


def test_write_failure_keeps_the_earlier_file(tmp_path, monkeypatch):
    out = tmp_path / "tree.csv"
    out.write_text("earlier\n", encoding="utf-8")
    real = cli._tree_csv

    def fails_after_two_chunks(tree):
        chunks = real(tree)
        yield next(chunks)
        yield next(chunks)
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "_tree_csv", fails_after_two_chunks)
    assert run(["tree", "--x-min", "0", "--x-max", "6", "--out", str(out)]) == 3
    assert out.read_text(encoding="utf-8") == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tree.csv"]


def test_out_file_gets_the_mode_open_gives(tmp_path):
    # the temporary file behind every --out is made 0600; the renamed file
    # must have the mode 0666 less the umask, as open() would give it
    out = tmp_path / "state.json"
    umask = os.umask(0o022)
    try:
        assert run(["state", "--set", "0", "--x", "1.5", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_out_through_a_symlink_writes_its_target(tmp_path):
    real = tmp_path / "data" / "real.json"
    real.parent.mkdir()
    real.write_text("earlier\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run(["state", "--set", "0,1", "--x", "1.5",
                "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == real
    assert json.loads(real.read_text())["set"] == [0, 1]
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "data", "link.json", "real.json"]


@pytest.mark.parametrize("make, kind", [(os.mkfifo, stat.S_ISFIFO),
                                        (os.mkdir, stat.S_ISDIR)])
def test_out_refuses_a_target_that_is_not_a_regular_file(tmp_path, capsys,
                                                         make, kind):
    out = tmp_path / "out.json"
    make(out)
    assert run(["state", "--set", "0,1", "--x", "1.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: not a regular file: {str(out)!r}\n"
    assert kind(os.lstat(out).st_mode)
    assert [p.name for p in tmp_path.rglob("*")] == ["out.json"]


def test_evolve_refuses_its_companion_path_before_any_work(
        tmp_path, capsys, monkeypatch):
    # the companion JSON of run.csv is run.json, here a directory: refused
    # before the integration, so no CSV is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").mkdir()

    def integrates(*args):
        raise AssertionError("integrated before the companion was checked")

    monkeypatch.setattr(cli, "_evolve_trace", integrates)
    assert run(["evolve", "--x", "1.5", "--t-end", "7",
                "--out", "run.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: not a regular file: 'run.json'\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("argv", [
    ["state", "--set", "0,1", "--x", "1.5"],
    ["tree", "--x-min", "0", "--x-max", "3", "--samples", "4"],
    ["evolve", "--x", "1.5", "--t-end", "7"],
])
def test_empty_out_is_refused_not_read_as_stdout(tmp_path, capsys,
                                                 monkeypatch, argv):
    # an unset $OUT in `--out "$OUT"` must fail, not print the data
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", ""]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: not a regular file: ''\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, out, spied", [
    (["state", "--set", "0,1", "--x", "1.5", "--beta", "0.02"], "run.json",
     "continue_in_beta"),
    (["continue", "--set", "0,1", "--x", "1.5", "--beta", "0.02"], "run.json",
     "continue_in_beta"),
    (["tree", "--x-min", "0", "--x-max", "3", "--samples", "4"], "run.json",
     "bifurcation_tree"),
    # resonant: the refusal of --out comes first, not a failed record's write
    (["state", "--set", "0", "--x", "1.0", "--beta", "0.01"], "",
     "continue_in_beta"),
    (["continue", "--set", "0", "--x", "1.0", "--beta", "0.01"], "",
     "continue_in_beta"),
], ids=["state", "continue", "tree", "state_resonant", "continue_resonant"])
def test_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                        out, spied):
    # a directory, or the empty path, as --out
    monkeypatch.chdir(tmp_path)
    if out:
        (tmp_path / out).mkdir()
    calls = []
    monkeypatch.setattr(cli, spied, lambda *args, **kwargs: calls.append(args))
    assert run([*argv, "--out", out]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.err == f"error: not a regular file: {out!r}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ([out] if out else [])


@pytest.mark.parametrize("n_times, stride",
                         [(7, 1), (7, 3), (9, 4), (2, 5), (16, 1), (16, 7)])
def test_streamed_evolve_csv_matches_csv_writer(n_times, stride):
    # a row is one %-format of a per-window template; it must write what
    # formatting each value on its own writes.  Every 7th row holds 0, 1,
    # the subnormal 5e-324 and 0.1 + 0.2, and has abs2 exactly 0, 1 and
    # 5e-324 too; each stride above 1 leaves a part-stride after the last row
    rng = np.random.default_rng(n_times + stride)
    sites = np.arange(-2, 3)
    states = (rng.normal(size=(n_times, sites.size))
              + 1j * rng.normal(size=(n_times, sites.size)))
    states[::7] = [0.0, 5e-324, 1.0, 0.1 + 0.2, math.sqrt(5e-324)]
    assert {0.0, 5e-324, 1.0} <= set((np.abs(states[0]) ** 2).tolist())
    trace = DynamicsTrace(dt=0.1, states=states, window=(-2, 2),
                          norm_drift=0.0, energy_drift=0.0)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t_prime", "site", "abs2"])
    abs2 = np.abs(states) ** 2
    for k in range(0, n_times, stride):
        for col, site in enumerate(sites):
            writer.writerow([fmt(k * 0.1), int(site), fmt(abs2[k, col])])
    assert "".join(cli._evolve_csv(trace, stride)) == buffer.getvalue()


# ---------------------------------------------------------------------------
# state


def test_state_singleton(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", "--set", "0", "--x", "1.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mu"] == 1.5
    coeffs = payload["coefficients"]
    assert coeffs["0"] == 1.0
    assert all(v == 0.0 for site, v in coeffs.items() if site != "0")
    assert payload["certificate"] > 0
    assert payload["residual_norm"] < 1e-12


def test_state_pair_reference_values(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "1.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["coefficients"]["0"] == pytest.approx(math.sqrt(5 / 6),
                                                         rel=1e-15)
    assert payload["coefficients"]["1"] == pytest.approx(math.sqrt(1 / 6),
                                                         rel=1e-15)


def test_state_translated_pair(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", "--set=-1,0", "--x", "1.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["coefficients"]["-1"] == pytest.approx(math.sqrt(5 / 6),
                                                          rel=1e-15)
    assert payload["coefficients"]["0"] == pytest.approx(math.sqrt(1 / 6),
                                                         rel=1e-15)
    assert payload["mu"] == pytest.approx(0.25, rel=1e-15)


def test_state_inadmissible_exit_code(capsys):
    assert run(["state", "--set", "0,2", "--x", "1.5"]) == 2
    assert "2" in capsys.readouterr().err


def test_state_with_hopping(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "1.5", "--beta", "0.02",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["residual_norm"] < 1e-12
    assert abs(payload["coefficients"]["2"]) > 0  # hopping tail appeared


def test_state_resonant_exit_code(capsys):
    assert run(["state", "--set", "0", "--x", "1.0", "--beta", "0.01"]) == 4


# nu/f = 1 + 2^-52 on {0, 1}: T_1 = 2(1 - f/mu) rounds to 0.0 on an occupied
# site, so the zero-hopping certificate is zero
ZERO_CERTIFICATE = ["--set", "0,1", "--x", "1.0000000000000002"]


@pytest.mark.parametrize("command", [["continue"], ["evolve", "--t-end", "1"]])
def test_zero_certificate_exits_4(capsys, command):
    assert run([*command, *ZERO_CERTIFICATE, "--beta", "0.001"]) == 4
    err = capsys.readouterr().err
    # evolve writes its failed record to stderr ahead of the one error line
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "Traceback" not in err


def test_state_of_a_zero_certificate_writes_null(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", *ZERO_CERTIFICATE, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"] is None


# energies mu <= 0, where the certificate's rescaling by mu is undefined,
# and energies so small that the rescaled T_l overflow
@pytest.mark.parametrize("given, mu, refusal", [
    (["--set=-5", "--x", "1"], -4.0,
     "base energy mu must be positive, got -4.0"),
    (["--set=-3,-2", "--x", "4"], -0.5,
     "base energy mu must be positive, got -0.5"),
    (["--set=0", "--x", "1e-320"], 1e-320,
     "zero-hopping certificate at mu/f = 1e-320 is beyond double precision"),
    (["--set=0", "--x", "1.5e-308"], 1.5e-308,
     "zero-hopping certificate at mu/f = 1.5e-308 is beyond double precision"),
])
def test_state_of_a_non_positive_energy_writes_null(tmp_path, capsys, given,
                                                    mu, refusal):
    out = tmp_path / "state.json"
    assert run(["state", *given, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mu"] == mu
    assert payload["certificate"] is None
    assert payload["residual_norm"] < 1e-12
    # continuation needs the certificate, so it still refuses the set
    assert run(["continue", *given]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


def test_state_sign_pattern_and_seeded_random(tmp_path):
    out = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "1.5", "--signs", "+-",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["coefficients"]["1"] < 0
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert run(["state", "--set", "0,1,2", "--x", "4.0", "--signs",
                    "random", "--seed", "11", "--out", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("signs", ["+x", "1,x"])
def test_unparsable_signs_name_what_signs_takes(capsys, signs):
    assert run(["state", "--set", "0,1", "--x", "1.5", f"--signs={signs}"]) == 2
    assert ("argument --signs: must be 'random', a '+'/'-' string or "
            f"comma-separated +-1 values, got {signs!r}"
            in capsys.readouterr().err)


def test_random_signs_refuse_a_negative_seed(capsys):
    assert run(["state", "--set", "0,1", "--x", "1.5", "--signs=random",
                "--seed=-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


# one ulp above the threshold 12 of {0, 7, 8, 9}, the top site's squared
# amplitude rounds below zero at f = 0.7
THRESHOLD_EDGE = ["--set=0,7,8,9", "--x", "12.000000000000002", "--f", "0.7"]
TINY_RATIO = ["--set", "0", "--x", "1e-320"]


@pytest.mark.parametrize("argv", [
    ["state", "--set", "10000000,10000001", "--x", "1.5"],
    ["state", "--set", "0,1", "--x", "1e9"],
    ["state", *THRESHOLD_EDGE],
    ["continue", *THRESHOLD_EDGE, "--beta", "0.01"],
    ["evolve", *THRESHOLD_EDGE, "--beta", "0.01", "--t-end", "1"],
    # f/mu overflows in the rescaled T(0) certificate
    ["continue", *TINY_RATIO, "--beta", "0.01"],
    ["evolve", *TINY_RATIO, "--beta", "0.01", "--t-end", "1"],
    ["continue", "--set", "0", "--x", "1.5e-308", "--beta", "0.01"],
])
def test_states_beyond_double_precision_exit_2(capsys, argv):
    # |mu| of 1e7 to 1e9: round-off alone breaks the 1e-12 self-check; at
    # THRESHOLD_EDGE it makes an amplitude NaN
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beyond double precision" in err


def test_signs_are_written_after_continuation(tmp_path):
    # the drawn pattern must be readable back from every payload
    argv = ["--set", "0,1,3", "--x", "7.5", "--signs=random", "--seed", "11"]
    out = tmp_path / "out.json"
    written = []
    for extra in (["state"], ["state", "--beta", "0.01"],
                  ["continue", "--beta", "0.01"]):
        assert run([*extra, *argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload)[:2] == ["set", "signs"]
        written.append(payload["signs"])
    assert written[0] != [1, 1, 1]
    assert written == [written[0]] * 3


# ---------------------------------------------------------------------------
# continue


def test_continue_emits_path(tmp_path):
    out = tmp_path / "cont.json"
    assert run(["continue", "--set", "0,1", "--x", "1.5", "--beta", "0.025",
                "--steps", "10", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "ok"
    assert len(payload["path"]) == 11
    assert payload["path"][0][0] == 0.0
    assert payload["path"][-1][0] == pytest.approx(0.025)
    assert all(res < 1e-12 for _, res, _ in payload["path"])
    assert payload["certificate"] > 0


def test_continue_all_minus_signs_as_numbers(tmp_path):
    # argparse drops the value of --signs=--, but keeps --signs=-1,-1
    out = tmp_path / "cont.json"
    assert run(["continue", "--set=0,1", "--x", "4.5", "--beta", "0.02",
                "--signs=-1,-1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["signs"] == [-1, -1]
    sset = SolutionSet((0, 1))
    params = LatticeParams.for_set(sset, nu=4.5, f=1.0, beta=0.02)
    state = continue_in_beta(sset, params, signs=(-1, -1)).state
    assert payload["mu"] == state.mu
    assert list(payload["coefficients"].values()) == state.coefficients.tolist()


def test_continue_refuses_runaway_step_count(monkeypatch, capsys):
    def newton_must_not_run(*args, **kwargs):
        raise AssertionError("an over-long continuation reached Newton")

    monkeypatch.setattr(continuation, "_newton", newton_must_not_run)
    assert run(["continue", "--set", "0,1", "--x", "1.5", "--beta", "0.01",
                "--steps", "1000000000"]) == 2
    assert "steps must be <=" in capsys.readouterr().err


NEWTON_FAILURE = ["continue", "--set", "0", "--nu", "0.5", "--f", "1.0",
                  "--beta", "1e5", "--steps", "1"]


def test_continue_failure_writes_partial_path(tmp_path, capsys):
    out = tmp_path / "cont.json"
    assert run([*NEWTON_FAILURE, "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["status"] == "failed"
    assert payload["path"][0][0] == 0.0
    assert payload["signs"] == [1]


def test_continue_failure_without_out_writes_the_record_to_stdout(capsys):
    assert run(NEWTON_FAILURE) == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["status"] == "failed"
    assert payload["path"][0][0] == 0.0
    assert captured.err == f"error: {payload['error']}\n"


@pytest.mark.parametrize("given", [
    ["--set", "0", "--x", "1.0", "--beta", "0.01"],
    [*ZERO_CERTIFICATE, "--beta", "0.001"],
], ids=["resonant", "zero_certificate"])
def test_refused_continuation_writes_a_failed_record(tmp_path, capsys, given):
    # refused before any step, so the record's path is empty
    out = tmp_path / "cont.json"
    assert run(["continue", *given, "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert (payload["status"], payload["path"]) == ("failed", [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {payload['error']}\n"


# the inputs of a refused and of a failed continuation, and the number of
# path entries each walks before it stops
FAILED_CONTINUATIONS = pytest.mark.parametrize("given, walked", [
    (["--set", "0", "--x", "1.0", "--beta", "0.01"], 0),
    (NEWTON_FAILURE[1:], 1),
], ids=["resonant", "newton_failure"])


@FAILED_CONTINUATIONS
@pytest.mark.parametrize("command", ["state", "evolve"])
def test_failed_state_and_evolve_write_the_continue_record_to_out(
        tmp_path, capsys, command, given, walked):
    assert run(["continue", *given, "--out", str(tmp_path / "cont.json")]) == 4
    expected = (tmp_path / "cont.json").read_text()
    capsys.readouterr()
    # evolve writes the record to the companion JSON path, and no CSV
    out = tmp_path / ("run.csv" if command == "evolve" else "run.json")
    assert run([command, *given, "--out", str(out)]) == 4
    assert (tmp_path / "run.json").read_text() == expected
    assert not (tmp_path / "run.csv").exists()
    payload = json.loads(expected)
    assert (payload["status"], len(payload["path"])) == ("failed", walked)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {payload['error']}\n"


@FAILED_CONTINUATIONS
@pytest.mark.parametrize("command", ["state", "evolve"])
def test_failed_state_and_evolve_without_out_print_the_continue_record(
        capsys, command, given, walked):
    assert run(["continue", *given]) == 4
    expected = capsys.readouterr().out
    error = f"error: {json.loads(expected)['error']}\n"
    assert run([command, *given]) == 4
    captured = capsys.readouterr()
    # state prints the record on stdout; evolve keeps stdout for the CSV
    # and puts the record on stderr ahead of the one error line
    if command == "state":
        assert (captured.out, captured.err) == (expected, error)
    else:
        assert (captured.out, captured.err) == ("", expected + error)
    assert len(json.loads(expected)["path"]) == walked


@pytest.mark.parametrize("beta, steps", [("0.1", "3"), ("0.02", "29"),
                                         ("0.013", "5")])
def test_continue_record_lands_on_beta_target(tmp_path, beta, steps):
    out = tmp_path / "cont.json"
    assert run(["continue", "--set", "0,1", "--x", "4.5", "--beta", beta,
                "--steps", steps, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["path"][-1][0] == payload["beta_target"] == float(beta)


def test_exit_codes_map_one_error_type_to_each_code():
    assert sorted(cli.EXIT_CODES.values()) == [2, 3, 4, 5]
    # every error of the package is a kind of exactly one of them
    for name in starktree.errors.__all__:
        kind = getattr(starktree.errors, name)
        assert sum(issubclass(kind, key) for key in cli.EXIT_CODES) == 1, name


# ---------------------------------------------------------------------------
# evolve


def test_evolve_superposition_with_peaks(tmp_path):
    out = tmp_path / "evolve.csv"
    t_end = 8 * 2 * math.pi
    assert run(["evolve", "--x", "1.5", "--t-end", str(t_end),
                "--stride", "64", "--out", str(out)]) == 0
    companion = json.loads((tmp_path / "evolve.json").read_text())
    assert companion["predicted_periods"] == pytest.approx(
        [2 * math.pi, 8 * math.pi / 5, 8 * math.pi])
    bin_width = 2 * math.pi / companion["t_end"]
    freqs = [f for f, _ in companion["peaks"]]
    for expected in (1.25, 0.25):
        assert min(abs(f - expected) for f in freqs) <= 2 * bin_width
    assert companion["norm_drift"] < 1e-9
    rows = read_csv(out)
    assert set(rows[0]) == {"t_prime", "site", "abs2"}
    # stride-thinned rows still cover every window site
    sites = {row["site"] for row in rows}
    assert len(sites) == 13


def test_evolve_without_out_writes_the_csv_to_stdout_and_companion_to_stderr(
        tmp_path, capsys):
    argv = ["evolve", "--x", "1.5", "--t-end", "3.2", "--stride", "64"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    out = tmp_path / "evolve.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert captured.out == out.read_bytes().decode("utf-8")
    assert captured.err == (tmp_path / "evolve.json").read_bytes().decode("utf-8")


@pytest.mark.parametrize("j", [10, 100, 10_000_000])
def test_evolve_on_a_distant_well_matches_well_zero(tmp_path, j):
    # two Bloch periods at twice the default dt: integrated at absolute site
    # indices, RK4 lost 3.4e-6 of the norm at j = 10 and 0.78 at j = 100;
    # at j = 1e7 round-off of mu - f l breaks a zero-hopping self-check, so
    # the well states must be the well-0 vectors, not rebuilt at the rung
    argv = ["evolve", "--x", "1.5", "--t-end", str(4 * math.pi),
            "--dt", str(2 * starktree.dynamics.DEFAULT_DT)]
    for well in (0, j):
        assert run(argv + ["--j", str(well),
                           "--out", str(tmp_path / f"well{well}.csv")]) == 0
    near, far = (read_csv(tmp_path / f"well{well}.csv") for well in (0, j))
    assert len(near) == len(far)
    for a, b in zip(near, far):
        assert a["t_prime"] == b["t_prime"]
        assert int(b["site"]) - int(a["site"]) == j
        assert float(b["abs2"]) == pytest.approx(float(a["abs2"]), abs=1e-14)
    home, companion = (json.loads((tmp_path / f"well{well}.json").read_text())
                       for well in (0, j))
    assert companion["norm_drift"] < 1e-10
    # the same vectors stepped in the same frame: the same ledger
    for key in ("norm_drift", "energy_drift"):
        assert companion[key] == home[key]


def test_evolve_stationary_state_is_flat(tmp_path):
    out = tmp_path / "flat.csv"
    assert run(["evolve", "--set", "0,1", "--x", "1.5", "--beta", "0.01",
                "--t-end", str(4 * 2 * math.pi), "--stride", "16",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    per_site = {}
    for row in rows:
        per_site.setdefault(row["site"], []).append(float(row["abs2"]))
    for values in per_site.values():
        assert max(values) - min(values) < 1e-8
    companion = json.loads((tmp_path / "flat.json").read_text())
    assert companion["norm_drift"] < 1e-9


def test_evolve_round_trip_initial_vector(tmp_path):
    state_path = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "1.5", "--beta", "0.02",
                "--out", str(state_path)]) == 0
    vector, params = load_state_vector(str(state_path))
    sset = SolutionSet((0, 1))
    reference = LatticeParams.for_set(sset, nu=1.5, f=1.0, beta=0.02)
    assert params == reference
    payload = json.loads(state_path.read_text())
    rebuilt = np.array([payload["coefficients"][str(s)]
                        for s in range(params.window[0], params.window[1] + 1)])
    assert np.array_equal(vector.real, rebuilt)
    assert np.all(vector.imag == 0.0)


def test_evolve_initial_file_runs(tmp_path):
    state_path = tmp_path / "state.json"
    assert run(["state", "--set", "0", "--x", "2.0", "--out",
                str(state_path)]) == 0
    out = tmp_path / "evolve.csv"
    # an explicit zero --beta agrees with the file and is not refused
    assert run(["evolve", "--initial", str(state_path), "--beta", "0",
                "--t-end", str(2 * 2 * math.pi), "--stride", "32",
                "--out", str(out)]) == 0
    companion = json.loads((tmp_path / "evolve.json").read_text())
    assert companion["site"] == 0
    assert companion["peaks"][0][0] == 0.0  # flat density: DC line only


# (mode, its default spectrum site, a site to give with --site); --t-end 3.2
# at the default dt is 1,043 steps, above the spectrum's 1,024 samples
@pytest.mark.parametrize("mode, default, given", [
    # the largest |c| of the file, not its lowest occupied site
    (["--initial", "{state}"], 2, 0),
    (["--set", "0,1", "--x", "1.5"], 0, 1),  # min(set)
    (["--x", "1.5", "--j", "2"], 2, 3),  # the well j
], ids=["initial", "set", "beating"])
def test_evolve_site_defaults_per_mode_and_is_overridden(tmp_path, mode,
                                                          default, given):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 1.5, "f": 1.0, "beta": 0.0, "window": [-3, 5],
        "coefficients": {"0": 0.6, "2": 0.8},
    }))
    mode = [a.replace("{state}", str(state_path)) for a in mode]
    out = tmp_path / "evolve.csv"
    for extra, site in (([], default), (["--site", str(given)], given)):
        assert run(["evolve", *mode, "--t-end", "3.2", *extra,
                    "--out", str(out)]) == 0
        companion = json.loads((tmp_path / "evolve.json").read_text())
        assert companion["site"] == site


# (mode, its window); a continued --set runs its continuation first, and
# one that fails exits 4 before the site is looked at
@pytest.mark.parametrize("mode, window", [
    (["--initial", "{state}"], (-3, 5)),
    (["--set", "0,1", "--x", "1.5"], (-5, 6)),
    (["--set", "0,1", "--x", "1.5", "--beta", "0.01"], (-5, 6)),
    (["--x", "1.5", "--j", "2"], (-4, 8)),
    (["--x", "1.5", "--beta", "0.01"], (-6, 6)),
    (["--set", "0", "--x", "1.0", "--beta", "0.01"], None),
], ids=["initial", "set", "set_continued", "beating", "beating_hopping",
        "set_resonant"])
def test_evolve_site_outside_window_is_refused_before_integrating(
        tmp_path, capsys, monkeypatch, mode, window):
    def must_not_integrate(*args, **kwargs):
        raise AssertionError("integrated before --site was checked")

    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 1.5, "f": 1.0, "beta": 0.0, "window": [-3, 5],
        "coefficients": {"0": 0.6, "2": 0.8},
    }))
    mode = [a.replace("{state}", str(state_path)) for a in mode]
    monkeypatch.setattr(cli.dynamics, "evolve", must_not_integrate)
    monkeypatch.setattr(cli.dynamics, "beating_trace", must_not_integrate)
    code = run(["evolve", *mode, "--site", "99"])
    err = capsys.readouterr().err
    if window is None:
        assert code == 4
        assert err.splitlines()[-1].startswith("error: mu/f = ")
    else:
        assert code == 2
        assert err == f"error: site 99 outside window {window}\n"


# (mode, whether its companion predicts beats): only the set-less beating
# at zero hopping, where the closed form (2 pi, T1, T2) holds; one
# stationary state gives no beats, and the beating at --beta > 0 peaks away
# from the closed form
@pytest.mark.parametrize("mode, predicts", [
    (["--x", "1.5"], True),
    (["--x", "1.5", "--beta", "0.05"], False),
    (["--set", "0,1", "--x", "1.5"], False),
    (["--initial", "{state}"], False),
], ids=["beating", "beating_with_hopping", "set", "initial"])
def test_evolve_predicts_beats_only_where_the_closed_form_holds(
        tmp_path, mode, predicts):
    state_path = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "1.5",
                "--out", str(state_path)]) == 0
    mode = [a.replace("{state}", str(state_path)) for a in mode]
    out = tmp_path / "evolve.csv"
    assert run(["evolve", *mode, "--t-end", "3.2", "--out", str(out)]) == 0
    companion = json.loads((tmp_path / "evolve.json").read_text())
    assert companion["x"] == 1.5
    if predicts:
        periods = list(beat_periods(1.5))
        assert companion["predicted_periods"] == periods
        assert companion["predicted_frequencies"] == [2 * math.pi / t
                                                      for t in periods]
    else:
        assert companion["predicted_periods"] is None
        assert companion["predicted_frequencies"] is None


@pytest.mark.parametrize("site, value, message", [
    ("9", 0.8, "site 9 outside window (0, 5)"),
    ("-2", 0.8, "site -2 outside window (0, 5)"),
    ("1", math.nan, "finite real number"),  # json writes and reads NaN
    (None, [0.6, 0.8], "keyed by site"),  # a list instead of an object
    # normalized if read as 1, as numpy would store either value
    (None, {"0": True}, "coefficient at site 0"),
    (None, {"0": "1"}, "coefficient at site 0"),
    # keys int() reads as sites another key may name: "00" would overwrite
    # site 0 (read as c_0 = 1, normalized), "1_0" would be site 10
    ("00", 1.0, "not a canonical integer"),
    ("1_0", 0.8, "not a canonical integer"),
    (" 1", 0.8, "not a canonical integer"),
])
def test_evolve_initial_refuses_bad_coefficients(tmp_path, capsys, site,
                                                 value, message):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 2.0, "f": 1.0, "beta": 0.0, "window": [0, 5],
        "coefficients": value if site is None else {"0": 0.6, site: value},
    }))
    assert run(["evolve", "--initial", str(state_path)]) == 2
    assert message in capsys.readouterr().err


GOOD_STATE = {"nu": 2.0, "f": 1.0, "beta": 0.0, "window": [-5, 6],
              "coefficients": {"0": 1.0}}


@pytest.mark.parametrize("payload, message", [
    # a `continue` output writes beta_target, not beta
    ({k: v for k, v in GOOD_STATE.items() if k != "beta"},
     "missing key 'beta'"),
    ([GOOD_STATE], "the payload must be a JSON object, got list"),
    ({**GOOD_STATE, "window": [-5, 6, 7]},
     "window must be [lo, hi], got [-5, 6, 7]"),
    ({**GOOD_STATE, "window": 5}, "window must be [lo, hi], got 5"),
], ids=["no_beta", "list", "three_bounds", "scalar"])
def test_evolve_initial_refuses_a_malformed_payload(tmp_path, capsys, payload,
                                                    message):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(payload))
    assert run(["evolve", "--initial", str(state_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: state file {state_path} is not usable: {message}\n")


@pytest.mark.parametrize("given, named", [
    (["--x", "1.5"], "--x"),
    (["--nu", "0.3"], "--nu"),
    (["--f", "0.2"], "--f"),
    (["--set", "0,1"], "--set"),
    (["--signs=+-"], "--signs"),
    (["--seed", "3"], "--seed"),
    (["--beta", "0.5"], "--beta"),
    (["--x", "1.5", "--beta", "0.5"], "--x, --beta"),
])
def test_evolve_initial_refuses_the_model_options(tmp_path, capsys, given,
                                                  named):
    # the state file fixes nu, f, beta and the vector; evolve would ignore
    # these options, so it refuses them
    state_path = tmp_path / "state.json"
    assert run(["state", "--set", "0", "--x", "2.0", "--out",
                str(state_path)]) == 0
    assert run(["evolve", "--initial", str(state_path), *given]) == 2
    assert capsys.readouterr().err == (
        "error: --initial takes the model from the state file; "
        f"drop {named}\n")


# 1,024 steps: the spectrum's minimum, a few milliseconds per integration
SHORT = ["--t-end", "10.24", "--dt", "0.01"]
STATE = ["state", "--set", "0,1", "--x", "1.5"]
CONTINUE = ["continue", "--set", "0,1", "--x", "1.5", "--beta", "0.01"]
EVOLVE_SET = ["evolve", "--set", "0,1", "--x", "1.5", *SHORT]
EVOLVE_INITIAL = ["evolve", "--initial", "{state}", *SHORT]
BEATING = ["evolve", "--x", "1.5", *SHORT]


# (mode, option, other): the option is read if the output with it differs
# from the output with `other` in its place, and refused, exit 2 naming it,
# where other is None
@pytest.mark.parametrize("base, option, other", [
    (STATE, ["--steps", "3"], None),
    (STATE, ["--seed", "4"], None),
    (STATE, ["--signs=+-"], []),
    (STATE, ["--beta", "0.01"], []),
    ([*STATE, "--beta", "0.01"], ["--steps", "3"], []),
    ([*STATE, "--beta", "0.01"], ["--seed", "4"], None),
    # seed 1 draws (-, +), seed 2 (+, -)
    ([*STATE, "--signs=random"], ["--seed", "1"], ["--seed", "2"]),
    (CONTINUE, ["--steps", "3"], []),
    (CONTINUE, ["--seed", "4"], None),
    ([*CONTINUE, "--signs=random"], ["--seed", "1"], ["--seed", "2"]),
    (EVOLVE_INITIAL, ["--steps", "3"], None),
    (EVOLVE_INITIAL, ["--j", "7"], None),
    (EVOLVE_INITIAL, ["--steps", "3", "--j", "7"], None),
    (EVOLVE_INITIAL, ["--site", "1"], []),
    (EVOLVE_SET, ["--j", "7"], None),
    (EVOLVE_SET, ["--steps", "3"], None),
    (EVOLVE_SET, ["--seed", "4"], None),
    ([*EVOLVE_SET, "--beta", "0.01"], ["--j", "7"], None),
    ([*EVOLVE_SET, "--beta", "0.01"], ["--steps", "3"], []),
    ([*EVOLVE_SET, "--beta", "0.01"], ["--seed", "4"], None),
    # at zero hopping the signs leave every density as it is
    ([*EVOLVE_SET, "--beta", "0.01"], ["--signs=+-"], []),
    (BEATING, ["--steps", "7"], None),
    (BEATING, ["--seed", "4"], None),
    (BEATING, ["--signs=+-+"], None),
    (BEATING, ["--j", "1"], []),
    (BEATING, ["--beta", "0.01"], []),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_every_option_is_read_or_refused(tmp_path, capsys, base, option,
                                         other):
    state_path = tmp_path / "state.json"
    assert run(["state", "--set", "0,1", "--x", "2.0", "--out",
                str(state_path)]) == 0
    base = [a.replace("{state}", str(state_path)) for a in base]

    def output(extra):
        out = tmp_path / "out.csv"
        assert run([*base, *extra, "--out", str(out)]) == 0
        companion = out.with_suffix(".json")
        return out.read_bytes() + (companion.read_bytes()
                                   if base[0] == "evolve" else b"")

    if other is None:
        assert run([*base, *option]) == 2
        named = ", ".join(a.split("=")[0] for a in option
                          if a.startswith("--"))
        assert capsys.readouterr().err.endswith(f"; drop {named}\n")
    else:
        assert output(option) != output(other)


def test_evolve_initial_refuses_a_boolean_tilt(tmp_path, capsys):
    # json reads true as a bool, which is an int subclass
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 2.0, "f": True, "beta": 0.0, "window": [-2, 2],
        "coefficients": {"0": 1.0},
    }))
    assert run(["evolve", "--initial", str(state_path)]) == 2
    assert "f must be a finite real number" in capsys.readouterr().err


def test_evolve_initial_refuses_a_nonlinearity_beyond_double_range(
        tmp_path, capsys):
    # json reads a 400-digit integer exactly; float() of it overflows
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 10 ** 400, "f": 1.0, "beta": 0.0, "window": [-2, 2],
        "coefficients": {"0": 1.0},
    }))
    assert run(["evolve", "--initial", str(state_path)]) == 2
    assert "nu must be a finite real number" in capsys.readouterr().err


def test_evolve_of_an_unresolved_step_exits_5(tmp_path, capsys):
    # the inputs of test_dynamics' breakdown test, as a state file
    params = LatticeParams(nu=1.5, f=0.01, beta=0.5, window=(-6, 6))
    vector = starktree.superposition_state(0, params)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": params.nu, "f": params.f, "beta": params.beta,
        "window": list(params.window),
        "coefficients": {str(site): float(value.real) for site, value
                         in zip(params.window_sites, vector)},
    }))
    assert run(["evolve", "--initial", str(state_path), "--t-end", "40",
                "--dt", "0.5"]) == 5
    assert "reduce dt" in capsys.readouterr().err


@pytest.fixture
def no_large_zeros(monkeypatch):
    """np.zeros fails for anything larger than the window cap."""
    zeros = np.zeros

    def capped_zeros(shape, *args, **kwargs):
        if np.prod(shape) > anticontinuum.MAX_WINDOW_SITES:
            raise AssertionError(f"np.zeros asked for {shape} entries")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", capped_zeros)


def test_window_over_the_cap_exits_2_before_allocating(tmp_path, capsys,
                                                        no_large_zeros):
    # admissible (threshold 1e9), but a window of 1e9 sites
    assert run(["state", "--set", "0,1000000000", "--x", "2e9"]) == 2
    assert "cap" in capsys.readouterr().err
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({
        "nu": 2.0, "f": 1.0, "beta": 0.0, "window": [0, 1000000000],
        "coefficients": {"0": 1.0},
    }))
    assert run(["evolve", "--initial", str(state_path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_window_of_exactly_the_cap_is_admitted(tmp_path, capsys,
                                               no_large_zeros):
    cap = anticontinuum.MAX_WINDOW_SITES
    # the default window pads the support by 5 sites on each side
    last = cap - 2 * anticontinuum.DEFAULT_WINDOW_MARGIN - 1
    out = tmp_path / "state.json"
    assert run(["state", "--set", f"0,{last}", "--x", str(last + 1),
                "--out", str(out)]) == 0
    lo, hi = json.loads(out.read_text())["window"]
    assert hi - lo + 1 == cap
    assert run(["state", "--set", f"0,{last + 1}", "--x", str(last + 2)]) == 2
    assert "cap" in capsys.readouterr().err


def test_evolve_requires_inputs(capsys):
    assert run(["evolve"]) == 2
    assert run(["evolve", "--set", "0,a", "--x", "1.5"]) == 2
    assert run(["evolve", "--x", "1.5", "--stride", "0"]) == 2
    # about 3.3e8 steps: refused before the trace is allocated
    assert run(["evolve", "--x", "1.5", "--t-end", "1e6"]) == 2
    assert "bytes" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["count"], "error: count needs --x\n"),
    (["state"], "error: state needs --set\n"),
    (["continue"], "error: continue needs --set\n"),
    (["state", "--set", "0"], "error: need --x or the pair --nu/--f\n"),
    (["evolve", "--initial", "{not_json}"],
     "error: unreadable state file {not_json}: Expecting value: "
     "line 1 column 1 (char 0)\n"),
    (["evolve", "--x", "1.5", "--t-end", "1", "--dt", "2"],
     "error: dt must not exceed t_end = 1.0, got 2.0\n"),
    (["count", "--x", "5002"],
     "error: ratio 5002.0 exceeds supported counting range (5000)\n"),
    # t_end / dt is infinite, which round() cannot take
    (["evolve", "--x", "1.5", "--t-end", "1e308", "--dt", "1e-10"],
     "error: a trace of inf samples of 13 complex values exceeds 1073741824 "
     "bytes; shorten t_end or raise dt\n"),
    (["evolve", "--x", "1.5", "--dt", "5e-324"],
     "error: a trace of inf samples of 13 complex values exceeds 1073741824 "
     "bytes; shorten t_end or raise dt\n"),
    # the companion JSON takes the --out path with .json in its extension's
    # place, so a .json --out would be overwritten by it
    (["evolve", "--x", "1.5", "--out", "{not_json}"],
     "error: --out {not_json} is also the path of the companion JSON; give "
     "the CSV another extension\n"),
    (["state", "--set", "0,1", "--x", "1.5", "--signs=1,0"],
     "error: signs must be +-1, got (1, 0)\n"),
    (["evolve", "--x", "1.5", "--site", "100", "--t-end", "31.4"],
     "error: site 100 outside window (-6, 6)\n"),
    (["evolve", "--x", "1.5", "--stride", "0"],
     "error: --stride must be >= 1, got 0\n"),
])
def test_bad_input_exits_2_with_its_message(tmp_path, capsys, argv, message):
    not_json = tmp_path / "state.json"
    not_json.write_text("not json", encoding="utf-8")
    argv = [a.replace("{not_json}", str(not_json)) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message.replace("{not_json}", str(not_json))
    assert captured.out == ""


# ---------------------------------------------------------------------------
# nu, f and their ratio


@pytest.mark.parametrize("argv", [
    ["state", "--set", "0,1", "--nu", "1", "--x", "0"],
    ["evolve", "--x", "0"],
    ["evolve", "--nu", "1", "--f", "0"],
    # window bounds beyond int64, from --j and from a state file
    ["evolve", "--x", "1.5", "--j", str(-10 ** 20), "--t-end", "30"],
    ["evolve", "--initial", "wide-0.0.json", "--t-end", "30"],
    ["evolve", "--initial", "wide-0.01.json", "--t-end", "30"],
    # an operator scale nu + 4 beta + f max(|lo|, |hi|) beyond the doubles
    ["state", "--set", "0,1", "--x", "1.5", "--f", "1e308"],
    ["state", "--set", "0,1", "--x", "1.5", "--beta", "1e308"],
    ["evolve", "--x", "1.5", "--f", "1e308"],
    ["evolve", "--x", "1.5", "--nu", "1.7e308"],
    ["continue", "--set", "0,1", "--x", "1.5", "--f", "1e308",
     "--beta", "0.01"],
    ["evolve", "--initial", "huge.json"],
])
def test_zero_ratio_or_tilt_exits_2_without_traceback(tmp_path, argv):
    for beta in (0.0, 0.01):
        lo = 10 ** 20
        (tmp_path / f"wide-{beta}.json").write_text(json.dumps({
            "nu": 1.5, "f": 1.0, "beta": beta, "window": [lo, lo + 12],
            "coefficients": {str(lo + 6): 1.0}}), encoding="utf-8")
    (tmp_path / "huge.json").write_text(json.dumps({
        "nu": 1.5e308, "f": 1e308, "beta": 0.0, "window": [-5, 6],
        "coefficients": {"0": 0.9128709291752769, "1": 0.408248290463863}}),
        encoding="utf-8")
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("model, name", [
    ({"nu": 1e300, "f": 1e-300, "beta": 0.0}, "nu/f"),
    ({"nu": 1.0, "f": 1e-300, "beta": 1e300}, "4 beta/f"),
])
def test_overflowing_ratio_in_a_state_file_exits_2_naming_it(tmp_path, model,
                                                            name):
    # each model's operator scale is finite; its ratio overflows the doubles
    (tmp_path / "ratio.json").write_text(json.dumps({
        **model, "window": [-5, 6], "coefficients": {"0": 1.0}}),
        encoding="utf-8")
    proc = run_process(["evolve", "--initial", "ratio.json"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == ("error: state file ratio.json is not usable: "
                           f"ratio {name} must be a finite real number, "
                           "got inf\n")


def test_diverging_newton_exits_4_without_warnings(tmp_path):
    # the first Newton step at beta = 1e307 overflows on its way to the
    # non-finite residual that ends the continuation
    proc = run_process(["continue", "--set", "0,1", "--x", "1.5", "--beta",
                        "1e307", "--steps", "1"], tmp_path)
    assert proc.returncode == 4
    assert proc.stderr == "error: Newton diverged at beta = 1e+307\n"


@pytest.mark.parametrize("command", [
    ["state", "--set", "0,1"], ["continue", "--set", "0,1"],
    ["evolve", "--set", "0,1"], ["evolve"],
])
def test_x_with_both_nu_and_f_is_refused(capsys, command):
    assert run([*command, "--x", "2", "--nu", "0.3", "--f", "0.2"]) == 2
    assert "not all three" in capsys.readouterr().err


def test_two_of_x_nu_f_fix_the_third(tmp_path):
    out = tmp_path / "state.json"
    for given, nu, f in ((["--x", "2"], 2.0, 1.0),
                         (["--x", "2", "--nu", "0.5"], 0.5, 0.25),
                         (["--x", "2", "--f", "0.5"], 1.0, 0.5),
                         (["--nu", "1", "--f", "0.5"], 1.0, 0.5)):
        assert run(["state", "--set", "0,1", *given, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["nu"], payload["f"]) == (nu, f)


# ---------------------------------------------------------------------------
# determinism


def test_identical_configs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["tree", "--x-min", "0", "--x-max", "6", "--samples",
                    "301", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ea, eb = tmp_path / "ea.csv", tmp_path / "eb.csv"
    for path in (ea, eb):
        assert run(["evolve", "--x", "1.5", "--t-end", str(4 * math.pi),
                    "--stride", "8", "--out", str(path)]) == 0
    assert ea.read_bytes() == eb.read_bytes()
    assert (tmp_path / "ea.json").read_bytes() == (tmp_path / "eb.json").read_bytes()


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(2)
    for value in rng.uniform(-10, 10, size=200):
        assert float(fmt(value)) == value
