"""Output checks of the starktree benchmark.

Each check compares one invocation's output with an independent oracle,
never with a stored copy of that output:

- `evolve` three-state beating: the well density against the closed-form
  |beating_profile(x, "+++", t)|^2, the spectral peaks against the beat
  frequencies (x-1)/2, 1 and (x+1)/2, and the norm drift;
- `evolve` of a continued state: every site density constant in time;
- `tree`: one row per (grid point, branch) above the branch's birth, the
  number of branches born at each n equal to q(n) from `counting_function`,
  and every mu/f equal to (x + sum S)/N; the fixed full-size inputs also
  match the seed's sha256, since CLI output must stay byte for byte;
- `count`: F(x) from Euler's odd-part partition count;
- `continue`: the residual max-norm recomputed from the written
  coefficients with `dnls_residual`.

Known defects of the program are kept in the inputs and counted as failed
invocations, not as wrong output (see `KNOWN_DEFECTS`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from starktree.anticontinuum import LatticeParams, StationaryState
from starktree.continuation import dnls_residual
from starktree.dynamics import beating_profile
from starktree.partitions import counting_function

DENSITY_TOL = 1e-6
FLAT_TOL = 1e-6
NORM_DRIFT_TOL = 1e-6
RESIDUAL_TOL = 1e-10
PEAK_BINS = 2
# The CLI writes x/N + sum(S)/N; the oracle (x + sum S)/N rounds differently.
MU_RTOL = 1e-14

DEFECT_SIGNS = "a"
DEFECT_CONTINUE = "b"
KNOWN_DEFECTS = {
    DEFECT_SIGNS: "`continue --signs=--` exits 2: argparse strips the value '--', "
                  "so the all-minus two-site pattern cannot be passed (the library "
                  "accepts signs='--')",
    DEFECT_CONTINUE: "natural continuation in beta fails to converge for some sets "
                     "and sign patterns at x = 20.37, beta <= 0.02, and exits 4",
}

# sha256 of the seed's output for the fixed full-size inputs (argv without --out).
SEED_DIGESTS = {
    ("tree", "--x-min", "0", "--x-max", "30", "--samples", "1001"):
        "c6cee01562e488e96857dcf64ed968c975c1d76ef28c8a9bf368d37199d53de0",
    ("tree", "--x-min", "0", "--x-max", "24", "--samples", "1001", "--format", "json"):
        "143b6178d30ceea75dd63057d9226733f35e1fe7b16b67688788d7dc28e1d539",
    ("tree", "--x-min", "51", "--x-max", "52", "--samples", "2"):
        "4c942b1b34f717db0446c35b71d80b303733577a242d1c8e446b635031b8f15e",
}


@dataclass
class Verdict:
    """kind is 'ok', 'bad' (wrong output or undocumented failure) or a
    KNOWN_DEFECTS key; counts are derived from the output alone."""

    kind: str
    reason: str = ""
    counts: Counter = field(default_factory=Counter)
    oracle_err: float = 0.0


def options(argv: list[str]) -> dict[str, str]:
    """'--key value' and '--key=value' pairs of one argv (subcommand first)."""
    out = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            value = argv[i + 1]
            i += 2
        out[key] = value
    return out


def output_paths(argv: list[str]) -> list[str]:
    opts = options(argv)
    if "out" not in opts:
        return []
    if argv[0] == "evolve":
        return [opts["out"], os.path.splitext(opts["out"])[0] + ".json"]
    return [opts["out"]]


def _digest_key(argv):
    opts = options(argv)
    opts.pop("out", None)
    key = [argv[0]]
    for name, value in opts.items():
        key += ["--" + name, value]
    return tuple(key)


class Checker:
    """Checks invocations; identical outputs of the same argv are checked once."""

    def __init__(self):
        self._memo: dict = {}
        self._f_exact: dict[int, int] = {}

    def check(self, argv, rc, stdout: str, stderr: str) -> Verdict:
        opts = options(argv)
        paths = [p for p in output_paths(argv) if os.path.exists(p)]
        digests = []
        size = len(stdout.encode())
        for path in paths:
            with open(path, "rb") as handle:
                data = handle.read()
            digests.append(hashlib.sha256(data).hexdigest())
            size += len(data)
        key = (tuple(argv), rc, stdout, tuple(digests))
        if key not in self._memo:
            try:
                verdict = self._check(argv, opts, rc, stdout, stderr, digests)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                verdict = Verdict("bad", f"unreadable output: {exc!r}")
            verdict.counts["bytes_out"] = size
            self._memo[key] = verdict
        return self._memo[key]

    def _check(self, argv, opts, rc, stdout, stderr, digests) -> Verdict:
        command = argv[0]
        if command == "continue":
            if rc == 2 and opts.get("signs") == "--":
                return Verdict(DEFECT_SIGNS, stderr.strip())
            if rc == 4:
                return self._check_continue_failed(opts)
        if rc != 0:
            return Verdict("bad", f"exit {rc}: {stderr.strip()[-300:]}")
        expected = SEED_DIGESTS.get(_digest_key(argv))
        if expected is not None and digests[0] != expected:
            return Verdict("bad", f"{command} output differs from the seed digest")
        if command == "tree":
            if opts.get("format") == "json":
                return self._check_tree_json(opts)
            return self._check_tree_csv(opts)
        if command == "count":
            return self._check_count(opts, stdout)
        if command == "continue":
            return self._check_continue(opts)
        if command == "evolve":
            return self._check_evolve(opts)
        return Verdict("bad", f"no check for {command}")

    # -- tree -------------------------------------------------------------

    def _tree_expectation(self, opts):
        x_min, x_max = float(opts["x-min"]), float(opts["x-max"])
        samples = int(opts.get("samples", "1001"))
        grid = np.unique(np.concatenate([
            np.linspace(x_min, x_max, samples),
            np.arange(math.ceil(x_min), math.floor(x_max) + 1, dtype=float)]))
        top = math.ceil(x_max) - 1
        born = {0: 1}  # the single-site ladder state
        for n in range(1, top + 1):
            born[n] = counting_function(n + 1) - counting_function(n)
        rows = sum(q * int(np.count_nonzero(grid > n)) for n, q in born.items())
        return grid, born, rows

    @staticmethod
    def _set_facts(label_sites):
        sites = tuple(label_sites)
        if sites[0] != 0 or any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError(f"set {sites} is not canonical")
        return sum(sites), len(sites), sum(sites[-1] - s for s in sites)

    def _check_branches(self, grid, born, expected_rows, xs, ids, mus, labels,
                        n_modes, births) -> Verdict:
        """Shared tree checks over flat per-sample arrays."""
        if xs.size != expected_rows:
            return Verdict("bad", f"tree has {xs.size} samples, expected {expected_rows}")
        facts = {}
        for branch_id, sites in labels.items():
            facts[branch_id] = self._set_facts(sites)
        if len(set(map(tuple, labels.values()))) != len(labels):
            return Verdict("bad", "two branches share a set")
        per_birth = Counter(f[2] for f in facts.values())
        if dict(per_birth) != {n: q for n, q in born.items() if q}:
            return Verdict("bad", "branches born per threshold differ from q(n)")
        set_sum = np.array([facts[i][0] for i in ids], dtype=float)
        card = np.array([facts[i][1] for i in ids])
        birth = np.array([facts[i][2] for i in ids])
        if not (np.array_equal(card, n_modes) and np.array_equal(birth, births)):
            return Verdict("bad", "n_modes or birth_x disagrees with the set")
        at = np.searchsorted(grid, xs)
        on_grid = (at < grid.size) & (grid[np.minimum(at, grid.size - 1)] == xs)
        if not (on_grid.all() and (xs > birth).all()):
            return Verdict("bad", "a sample lies off the grid or below its birth")
        if np.unique(ids * grid.size + at).size != xs.size:
            return Verdict("bad", "a (x, branch) sample is repeated")
        oracle = (xs + set_sum) / card
        err = np.abs(mus - oracle)
        if not (err <= MU_RTOL * np.abs(oracle)).all():
            row = int(np.argmax(err / np.abs(oracle)))
            return Verdict("bad", f"mu_over_f wrong at sample {row}: {mus[row]!r} "
                                  f"vs (x + sum S)/N = {oracle[row]!r}")
        return Verdict("ok", counts=Counter(rows_out=int(xs.size),
                                            branches=len(labels)))

    def _check_tree_csv(self, opts) -> Verdict:
        grid, born, expected_rows = self._tree_expectation(opts)
        with open(opts["out"], newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        if header != ["x", "branch_id", "set", "mu_over_f", "n_modes", "birth_x"]:
            return Verdict("bad", f"unexpected tree header {header}")
        if not rows:
            return Verdict("bad", "empty tree")
        cols = list(zip(*rows))
        ids = np.array(cols[1], dtype=int)
        labels = {}
        for branch_id, label in zip(cols[1], cols[2]):
            labels.setdefault(int(branch_id), label)
        for branch_id, label in zip(ids.tolist(), cols[2]):
            if labels[branch_id] != label:
                return Verdict("bad", f"branch {branch_id} changes its set")
        labels = {i: [int(s) for s in label.split("+")] for i, label in labels.items()}
        return self._check_branches(
            grid, born, expected_rows, np.array(cols[0], dtype=float), ids,
            np.array(cols[3], dtype=float), labels, np.array(cols[4], dtype=int),
            np.array(cols[5], dtype=float))

    def _check_tree_json(self, opts) -> Verdict:
        grid, born, expected_rows = self._tree_expectation(opts)
        with open(opts["out"], encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload["x_grid"] != grid.tolist():
            return Verdict("bad", "x_grid differs from the uniform grid plus integers")
        xs, ids, mus, n_modes, births, labels = [], [], [], [], [], {}
        for position, branch in enumerate(payload["branches"]):
            if branch["id"] != position:
                return Verdict("bad", f"branch ids out of order at {position}")
            labels[position] = branch["set"]
            for x, mu in branch["samples"]:
                xs.append(x)
                mus.append(mu)
                ids.append(position)
                n_modes.append(branch["n_modes"])
                births.append(branch["birth_x"])
        return self._check_branches(
            grid, born, expected_rows, np.array(xs, dtype=float),
            np.array(ids, dtype=int), np.array(mus, dtype=float), labels,
            np.array(n_modes, dtype=int), np.array(births, dtype=float))

    # -- count ------------------------------------------------------------

    def _exact_f(self, top: int) -> int:
        """F = sum of q(n), 0 < n <= top, with q(n) counted as partitions of n
        into odd parts (Euler), not by the package's distinct-part table."""
        if top not in self._f_exact:
            ways = [1] + [0] * top
            for part in range(1, top + 1, 2):
                for total in range(part, top + 1):
                    ways[total] += ways[total - part]
            self._f_exact[top] = sum(ways[1:])
        return self._f_exact[top]

    def _check_count(self, opts, stdout) -> Verdict:
        x = float(opts["x"])
        f_exact = self._exact_f(math.ceil(x) - 1) if x > 1 else 0
        lines = [f"F = {f_exact}, branches = {f_exact + 1}"]
        if x >= 1.0:
            n = math.floor(x)
            asym = math.exp(math.pi * math.sqrt(n / 3.0)) / (
                2.0 * math.pi * (n / 3.0) ** 0.25)
            lines.append(f"asymptotic F ~ {asym:.6g} at n = {n}")
        if stdout != "\n".join(lines) + "\n":
            return Verdict("bad", f"count printed {stdout!r}, expected {lines!r}")
        return Verdict("ok")

    # -- continue ---------------------------------------------------------

    def _check_continue(self, opts) -> Verdict:
        with open(opts["out"], encoding="utf-8") as handle:
            payload = json.load(handle)
        requested = sorted(int(s) for s in opts["set"].split(","))
        if payload["status"] != "ok" or payload["set"] != requested:
            return Verdict("bad", f"continue wrote status {payload['status']!r} "
                                  f"for set {payload['set']}")
        if payload["nu"] / payload["f"] != float(opts["x"]):
            return Verdict("bad", "continue used another ratio nu/f")
        lo, hi = payload["window"]
        params = LatticeParams(nu=payload["nu"], f=payload["f"],
                               beta=float(opts["beta"]), window=(lo, hi))
        vector = np.zeros(hi - lo + 1)
        for site, value in payload["coefficients"].items():
            vector[int(site) - lo] = value
        state = StationaryState(params=params, coefficients=vector, mu=payload["mu"])
        residual = float(np.max(np.abs(dnls_residual(state))))
        if not residual <= RESIDUAL_TOL:
            return Verdict("bad", f"continued state residual {residual:.3e} "
                                  f"> {RESIDUAL_TOL}")
        return Verdict("ok", counts=Counter(
            newton_iters=sum(p[2] for p in payload["path"])))

    def _check_continue_failed(self, opts) -> Verdict:
        with open(opts["out"], encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload["status"] != "failed":
            return Verdict("bad", "exit 4 without a failed-status record")
        return Verdict(DEFECT_CONTINUE, payload["error"], counts=Counter(
            newton_iters=sum(p[2] for p in payload["path"])))

    # -- evolve -----------------------------------------------------------

    def _check_evolve(self, opts) -> Verdict:
        csv_path = opts["out"]
        with open(os.path.splitext(csv_path)[0] + ".json", encoding="utf-8") as handle:
            companion = json.load(handle)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if not companion["norm_drift"] <= NORM_DRIFT_TOL:
            return Verdict("bad", f"norm drift {companion['norm_drift']:.3e}")
        n_steps = round(companion["t_end"] / companion["dt"])
        stride = int(opts.get("stride", "1"))
        times, sites, abs2 = data[:, 0], data[:, 1].astype(int), data[:, 2]
        width = np.unique(sites).size
        if data.shape[0] != width * len(range(0, n_steps + 1, stride)):
            return Verdict("bad", f"evolve wrote {data.shape[0]} rows")
        counts = Counter(rows_out=int(data.shape[0]))
        if "set" in opts or "initial" in opts:
            counts["rk4_steps"] = n_steps
            per_site = abs2.reshape(-1, width)
            spread = float(np.max(per_site.max(axis=0) - per_site.min(axis=0)))
            if not spread <= FLAT_TOL:
                return Verdict("bad", f"stationary density varies by {spread:.3e}")
            return Verdict("ok", counts=counts)
        counts["rk4_steps"] = 3 * n_steps
        x = float(opts["x"])
        well = sites == int(opts.get("j", "0"))
        oracle = np.abs(beating_profile(x, "+++", times[well])) ** 2
        err = float(np.max(np.abs(abs2[well] - oracle)))
        if not err <= DENSITY_TOL:
            return Verdict("bad", f"well density off the closed form by {err:.3e}",
                           oracle_err=err)
        bin_width = 2.0 * math.pi / ((n_steps + 1) * companion["dt"])
        found = [p[0] for p in companion["peaks"]]
        for omega in ((x - 1.0) / 2.0, 1.0, (x + 1.0) / 2.0):
            if not any(abs(f - omega) <= PEAK_BINS * bin_width for f in found):
                return Verdict("bad", f"no spectral peak within {PEAK_BINS} bins "
                                      f"of omega = {omega}", oracle_err=err)
        return Verdict("ok", counts=counts, oracle_err=err)
