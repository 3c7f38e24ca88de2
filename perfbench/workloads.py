"""Workloads of the starktree benchmark: argv lists for `starktree.cli.main`.

Each workload is a list of invocations run in order, one after the other,
by a single client (a closed loop).  The workload seed only draws the sign
patterns of `sweep`; the other workloads are fixed inputs, so their
outputs can also be compared byte for byte with the seed digests.

BENCHMARK.json lists beat, tree and enum.  sweep runs the same way by
hand (`--workload sweep`); it is left out of the list because its
run-to-run spread on a shared 2-vCPU host (cmd_p50_s up to 31% between
quartiles over ten seeds) exceeds the largest bound a metric may have.

Arguments that can begin with '-' are passed in '=' form (`--set=0,1`,
`--signs=-+`), as the README documents for `--set`; in the separate form
argparse would read a value such as `-+` as an unknown option.
"""

from __future__ import annotations

import os
import random

# One line each; the text of each listed workload is recorded in BENCHMARK.json.
WHY = {
    "beat": "criterion-7 beating (20 Bloch periods, 3 states) plus one finite-hopping evolve; "
            "almost all of it is the RK4 integrator, the headline number",
    "tree": "bifurcation-tree CSV (18 MB) and JSON (9 MB) where output writing, not the tree, "
            "dominates; one large write per call",
    "enum": "count --x 4000 and a 35,680-branch tree slice; the only workload where partitions "
            "and set enumeration do the work",
    "sweep": "continue each of the 371 canonical sets at x=20.37 with seeded signs; many small "
             "Newton calls and small writes; keeps the known exit-2/exit-4 defects",
}

SWEEP_X = "20.37"
SWEEP_BETA = "0.02"
SWEEP_STEPS = "10"


def canonical_sets(x: float) -> list[tuple[int, ...]]:
    """Every canonical site set (min 0) admissible at nu/f = x.

    Independent of the package: a set is admissible iff the sum of
    {max S - l : l in S} is below x, and that reflected set is 0 plus a
    partition of the sum into distinct positive parts.
    """
    out = []

    def extend(parts: tuple[int, ...], total: int, smallest: int):
        top = parts[-1]
        out.append(tuple(sorted(top - p for p in parts)))
        part = smallest
        while total + part < x:
            extend(parts + (part,), total + part, part + 1)
            part += 1

    extend((0,), 0, 1)
    return sorted(out, key=lambda s: (sum(s[-1] - p for p in s), len(s), s))


def _beat(outdir: str, seed: int) -> list[list[str]]:
    return [
        ["evolve", "--x", "1.5", "--stride", "16",
         "--out", os.path.join(outdir, "beat.csv")],
        ["evolve", "--set=0,1", "--x", "1.5", "--beta", "0.01", "--stride", "16",
         "--out", os.path.join(outdir, "hop.csv")],
    ]


def _tree(outdir: str, seed: int) -> list[list[str]]:
    return [
        ["tree", "--x-min", "0", "--x-max", "30", "--samples", "1001",
         "--out", os.path.join(outdir, "tree.csv")],
        ["tree", "--x-min", "0", "--x-max", "24", "--samples", "1001",
         "--format", "json", "--out", os.path.join(outdir, "tree.json")],
    ]


def _enum(outdir: str, seed: int) -> list[list[str]]:
    return [
        ["count", "--x", "4000"],
        ["tree", "--x-min", "51", "--x-max", "52", "--samples", "2",
         "--out", os.path.join(outdir, "slice.csv")],
    ]


def sweep(outdir: str, seed: int, x: str = SWEEP_X) -> list[list[str]]:
    """`continue` for every canonical set at ratio x, signs drawn from seed."""
    rng = random.Random(seed)
    calls = []
    for i, sites in enumerate(canonical_sets(float(x))):
        signs = "".join(rng.choice("+-") for _ in sites)
        calls.append([
            "continue", "--set=" + ",".join(map(str, sites)), "--x", x,
            "--beta", SWEEP_BETA, "--steps", SWEEP_STEPS, "--signs=" + signs,
            "--out", os.path.join(outdir, f"cont{i:04d}.json"),
        ])
    return calls


# name -> builder(outdir, seed) returning the argv list, outputs under outdir
BUILDERS = {"beat": _beat, "tree": _tree, "enum": _enum, "sweep": sweep}
