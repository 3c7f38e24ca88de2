"""Golden outputs of the CLI: stdout, every --out file and the exit code.

Each case runs `cli.main` in-process and compares sha256 digests with the
digests recorded from the code before the lattice operator, the input
validators and the CLI configuration were consolidated.  The refactor
promised byte-identical output, so any change in a digest is a behaviour
change that must be explained, not a tolerance to widen.  The one such
change so far: state_beta, continue_ok, continue_random and
continue_failed were re-recorded when the resolved sign pattern was
written after continuation too; their JSON differs from the earlier
output only in its "signs" entry.  tree_live_first was recorded from the
code before the tree writer visited only the live branches of each x,
tree_json_live_first from the code before the tree text was streamed, and
tree_shared_curves_csv and tree_shared_curves_json from the code before
the tree writers formatted each distinct energy curve once for all the
branches on it.
The four evolve cases were re-recorded when the RK4 stage became one
fused increment (abs2 moved by at most 5.1e-13), and again when RK4 gave
way to the split-step integrator: against the RK4 output each has the
same rows, t_prime and site columns and spectral peak frequencies.  abs2
moved by at most 1.7e-11 in the two finite-hopping cases and by 4.6e-9 in
the two beating cases, where it is RK4's error that moved: the split step
is exact at beta = 0 and lies 3.5e-10 from the closed-form beating over 20
Bloch periods, against RK4's 1.7e-8.  Both drift ledgers stay below 1e-11.
The finite-hopping cases build their propagator with LAPACK's eigh; they
were recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
(DYNAMIC_ARCH) on x86-64.  evolve_set, evolve_negative_mu and
evolve_initial_site were recorded from the code before the CLI resolved
--set in one place, to pin the evolve paths no other test runs.  All
seven evolve cases were re-recorded when the zero-hopping trace became
closed-form and windows of at most 4b+5 sites took one dense product per
stage: rows, t_prime, sites and peak frequencies are the same, abs2
moved by at most 2.0e-11 in the two beating cases, 4.3e-13 in the other
zero-hopping cases and 3.2e-14 with hopping, and the beating now lies
within 2.5e-14 of its closed form over the five Bloch periods of T_END.
The evolve_nu_f stdout was re-recorded when `evolve` without --out began
to write its companion JSON to stderr: the new stdout is the old stdout
with the trailing companion JSON removed, byte for byte, and that JSON is
exactly what now goes to stderr.
evolve_hopping, evolve_initial, evolve_initial_site and evolve_set were
re-recorded when the split step began to take each phase exponent from
the squared float view of the state and the drift ledger became one
blocked pass over the trace.  Rows, t_prime, sites and peak frequencies
are the same.  abs2 moved by at most 1.2e-14 in the three finite-hopping
cases, and their drifts moved in the last digits (evolve_hopping: norm
2.963e-12 -> 2.972e-12, energy 4.898e-12 -> 4.913e-12).  evolve_set is
at beta = 0: its CSV is byte for byte the same, and only its JSON
energy_drift moved, 6.27e-16 -> 7.84e-16.  evolve_beating,
evolve_negative_mu and evolve_nu_f did not move.
The out.json of evolve_hopping, evolve_initial, evolve_initial_site and
evolve_set were re-recorded when the companion began to predict beat
periods only for the set-less beating at zero hopping, where the closed
form holds: each differs from the earlier JSON only in its
"predicted_periods" and "predicted_frequencies", which were the beta = 0
beating's (2 pi, T1, T2) from x and are now null, since one stationary
state gives no beats.  Every CSV, and the JSON of evolve_beating, did not
move.
state_failed and evolve_set_failed were not recorded: their failed record
must be byte for byte the `out` of continue_failed, the same inputs
continued the same way, so they carry its digest.

`{out}` in an argv is replaced by a path in a fresh directory; `evolve`
with `--out X.csv` also writes `X.json`, which is digested as `out.json`.
`{state}` is a state file written first by the `state_beta` case.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from starktree import cli

# 10,240 steps of the default dt: above the spectrum's 1,024-sample
# minimum and a fraction of a second per integration.
T_END = ["--t-end", "31.41592653589793", "--stride", "8"]

CASES = {
    "count": ["count", "--x", "40.5"],
    "tree_csv": ["tree", "--x-min", "0", "--x-max", "12", "--samples", "101",
                 "--out", "{out}"],
    "tree_json": ["tree", "--x-min", "0", "--x-max", "12", "--samples", "101",
                  "--format", "json"],
    # the first grid point already has live branches
    "tree_live_first": ["tree", "--x-min", "2.5", "--x-max", "9", "--samples", "7",
                        "--out", "{out}"],
    "tree_json_live_first": ["tree", "--x-min", "2.5", "--x-max", "9",
                             "--samples", "7", "--format", "json",
                             "--out", "{out}"],
    # 137 branches on 118 distinct (birth, N, sum S) curves
    "tree_shared_curves_csv": ["tree", "--x-min", "0", "--x-max", "16",
                               "--samples", "201", "--out", "{out}"],
    "tree_shared_curves_json": ["tree", "--x-min", "0", "--x-max", "16",
                                "--samples", "201", "--format", "json",
                                "--out", "{out}"],
    "state_signs": ["state", "--set", "0,1,3", "--x", "7.5", "--signs=+-+"],
    "state_beta": ["state", "--set", "0,1", "--x", "1.5", "--beta", "0.02",
                   "--out", "{out}"],
    "state_resonant": ["state", "--set", "0", "--x", "1.0", "--out", "{out}"],
    "continue_ok": ["continue", "--set", "0,1,3", "--x", "7.5", "--beta", "0.02",
                    "--steps", "10", "--out", "{out}"],
    "continue_random": ["continue", "--set", "0,1,3", "--x", "7.5",
                        "--beta", "0.02", "--signs=random", "--seed", "3"],
    "continue_failed": ["continue", "--set=0,1,4,7", "--x", "20.37",
                        "--beta", "0.02", "--steps", "10", "--out", "{out}"],
    # the failed record of state and evolve --set is the one continue writes
    "state_failed": ["state", "--set=0,1,4,7", "--x", "20.37", "--beta", "0.02",
                     "--steps", "10", "--out", "{out}"],
    "evolve_set_failed": ["evolve", "--set=0,1,4,7", "--x", "20.37",
                          "--beta", "0.02", "--steps", "10",
                          "--out", "{out}.csv"],
    "continue_minus_signs": ["continue", "--set=0,1", "--x", "4.5",
                             "--beta", "0.02", "--signs=--", "--out", "{out}"],
    "evolve_beating": ["evolve", "--x", "1.5", *T_END, "--out", "{out}.csv"],
    "evolve_hopping": ["evolve", "--set", "0,1", "--x", "1.5", "--beta", "0.01",
                       *T_END, "--out", "{out}.csv"],
    "evolve_nu_f": ["evolve", "--nu", "0.3", "--f", "0.2", *T_END],
    "evolve_initial": ["evolve", "--initial", "{state}", *T_END,
                       "--out", "{out}.csv"],
    # site 0 is where the state file peaks, so --site 1 is what tells the
    # given spectrum site from the default
    "evolve_initial_site": ["evolve", "--initial", "{state}", "--site", "1",
                            *T_END, "--out", "{out}.csv"],
    "evolve_set": ["evolve", "--set", "0,1", "--x", "1.5", *T_END,
                   "--out", "{out}.csv"],
    # mu = -4 <= 0: the state has no T(0) certificate but still evolves
    "evolve_negative_mu": ["evolve", "--set=-5", "--x", "1", *T_END,
                           "--out", "{out}.csv"],
}

GOLDEN = {
    "continue_failed": {
        "rc": 4,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "1e6e5b0c6bef3012437211d4f4cb01deee049186c541d6911b9b8a0fbef9b8e8",
    },
    "continue_minus_signs": {
        "rc": 2,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "continue_ok": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "0c943b2b683b836bac90275520d43e3fbc2877edce1626b539f1fd14a0ea4eac",
    },
    "continue_random": {
        "rc": 0,
        "stdout":
            "5c097a7b381bc478b1e16a3a324be0bc1b77c41a9a4811cb2aa5891bc99af435",
    },
    "count": {
        "rc": 0,
        "stdout":
            "e62a23e91792316fdcf49f17e8a491acc3e815df77c3766d7d899a180e8c1846",
    },
    "evolve_beating": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "58458c97bc892afc9596e43dbd29c857d4563f3d934ef187375d78f1b5304620",
        "out.json":
            "6b3e63116ab3d63861a9ccf61a985aac6f5b60fa786c83f0344b6d0d644176b4",
    },
    "evolve_hopping": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "048b836dc9cfc22fbadf1fc9fca1b663eaddc751ebf91b7d1db2578af21bba6d",
        "out.json":
            "23fd89eea1241d54f417bba47d93f26868b870c962c06bda604409ba74fad868",
    },
    "evolve_initial": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "fa30269a31c7c4f4b33703689f6ad1549a04c8afc260deac715432e0de1b53d1",
        "out.json":
            "1552bbd99537968cd0edb578ab0afda4f221f42a8b4d491661c1f08e84df11f2",
    },
    "evolve_initial_site": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "fa30269a31c7c4f4b33703689f6ad1549a04c8afc260deac715432e0de1b53d1",
        "out.json":
            "384eeb11bbe70cef37aa47d105d5193fdd580220865d4476299ae71995eaf326",
    },
    "evolve_negative_mu": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "2f6168bf6ac85a1fa4ccff3099962cb4d6ab0020932fce377d1b64b0e3ddcfad",
        "out.json":
            "a9e3503f7757186bef47c3f24cab48de29230acac9eea06f4ae0fb97281729a2",
    },
    "evolve_nu_f": {
        "rc": 0,
        "stdout":
            "dfce92282137ebc618b8b90fe26a289cd7b5accb2516169390deecddfaeba19a",
    },
    "evolve_set": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "3c1fe668f55b9bcb04dc6002126fb8949cf84d1c5b972310f4a7dad8994f78f0",
        "out.json":
            "cb47a468bf9eac2c8c46c2f068d678bb91ed921e135d6f71f81cf4d5f3ccc81a",
    },
    "evolve_set_failed": {
        "rc": 4,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out.json":
            "1e6e5b0c6bef3012437211d4f4cb01deee049186c541d6911b9b8a0fbef9b8e8",
    },
    "state_beta": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "5b74a6d82d6b4d68b76a5d6a808fd04ec643ba59c9c53bb2a552588187644b83",
    },
    "state_failed": {
        "rc": 4,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "1e6e5b0c6bef3012437211d4f4cb01deee049186c541d6911b9b8a0fbef9b8e8",
    },
    "state_resonant": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "f372bfcf6975afb881f33e0b34b04f3afe17f95e50fceaf732b17ca8f3b80039",
    },
    "state_signs": {
        "rc": 0,
        "stdout":
            "30ee432ac8d1e1390890713406f6dd3edb7a2e410aee5dc4db224ea66a0fac3f",
    },
    "tree_csv": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "0d13053f36f3a8034f3e9ce9633abecd2312bcd450dfe08e86fa4247681a2726",
    },
    "tree_json": {
        "rc": 0,
        "stdout":
            "d82e7beb71fad8fbd805243fe28941e7c4fc2c6cee78a5f5ec229dda9ce32c97",
    },
    "tree_json_live_first": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "724f645949263b6db236bc948d73edcf21dad711e94691e4caeb1d4ce2950463",
    },
    "tree_shared_curves_csv": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "bd24ff46719f937a46dce76f9542ebab2ea180e99378f0e01de445971a83ada8",
    },
    "tree_shared_curves_json": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "0bf8f5d2f7834792578a4b8e7ddd28671f04c6870dee3e1246b1a05a5b85d132",
    },
    "tree_live_first": {
        "rc": 0,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out":
            "fee519fd641a049283398d77b1282b1a621f548adf2c105d08bad274097c012f",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, directory: Path) -> dict:
    """Run one case; returns its exit code and the digests of its outputs."""
    out = str(directory / name)
    state = str(directory / "state_beta")
    if "{state}" in CASES[name] and not Path(state).exists():
        run_case("state_beta", directory)
    argv = [a.replace("{out}", out).replace("{state}", state)
            for a in CASES[name]]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        rc = cli.main(argv)
    record = {"rc": rc, "stdout": _sha(stdout.getvalue().encode("utf-8"))}
    if argv[0] == "evolve":
        paths = {"out": out + ".csv", "out.json": out + ".json"}
    else:
        paths = {"out": out}
    for key, path in paths.items():
        if Path(path).exists():
            record[key] = _sha(Path(path).read_bytes())
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]
