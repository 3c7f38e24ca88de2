"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import csv
import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from starktree import (
    BLOCH_PERIOD,
    LatticeParams,
    ResonanceError,
    SolutionSet,
    beat_periods,
    beating_trace,
    build_state,
    consecutive_threshold,
    continue_in_beta,
    dnls_residual,
    enumerate_solution_sets,
    extended_jacobian,
    jacobian_diagonal_t0,
    newton_solve,
    q_asymptotic,
    q_distinct,
    spectrum,
)
from starktree.cli import main


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


# ---------------------------------------------------------------------------
# independent oracles (shared with the module tests, reimplemented here so
# the acceptance file stands alone)


def brute_force_distinct_count(n):
    def go(remaining, smallest):
        if remaining == 0:
            return 1
        return sum(go(remaining - p, p + 1)
                   for p in range(smallest, remaining + 1))
    return go(n, 1) if n > 0 else 1


def odd_parts_count(n):
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def brute_force_sets(x, site_max=None):
    if site_max is None:
        site_max = math.ceil(x) + 1
    found = []
    for r in range(site_max + 1):
        for combo in itertools.combinations(range(1, site_max + 1), r):
            sites = (0,) + combo
            n = len(sites)
            if x / n + sum(sites) / n > max(sites):
                found.append(sites)
    return sorted(found)


def fd_jacobian(state, h=1e-6):
    size = state.coefficients.size + 1
    jac = np.zeros((size, size))
    for k in range(size - 1):
        cp = state.coefficients.copy()
        cm = state.coefficients.copy()
        cp[k] += h
        cm[k] -= h
        jac[:, k] = (dnls_residual(replace(state, coefficients=cp))
                     - dnls_residual(replace(state, coefficients=cm))) / (2 * h)
    jac[:, -1] = (dnls_residual(replace(state, mu=state.mu + h))
                  - dnls_residual(replace(state, mu=state.mu - h))) / (2 * h)
    return jac


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_counting_identity(capsys):
    with criterion(1, "count --x 3.1 reports F = 4 in under 1 s"):
        start = time.perf_counter()
        assert main(["count", "--x", "3.1"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert "F = 4, branches = 5" in out
        assert elapsed < 1.0


def test_criterion_2_tree_dataset(tmp_path):
    with criterion(2, "tree over [0,10]: 33 branches, integer births, "
                      "q_distinct jump counts, < 5 s"):
        out = tmp_path / "tree.csv"
        start = time.perf_counter()
        assert main(["tree", "--x-min", "0", "--x-max", "10",
                     "--samples", "1001", "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        branch_sets = {}
        births = {}
        for row in rows:
            branch_sets[row["branch_id"]] = tuple(
                int(tok) for tok in row["set"].split("+"))
            births[row["branch_id"]] = float(row["birth_x"])
        assert len(branch_sets) == 33
        # independent oracle: exhaustive subset search just below 10
        oracle = brute_force_sets(10.0 - 1e-9)
        assert sorted(branch_sets.values()) == oracle
        assert all(b == int(b) for b in births.values())
        jump_counts = Counter(int(b) for b in births.values())
        for n in range(1, 10):
            assert jump_counts[n] == q_distinct(n)
        assert elapsed < 5.0
    print(f"  (tree runtime {elapsed:.2f}s)")


def test_criterion_3_threshold_cascade():
    with criterion(3, "consecutive families born at 1, 3, 6, 10"):
        expected = {2: 1, 3: 3, 4: 6, 5: 10}
        for n_modes, birth in expected.items():
            assert consecutive_threshold(n_modes) == birth
            sset = SolutionSet(tuple(range(n_modes)))
            above = enumerate_solution_sets(birth + 0.5)
            below = enumerate_solution_sets(max(birth - 0.5, 0.25))
            assert sset in above
            assert sset not in below


def test_criterion_4_shared_well_states(tmp_path):
    with criterion(4, "states at nu/f = 3/2: magnitudes {1}, "
                      "{sqrt(5/6), sqrt(1/6)} on the documented sites"):
        cases = {
            "0": {"0": 1.0},
            "0,1": {"0": math.sqrt(5 / 6), "1": math.sqrt(1 / 6)},
            "-1,0": {"-1": math.sqrt(5 / 6), "0": math.sqrt(1 / 6)},
        }
        for set_arg, expected in cases.items():
            out = tmp_path / "state.json"
            assert main(["state", f"--set={set_arg}", "--x", "1.5",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            coeffs = {site: value
                      for site, value in payload["coefficients"].items()}
            for site, magnitude in expected.items():
                assert abs(coeffs[site]) == pytest.approx(magnitude, abs=1e-14)
            support = {site for site, v in coeffs.items() if v != 0.0}
            assert support == set(expected)
            assert abs(sum(v * v for v in coeffs.values()) - 1.0) < 1e-12
            # independent zero-hopping residual check from the JSON numbers
            nu, f, mu = payload["nu"], payload["f"], payload["mu"]
            residual = max(abs(nu * v ** 3 + f * int(site) * v - mu * v)
                           for site, v in coeffs.items())
            assert residual < 1e-12


def test_criterion_5_oracle_equivalence():
    with criterion(5, "50 random x: enumeration equals subset search; "
                      "n <= 60: q_distinct equals both oracles"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            x = float(rng.uniform(1e-6, 12.0))
            mine = sorted(s.sites for s in enumerate_solution_sets(x))
            assert mine == brute_force_sets(x)
        for n in range(61):
            count = q_distinct(n)
            assert count == brute_force_distinct_count(n)
            assert count == odd_parts_count(n)


def test_criterion_6_continuation_soundness():
    with criterion(6, "20 random sets: continuation to beta' = 0.02 at "
                      "1e-12, round trip 1e-10, positive certificate, "
                      "FD Jacobian 1e-6"):
        rng = np.random.default_rng(99)
        beta_prime = 0.02
        done = 0
        while done < 20:
            x = float(rng.uniform(0.05, 6.0))
            sets = enumerate_solution_sets(x)
            sset = sets[rng.integers(len(sets))]
            f = float(rng.uniform(0.5, 2.0))
            params = LatticeParams.for_set(sset, nu=x * f, f=f)
            base = build_state(sset, params)
            # non-resonant with margin: persistence needs the zero-hopping
            # gap min |T_l| to dominate beta'; sets closer than 10x fold
            # before beta' = 0.02 and have no branch to round-trip on
            try:
                _, cert = jacobian_diagonal_t0(base)
            except ResonanceError:
                continue
            if cert < 10.0 * beta_prime:
                continue
            beta_target = beta_prime * base.mu
            result = continue_in_beta(sset, params, beta_target, steps=10)
            assert result.certificate > 0
            assert all(res < 1e-12 for _, res, _ in result.path)
            assert np.max(np.abs(dnls_residual(result.state))) < 1e-12

            state = result.state
            for beta in np.linspace(beta_target, 0.0, 11)[1:]:
                state = newton_solve(state, float(beta))
            assert np.max(np.abs(state.coefficients - base.coefficients)) < 1e-10

            analytic = extended_jacobian(result.state.coefficients,
                                         result.state.mu, result.state.params)
            numeric = fd_jacobian(result.state)
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-6
            done += 1


def test_criterion_7_beating_periods():
    with criterion(7, "superposition at nu/f = 3/2, nu = 0.05: peaks within "
                      "two bins of 5/4, 1/4 and the Bloch line 1, drifts "
                      "below 1e-9/1e-8, < 30 s"):
        start = time.perf_counter()
        x, nu = 1.5, 0.05
        params = LatticeParams(nu=nu, f=nu / x, beta=0.0, window=(-6, 6))
        trace = beating_trace(0, params, t_end=20.0 * BLOCH_PERIOD)
        peaks = spectrum(trace, 0)
        elapsed = time.perf_counter() - start
        _, t1, t2 = beat_periods(x)
        assert 2.0 * math.pi / t1 == pytest.approx(1.25, rel=1e-15)
        assert 2.0 * math.pi / t2 == pytest.approx(0.25, rel=1e-15)
        bin_width = 2.0 * math.pi / (trace.times.size * trace.dt)
        freqs = [f for f, _ in peaks]
        for expected in (1.25, 0.25, 1.0):
            assert min(abs(f - expected) for f in freqs) <= 2.0 * bin_width
        assert trace.norm_drift < 1e-9
        assert trace.energy_drift < 1e-8
        assert elapsed < 30.0
    print(f"  (beating runtime {elapsed:.2f}s, norm drift "
          f"{trace.norm_drift:.2e}, energy drift {trace.energy_drift:.2e})")


def test_criterion_8_asymptotics():
    with criterion(8, "q/q_asymptotic in [0.9, 1.1] at 400 and "
                      "monotone along 100, 200, 400"):
        ratios = {n: q_distinct(n) / q_asymptotic(n) for n in (100, 200, 400)}
        assert 0.9 <= ratios[400] <= 1.1
        assert abs(ratios[200] - 1.0) < abs(ratios[100] - 1.0)
        assert abs(ratios[400] - 1.0) < abs(ratios[200] - 1.0)
