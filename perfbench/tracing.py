"""Spans around starktree's public entry points, recorded from outside.

`Tracer.install` replaces module attributes with wrappers that record a
span (name, start, end, parent, pass, counts) per call; `uninstall` puts
the originals back.  Nothing under src/ changes.  Spans stay in memory
until the worker ends.  `layer_metrics` turns the spans of one pass into
per-layer self times and counts.
"""

from __future__ import annotations

import functools
from time import perf_counter

from starktree import anticontinuum, cli, continuation, dynamics
from starktree.errors import SolverError


def _tree_counts(tree):
    return {"tree_samples": sum(b.xs.size for b in tree.branches)}


def _continue_counts(result):
    return {"calls": 1, "newton_iters": sum(p[2] for p in result.path),
            "steps": len(result.path) - 1, "failed": 0}


def _continue_error_counts(exc):
    path = exc.path if isinstance(exc, SolverError) else []
    return {"calls": 1, "newton_iters": sum(p[2] for p in path),
            "steps": max(len(path) - 1, 0), "failed": 1}


def _evolve_counts(trace):
    return {"rk4_steps": trace.times.size - 1,
            "trace_bytes": trace.times.nbytes + trace.states.nbytes,
            "norm_drift": trace.norm_drift, "energy_drift": trace.energy_drift}


def _beating_counts(trace):
    # times is the first integration's array, already counted by evolve
    return {"trace_bytes": trace.states.nbytes,
            "norm_drift": trace.norm_drift, "energy_drift": trace.energy_drift}


# (module, attribute, span name, counts of the result, counts of an error).
# Span names carry the layer that owns the function, not the module patched.
POINTS = [
    (cli, "main", "cli.main", None, None),
    (cli, "counting_function", "partitions.counting_function", None, None),
    (anticontinuum, "enumerate_distinct_partitions",
     "partitions.enumerate_distinct_partitions",
     lambda r: {"parts": len(r)}, None),
    (anticontinuum, "enumerate_solution_sets",
     "anticontinuum.enumerate_solution_sets", lambda r: {"sets": len(r)}, None),
    (cli, "bifurcation_tree", "anticontinuum.bifurcation_tree", _tree_counts, None),
    (cli, "build_state", "anticontinuum.build_state", None, None),
    (continuation, "build_state", "anticontinuum.build_state", None, None),
    (dynamics, "build_state", "anticontinuum.build_state", None, None),
    (cli, "continue_in_beta", "continuation.continue_in_beta",
     _continue_counts, _continue_error_counts),
    (dynamics, "evolve", "dynamics.evolve", _evolve_counts, None),
    (dynamics, "beating_trace", "dynamics.beating_trace", _beating_counts, None),
    (dynamics, "spectrum", "dynamics.spectrum", None, None),
]

# Span name -> the per-layer self-time metric it adds to.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "partitions.counting_function": "partitions.count_s",
    "partitions.enumerate_distinct_partitions": "partitions.enum_s",
    "anticontinuum.enumerate_solution_sets": "anticontinuum.sets_s",
    "anticontinuum.bifurcation_tree": "anticontinuum.tree_s",
    "anticontinuum.build_state": "anticontinuum.build_state_s",
    "continuation.continue_in_beta": "continuation.continue_s",
    "dynamics.evolve": "dynamics.evolve_s",
    "dynamics.beating_trace": "dynamics.evolve_s",
    "dynamics.spectrum": "dynamics.spectrum_s",
}

# Exact counts summed over a pass; drifts are maxima.
SUMMED = ("parts", "sets", "tree_samples", "calls", "newton_iters", "steps",
          "failed", "rk4_steps", "trace_bytes")
MAXED = ("norm_drift", "energy_drift")


class Tracer:
    """Records spans while installed; `spans` holds them for the whole run."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_index = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, on_result, on_error):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.pass_index, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                if on_error is not None:
                    span[5] = on_error(exc)
                raise
            finally:
                self._stack.pop()
            span[2] = perf_counter()
            if on_result is not None:
                span[5] = on_result(result)
            return result
        return traced

    def install(self):
        for module, attr, name, on_result, on_error in POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, on_result, on_error))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[list], pass_index: int) -> dict:
    """Self times (span minus its direct children) and counts of one pass."""
    durations = {}
    child_time = {}
    for index, (_, start, end, parent, p, _) in enumerate(spans):
        if p != pass_index:
            continue
        durations[index] = end - start
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    out.update({key: 0 for key in SUMMED})
    out.update({key: 0.0 for key in MAXED})
    out["evolve_span_s"] = 0.0
    for index, duration in durations.items():
        name, counts = spans[index][0], spans[index][5]
        out[SELF_TIME[name]] += duration - child_time.get(index, 0.0)
        if name == "dynamics.evolve":
            out["evolve_span_s"] += duration
        for key, value in (counts or {}).items():
            if key in MAXED:
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out
