"""Command-line front end: count, tree, state, continue, evolve.

Emits CSV/JSON datasets (branch energies over nu/f, stationary states,
beating time series with spectral peaks).  Exit codes: 0 ok, 2 bad input,
3 I/O, 4 solver/continuation, 5 integration quality.  Numeric CSV fields
carry 17 significant digits so doubles round-trip exactly; files are
written to a temporary name and renamed into place.  The tree and evolve
datasets are streamed: each is made as a sequence of text chunks (one per
grid point and birth threshold, per branch, or per sampled step) that is
written as it is made, so the whole text is never held in memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from itertools import islice
from operator import itemgetter

import numpy as np

from . import dynamics
from .anticontinuum import (
    DEFAULT_TREE_SAMPLES,
    LatticeParams,
    SolutionSet,
    StationaryState,
    bifurcation_tree,
    build_state,
)
from .continuation import (
    DEFAULT_CONTINUATION_STEPS,
    continue_in_beta,
    jacobian_diagonal_t0,
)
from .errors import (
    DomainError,
    IntegrationError,
    ResonanceError,
    SolverError,
    check_int,
    check_real,
    check_signs,
    check_site,
)
from .partitions import counting_function, f_asymptotic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_INTEGRATION = 5

# The exit code of each error main reports as "error: ...": one type per
# code, no type a kind of another, so at most one matches.
EXIT_CODES = {
    DomainError: EXIT_INPUT,
    OSError: EXIT_IO,
    SolverError: EXIT_SOLVER,
    IntegrationError: EXIT_INTEGRATION,
}


def fmt(value) -> str:
    """17-significant-digit text, exact round trip for doubles."""
    return format(float(value), ".17g")


def _writable_target(path: str) -> str:
    """The real path of `path`, refused if it exists but is not a regular
    file, as a directory or the empty path (the working directory) is."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"not a regular file: {path!r}")
    return target


def _atomic_write(path: str, chunks):
    """Write the text chunks, each as it is made, to a temporary file next to
    `path`, then rename it into place.  If making or writing a chunk fails,
    `path` keeps its earlier content and the temporary file is removed.
    The file gets the mode open() would give it: mkstemp makes it 0600.
    A symlink is followed, so its target is replaced and the link kept; a
    target that exists but is not a regular file is refused untouched."""
    target = _writable_target(path)
    directory = os.path.dirname(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:  # name the path asked for, not the random one
        exc.filename = path
        raise
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out: str | None, chunks, stream=None):
    """Write the text chunks to the --out path, or to `stream`, stdout by
    default, when there is none.  A whole text is a one-element tuple."""
    if out is not None:
        _atomic_write(out, chunks)
    else:
        (stream or sys.stdout).writelines(chunks)


def _emit_json(out: str | None, payload, stream=None):
    """`_emit` of the text json.dumps(payload, indent=2) plus a newline."""
    _emit(out, (json.dumps(payload, indent=2) + "\n",), stream)


def _parse_set(text: str, what="comma-separated integers") -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be {what}, got {text!r}") from None


def _parse_signs(text: str):
    """'random', a '+-+' literal, or +-1 values parsed like --set (argparse
    keeps --signs=-1,-1 but drops the value of --signs=--)."""
    if text == "random" or not text.strip("+-"):
        return text
    return _parse_set(text, "'random', a '+'/'-' string or comma-separated "
                      "+-1 values")


def _refuse(args: argparse.Namespace, names, reason: str):
    """Refuse by name each option of `names` that was given, since `reason`
    leaves it unread; the options default to None."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise DomainError(f"{reason}; drop {', '.join(given)}")


def _resolve_signs(args: argparse.Namespace, n: int) -> tuple[int, ...]:
    """The n signs as +-1: a '+-+' literal, +-1 values, or 'random' drawn
    from the generator seeded with --seed, which is refused otherwise.

    An absent or empty --signs means the default all-plus pattern.
    argparse turns --signs=-- into [], which must stay a pattern of the
    wrong length and be refused, not fall through to the default.
    """
    if args.signs == "random":
        seed = None if args.seed is None else check_int(args.seed, "--seed", 0)
        rng = np.random.default_rng(seed)
        return tuple(int(s) for s in rng.choice((-1, 1), size=n))
    _refuse(args, ("seed",), "--seed is read only with --signs random")
    return check_signs(None if args.signs == "" else args.signs, n)


def _lattice_params(args: argparse.Namespace, sset: SolutionSet) -> LatticeParams:
    """nu and f from two of --x = nu/f, --nu and --f, on the default window
    around the set.  Dimensionless-first: --x alone means nu = x, f = 1."""
    x = None if args.x is None else check_real(args.x, "--x", above=0)
    if x is None:
        if args.nu is None or args.f is None:
            raise DomainError("need --x or the pair --nu/--f")
        nu, f = args.nu, args.f
    elif args.nu is not None and args.f is not None:
        raise DomainError("give --x = nu/f or the pair --nu/--f, not all three")
    elif args.nu is not None:
        nu, f = args.nu, args.nu / x
    elif args.f is not None:
        f = check_real(args.f, "--f", above=0)
        nu = x * f
    elif args.set is not None:
        nu, f = x, 1.0
    else:  # the set-less three-state beating of `evolve` keeps nu = 0.05
        nu, f = 0.05, 0.05 / x
    return LatticeParams.for_set(sset, nu=nu, f=f, beta=args.beta)


def _coefficients(state: StationaryState) -> dict:
    """The coefficient vector keyed by lattice site, as written to JSON."""
    return {str(site): float(value)
            for site, value in zip(state.params.window_sites, state.coefficients)}


def cmd_count(args: argparse.Namespace) -> None:
    if args.x is None:
        raise DomainError("count needs --x")
    f_count = counting_function(args.x)
    print(f"F = {f_count}, branches = {f_count + 1}")
    if args.x >= 1.0:
        n = math.floor(args.x)
        print(f"asymptotic F ~ {f_asymptotic(n):.6g} at n = {n}")


def _tree_csv(tree):
    """The tree CSV as chunks: the header, then one chunk per grid point and
    threshold whose branches are live there.

    Branches come in threshold order and each threshold's samples start no
    earlier than the one before, so the live thresholds at grid point k are
    a prefix, and so are the blocks of `tree.blocks`, block n holding the
    curves first seen at threshold n.  At k, each live block's column is
    formatted once into one list of mu texts, in tree-wide row order, and
    every branch on a curve, whatever its threshold, takes its text from
    there by `tree.curves`; each branch's text before and after mu is made
    once, from `tree.sets`.
    """
    yield "x,branch_id,set,mu_over_f,n_modes,birth_x\n"
    # one int object per tree-wide row, shared by every threshold's getter
    ids = list(range(sum(map(len, tree.blocks))))
    # one label template per cardinality up to the last set's, the largest,
    # as a set of N sites is born at N(N-1)/2 or later
    labels = ["+".join(["%d"] * n) for n in range(len(tree.sets[-1]) + 1)]
    # per threshold: its first grid index, its block's columns, the getter
    # of its branches' mu texts, and the text of its rows as four pieces
    # per branch, x, ",id,label,", mu and ",N,birth\n", x and mu filled in
    # at each grid point
    groups = []
    branches = enumerate(tree.sets)
    for birth, (block, curve) in enumerate(zip(tree.blocks, tree.curves)):
        tails = [f",{n},{birth}\n" for n in range(len(labels))]
        pieces = []
        for i, sset in islice(branches, len(curve)):
            pieces += ["", f",{i},{labels[len(sset)] % sset},", "", tails[len(sset)]]
        rows = list(map(ids.__getitem__, curve.tolist()))
        # itemgetter of one index returns the item, not a 1-tuple
        pick = (itemgetter(*rows) if len(rows) > 1
                else itemgetter(slice(rows[0], rows[0] + 1)))
        groups.append((tree.x_grid.size - block.shape[1], block.T, pick, pieces))
    for k, x in enumerate(tree.x_grid.tolist()):
        x_text = fmt(x)
        texts = []
        for first, columns, pick, pieces in groups:
            if first > k:
                break
            texts += [f"{mu:.17g}" for mu in columns[k - first].tolist()]
            pieces[0::4] = [x_text] * (len(pieces) // 4)
            pieces[2::4] = pick(texts)
            yield "".join(pieces)


def _tree_json(tree):
    """The tree as the text of json.dumps(payload, indent=2) plus a newline,
    written by hand: one chunk for the grid, then one per branch.

    Floats are the repr of Python floats, as json writes them.  Each grid
    point's repr is made once and shared by every branch's samples.  Each
    curve's samples text is made once per birth threshold, from the last
    entries of its row in `tree.rows`, one per grid point of that threshold,
    and shared by every branch of that threshold on the curve; it is not kept
    across thresholds, so only one threshold's texts are held at a time.
    """
    x_reprs = [repr(x) for x in tree.x_grid.tolist()]
    yield ('{\n  "x_grid": [\n    ' + ",\n    ".join(x_reprs)
           + '\n  ],\n  "branches": [')
    heads = [f"\n        [\n          {x},\n          " for x in x_reprs]
    branches = enumerate(tree.sets)
    for birth, (block, curve) in enumerate(zip(tree.blocks, tree.curves)):
        n = block.shape[1]  # the samples of each set born here, n >= 1
        samples = {}  # tree-wide row -> its samples text
        for c, (i, sset) in zip(curve.tolist(), islice(branches, len(curve))):
            text = samples.get(c)
            if text is None:
                text = samples[c] = "\n        ],".join([
                    f"{head}{mu!r}" for head, mu in
                    zip(heads[-n:], tree.rows[c][-n:].tolist())])
            sites = ",\n        ".join(map(str, sset))
            yield (f'{"," if i else ""}\n    {{\n      "id": {i},\n'
                   f'      "set": [\n        {sites}\n      ],\n'
                   f'      "n_modes": {len(sset)},\n'
                   f'      "birth_x": {birth},\n'
                   f'      "samples": [{text}\n        ]\n      ]\n    }}')
    yield "\n  ]\n}\n"


def cmd_tree(args: argparse.Namespace) -> None:
    tree = bifurcation_tree(args.x_min, args.x_max, samples=args.samples)
    _emit(args.out, (_tree_json if args.format == "json" else _tree_csv)(tree))


def _resolve_set(args: argparse.Namespace
                 ) -> tuple[SolutionSet, LatticeParams, tuple[int, ...]]:
    """--set as its solution set, the lattice params around it and its signs."""
    if args.set is None:
        raise DomainError(f"{args.command} needs --set")
    sset = SolutionSet(args.set)
    return sset, _lattice_params(args, sset), _resolve_signs(args, len(sset))


def _continued(args: argparse.Namespace, out: str | None, stream=None):
    """Continue --set to --beta: (set, signs, result, record), the record
    holding the inputs set, signs, nu, f, beta_target and steps.  On a
    SolverError the record, with status "failed", the error and the path
    walked, is written to `out`, or to `stream` without one, and the error
    goes on to main, which reports it and exits 4."""
    sset, params, signs = _resolve_set(args)
    steps = DEFAULT_CONTINUATION_STEPS if args.steps is None else args.steps
    record = {
        "set": list(sset),
        "signs": list(signs),
        "nu": params.nu,
        "f": params.f,
        "beta_target": params.beta,
        "steps": steps,
    }
    try:
        result = continue_in_beta(sset, params, steps=steps, signs=signs)
    except SolverError as exc:
        record.update({"status": "failed", "error": str(exc),
                       "path": exc.path})
        _emit_json(out, record, stream)
        raise
    return sset, signs, result, record


def _state_at_beta(args: argparse.Namespace, out: str | None, stream=None):
    """The state of --set at --beta: (set, signs, state, T(0) certificate).

    At --beta > 0 it is continued by `_continued`, which writes its failed
    record to `out` or `stream`.  At beta = 0 the zero-hopping state exists
    even where its certificate does not, at a resonant mu/f or at mu <= 0,
    where the rescaling by mu is undefined, or beyond double precision at a
    tiny mu/f; the certificate is then None.
    """
    if args.beta > 0:
        sset, signs, result, _ = _continued(args, out, stream)
        return sset, signs, result.state, result.certificate
    sset, params, signs = _resolve_set(args)
    _refuse(args, ("steps",), "--steps is read only at --beta > 0")
    state = build_state(sset, params, signs=signs)
    try:
        _, certificate = jacobian_diagonal_t0(state)
    except (ResonanceError, DomainError):
        certificate = None
    return sset, signs, state, certificate


def cmd_state(args: argparse.Namespace) -> None:
    sset, signs, state, certificate = _state_at_beta(args, args.out)
    lo, hi = state.params.window
    payload = {
        "set": list(sset),
        "signs": list(signs),
        "nu": state.params.nu,
        "f": state.params.f,
        "beta": args.beta,
        "window": [lo, hi],
        "mu": state.mu,
        "coefficients": _coefficients(state),
        "certificate": certificate,
        "residual_norm": float(np.max(np.abs(
            state.params.residual(state.coefficients, state.mu)))),
    }
    _emit_json(args.out, payload)


def cmd_continue(args: argparse.Namespace) -> None:
    _, _, result, record = _continued(args, args.out)
    record.update({
        "status": "ok",
        "certificate": result.certificate,
        "path": result.path,
        "mu": result.state.mu,
        "window": list(result.state.params.window),
        "coefficients": _coefficients(result.state),
    })
    _emit_json(args.out, record)


def load_state_vector(path: str) -> tuple[np.ndarray, LatticeParams]:
    """Rebuild (initial vector, params) from a `state` JSON file, bit-exact."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise DomainError(f"unreadable state file {path}: {exc}") from exc
    try:
        if not isinstance(payload, dict):
            raise DomainError("the payload must be a JSON object, got "
                              f"{type(payload).__name__}")
        window = payload["window"]
        if not (isinstance(window, list) and len(window) == 2):
            raise DomainError(
                f"window must be [lo, hi], got {json.dumps(window)}")
        params = LatticeParams(nu=payload["nu"], f=payload["f"],
                               beta=payload["beta"], window=tuple(window))
        vector = np.zeros(params.window_size, dtype=complex)
        coefficients = payload["coefficients"]
        if not isinstance(coefficients, dict):
            raise DomainError("coefficients must be an object keyed by site, "
                              f"got {type(coefficients).__name__}")
        for key, value in coefficients.items():
            site = int(key)
            # "00", "1_0" or " 1" would alias the site int() reads them as
            if str(site) != key:
                raise DomainError(
                    f"site key {key!r} is not a canonical integer")
            row = check_site(site, params.window)
            vector[row] = check_real(value, f"coefficient at site {site}")
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DomainError(f"state file {path} is not usable: {reason}"
                          ) from exc
    return vector, params


def _evolve_trace(args: argparse.Namespace, json_out: str | None):
    """Pick the evolution mode: (trace, its spectrum site, x, the beat
    periods `dynamics.beat_periods` predicts, or None).  The site is --site
    or the mode's default, and one outside the window is refused before
    the integration runs.  Only the set-less beating at zero hopping has a
    prediction: one stationary state gives no beats, and at --beta > 0 the
    summed well states are not the continued ones the closed form would
    need.  A failed continuation of --set writes its record to `json_out`
    or stderr."""
    if args.initial is not None:
        # the state file fixes the model and the vector; an option it would
        # ignore is refused
        unread = ["x", "nu", "f", "set", "signs", "seed", "steps", "j"]
        if args.beta != 0:
            unread.append("beta")
        _refuse(args, unread, "--initial takes the model from the state file")
        vector, params = load_state_vector(args.initial)
        site = int(params.window[0] + np.argmax(np.abs(vector)))
    elif args.set is not None:
        _refuse(args, ("j",), "--j picks the well of the three-state "
                "superposition, not of --set")
        sset, _, state, _ = _state_at_beta(args, json_out, sys.stderr)
        vector, params, site = state.coefficients, state.params, sset[0]
    else:  # three-state superposition around well j
        if args.x is None and (args.nu is None or args.f is None):
            raise DomainError("evolve needs --initial, --set, or --x for the "
                              "three-state superposition")
        _refuse(args, ("signs", "seed", "steps"), "the three-state "
                "superposition sums the all-plus zero-hopping states")
        site = j = 0 if args.j is None else args.j
        # the default window pads the three sites j-1, j, j+1 the states occupy
        params = _lattice_params(args, SolutionSet((j - 1, j, j + 1)))
        vector = None
    site = site if args.site is None else args.site
    check_site(site, params.window)
    if vector is not None:
        trace = dynamics.evolve(vector, params, args.t_end, args.dt)
        return trace, site, params.ratio, None
    # params.ratio is 0.05/(0.05/x), which need not be x bit for bit
    x = params.ratio if args.x is None else args.x
    trace = dynamics.beating_trace(j, params, args.t_end, args.dt)
    return trace, site, x, (None if params.beta > 0 else dynamics.beat_periods(x))


def _evolve_csv(trace: dynamics.DynamicsTrace, stride: int):
    """The evolve CSV as chunks: the header, then the rows of every
    stride-th sampled step over the trace's window, one chunk per step."""
    yield "t_prime,site,abs2\n"
    lo, hi = trace.window
    # a row is one %-format of this template with the step's time text and
    # each site's abs2 in turn; %.17g writes what format(a, ".17g") does
    template = "".join(f"%s,{site},%.17g\n" for site in range(lo, hi + 1))
    abs2 = np.abs(trace.states[::stride]) ** 2
    for t, row in zip(trace.times[::stride].tolist(), abs2):
        values = [fmt(t), None] * row.size
        values[1::2] = row.tolist()
        yield template % tuple(values)


def cmd_evolve(args: argparse.Namespace) -> None:
    check_int(args.stride, "--stride", 1)
    json_out = None
    if args.out is not None:
        json_out = os.path.splitext(args.out)[0] + ".json"
        if json_out == args.out:
            raise DomainError(f"--out {args.out} is also the path of the "
                              "companion JSON; give the CSV another extension")
        # checked, as main checks --out, before anything is computed
        _writable_target(json_out)
    trace, site, x, periods = _evolve_trace(args, json_out)
    peaks = dynamics.spectrum(trace, site)

    companion = {
        "site": site,
        "x": x,
        "predicted_periods": periods,
        "predicted_frequencies": (
            None if periods is None else [2.0 * math.pi / t for t in periods]),
        "peaks": [[f_, p_] for f_, p_ in peaks[:12]],
        "norm_drift": trace.norm_drift,
        "energy_drift": trace.energy_drift,
        "dt": trace.dt,
        "t_end": float(trace.times[-1]),
        "stride": args.stride,
    }

    _emit(args.out, _evolve_csv(trace, args.stride))
    _emit_json(json_out, companion, sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: it binds
    each handler and default at build time and keeps no state between
    parses."""
    parser = argparse.ArgumentParser(
        prog="starktree",
        description="Bifurcation trees and dynamics of tilted-lattice "
                    "DNLS stationary states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--x", type=float, help="ratio nu/f")
    common.add_argument("--set", type=_parse_set,
                        help="comma-separated sites, e.g. 0,1,3")
    common.add_argument("--nu", type=float,
                        help="nonlinearity nu; give --x or --nu/--f, or --x "
                             "with one of them.  --x alone means nu = x, "
                             "f = 1, but nu = 0.05, f = 0.05/x for the "
                             "three-state beating of evolve")
    common.add_argument("--f", type=float, help="tilt f")
    common.add_argument("--beta", type=float, default=0.0, help="hopping beta")
    common.add_argument("--steps", type=int, default=None,
                        help="continuation steps to reach beta > 0 "
                             f"(default {DEFAULT_CONTINUATION_STEPS})")
    common.add_argument("--signs", type=_parse_signs, default=None,
                        help="sign pattern '+-+' or 'random'")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for --signs random")
    common.add_argument("--out", type=str, default=None, help="output path")

    p_count = sub.add_parser("count", help="branch counting function at nu/f")
    p_count.add_argument("--x", type=float, help="ratio nu/f")
    p_count.set_defaults(handler=cmd_count)

    p_tree = sub.add_parser("tree", help="bifurcation tree dataset over nu/f")
    p_tree.add_argument("--x-min", type=float, required=True)
    p_tree.add_argument("--x-max", type=float, required=True)
    p_tree.add_argument("--samples", type=int, default=DEFAULT_TREE_SAMPLES)
    p_tree.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tree.add_argument("--out", type=str, default=None, help="output path")
    p_tree.set_defaults(handler=cmd_tree)

    sub.add_parser("state", parents=[common], help="stationary state as JSON"
                   ).set_defaults(handler=cmd_state)
    sub.add_parser("continue", parents=[common],
                   help="continuation path to finite hopping"
                   ).set_defaults(handler=cmd_continue)
    p_evolve = sub.add_parser("evolve", parents=[common],
                              help="time evolution dataset")
    p_evolve.add_argument("--t-end", type=float,
                          default=20.0 * dynamics.BLOCH_PERIOD,
                          help="dimensionless time horizon")
    p_evolve.add_argument("--dt", type=float, default=dynamics.DEFAULT_DT)
    p_evolve.add_argument("--j", type=int, default=None,
                          help="well index for the three-state superposition "
                               "(default 0)")
    p_evolve.add_argument("--site", type=int, default=None,
                          help="site whose density is Fourier-analysed")
    p_evolve.add_argument("--stride", type=int, default=1,
                          help="emit every stride-th step to the CSV")
    p_evolve.add_argument("--initial", type=str, default=None,
                          help="state JSON file to use as initial condition")
    p_evolve.set_defaults(handler=cmd_evolve)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        # --out is refused before any work, not once the data is made
        if getattr(args, "out", None) is not None:
            _writable_target(args.out)
        args.handler(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
