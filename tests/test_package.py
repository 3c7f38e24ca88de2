"""The public surface: `starktree.__all__` is the sorted union of the
modules' own `__all__` lists, each name declared by the one module that
defines it.  The source rules: patterns that must match a fixed number of
lines of the package's source."""

import re
from pathlib import Path

import pytest

import starktree
from starktree import anticontinuum, continuation, dynamics, errors, partitions

MODULES = (errors, partitions, anticontinuum, continuation, dynamics)
PACKAGE = Path(starktree.__file__).parent


def test_each_public_name_is_declared_once_by_its_module():
    names = starktree.__all__
    assert names == sorted(set(names))
    assert names == sorted(name for module in MODULES
                           for name in module.__all__)
    for name in names:
        assert not name.startswith("_")
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, owners)
        obj = getattr(starktree, name)
        assert obj is getattr(owners[0], name)
        if hasattr(obj, "__module__"):
            assert obj.__module__ == owners[0].__name__, name


def test_each_error_is_a_kind_of_one_exit_code_type():
    # a resonance is a solver failure (exit 4), a window too small for the
    # support a domain error (exit 2)
    assert issubclass(errors.ResonanceError, errors.SolverError)
    assert issubclass(errors.ConfigurationError, errors.DomainError)


def matching_lines(pattern, files, excluded):
    """The `file:line: text` of every line of the package's source files
    matching `files` but not named `excluded` that `pattern` finds."""
    regex = re.compile(pattern)
    return [f"{path.name}:{number}: {line}"
            for path in sorted(PACKAGE.glob(files)) if path.name != excluded
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if regex.search(line)]


@pytest.mark.parametrize("files, excluded, pattern, count", [
    # every check in the library raises a documented error; an assert
    # would vanish under python -O
    pytest.param("**/*.py", None, r"^\s*assert\b", 0, id="no assert in src"),
    # the sign rule and the site-in-window rule are stated once, in
    # errors.py; no other module keeps its own copy of either
    pytest.param("**/*.py", None, r"_normalize_signs", 0,
                 id="sign rule lives in errors"),
    pytest.param("*.py", "errors.py", r"outside window", 0,
                 id="site rule lives in errors"),
    # only the CLI writes; diagnostics reach the caller as return values
    # and exceptions, never as text mixed into the data
    pytest.param("*.py", "cli.py", r"\bprint\(|sys\.std(out|err)", 0,
                 id="no library output on stdout or stderr"),
    # main prints the one "error: ..." line of every failed run; no
    # subcommand writes its own message to stderr
    pytest.param("cli.py", None, r"file=sys.stderr", 1, id="one error line"),
    # state, continue and evolve --set reach --beta through the one
    # continue_in_beta call of cli._continued, which writes the failed
    # record of every run that stops on the way
    pytest.param("cli.py", None, r"continue_in_beta\(", 1,
                 id="one continuation call"),
    # evolve --initial and evolve --set each pick their vector, model and
    # default site; the one dynamics.evolve call of cli._evolve_trace
    # integrates either
    pytest.param("cli.py", None, r"dynamics.evolve\(", 1,
                 id="one integration call"),
])
def test_source_rule(files, excluded, pattern, count):
    hits = matching_lines(pattern, files, excluded)
    assert len(hits) == count, hits
