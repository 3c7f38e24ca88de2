"""The public surface: `starktree.__all__` is the sorted union of the
modules' own `__all__` lists, each name declared by the one module that
defines it."""

import starktree
from starktree import anticontinuum, continuation, dynamics, errors, partitions

MODULES = (errors, partitions, anticontinuum, continuation, dynamics)


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
