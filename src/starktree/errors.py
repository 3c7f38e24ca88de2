"""Exception types shared across the package, and the four argument checks
that state each rule once: check_int, check_real, check_signs, check_site.

The CLI maps these errors onto its exit codes in `cli.EXIT_CODES`.
"""

import math
import numbers
import operator

__all__ = ["ConfigurationError", "DomainError", "InadmissibleSetError",
           "IntegrationError", "ResonanceError", "SolverError"]


class DomainError(ValueError):
    """Argument outside an operation's mathematical domain."""


class ConfigurationError(ValueError):
    """Well-formed input that does not fit the requested computation
    (typically a lattice window too small for the support)."""


class InadmissibleSetError(DomainError):
    """Solution set not admissible at the requested nu/f ratio.

    Carries the birth threshold (the complementary-set sum) that nu/f
    must strictly exceed.
    """

    def __init__(self, message, threshold):
        super().__init__(message)
        self.threshold = threshold


class ResonanceError(RuntimeError):
    """The state energy coincides with a tilt rung on an empty site, so the
    zero-hopping Jacobian is singular and continuation is refused."""


class SolverError(RuntimeError):
    """Newton iteration failed; carries the last residual norm and, for
    continuation runs, the partial path walked so far."""

    def __init__(self, message, residual=None, path=None):
        super().__init__(message)
        self.residual = residual
        self.path = list(path) if path is not None else []


class IntegrationError(RuntimeError):
    """Time integration drifted beyond the accepted quality gate."""


def check_int(value, name: str, lo: int | None = None,
              hi: int | None = None) -> int:
    """`value` as an exact integer within [lo, hi] (either bound optional).

    Floats are refused even when integral, and booleans although they are
    ints; anything that is not an integer or lies outside the bounds raises
    DomainError naming `name`.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise DomainError(f"{name} must be <= {hi}, got {value}")
    return value


def check_real(value, name: str, above: float | None = None,
               at_least: float | None = None) -> float:
    """`value` as a finite float, > above and >= at_least (either optional).

    Python and numpy real scalars pass; booleans, strings, None, NaN, +-inf,
    integers beyond the double range and values outside the bounds raise
    DomainError naming `name`.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    if above is not None and number <= above:
        bound = "positive" if above == 0 else f"> {above}"
        raise DomainError(f"{name} must be {bound}, got {number}")
    if at_least is not None and number < at_least:
        bound = "non-negative" if at_least == 0 else f">= {at_least}"
        raise DomainError(f"{name} must be {bound}, got {number}")
    return number


def check_signs(signs, n: int) -> tuple[int, ...]:
    """`signs` as n ints +-1: a '+-' string, a sequence of integers under
    check_int's rule (no True, no 1.0), or None for all-plus."""
    if signs is None:
        return (1,) * n
    if isinstance(signs, str):
        if signs.strip("+-"):
            raise DomainError(f"sign string may only contain '+'/'-', got {signs!r}")
        signs = [1 if ch == "+" else -1 for ch in signs]
    try:
        out = tuple(check_int(s, "sign") for s in signs)
    except TypeError:
        raise DomainError(f"signs must be a '+-' string or +-1 sequence, "
                          f"got {signs!r}") from None
    if not all(s in (1, -1) for s in out):
        raise DomainError(f"signs must be +-1, got {out}")
    if len(out) != n:
        raise DomainError(f"expected {n} signs, got {len(out)}")
    return out


def check_site(site, window: tuple[int, int]) -> int:
    """The row, site - lo, of an integer site in the window (lo, hi)."""
    site = check_int(site, "site")
    lo, hi = window
    if not lo <= site <= hi:
        raise ConfigurationError(f"site {site} outside window {window}")
    return site - lo
