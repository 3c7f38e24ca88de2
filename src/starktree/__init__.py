"""Bifurcation trees of tilted-lattice DNLS stationary states.

Stationary states of the discrete nonlinear Schroedinger equation with an
on-site tilt, built exactly in the zero-hopping limit, counted through
distinct-part partitions, continued to finite hopping by Newton iteration,
and probed in time for the multi-frequency beating of superposed states.

Each module declares its public names in its own `__all__`; the package
re-exports them all.
"""

from . import anticontinuum, continuation, dynamics, errors, partitions
from .errors import *
from .partitions import *
from .anticontinuum import *
from .continuation import *
from .dynamics import *

__all__ = sorted(name for module in (errors, partitions, anticontinuum,
                                     continuation, dynamics)
                 for name in module.__all__)

__version__ = "0.1.0"
