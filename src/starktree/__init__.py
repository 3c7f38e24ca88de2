"""Bifurcation trees of tilted-lattice DNLS stationary states.

Stationary states of the discrete nonlinear Schroedinger equation with an
on-site tilt, built exactly in the zero-hopping limit, counted through
distinct-part partitions, continued to finite hopping by Newton iteration,
and probed in time for the multi-frequency beating of superposed states.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    InadmissibleSetError,
    IntegrationError,
    ResonanceError,
    SolverError,
)
from .partitions import (
    counting_function,
    enumerate_distinct_partitions,
    f_asymptotic,
    q_asymptotic,
    q_distinct,
)
from .anticontinuum import (
    BifurcationTree,
    Branch,
    LatticeParams,
    SolutionSet,
    StationaryState,
    admissible,
    bifurcation_tree,
    birth_threshold,
    build_state,
    complementary_set,
    consecutive_threshold,
    energy_of_set,
    enumerate_solution_sets,
    translate_state,
)
from .continuation import (
    ContinuationResult,
    continue_in_beta,
    dnls_residual,
    extended_jacobian,
    jacobian_diagonal_t0,
    newton_solve,
)
from .dynamics import (
    BLOCH_PERIOD,
    DynamicsTrace,
    beat_periods,
    beating_profile,
    beating_trace,
    evolve,
    spectrum,
    superposition_state,
)

__all__ = [
    "BLOCH_PERIOD",
    "BifurcationTree",
    "Branch",
    "ConfigurationError",
    "ContinuationResult",
    "DomainError",
    "DynamicsTrace",
    "InadmissibleSetError",
    "IntegrationError",
    "LatticeParams",
    "ResonanceError",
    "SolutionSet",
    "SolverError",
    "StationaryState",
    "admissible",
    "beat_periods",
    "beating_profile",
    "beating_trace",
    "bifurcation_tree",
    "birth_threshold",
    "build_state",
    "complementary_set",
    "consecutive_threshold",
    "continue_in_beta",
    "counting_function",
    "dnls_residual",
    "energy_of_set",
    "enumerate_distinct_partitions",
    "enumerate_solution_sets",
    "evolve",
    "extended_jacobian",
    "f_asymptotic",
    "jacobian_diagonal_t0",
    "newton_solve",
    "q_asymptotic",
    "q_distinct",
    "spectrum",
    "superposition_state",
    "translate_state",
]

__version__ = "0.1.0"
