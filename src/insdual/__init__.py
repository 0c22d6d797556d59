"""Dual-side numerical solver for optimal proportional reinsurance.

The package solves, on a compactified mesh, the variational inequality
satisfied by the convex dual of the terminal-utility value function,
then reads the optimal retention strategy and wealth path back off the
solved surface.
"""

from .grid import Grid, build_uniform, project, refine_around
from .howard import (
    DiscreteSolution,
    HowardNonconvergence,
    StepDiagnostics,
    complementarity_extrema,
    growth_margins,
    solve_backward,
)
from .model import (
    ModelParams,
    compactify,
    conjugate_utility,
    expand,
    inverse_marginal,
    terminal_condition,
    utility,
)
from .policy import (
    PathEscapeError,
    PolicyPath,
    UnreachableWealthError,
    evolve_path,
    find_initial_state,
    sde_residual,
    wealth_row,
)
from .scheme import ControlSet, make_control_set
from .simulate import ClaimSchedule, integrate_primal, poisson_schedule

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "build_uniform",
    "project",
    "refine_around",
    "DiscreteSolution",
    "HowardNonconvergence",
    "StepDiagnostics",
    "complementarity_extrema",
    "growth_margins",
    "solve_backward",
    "ModelParams",
    "compactify",
    "conjugate_utility",
    "expand",
    "inverse_marginal",
    "terminal_condition",
    "utility",
    "PathEscapeError",
    "PolicyPath",
    "UnreachableWealthError",
    "evolve_path",
    "find_initial_state",
    "sde_residual",
    "wealth_row",
    "ControlSet",
    "make_control_set",
    "ClaimSchedule",
    "integrate_primal",
    "poisson_schedule",
    "__version__",
]
