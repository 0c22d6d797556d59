"""Path reconstruction from a converged dual surface.

The optimal primal quantities are read off the dual surface through its
state derivative. ``wealth_row`` turns a backward difference of the
surface into wealth units, undoing both the compactification chain rule
and the time discounting of the stored surface. The path itself follows
the dual state forward: a density factor accumulates the chosen control's
compensator between claims and its multiplicative kick at claims, while a
nonincreasing regulator factor caps the state whenever the implied wealth
would go negative.

Per step i >= 1 the evolution is

  1. project the previous dual state onto the mesh -> node j_i,
  2. read the layer-i control rho at node j_i,
  3. density *= exp(-pi * h_t * (rho - 1)) and *= rho if a claim acts
     at this step,
  4. dual state = y_init * density * regulator; project it (node j''_i)
     and project the jumped state rho * Y_{i-1} (node j'_i),
  5. while wealth at node j''_i is negative, step j''_i down one node and
     shrink the regulator so the dual state sits on that node,
  6. coverage theta_i = (wealth(j_i) - wealth(j'_i)) / delta and
     wealth_i = wealth(j''_i).

Claims act at the steps ``simulate.claim_steps`` gives them, and
``sde_residual`` checks the wealth path against
``simulate.wealth_increments``: the rules ``integrate_primal`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import project
from .howard import DiscreteSolution
from .model import compactify, expand
from .simulate import claim_steps, wealth_increments

__all__ = [
    "PolicyPath",
    "UnreachableWealthError",
    "PathEscapeError",
    "wealth_row",
    "find_initial_state",
    "evolve_path",
    "sde_residual",
]

# consecutive off-hull projections tolerated before the path is abandoned
_MAX_HULL_ESCAPES = 10


class UnreachableWealthError(ValueError):
    """Requested starting wealth outside the attainable range of the mesh."""


class PathEscapeError(RuntimeError):
    """Path reconstruction left the mesh or regulated itself to the floor."""


@dataclass
class PolicyPath:
    """Reconstructed controlled path on the time mesh t_0 .. t_{N-1}.

    density * regulator * y_init reproduces dual_state exactly at every
    index; regulator starts at 1 and never increases. theta is the
    retained claim fraction and wealth the regulated wealth path.
    """

    times: np.ndarray
    density: np.ndarray
    regulator: np.ndarray
    dual_state: np.ndarray
    state_index: np.ndarray
    jump_state_index: np.ndarray
    regulated_state_index: np.ndarray
    theta: np.ndarray
    wealth: np.ndarray
    claim_flag: np.ndarray
    y_init: float
    j_init: int


def wealth_row(solution: DiscreteSolution, i: int):
    """Wealth implied by the surface at every node of time layer i.

    Backward difference of the stored surface scaled by (1 - s)**2 (the
    compactification chain rule) and by exp(r * t_i) (undoing the stored
    discounting); the first node has no left neighbour and uses the
    forward difference.
    """
    grid = solution.grid
    if not 0 <= i < grid.n_steps:
        raise IndexError(
            f"policy: wealth defined on layers 0..{grid.n_steps - 1}, got {i}"
        )
    s = grid.states
    v = solution.surface[i]
    undiscount = np.exp(solution.params.r * grid.times[i])
    x = np.empty_like(v)
    x[1:] = -((1.0 - s[1:]) ** 2) * (v[1:] - v[:-1]) / (s[1:] - s[:-1]) * undiscount
    x[0] = -((1.0 - s[0]) ** 2) * (v[1] - v[0]) / (s[1] - s[0]) * undiscount
    return x


def find_initial_state(solution: DiscreteSolution, x: float):
    """Node of the starting layer whose implied wealth is nearest to x.

    Returns (j_init, y_init) with y_init the uncompactified node state.
    Raises UnreachableWealthError when x falls outside the attainable
    range of the starting layer.
    """
    if x < 0.0:
        raise ValueError(f"policy: starting wealth must be nonnegative, got {x}")
    row = wealth_row(solution, 0)
    lo, hi = float(row.min()), float(row.max())
    if not lo <= x <= hi:
        raise UnreachableWealthError(
            f"policy: starting wealth {x} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of the starting layer"
        )
    j_init = int(np.argmin(np.abs(row - x)))
    return j_init, expand(float(solution.grid.states[j_init]))


def evolve_path(solution: DiscreteSolution, claims, x: float) -> PolicyPath:
    """Forward reconstruction of the controlled path starting from wealth x.

    ``claims`` is anything with a ``times`` attribute (a ClaimSchedule) or
    a bare sequence of claim times.
    """
    grid = solution.grid
    params = solution.params
    n = grid.n_steps
    ht = grid.h_t
    s = grid.states

    flags = claim_steps(claims, ht, n)

    j_init, y_init = find_initial_state(solution, x)

    density = np.ones(n)
    regulator = np.ones(n)
    dual_state = np.empty(n)
    state_index = np.empty(n, dtype=np.int64)
    jump_state_index = np.empty(n, dtype=np.int64)
    regulated_state_index = np.empty(n, dtype=np.int64)
    theta = np.empty(n)
    wealth = np.empty(n)

    dual_state[0] = y_init * density[0] * regulator[0]
    state_index[0] = j_init
    rho0 = float(solution.control[0][j_init])
    jump_state_index[0] = project(grid, compactify(rho0 * dual_state[0]))
    regulated_state_index[0] = j_init
    w = wealth_row(solution, 0)
    theta[0] = (w[j_init] - w[jump_state_index[0]]) / params.delta
    wealth[0] = w[j_init]

    escapes = 0
    for i in range(1, n):
        target_prev = compactify(dual_state[i - 1])
        j_i = project(grid, target_prev)
        rho = float(solution.control[i][j_i])
        growth = np.exp(-params.pi_intensity * ht * (rho - 1.0))
        density[i] = density[i - 1] * growth * (rho if flags[i] else 1.0)
        regulator[i] = regulator[i - 1]
        dual_state[i] = y_init * density[i] * regulator[i]

        jp = project(grid, compactify(rho * dual_state[i - 1]))
        target = compactify(dual_state[i])
        jpp = project(grid, target)
        unregulated = jpp

        w = wealth_row(solution, i)
        while w[jpp] < 0.0:
            if jpp == 0:
                raise PathEscapeError(
                    f"policy: wealth regulation hit the lowest node at step {i} "
                    f"(dual state {dual_state[i]:.6g})"
                )
            jpp -= 1
        if jpp != unregulated:
            # regulator shrinks so the dual state sits on the chosen node
            regulator[i] = expand(float(s[jpp])) / (y_init * density[i])
            dual_state[i] = y_init * density[i] * regulator[i]

        state_index[i] = j_i
        jump_state_index[i] = jp
        regulated_state_index[i] = jpp
        theta[i] = (w[j_i] - w[jp]) / params.delta
        wealth[i] = w[jpp]

        escapes = escapes + 1 if (target < s[0] or target > s[-1]) else 0
        if escapes >= _MAX_HULL_ESCAPES:
            raise PathEscapeError(
                f"policy: dual state left the mesh hull for {escapes} consecutive "
                f"steps (step {i}, state {target:.6g} outside [{s[0]}, {s[-1]}])"
            )

    return PolicyPath(
        times=grid.times[:n].copy(),
        density=density,
        regulator=regulator,
        dual_state=dual_state,
        state_index=state_index,
        jump_state_index=jump_state_index,
        regulated_state_index=regulated_state_index,
        theta=theta,
        wealth=wealth,
        claim_flag=flags,
        y_init=y_init,
        j_init=j_init,
    )


def sde_residual(path: PolicyPath, params) -> float:
    """Largest one-step defect of the wealth path against its own dynamics.

    Compares every wealth increment with ``wealth_increments`` under the
    path's retention and claim steps, each claim of size delta; a path
    with no step has no defect.
    """
    inc = wealth_increments(
        path.theta, path.claim_flag, np.diff(path.times), params, params.delta
    )
    return float(np.max(np.abs(np.diff(path.wealth) - inc), initial=0.0))
