"""Path reconstruction from a converged dual surface.

The optimal primal quantities are read off the dual surface through its
state derivative. The wealth read-off turns a backward difference of the
surface into wealth units, undoing both the compactification chain rule
and the time discounting of the stored surface; ``wealth_row`` gives one
layer of the solution's table. The path itself follows the dual state
forward: a density factor accumulates the chosen control's compensator
between claims and its multiplicative kick at claims, while a
nonincreasing regulator factor caps the state whenever the implied
wealth would go negative.

Per step i >= 1 the evolution is

  1. node j_i is the node the previous dual state projects to: the
     node j''_{i-1} that step settled on (j_init at step 1),
  2. read the layer-i control rho at node j_i,
  3. density *= exp(-pi * h_t * (rho - 1)) and *= rho if a claim acts
     at this step,
  4. dual state = y_init * density * regulator; project it (node j''_i)
     and project the jumped state rho * Y_{i-1} (node j'_i),
  5. while wealth at node j''_i is negative, step j''_i down one node and
     shrink the regulator so the dual state sits on that node,
  6. coverage theta_i = (wealth(j_i) - wealth(j'_i)) / delta and
     wealth_i = wealth(j''_i).

The wealth of every layer is read off once per solution, as one
(n_steps, m) read-only table (``DiscreteSolution.wealth``) that every
path on that solution shares, and a path does a fixed amount of Python
float work per step: projections bisect the grid's states, the control
and the wealth are single table entries, and only the growth factor
still goes through numpy (np.exp, whose last bit math.exp need not
match). The rules and the bits are those of the steps above.

Claims act at the steps ``simulate.claim_steps`` gives them, each of the
size delta the surface is solved for, and ``sde_residual`` checks the
wealth path against ``simulate.wealth_increments``: the rules
``integrate_primal`` uses.
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

    Row i of the solution's read-only wealth table
    (``DiscreteSolution.wealth``), which is read off once per solution.
    """
    n = solution.grid.n_steps
    if not 0 <= i < n:
        raise IndexError(f"policy: wealth defined on layers 0..{n - 1}, got {i}")
    return solution.wealth[i]


def find_initial_state(solution: DiscreteSolution, x: float):
    """Node of the starting layer whose implied wealth is nearest to x.

    Returns (j_init, y_init) with y_init the uncompactified node state.
    Raises UnreachableWealthError when x falls outside the attainable
    range of the starting layer.
    """
    if not x >= 0.0:  # NaN fails too
        raise ValueError(f"policy: starting wealth must be nonnegative, got {x}")
    row = solution.wealth[0]
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

    ``claims`` is a ClaimSchedule or a bare sequence of claim times.
    """
    grid = solution.grid
    params = solution.params
    n = grid.n_steps
    ht = grid.h_t
    nodes = grid.state_tuple
    control = solution.control
    delta = params.delta
    decay = -params.pi_intensity * ht

    flags = claim_steps(claims, ht, n)
    claim_at = flags.tolist()

    w = solution.wealth.item
    j_init, y_init = find_initial_state(solution, x)

    d = 1.0
    reg = 1.0
    y = y_init * d * reg
    rho = control.item(0, j_init)
    jp = project(grid, compactify(rho * y))
    density = [d]
    regulator = [reg]
    dual_state = [y]
    state_index = [j_init]
    jump_state_index = [jp]
    regulated_state_index = [j_init]
    theta = [(w(0, j_init) - w(0, jp)) / delta]
    wealth = [w(0, j_init)]

    escapes = 0
    jpp = j_init
    for i in range(1, n):
        y_prev = y
        # the previous step settled on node jpp: y_prev is its state or,
        # if regulated, within a few ulps of it, so projecting is redundant
        j_i = jpp
        rho = control.item(i, j_i)
        growth = np.exp(decay * (rho - 1.0))
        d = d * growth * (rho if claim_at[i] else 1.0)
        y = y_init * d * reg

        jp = project(grid, compactify(rho * y_prev))
        target = compactify(y)
        jpp = project(grid, target)
        unregulated = jpp

        while w(i, jpp) < 0.0:
            if jpp == 0:
                raise PathEscapeError(
                    f"policy: wealth regulation hit the lowest node at step {i} "
                    f"(dual state {y:.6g})"
                )
            jpp -= 1
        if jpp != unregulated:
            # regulator shrinks so the dual state sits on the chosen node
            reg = expand(nodes[jpp]) / (y_init * d)
            y = y_init * d * reg

        density.append(d)
        regulator.append(reg)
        dual_state.append(y)
        state_index.append(j_i)
        jump_state_index.append(jp)
        regulated_state_index.append(jpp)
        theta.append((w(i, j_i) - w(i, jp)) / delta)
        wealth.append(w(i, jpp))

        escapes = escapes + 1 if (target < nodes[0] or target > nodes[-1]) else 0
        if escapes >= _MAX_HULL_ESCAPES:
            raise PathEscapeError(
                f"policy: dual state left the mesh hull for {escapes} consecutive "
                f"steps (step {i}, state {target:.6g} outside "
                f"[{nodes[0]}, {nodes[-1]}])"
            )

    return PolicyPath(
        times=grid.times[:n].copy(),
        density=np.array(density, dtype=float),
        regulator=np.array(regulator, dtype=float),
        dual_state=np.array(dual_state, dtype=float),
        state_index=np.array(state_index, dtype=np.int64),
        jump_state_index=np.array(jump_state_index, dtype=np.int64),
        regulated_state_index=np.array(regulated_state_index, dtype=np.int64),
        theta=np.array(theta, dtype=float),
        wealth=np.array(wealth, dtype=float),
        claim_flag=flags,
        y_init=y_init,
        j_init=j_init,
    )


def sde_residual(path: PolicyPath, params) -> float:
    """Largest one-step defect of the wealth path against its own dynamics.

    Compares every wealth increment with ``wealth_increments`` under the
    path's retention and claim steps; a path with no step has no defect.
    """
    inc = wealth_increments(path.theta, path.claim_flag, np.diff(path.times), params)
    return float(np.max(np.abs(np.diff(path.wealth) - inc), initial=0.0))
