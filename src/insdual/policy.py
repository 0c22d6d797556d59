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
  3. density *= exp(-pi * h_t * (rho - 1)), and *= rho once per claim
     acting at this step,
  4. dual state = y_init * density * regulator, a PathEscapeError when it
     is not positive and finite; project it (node j''_i) and project the
     jumped state rho^c * Y_{i-1} (node j'_i), with c the number of claims
     acting at this step (rho * Y_{i-1} when c = 0),
  5. while wealth at node j''_i is negative, step j''_i down one node and
     shrink the regulator so the dual state sits on that node,
  6. coverage theta_i = (wealth(j_i) - wealth(j'_i)) / (max(c, 1) * delta),
     each of the c claims covered at the step's mean retention, and
     wealth_i = wealth(j''_i).

``evolve_path`` runs these rules in two phases. The first moves through
the path in array passes: from a step settled on a node, one pass takes
every later step under that node's control rho, claim steps included (the
densities are one sequential product of the growth factors and kicks
rho^c, the bits of the per-step update), up to its first cut: a step whose
control is not rho, whose state is not positive and finite, leaves the
node hull or needs regulation. The five path arrays (density, regulator,
dual state, jump factor, settled node) are the only record of the path
state: a pass starts from step i - 1's entries, writes every step from i
on in place, past its cut too, and returns only its cut. A step cut by
its control starts the next pass. At any other cut step the per-step
rules do only the rest: they refuse a state that is not positive and
finite, regulate, writing only the regulator, dual state and settled node
that regulation changes, and count hull escapes; the next pass starts
after it, and no pass is empty. Either way the next pass rewrites every
step past the cut. A node's dual state is read off ``Grid.dual_states``. A
pass never raises, so a failing path fails with the error the per-step
rules raise first. A path that succeeds then goes to one read-off, which
projects every step's jumped state (one past the largest double maps to
the last node) and does the coverage and wealth of every step with
arrays, from the (n_steps, m) read-only wealth table that is read off
once per solution (``DiscreteSolution.wealth``). The rules and the bits
are those of the steps above.

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
from .model import compactify
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
    lo, hi = solution.start_range
    if not lo <= x <= hi:
        raise UnreachableWealthError(
            f"policy: starting wealth {x} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of the starting layer"
        )
    j_init = int(np.abs(solution.wealth[0] - x).argmin())
    return j_init, solution.grid.dual_states.item(j_init)


def _stretch(solution, i, rho, y_init, flags, path):
    """One pass over steps i .. n - 1 under the control rho.

    ``path`` is (density, regulator, dual_state, kicks, settled), the
    path's arrays; the pass starts from step i - 1's density and
    regulator and writes steps i .. n - 1 of all five in place, its cut
    step and the steps after it included. One array pass does what the
    per-step rules would, claim steps included. The densities are one
    sequential product of the previous density and, per step, the growth
    factor and the kick rho ** c of a step with c claims (the per-step
    power, inf where it overflows; 1.0, which keeps the bits, elsewhere).
    A step is cut where its control is no longer rho, where its state is
    not positive and finite, leaves the node hull or needs regulation.
    Returns the index of the first cut (the pass's length if none);
    nothing here raises, so a failing step fails under the per-step rules.
    """
    density, regulator, dual_state, kicks, settled = path
    at = flags[i:].nonzero()[0]
    factors = np.ones(2 * (flags.size - i) + 1)
    growth = np.exp(-solution.params.pi_intensity * solution.grid.h_t * (rho - 1.0))
    factors[0], factors[1::2] = density[i - 1], growth
    kicks[i:] = rho
    regulator[i:] = reg = regulator.item(i - 1)
    # the pass runs past its cut, where the per-step rules never compute
    with np.errstate(over="ignore"):
        # one scalar libm pow per claim step, as Python's rho ** c; numpy's
        # array power may take a SIMD loop that rounds otherwise
        kicks[i + at] = [np.float64(rho) ** c for c in flags[i + at].tolist()]
        factors[2 * at + 2] = kicks[i + at]
        density[i:] = factors.cumprod()[2::2]
        dual_state[i:] = ys = y_init * density[i:] * reg
    ok = (ys > 0.0) & (ys < np.inf)
    # 1.0 stands in for a state compactify would reject: that step is cut
    target = compactify(np.where(ok, ys, 1.0))
    settled[i:] = nodes = project(solution.grid, target)
    states = solution.grid.states
    rows = np.arange(i, i + nodes.size)
    cut = ~ok | (target < states[0]) | (target > states[-1])
    cut |= solution.wealth[rows, nodes] < 0.0
    cut[1:] |= solution.control[rows[1:], nodes[:-1]] != rho
    return int(cut.argmax()) if cut.any() else nodes.size


def evolve_path(solution: DiscreteSolution, claims, x: float) -> PolicyPath:
    """Forward reconstruction of the controlled path starting from wealth x.

    ``claims`` is a ClaimSchedule or a bare sequence of claim times.
    """
    grid = solution.grid
    params = solution.params
    n = grid.n_steps
    nodes = grid.states
    control = solution.control.item
    w = solution.wealth.item

    flags = claim_steps(claims, grid.h_t, n)
    j_init, y_init = find_initial_state(solution, x)

    density = np.empty(n)
    regulator = np.empty(n)
    dual_state = np.empty(n)
    kicks = np.empty(n)  # factor of each step's jumped state: rho, or rho ** count
    settled = np.empty(n, dtype=np.int64)
    density[0] = regulator[0] = 1.0
    dual_state[0] = y_init
    kicks[0] = control(0, j_init)
    settled[0] = j_init

    path = (density, regulator, dual_state, kicks, settled)
    escapes = 0
    i = 1
    while i < n:
        # the previous step settled on a node: its state is that node's
        # or, if regulated, within a few ulps of it, so projecting is redundant
        rho = control(i, settled.item(i - 1))
        m = _stretch(solution, i, rho, y_init, flags, path)
        if m:
            escapes, i = 0, i + m
        # a step cut by its control starts the next pass, which rewrites it
        if i == n or control(i, settled.item(i - 1)) != rho:
            continue

        # the per-step rules: the cut step as its pass wrote it
        d, y, jpp = density.item(i), dual_state.item(i), settled.item(i)
        if not 0.0 < y < np.inf:
            raise PathEscapeError(
                f"policy: dual state {y} at step {i} is not positive and finite"
            )
        target = compactify(y)
        while w(i, jpp) < 0.0:
            if jpp == 0:
                raise PathEscapeError(
                    f"policy: wealth regulation hit the lowest node at step {i} "
                    f"(dual state {y:.6g})"
                )
            jpp -= 1
        if jpp != settled[i]:
            # regulator shrinks so the dual state sits on the chosen node
            reg = grid.dual_states.item(jpp) / (y_init * d)
            regulator[i], dual_state[i], settled[i] = reg, y_init * d * reg, jpp

        escapes = escapes + 1 if (target < nodes[0] or target > nodes[-1]) else 0
        if escapes >= _MAX_HULL_ESCAPES:
            raise PathEscapeError(
                f"policy: dual state left the mesh hull for {escapes} consecutive "
                f"steps (step {i}, state {target:.6g} outside "
                f"[{nodes[0]}, {nodes[-1]}])"
            )
        i += 1

    rows = np.arange(n)
    table = solution.wealth
    state_index = np.concatenate((settled[:1], settled[:-1]))
    # step i jumps from dual_state[i - 1], step 0 from dual_state[0]; a
    # jumped state past the largest double maps to the last node
    prev = np.concatenate((dual_state[:1], dual_state[:-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        jump_state_index = project(grid, compactify(kicks * prev))
    # each of a step's claims is covered at the step's mean retention
    coverage = params.delta * np.maximum(flags, 1)
    theta = (table[rows, state_index] - table[rows, jump_state_index]) / coverage
    return PolicyPath(
        times=grid.times[:n].copy(),
        density=density,
        regulator=regulator,
        dual_state=dual_state,
        state_index=state_index,
        jump_state_index=jump_state_index,
        regulated_state_index=settled,
        theta=theta,
        wealth=table[rows, settled],
        claim_flag=flags,
        y_init=y_init,
        j_init=j_init,
    )


def sde_residual(path: PolicyPath, params) -> float:
    """Largest one-step defect of the wealth path against its own dynamics.

    Compares every wealth increment with ``wealth_increments`` under the
    path's retention and claim steps; a path with no step has no defect.
    """
    times, wealth = path.times, path.wealth
    defect = wealth[1:] - wealth[:-1]
    defect -= wealth_increments(
        path.theta, path.claim_flag, times[1:] - times[:-1], params
    )
    return float(np.abs(defect).max(initial=0.0))
