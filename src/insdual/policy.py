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
  4. dual state = y_init * density * regulator; project it (node j''_i)
     and project the jumped state rho^c * Y_{i-1} (node j'_i), with c the
     number of claims acting at this step (rho * Y_{i-1} when c = 0),
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
node hull or needs regulation. The next pass starts at the cut step. Only
a step no pass takes (one of the last three kinds) goes to the per-step
rules, on Python floats, after an empty pass: a regulated step right
after a pass first meets one. A pass never raises, so a failing path
fails with the error the per-step rules raise first. One read-off after
the first phase then does the jumped states, coverage and wealth of
every step with arrays, from the (n_steps, m) read-only wealth table
that is read off once per solution (``DiscreteSolution.wealth``). The
rules and the bits are those of the steps above.

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
    lo, hi = solution.start_range
    if not lo <= x <= hi:
        raise UnreachableWealthError(
            f"policy: starting wealth {x} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of the starting layer"
        )
    j_init = int(np.abs(solution.wealth[0] - x).argmin())
    return j_init, expand(float(solution.grid.states[j_init]))


def _jump_nodes(grid, kicks, dual_state):
    """Nodes of the jumped states kicks[i] * dual_state[i - 1], i >= 0.

    Step 0 jumps from dual_state[0]. Both are float arrays; ``kicks`` may
    be the shorter, and no state past the last jump's is read.
    """
    prev = np.concatenate((dual_state[:1], dual_state[: kicks.size - 1]))
    return project(grid, compactify(kicks * prev))


def _kick(rho, c):
    """rho ** c, the per-step power, or inf where the per-step rules overflow."""
    try:
        return rho ** c
    except OverflowError:
        return np.inf


def _stretch(solution, i, rho, growth, d, y_init, reg, flags):
    """Steps i .. n - 1 under the control rho, up to the first cut.

    One array pass does what the per-step rules would, claim steps
    included. The densities are one sequential product of d and, per
    step, the growth factor and the kick rho ** c of a step with c claims
    (the per-step power; 1.0, which keeps the bits, elsewhere). A step is
    cut where its control is no longer rho, where its state is not
    positive and finite, leaves the node hull or needs regulation.
    Returns the densities, dual states, nodes and jump factors (rho, or
    rho ** c) of the steps before the first cut; nothing here raises, so
    a failing step fails under the per-step rules.
    """
    at = flags[i:].nonzero()[0]
    kicks = np.full(flags.size - i, rho)
    kicks[at] = [_kick(rho, c) for c in flags[i + at].tolist()]
    factors = np.ones(2 * kicks.size + 1)
    factors[0], factors[1::2], factors[2 * at + 2] = d, growth, kicks[at]
    # the pass runs past its cut, where the per-step rules never compute
    with np.errstate(over="ignore"):
        dens = factors.cumprod()[2::2]
        ys = y_init * dens * reg
    ok = (ys > 0.0) & (ys < np.inf)
    # 1.0 stands in for a state compactify would reject: that step is cut
    target = compactify(np.where(ok, ys, 1.0))
    nodes = project(solution.grid, target)
    states = solution.grid.states
    rows = np.arange(i, i + nodes.size)
    cut = ~ok | (target < states[0]) | (target > states[-1])
    cut |= solution.wealth[rows, nodes] < 0.0
    cut[1:] |= solution.control[rows[1:], nodes[:-1]] != rho
    m = int(cut.argmax()) if cut.any() else nodes.size
    return dens[:m], ys[:m], nodes[:m], kicks[:m]


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
    decay = -params.pi_intensity * grid.h_t

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

    d = reg = 1.0
    jpp = j_init
    escapes = 0
    i = 1
    try:
        while i < n:
            # the previous step settled on node jpp: its state is that node's
            # or, if regulated, within a few ulps of it, so projecting is redundant
            rho = control(i, jpp)
            growth = float(np.exp(decay * (rho - 1.0)))
            dens, ys, js, ks = _stretch(solution, i, rho, growth, d, y_init, reg, flags)
            if js.size:
                end = i + js.size
                density[i:end] = dens
                regulator[i:end] = reg
                dual_state[i:end] = ys
                kicks[i:end] = ks
                settled[i:end] = js
                d, jpp, escapes, i = float(dens[-1]), int(js[-1]), 0, end
                continue

            # the per-step rules: a step no pass can take
            kick = rho
            d = d * growth
            if flags[i]:
                kick = rho ** flags.item(i)
                d = d * kick
            kicks[i] = kick
            y = y_init * d * reg

            target = compactify(y)
            jpp = unregulated = project(grid, target)
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

            density[i] = d
            regulator[i] = reg
            dual_state[i] = y
            settled[i] = jpp

            escapes = escapes + 1 if (target < nodes[0] or target > nodes[-1]) else 0
            if escapes >= _MAX_HULL_ESCAPES:
                raise PathEscapeError(
                    f"policy: dual state left the mesh hull for {escapes} consecutive "
                    f"steps (step {i}, state {target:.6g} outside "
                    f"[{nodes[0]}, {nodes[-1]}])"
                )
            i += 1
    except PathEscapeError:
        # the per-step rules project a step's jumped state before its new
        # one: a jumped state up to this step that cannot be mapped fails first
        _jump_nodes(grid, kicks[: i + 1], dual_state)
        raise

    rows = np.arange(n)
    table = solution.wealth
    state_index = np.concatenate((settled[:1], settled[:-1]))
    jump_state_index = _jump_nodes(grid, kicks, dual_state)
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
