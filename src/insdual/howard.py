"""Backward solve of the discrete variational inequality by policy iteration.

Each time layer is a stationary complementarity system in the unknown row
v, given the already-solved later row v_next. The iteration alternates

  improvement   pick, per node, the candidate control minimizing the
                stationary operator value, then split nodes into the
                continuation set (stationary part <= obstacle at the
                current iterate, ties included) and the obstacle set
                (strictly larger);

  evaluation    solve the mixed linear system that enforces the chosen
                rows exactly: implicit operator rows on the continuation
                set, v[j] = v[j-1] on the obstacle set.

The loop stops when the policy system repeats, that is the region and
the controls at the continuation nodes (the controls at obstacle nodes
do not enter it): solving it again would give the same row bit for
bit, so the returned row is an exact fixed point of its own
improvement, and the complementarity conditions hold to linear-solver
precision. A finite ladder and a monotone scheme bound the
number of sweeps (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal.
47(4), 2009); a layer that has not stopped after MAX_SWEEPS sweeps
raises HowardNonconvergence.

Each layer records how many sweeps it took and its complementarity
extrema at the returned row, read off the improvement pass that ended
the layer, so the solution's residuals need no second evaluation of the
operator. The region of a layer is the boolean obstacle mask of that
pass: true where the obstacle expression binds.

A layer starts at v = v_next, the row the layer above returned, and that
layer's last improvement pass was taken at exactly this row. Its control
row, chosen operator values and obstacle values read nothing but the
row, so solve_backward hands the pass down in the sweep's _SystemSlot,
keyed by the row's bytes, and the layer takes it as its first pass
instead of scanning the ladder again. The sweep comes out bit for bit
as with a full first scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .grid import Grid
from .model import ModelParams, conjugate_utility, terminal_condition
from .scheme import (
    ControlSet,
    OperatorTables,
    _signature,
    _SystemSlot,
    build_tables,
    obstacle_values,
    operator_values,
    solve_policy_system,
)

__all__ = [
    "StepDiagnostics",
    "DiscreteSolution",
    "HowardNonconvergence",
    "solve_time_step",
    "solve_backward",
    "complementarity_extrema",
    "growth_margins",
]

# sweeps a layer may take; no layer of the dear, alpha = 5 or kappa = 3
# problems takes more than 5 on any mesh from 50x100 to 200x2000
MAX_SWEEPS = 200

GROWTH_BAND = (0.05, 0.95)


class HowardNonconvergence(RuntimeError):
    """Raised when a layer's policy system has not repeated within MAX_SWEEPS sweeps.

    Also raised when an evaluation produces non-finite values.
    """

    def __init__(self, message, time_index, last_iterate):
        super().__init__(message)
        self.time_index = time_index
        self.last_iterate = last_iterate


@dataclass
class StepDiagnostics:
    """How one layer ended, and its complementarity at the returned row.

    A layer's time index is its position in DiscreteSolution.diagnostics.
    iterations counts the improvement passes the layer took.
    policy_stable, a class constant, is true: a layer ends only on a
    repeated policy system and raises otherwise.
    lowest_argument is the smallest value either argument of the
    pointwise minimum takes on the layer, largest_minimum the largest
    value of the minimum itself (see complementarity_extrema).
    """

    iterations: int
    policy_stable: ClassVar[bool] = True
    lowest_argument: float = np.nan
    largest_minimum: float = np.nan


@dataclass
class DiscreteSolution:
    """Converged surface with its per-layer controls and region labels.

    surface      (n_steps + 1, m); the last row is the terminal data
    control      (n_steps, m) minimizing candidate per non-terminal node
    region       (n_steps, m) bool, true on the obstacle set (where the
                 obstacle expression binds), false on the continuation set
    diagnostics  one StepDiagnostics per time layer, in time order
    tables       the operator store the sweep evaluated (None when the
                 solution was not made by solve_backward)
    wealth       (n_steps, m) wealth implied by the surface at layers
                 0 .. n_steps - 1 (not a field; see below)
    start_range  (min, max) of wealth[0], the wealth the starting layer
                 attains (not a field; see below)

    A solution's arrays are not modified after construction:
    solve_backward returns surface, control and region read-only. The
    wealth table and the start range are read off the surface once, on
    first use, and kept; dataclasses.replace makes a new solution that
    reads its own.
    """

    grid: Grid
    params: ModelParams
    controls: ControlSet
    surface: np.ndarray
    control: np.ndarray
    region: np.ndarray
    diagnostics: list = field(default_factory=list)
    tables: OperatorTables | None = None

    @cached_property
    def wealth(self) -> np.ndarray:
        """Read-only wealth table, one row per non-terminal layer."""
        return _wealth_table(self)

    @cached_property
    def start_range(self) -> tuple[float, float]:
        """(min, max) of the starting layer's wealth row, as floats (0.0, not -0.0)."""
        row = self.wealth[0]
        return float(row.min()) + 0.0, float(row.max())


def _wealth_table(solution: DiscreteSolution):
    """Wealth read-off of every non-terminal layer, one row per layer.

    Backward difference of the stored surface scaled by (1 - s)**2 (the
    compactification chain rule) and by exp(r * t_i) (undoing the stored
    discounting); the first node has no left neighbour and uses the
    forward difference.
    """
    grid = solution.grid
    n = grid.n_steps
    s = grid.states
    gaps = grid.gaps
    v = solution.surface[:n]
    undiscount = np.exp(solution.params.r * grid.times[:n])[:, None]
    x = np.empty_like(v)
    # the differences are scaled in place, in the order of the per-row form
    # -(1 - s)**2 * dv / ds * undiscount, so every entry keeps its bits
    dv = x[:, 1:]
    np.subtract(v[:, 1:], v[:, :-1], out=dv)
    x[:, :1] = -((1.0 - s[0]) ** 2) * dv[:, :1] / gaps[0] * undiscount
    dv *= -((1.0 - s[1:]) ** 2)
    dv /= gaps
    dv *= undiscount
    x.setflags(write=False)
    return x


def solve_time_step(
    v_next,
    grid: Grid,
    params: ModelParams,
    tables: OperatorTables,
    time_index: int | None = None,
    slot: _SystemSlot | None = None,
):
    """One backward layer: returns (v, control_row, region_row, diagnostics).

    Warm starts from v_next and evaluates the operator store ``tables``.
    The layer ends when its policy system repeats, so the returned row is
    a fixed point of its own improvement. ``slot`` carries the sweep's
    last policy system and last improvement pass (see _SystemSlot): a
    pass it holds for the row v_next itself is this layer's first pass,
    and every pass and solve of the layer is stored back in it. Without
    a slot the layer uses a fresh one. Raises HowardNonconvergence with
    the last iterate if MAX_SWEEPS sweeps finish without the layer ending.
    """
    if slot is None:
        slot = _SystemSlot()
    v_next = np.asarray(v_next, dtype=float)
    v = v_next.copy()
    ht = grid.h_t
    nodes = np.arange(v.size)
    # the stationary part v_next - v + h_t * chosen, formed in place
    stationary = np.empty_like(v)
    for it in range(1, MAX_SWEEPS + 1):
        # improvement: the ladder index row, the chosen operator values
        # (scaled by h_t) and the obstacle values read v alone, so a pass
        # the slot holds for v's bytes is read back, and a scan replaces it
        at = v.tobytes()
        if at != slot.scan_at:
            values = operator_values(v, grid, params, tables)
            kstar = values.argmin(axis=0)
            scaled = values[kstar, nodes]
            scaled *= ht
            slot.scan = kstar, scaled, obstacle_values(v, grid)
            slot.scan_at = at
        kstar, scaled, obstacle = slot.scan
        np.subtract(v_next, v, out=stationary)
        stationary += scaled
        # the first node has no obstacle row: its obstacle value is +inf
        region = stationary > obstacle
        # from sweep 2 on the slot holds this layer's last solved system (on
        # sweep 1, maybe the layer above's); solving it again reproduces v
        if it > 1 and _signature(kstar, region) == slot.signature:
            break
        v_new = solve_policy_system(v_next, grid, params, tables, kstar, region, slot)
        if not np.isfinite(v_new).all():
            raise HowardNonconvergence(
                f"howard: policy evaluation produced non-finite values at "
                f"time index {time_index}",
                time_index,
                v,
            )
        v_prev, v = v, v_new
    else:
        change = float(np.max(np.abs(v - v_prev)))
        raise HowardNonconvergence(
            f"howard: no convergence within {MAX_SWEEPS} iterations at time index "
            f"{time_index}; last sup-change {change:.3e}",
            time_index,
            v,
        )
    diag = StepDiagnostics(it, *_extrema(stationary, obstacle))
    return v, tables.controls[kstar], region, diag


def _extrema(stationary, obstacle):
    """(lowest argument, largest minimum) of one layer's complementarity."""
    return (
        float(min(stationary.min(), obstacle[1:].min())),
        float(np.minimum(stationary, obstacle).max()),
    )


def solve_backward(
    grid: Grid,
    params: ModelParams,
    controls: ControlSet,
) -> DiscreteSolution:
    """Full backward sweep from the terminal layer to time zero.

    Every layer of the sweep shares one _SystemSlot, made for this call
    only, so a repeated policy system is not assembled again and each
    layer's last improvement pass is the next layer's first. Raises
    ValueError if h_t * r >= 1, or if the ladder lacks rho = 1, the only
    control the first node admits.
    """
    if grid.h_t * params.r >= 1.0:
        raise ValueError(
            f"howard: h_t * r = {grid.h_t * params.r} must stay below 1"
        )
    # the candidates are sorted and >= 1: the ladder holds 1 iff it starts there
    first = controls.candidates[0]
    if first != 1.0:
        raise ValueError(
            f"howard: the control ladder must hold rho = 1, the only control "
            f"the first node admits; its first candidate is {first}"
        )
    tables = build_tables(grid, params, controls)
    n = grid.n_steps
    m = grid.n_nodes
    surface = np.empty((n + 1, m))
    surface[n] = terminal_condition(params, grid.states)
    control = np.empty((n, m))
    region = np.empty((n, m), dtype=bool)
    diags: list[StepDiagnostics] = []
    slot = _SystemSlot()
    for i in range(n - 1, -1, -1):
        v, rho_row, region_row, diag = solve_time_step(
            surface[i + 1], grid, params, tables, time_index=i, slot=slot
        )
        surface[i] = v
        control[i] = rho_row
        region[i] = region_row
        diags.append(diag)
    diags.reverse()
    for filled in (surface, control, region):
        filled.setflags(write=False)
    return DiscreteSolution(
        grid=grid,
        params=params,
        controls=controls,
        surface=surface,
        control=control,
        region=region,
        diagnostics=diags,
        tables=tables,
    )


def complementarity_extrema(solution: DiscreteSolution):
    """Worst complementarity residuals over every non-terminal node.

    Returns (lowest_argument, largest_minimum): the smallest value either
    argument of the pointwise minimum takes anywhere, and the largest
    value the minimum itself takes. Both are in the surface's units and
    grow with its magnitude: a converged surface keeps them within a few
    linear-solver epsilons of zero relative to its largest values (a
    surface reaching 4.7e14 read about +-1e5, 2e-10 relative). Both are
    reduced from the per-layer values that solve_time_step recorded at
    each returned row, with no new evaluation of the operator.
    """
    diags = solution.diagnostics
    return (
        min(d.lowest_argument for d in diags),
        max(d.largest_minimum for d in diags),
    )


def growth_margins(solution: DiscreteSolution):
    """Worst slack of the linear-in-y growth envelope over GROWTH_BAND.

    The undiscounted surface must sit between conjugate_utility(y) plus
    (alpha - beta) * y * (T - t) from below and plus the same with the
    ceding refund (beta - delta*pi)_+ added from above. Returns
    (below_lower, above_upper), each the largest violation found; values
    <= 0 mean the corresponding bound holds everywhere on the band.
    """
    grid = solution.grid
    params = solution.params
    mask = (grid.states >= GROWTH_BAND[0]) & (grid.states <= GROWTH_BAND[1])
    if not mask.any():
        raise ValueError(f"howard: no mesh nodes inside the band {GROWTH_BAND}")
    y = grid.dual_states[mask]
    base = conjugate_utility(params, y)
    k_upper = params.alpha - params.beta + max(
        params.beta - params.delta * params.pi_intensity, 0.0
    )
    k_lower = params.alpha - params.beta
    # every layer at once, one row per time node; both slacks are formed
    # in place in one work array (addition commutes exactly, so the bits
    # are those of the per-layer expressions), which keeps the temporaries
    # at two (n_steps + 1, band) arrays
    remaining = (params.T - grid.times)[:, None]
    u = np.exp(params.r * grid.times)[:, None] * solution.surface[:, mask]
    slack = k_lower * y * remaining
    slack += base
    slack -= u
    below = slack.max()
    np.multiply(k_upper * y, remaining, out=slack)
    slack += base
    np.subtract(u, slack, out=slack)
    return float(below), float(slack.max())
