"""Time and state meshes.

State nodes live strictly inside (0, 1). A mesh can carry one locally
refined window where a path reconstruction needs sub-cell accuracy.
Projection resolves any off-grid state to the nearest stored node, with
ties going to the lower index and out-of-hull values clamping to the
extreme nodes, so jump targets always land on a stored column. It is one
search over the cut of each cell, the last double of the cell that is no
farther from its lower node than from its upper one under floating-point
subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .model import expand

__all__ = ["Grid", "build_uniform", "refine_around", "project"]

# coarse cells a refined window spans on each side of its centre node
REFINE_HALFWIDTH = 2


@dataclass(frozen=True)
class Grid:
    """Uniform time mesh paired with a strictly increasing state mesh.

    horizon  T, finite and positive
    n_steps  N, an integer >= 1; the time nodes are t_i = T * i / N,
             i = 0 .. N (``times``, made on first use)
    states   interior state nodes, strictly increasing inside (0, 1)
    """

    horizon: float
    n_steps: int
    states: np.ndarray

    def __post_init__(self):
        # each check is written to fail on NaN
        if not (isinstance(self.n_steps, Integral) and self.n_steps >= 1):
            raise ValueError(f"grid: n_steps must be an integer >= 1, got {self.n_steps!r}")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"grid: horizon must be finite and positive, got {self.horizon}")
        states = np.array(self.states, dtype=float)
        if states.ndim != 1 or states.size < 2:
            raise ValueError("grid: need at least two state nodes")
        if not ((states > 0.0) & (states < 1.0)).all():
            raise ValueError("grid: states must lie strictly inside (0, 1)")
        if not (np.diff(states) > 0.0).all():
            raise ValueError("grid: states must be strictly increasing")
        states.setflags(write=False)
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "states", states)

    @cached_property
    def times(self) -> np.ndarray:
        """Read-only time nodes horizon * i / n_steps, i = 0 .. n_steps."""
        times = self.horizon * np.arange(self.n_steps + 1) / self.n_steps
        times.setflags(write=False)
        return times

    @cached_property
    def h_t(self) -> float:
        """Time step times[1] - times[0], made on first use."""
        return float(self.times[1] - self.times[0])

    @property
    def n_nodes(self) -> int:
        return self.states.size

    @cached_property
    def gaps(self) -> np.ndarray:
        """Read-only cell widths states[j + 1] - states[j], made on first use."""
        gaps = np.diff(self.states)
        gaps.setflags(write=False)
        return gaps

    @cached_property
    def dual_states(self) -> np.ndarray:
        """Read-only dual state s / (1 - s) of every node s, made on first use."""
        dual_states = expand(self.states)
        dual_states.setflags(write=False)
        return dual_states

    @cached_property
    def cuts(self) -> np.ndarray:
        """Read-only cut of each cell (a, b) = (states[j], states[j + 1]).

        The largest double c in [a, b) with c - a <= b - c, both sides
        rounded as computed: the nearest-node rule itself. Rounding is
        monotone, so the rule holds on [a, c], at every double up to the
        exact midpoint, and nowhere past c. So the rounded midpoint, the
        exact one's nearest double, is at most one double above c, and it
        is never below: (i) where both subtractions are exact (Sterbenz's
        lemma, b / 2 <= c <= 2a), c is the exact midpoint rounded down;
        (ii) where only c - a rounds (a < c / 2), by at most half an ulp of
        c, c lies at most a quarter ulp above the exact midpoint; (iii)
        subnormal cells subtract exactly. One step down where the rounded
        midpoint fails the rule gives c.
        """
        a, b = self.states[:-1], self.states[1:]
        cuts = (a + b) / 2.0
        far = cuts - a > b - cuts
        cuts[far] = np.nextafter(cuts[far], a[far])
        cuts.setflags(write=False)
        return cuts


def build_uniform(n_time: int, n_state: int, horizon: float) -> Grid:
    """Uniform mesh: times i*horizon/n_time, states j/n_state for interior j.

    The state endpoints 0 and 1 are never stored; the mesh holds the
    n_state - 1 interior nodes j/n_state, j = 1 .. n_state - 1, for an
    integer n_state >= 3 (a numpy integer included).
    """
    if not (isinstance(n_state, Integral) and n_state >= 3):
        raise ValueError(f"grid: n_state must be an integer >= 3, got {n_state!r}")
    return Grid(horizon, n_time, np.arange(1, n_state) / n_state)


def _check_refinement(fine_step: float, coarse: float) -> None:
    """Raise ValueError unless refine_around can refine a node whose local
    coarse spacing is ``coarse`` at ``fine_step``."""
    if not 0.0 < fine_step <= coarse * (1.0 + 1e-12):
        raise ValueError(
            f"grid: fine_step must lie in (0, local coarse spacing {coarse}], "
            f"got {fine_step}"
        )


def refine_around(grid: Grid, center_index: int, fine_step: float) -> Grid:
    """Refine the state mesh to spacing fine_step near one node.

    The window spans REFINE_HALFWIDTH local coarse cells on each side of
    ``states[center_index]``, clipped to (0, 1). Every original node is
    retained; each coarse cell inside the window is subdivided so the
    fine mesh passes exactly through the coarse nodes. ``fine_step``
    equal to the local coarse spacing returns the mesh unchanged.
    """
    s = grid.states
    m = s.size
    if not 0 <= center_index < m:
        raise IndexError(f"grid: center_index {center_index} outside stored nodes")
    coarse = s[center_index] - s[center_index - 1] if center_index > 0 else s[1] - s[0]
    _check_refinement(fine_step, coarse)
    lo = s[center_index] - REFINE_HALFWIDTH * coarse
    hi = s[center_index] + REFINE_HALFWIDTH * coarse
    # an edge that rounds to within the merge tolerance of 0 or 1 is the
    # hull boundary, not a node one ulp inside it
    merge = fine_step * 1e-6
    if lo < merge:
        lo = 0.0
    if hi > 1.0 - merge:
        hi = 1.0

    inside = s[(s > lo) & (s < hi)]
    anchors = [lo, *inside.tolist(), hi]
    new_nodes = []
    for a, b in zip(anchors[:-1], anchors[1:]):
        nsub = max(int(round((b - a) / fine_step)), 1)
        for k in range(1, nsub):
            new_nodes.append(a + (b - a) * k / nsub)
    # clipped window edges are mesh boundaries, not nodes
    for edge in (lo, hi):
        if 0.0 < edge < 1.0 and not np.any(np.isclose(s, edge, rtol=0.0, atol=1e-13)):
            new_nodes.append(edge)

    merged = np.sort(np.concatenate([s, np.asarray(new_nodes, dtype=float)]))
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = np.diff(merged) > merge
    return Grid(grid.horizon, grid.n_steps, merged[keep])


def project(grid: Grid, state):
    """Index of the stored node nearest to ``state``.

    Ties break toward the lower index; values outside the node hull,
    +-inf included, clamp to the first or last node, and NaN gives the
    last node. The index is the number of cell cuts below the state: one
    ``searchsorted``, which sorts NaN last, over ``Grid.cuts``, each
    cell's rounded midpoint or the double below it. A scalar
    (Python or numpy float, or a 0-d array) gives an int, an array an
    array of indices.
    """
    pick = grid.cuts.searchsorted(state)
    return int(pick) if pick.ndim == 0 else pick
