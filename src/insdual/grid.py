"""Time and state meshes.

State nodes live strictly inside (0, 1). A mesh can carry one locally
refined window where a path reconstruction needs sub-cell accuracy.
Projection resolves any off-grid state to the nearest stored node, with
ties going to the lower index and out-of-hull values clamping to the
extreme nodes, so jump targets always land on a stored column.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "build_uniform", "refine_around", "project"]


@dataclass(frozen=True)
class Grid:
    """Uniform time mesh paired with a strictly increasing state mesh.

    times   t_0 = 0 < t_1 < ... < t_N = horizon, equally spaced
    states  interior state nodes, strictly increasing inside (0, 1)
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        states = np.array(self.states, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid: need at least two time nodes")
        if times[0] != 0.0:
            raise ValueError("grid: times must start at 0")
        steps = np.diff(times)
        if np.any(steps <= 0.0):
            raise ValueError("grid: times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("grid: times must be uniformly spaced")
        if states.ndim != 1 or states.size < 2:
            raise ValueError("grid: need at least two state nodes")
        if np.any(states <= 0.0) or np.any(states >= 1.0):
            raise ValueError("grid: states must lie strictly inside (0, 1)")
        if np.any(np.diff(states) <= 0.0):
            raise ValueError("grid: states must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def h_t(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_nodes(self) -> int:
        return self.states.size

    @cached_property
    def state_tuple(self) -> tuple:
        """The states as Python floats, made on first use (scalar projection)."""
        return tuple(self.states.tolist())

    @cached_property
    def gaps(self) -> np.ndarray:
        """Read-only cell widths states[j + 1] - states[j], made on first use."""
        gaps = np.diff(self.states)
        gaps.setflags(write=False)
        return gaps


def build_uniform(n_time: int, n_state: int, horizon: float) -> Grid:
    """Uniform mesh: times i*horizon/n_time, states j/n_state for interior j.

    The state endpoints 0 and 1 are never stored; the mesh holds the
    n_state - 1 interior nodes j/n_state, j = 1 .. n_state - 1.
    """
    if n_time < 1:
        raise ValueError(f"grid: n_time must be >= 1, got {n_time}")
    if n_state < 3:
        raise ValueError(f"grid: n_state must be >= 3, got {n_state}")
    if horizon <= 0.0:
        raise ValueError(f"grid: horizon must be positive, got {horizon}")
    times = horizon * np.arange(n_time + 1) / n_time
    states = np.arange(1, n_state) / n_state
    return Grid(times=times, states=states)


def _check_refinement(halfwidth: int, fine_step: float, coarse: float) -> None:
    """Raise ValueError unless refine_around can refine a node whose local
    coarse spacing is ``coarse`` by ``halfwidth`` cells at ``fine_step``."""
    if halfwidth < 1:
        raise ValueError(f"grid: halfwidth must be >= 1, got {halfwidth}")
    if not 0.0 < fine_step <= coarse * (1.0 + 1e-12):
        raise ValueError(
            f"grid: fine_step must lie in (0, local coarse spacing {coarse}], "
            f"got {fine_step}"
        )


def refine_around(grid: Grid, center_index: int, halfwidth: int, fine_step: float) -> Grid:
    """Refine the state mesh to spacing fine_step near one node.

    The window spans halfwidth local coarse cells on each side of
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
    _check_refinement(halfwidth, fine_step, coarse)
    lo = max(s[center_index] - halfwidth * coarse, 0.0)
    hi = min(s[center_index] + halfwidth * coarse, 1.0)

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
    keep[1:] = np.diff(merged) > fine_step * 1e-6
    return Grid(times=grid.times, states=merged[keep])


def project(grid: Grid, state):
    """Index of the stored node nearest to ``state``.

    Ties break toward the lower index; values outside the node hull,
    +-inf included, clamp to the first or last node, and NaN gives the
    last node. A float (Python or numpy) is resolved by bisection over
    ``grid.state_tuple`` with no array work; anything else goes through
    numpy and an array comes back for an array. Both give the same index.
    """
    if isinstance(state, float):
        nodes = grid.state_tuple
        if not state <= nodes[-1]:
            return len(nodes) - 1
        hi = bisect_left(nodes, state)
        if hi == 0:
            return 0
        return hi - 1 if abs(nodes[hi - 1] - state) <= abs(nodes[hi] - state) else hi
    s = grid.states
    x = np.asarray(state, dtype=float)
    hi = np.clip(np.searchsorted(s, x, side="left"), 0, s.size - 1)
    # above the hull (or NaN) both neighbours are the last node
    lo = np.where(x <= s[-1], np.maximum(hi - 1, 0), hi)
    pick = np.where(np.abs(s[lo] - x) <= np.abs(s[hi] - x), lo, hi)
    return int(pick) if pick.ndim == 0 else pick
