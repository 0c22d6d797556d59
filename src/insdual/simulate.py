"""Claim schedules, the claim-step and wealth-increment rules, primal wealth.

Every claim has the one size ``ModelParams.delta`` the surface is solved
for, so a schedule is its arrival times alone. Any number of claims may
act at one time step: ``claim_steps`` counts them as plain integers. The
path reconstruction and the forward (primal) Euler accumulation both
place claims with ``claim_steps`` and step wealth with
``wealth_increments``, so ``integrate_primal`` reproduces a reconstructed
wealth path up to exactly that path's ``sde_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["ClaimSchedule", "poisson_schedule", "claim_steps", "wealth_increments",
           "integrate_primal"]


@dataclass(frozen=True)
class ClaimSchedule:
    """Claim arrival times: one-dimensional, finite, positive, strictly increasing.

    Each claim has size ``ModelParams.delta``.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("simulate: claim times must be a one-dimensional array")
        if np.isnan(times).any():
            raise ValueError("simulate: claim times must not be NaN")
        if np.any(times <= 0.0):
            raise ValueError("simulate: claim times must be strictly positive")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("simulate: claim times must be strictly increasing")
        if np.isinf(times).any():
            raise ValueError("simulate: claim times must be finite")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)


def poisson_schedule(intensity: float, horizon: float, seed: int) -> ClaimSchedule:
    """Claim times on (0, horizon] drawn with exponential inter-arrivals.

    Uses numpy's seeded default generator (PCG64), so one seed gives the
    same schedule on every platform. horizon = 0 yields an empty schedule.
    Both arguments must be finite (NaN fails the checks), and the seed an
    integer >= 0.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"simulate: seed must be a nonnegative integer, got {seed}")
    if not 0.0 < intensity < np.inf:
        raise ValueError(f"simulate: intensity must be positive and finite, got {intensity}")
    if not 0.0 <= horizon < np.inf:
        raise ValueError(f"simulate: horizon must be nonnegative and finite, got {horizon}")
    rng = np.random.default_rng(seed)
    times = []
    t = rng.exponential(1.0 / intensity)
    while t <= horizon:
        times.append(t)
        t += rng.exponential(1.0 / intensity)
    return ClaimSchedule(times=np.asarray(times, dtype=float))


def claim_steps(claims, h_t: float, n_steps: int):
    """Number of claims acting at each step index 0 .. n_steps - 1.

    A claim at time t acts at the nearest grid step round(t / h_t), halves
    to even; one nearest to step 0 acts at step 1, and one past the last
    step n_steps - 1 is dropped. Claims nearest to one step all act there,
    so a step's count can be any number of claims. A time that is not
    positive (NaN included) is a ValueError, and so is a step h_t that is
    not positive. ``claims`` is a ClaimSchedule or a bare sequence of claim
    times.

    The schedules are short, so the times are counted in one Python loop;
    Python's ``round`` halves to even, like ``np.rint``.
    """
    if not h_t > 0.0:  # NaN fails too
        raise ValueError(f"simulate: step h_t must be positive, got {h_t}")
    times = np.asarray(getattr(claims, "times", claims), dtype=float).reshape(-1).tolist()
    steps = []
    for t in times:
        if not t > 0.0:
            rule = "not be NaN" if np.isnan(times).any() else "be strictly positive"
            raise ValueError(f"simulate: claim times must {rule}")
        q = t / h_t
        if q < n_steps:  # also keeps inf away from round
            step = max(round(q), 1)
            if step < n_steps:
                steps.append(step)
    return np.bincount(steps, minlength=n_steps)


def wealth_increments(theta, claim_flag, dt, params: ModelParams):
    """Wealth change over each step (t_{i-1}, t_i], i = 1 .. n - 1.

    The drift alpha - beta * (1 - theta_i) over the step dt (a scalar or
    one per step), minus theta_i * delta for each claim acting at step i;
    theta and claim_flag (the claim count per step) are indexed by step
    0 .. n - 1.
    """
    theta = np.asarray(theta, dtype=float)[1:]
    drift = (params.alpha - params.beta * (1.0 - theta)) * dt
    return drift - theta * params.delta * claim_flag[1:]


def integrate_primal(theta_path, params: ModelParams, claims, x: float):
    """Euler wealth accumulation under a given strategy and claim schedule.

    theta_path[i] is the claim fraction retained over (t_{i-1}, t_i], on
    the uniform mesh t_i = i * h_t with h_t = params.T / len(theta_path),
    matching a reconstructed path that stops one step short of the horizon
    (theta_path[0] is unused). Claims act at the steps ``claim_steps``
    gives them, each of size params.delta. No positivity is enforced, so
    a bad strategy shows up as negative wealth rather than an error.
    """
    theta = np.asarray(theta_path, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("simulate: theta_path must be a nonempty 1-d sequence")
    h = params.T / theta.size
    wealth = np.zeros(theta.size)
    wealth[1:] = wealth_increments(theta, claim_steps(claims, h, theta.size), h, params)
    wealth = wealth.cumsum()
    wealth += x
    return wealth
