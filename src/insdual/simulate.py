"""Claim schedules, the claim-step and wealth-increment rules, primal wealth.

Every claim has the one size ``ModelParams.delta`` the surface is solved
for, so a schedule is its arrival times alone. The path reconstruction
and the forward (primal) Euler accumulation both place claims with
``claim_steps`` and step wealth with ``wealth_increments``, so
``integrate_primal`` reproduces a reconstructed wealth path up to exactly
that path's ``sde_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["ClaimSchedule", "poisson_schedule", "claim_steps", "wealth_increments",
           "integrate_primal"]


@dataclass(frozen=True)
class ClaimSchedule:
    """Arrival times of claims: one-dimensional, positive, strictly increasing.

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
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("simulate: claim times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)


def poisson_schedule(intensity: float, horizon: float, seed: int) -> ClaimSchedule:
    """Claim times on (0, horizon] drawn with exponential inter-arrivals.

    Uses numpy's seeded default generator (PCG64), so one seed gives the
    same schedule on every platform. horizon = 0 yields an empty schedule.
    """
    if intensity <= 0.0:
        raise ValueError(f"simulate: intensity must be positive, got {intensity}")
    if horizon < 0.0:
        raise ValueError(f"simulate: horizon must be nonnegative, got {horizon}")
    rng = np.random.default_rng(seed)
    times = []
    t = rng.exponential(1.0 / intensity)
    while t <= horizon:
        times.append(t)
        t += rng.exponential(1.0 / intensity)
    return ClaimSchedule(times=np.asarray(times, dtype=float))


def claim_steps(claims, h_t: float, n_steps: int):
    """Indicator of a claim per step index 0 .. n_steps - 1.

    A claim at time t acts at the nearest grid step round(t / h_t), halves
    to even; one nearest to step 0 acts at step 1, and one past the last
    step n_steps - 1 is dropped. ``claims`` is a ClaimSchedule or a bare
    sequence of claim times.
    """
    times = np.asarray(getattr(claims, "times", claims), dtype=float).reshape(-1)
    if np.isnan(times).any():
        raise ValueError("simulate: claim times must not be NaN")
    steps = np.maximum(np.rint(times / h_t), 1.0)
    flags = np.zeros(n_steps, dtype=np.uint8)
    flags[steps[steps < n_steps].astype(np.int64)] = 1
    return flags


def wealth_increments(theta, claim_flag, dt, params: ModelParams):
    """Wealth change over each step (t_{i-1}, t_i], i = 1 .. n - 1.

    The drift alpha - beta * (1 - theta_i) over the step dt (a scalar or
    one per step), minus theta_i * delta when a claim acts at step i;
    theta and claim_flag are indexed by step 0 .. n - 1.
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
    inc = wealth_increments(theta, claim_steps(claims, h, theta.size), h, params)
    return x + np.cumsum(np.concatenate(([0.0], inc)))
