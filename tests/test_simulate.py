import dataclasses

import numpy as np
import pytest

from insdual import (
    ClaimSchedule,
    evolve_path,
    integrate_primal,
    poisson_schedule,
    sde_residual,
)
from tests.test_model import make_params


class TestClaimSchedule:
    def test_rejects_bad_times(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ClaimSchedule(times=np.ones((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            ClaimSchedule(times=np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            ClaimSchedule(times=np.array([0.5, 0.5]))

    def test_frozen(self):
        s = ClaimSchedule(times=np.array([0.5]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.times = np.array([0.1])
        with pytest.raises(ValueError):
            s.times[0] = 0.1

    def test_empty_schedule_allowed(self):
        s = ClaimSchedule(times=np.array([]))
        assert s.times.size == 0


class TestPoissonSchedule:
    def test_seed_reproducible(self):
        a = poisson_schedule(2.0, 1.0, seed=7)
        b = poisson_schedule(2.0, 1.0, seed=7)
        np.testing.assert_array_equal(a.times, b.times)

    def test_times_inside_horizon(self):
        s = poisson_schedule(5.0, 3.0, seed=1)
        assert np.all(s.times > 0.0)
        assert np.all(s.times <= 3.0)
        assert np.all(np.diff(s.times) > 0.0)

    def test_zero_horizon_empty(self):
        assert poisson_schedule(2.0, 0.0, seed=3).times.size == 0

    def test_long_run_rate(self):
        # one long draw instead of many short ones: the count over a
        # horizon of 5000 concentrates to intensity * horizon
        s = poisson_schedule(2.0, 5000.0, seed=11)
        rate = s.times.size / 5000.0
        assert abs(rate - 2.0) <= 4.0 * np.sqrt(2.0 / 5000.0)

    def test_rejects(self):
        with pytest.raises(ValueError, match="intensity"):
            poisson_schedule(0.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            poisson_schedule(1.0, -1.0, seed=1)


class TestIntegratePrimal:
    def test_zero_retention_is_pure_drift(self):
        p = make_params(alpha=2.0, beta=1.5)
        theta = np.zeros(10)
        out = integrate_primal(theta, p, [], 3.0)
        h = p.T / 10.0
        expected = 3.0 + (p.alpha - p.beta) * h * np.arange(10)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_claim_hits_exactly_once(self):
        p = make_params(alpha=2.0, beta=1.5, delta=0.7)
        theta = np.ones(10)
        claims = ClaimSchedule(times=np.array([0.5]))
        out = integrate_primal(theta, p, claims, 1.0)
        h = p.T / 10.0
        inc = np.diff(out)
        assert inc[4] == pytest.approx(p.alpha * h - 0.7, rel=1e-14)
        mask = np.ones(9, dtype=bool)
        mask[4] = False
        np.testing.assert_allclose(inc[mask], p.alpha * h, rtol=1e-14)

    def test_bare_times_use_delta_as_mark(self):
        p = make_params(alpha=2.0, beta=1.5, delta=0.3)
        theta = np.ones(10)
        out = integrate_primal(theta, p, [0.5], 1.0)
        inc = np.diff(out)
        assert inc[4] == pytest.approx(p.alpha * p.T / 10.0 - 0.3, rel=1e-14)

    def test_claim_at_horizon_ignored(self):
        p = make_params(alpha=2.0, beta=1.5)
        theta = np.ones(10)
        out = integrate_primal(theta, p, [1.0], 1.0)
        np.testing.assert_allclose(np.diff(out), p.alpha * 0.1, rtol=1e-14)

    def test_linearity_in_start(self):
        p = make_params(alpha=2.0, beta=1.5)
        theta = np.linspace(0.0, 1.0, 20)
        lo = integrate_primal(theta, p, [0.3], 0.0)
        hi = integrate_primal(theta, p, [0.3], 2.0)
        np.testing.assert_allclose(hi - lo, 2.0, atol=1e-12)

    def test_rejects(self):
        p = make_params()
        with pytest.raises(ValueError, match="nonempty"):
            integrate_primal(np.array([]), p, [], 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            integrate_primal(np.ones((3, 3)), p, [], 1.0)
        with pytest.raises(ValueError, match="NaN"):
            integrate_primal(np.ones(5), p, [0.5, np.nan], 1.0)

    def test_single_step_is_the_start(self):
        out = integrate_primal(np.ones(1), make_params(), [0.5], 2.5)
        np.testing.assert_array_equal(out, [2.5])

    @pytest.mark.parametrize(
        "claims",
        ["two_claims", ClaimSchedule(times=np.array([0.405, 0.733]))],
        ids=["on-grid", "off-grid"],
    )
    def test_reproduces_reconstructed_increments(
        self, request, dear_refined_solution, dear_params, claims
    ):
        # the dual reconstruction and the forward accumulation see the same
        # claims and must agree step by step up to exactly the reported
        # dynamics defect, on grid times and between them
        if isinstance(claims, str):
            claims = request.getfixturevalue(claims)
        path = evolve_path(dear_refined_solution, claims, x=1.0)
        out = integrate_primal(path.theta, dear_params, claims, float(path.wealth[0]))
        gap = float(np.max(np.abs(np.diff(out) - np.diff(path.wealth))))
        assert gap == pytest.approx(sde_residual(path, dear_params), abs=1e-12)
