import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from insdual import (
    ClaimSchedule,
    build_uniform,
    evolve_path,
    integrate_primal,
    poisson_schedule,
    sde_residual,
)
from insdual.simulate import claim_steps
from tests.test_model import make_params


class TestClaimSchedule:
    def test_rejects_bad_times(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ClaimSchedule(times=np.ones((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            ClaimSchedule(times=np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            ClaimSchedule(times=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("times", [[1.0, np.inf, np.inf], [np.inf, np.inf]])
    def test_repeated_infinite_times_rejected(self, times):
        # inf > inf is false, so a repeated infinite time fails the order check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="increasing"):
                ClaimSchedule(times=np.array(times))

    def test_infinite_time_rejected(self):
        # diagnostics.json would hold the token Infinity, which is no JSON
        with pytest.raises(ValueError, match="finite"):
            ClaimSchedule(times=np.array([0.5, np.inf]))

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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(
            ValueError, match=f"seed must be a nonnegative integer, got {seed}"
        ):
            poisson_schedule(2.0, 1.0, seed=seed)

    def test_numpy_integer_seed(self):
        np.testing.assert_array_equal(
            poisson_schedule(2.0, 1.0, seed=np.int64(7)).times,
            poisson_schedule(2.0, 1.0, seed=7).times,
        )

    @pytest.mark.parametrize(
        "intensity,horizon,name",
        [
            (np.nan, 1.0, "intensity"),
            (np.inf, 1.0, "intensity"),  # gaps of 0: the draw would never end
            (-np.inf, 1.0, "intensity"),
            (2.0, np.nan, "horizon"),
            (2.0, np.inf, "horizon"),
        ],
    )
    def test_rejects_non_finite(self, intensity, horizon, name):
        with pytest.raises(ValueError, match=name):
            poisson_schedule(intensity, horizon, seed=0)


class TestClaimSteps:
    @pytest.mark.parametrize(
        "times", [[-0.5, 0.0, 0.3], [0.0], [0.3, -1e-300], [-np.inf, 0.5]]
    )
    def test_rejects_times_that_are_not_positive(self, times):
        # a bare sequence is held to the rule a ClaimSchedule checks
        with pytest.raises(ValueError, match="strictly positive"):
            claim_steps(times, 0.1, 10)
        with pytest.raises(ValueError, match="strictly positive"):
            integrate_primal(np.ones(10), make_params(), times, 1.0)

    def test_rejects_times_that_are_not_positive_on_a_path(self, dear_refined_solution):
        with pytest.raises(ValueError, match="strictly positive"):
            evolve_path(dear_refined_solution, [-0.5, 0.0, 0.3], 1.0)

    @pytest.mark.parametrize("times", [[np.nan], [0.5, np.nan], [-1.0, np.nan]])
    def test_nan_keeps_its_message(self, times):
        with pytest.raises(ValueError, match="NaN"):
            claim_steps(times, 0.1, 10)

    def test_smallest_positive_time_acts_at_step_one(self):
        counts = claim_steps([5e-324, 0.04, 0.96, 1.2], 0.1, 10)
        assert counts.dtype == np.intp
        assert counts.tolist() == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert claim_steps([0.92], 0.1, 10).tolist() == [0] * 9 + [1]

    def test_counts_every_claim_at_a_crowded_step(self):
        for count in (255, 256, 300):
            times = np.linspace(0.46, 0.54, count)  # all nearest to step 5
            assert claim_steps(times, 0.1, 10).tolist() == [0] * 5 + [count] + [0] * 4
        # many times spread over the steps are counted too
        assert claim_steps(np.linspace(0.01, 0.9, 300), 0.1, 10).sum() == 300


    @pytest.mark.parametrize("h_t", [0.0, -0.0, -0.1, np.nan, -np.inf])
    def test_rejects_a_step_that_is_not_positive(self, h_t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h_t must be positive"):
                claim_steps([0.3, 0.5], h_t, 10)
            with pytest.raises(ValueError, match="h_t must be positive"):
                claim_steps([], h_t, 10)


def array_claim_steps(claims, h_t, n_steps):
    """The claim-step rule as one array pass, kept as the oracle of claim_steps."""
    times = np.asarray(getattr(claims, "times", claims), dtype=float).reshape(-1)
    if not (times > 0.0).all():
        rule = "not be NaN" if np.isnan(times).any() else "be strictly positive"
        raise ValueError(f"simulate: claim times must {rule}")
    steps = np.maximum(np.rint(times / h_t), 1.0)
    return np.bincount(steps[steps < n_steps].astype(np.intp), minlength=n_steps)


@st.composite
def step_cases(draw):
    """(claims, h_t, n_steps): times on, between and past the steps, in every form."""
    n = draw(st.integers(1, 300))
    horizon = draw(st.sampled_from([1.0, 0.3, 2.5, 7.0]))
    h = draw(st.sampled_from([build_uniform(n, 3, horizon).h_t, horizon / n]))
    k = st.integers(-1, n + 2)
    time = st.one_of(
        k.map(lambda i: (i + 0.5) * h),  # exactly half a step
        k.map(lambda i: i * h),
        st.sampled_from([5e-324, np.inf, (n - 0.5) * h, n * h, 0.0, -1.0, np.nan]),
        st.floats(0.0, 2.0 * horizon),
        st.floats(allow_nan=False),
    )
    times = draw(st.lists(time, max_size=12))
    repeat = draw(st.sampled_from([0, 0, 0, 255, 256, 300]))
    if times and repeat:
        times = times + [times[-1]] * repeat  # many claims at one step
    form = draw(st.sampled_from(["schedule", "tuple", "list", "array", "0-d"]))
    if form == "schedule" and all(0.0 < t < np.inf for t in times):
        claims = ClaimSchedule(times=np.unique(times))
    elif form == "tuple":
        claims = tuple(times)
    elif form == "array":
        claims = np.array(times)
    elif form == "0-d" and len(times) == 1:
        claims = np.array(times[0])
    else:
        claims = list(times)
    return claims, h, n


def step_outcome(rule, claims, h_t, n_steps):
    """Counts with their dtype, or the exception type and message."""
    try:
        counts = rule(claims, h_t, n_steps)
    except ValueError as err:
        return type(err), str(err)
    return counts.dtype, counts.shape, counts.tolist()


class TestClaimStepsOracle:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    @example(([-1.0, np.nan], 0.1, 10))
    @example(([0.05, 0.15, 0.25, 0.95, 1.05], 0.1, 10))
    @example(([5e-324, np.inf], 1.0, 1))
    @example(([0.25, 0.75, 1.0], 0.5, 2))
    @example((np.full(256, 0.5), 0.1, 10))
    @example(([0.5] * 255, 0.1, 10))
    @example((np.array(0.5), 0.1, 10))
    def test_matches_the_array_rule(self, case):
        claims, h_t, n_steps = case
        with np.errstate(all="ignore"):
            expected = step_outcome(array_claim_steps, claims, h_t, n_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_outcome(claim_steps, claims, h_t, n_steps)
        assert got == expected
        if got[0] is not ValueError:
            assert got[0] == np.intp


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

    def test_coinciding_claims_each_act(self):
        # two claims nearest to one step both hit it
        p = make_params(alpha=2.0, beta=1.5, delta=0.7)
        out = integrate_primal(np.ones(10), p, [0.5, 0.52], 1.0)
        inc = np.diff(out)
        assert inc[4] == pytest.approx(p.alpha * p.T / 10.0 - 2 * 0.7, rel=1e-14)

    def test_crowded_step_takes_each_claim(self):
        p = make_params(alpha=2.0, beta=1.5, delta=0.7)
        times = np.linspace(0.46, 0.54, 256) * p.T  # all nearest to step 5
        out = integrate_primal(np.full(10, 0.25), p, times, 1.0)
        drift = (p.alpha - p.beta * 0.75) * p.T / 10.0
        inc = np.diff(out)
        assert inc[4] == pytest.approx(drift - 0.25 * 0.7 * 256, rel=1e-14)
        mask = np.ones(9, dtype=bool)
        mask[4] = False
        np.testing.assert_allclose(inc[mask], drift, rtol=1e-12)

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
        [
            "two_claims",
            ClaimSchedule(times=np.array([0.405, 0.733])),
            ClaimSchedule(times=np.array([0.4, 0.401])),
        ],
        ids=["on-grid", "off-grid", "coinciding"],
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
