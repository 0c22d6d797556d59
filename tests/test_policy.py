import dataclasses
import math

import numpy as np
import pytest

from insdual import (
    ClaimSchedule,
    ControlSet,
    DiscreteSolution,
    Grid,
    PathEscapeError,
    UnreachableWealthError,
    evolve_path,
    find_initial_state,
    project,
    sde_residual,
    wealth_row,
)
from insdual.model import compactify, expand
from insdual.simulate import claim_steps, poisson_schedule, wealth_increments
from tests.test_model import make_params


def make_solution(n_steps, states, rows, control_value, params):
    """Hand-built DiscreteSolution on a unit horizon, one control everywhere.

    The path rules read the control table, never the ladder, so a control
    below 1, which no ladder may hold, fills the table over the ladder {1}.
    """
    grid = Grid(1.0, n_steps, states)
    n, m = grid.n_steps, grid.n_nodes
    surface = np.asarray(rows, dtype=float)
    assert surface.shape == (n + 1, m)
    return DiscreteSolution(
        grid=grid,
        params=params,
        controls=ControlSet(np.array([max(control_value, 1.0)])),
        surface=surface,
        control=np.full((n, m), control_value),
        region=np.zeros((n, m), dtype=bool),
        diagnostics=[],
    )


class TestDiscreteWealth:
    def test_constant_row_is_penniless(self):
        p = make_params(r=0.0)
        rows = np.ones((3, 5))
        sol = make_solution(2, np.linspace(0.2, 0.8, 5), rows, 1.0, p)
        assert np.all(wealth_row(sol, 0) == 0.0)
        assert wealth_row(sol, 1)[3] == 0.0

    def test_hand_computed_backward_difference(self):
        p = make_params(r=0.1)
        states = np.array([0.25, 0.5, 0.75])
        rows = np.array([[3.0, 2.0, 1.5]] * 3)
        sol = make_solution(2, states, rows, 1.0, p)
        # node 1: -(1 - 0.5)^2 * (2 - 3) / 0.25 * e^{0.05}
        expected = 0.25 * 4.0 * np.exp(0.1 * 0.5)
        assert wealth_row(sol, 1)[1] == pytest.approx(expected, rel=1e-14)

    def test_first_node_uses_forward_difference(self):
        p = make_params(r=0.0)
        states = np.array([0.2, 0.4, 0.6])
        rows = np.array([[5.0, 3.0, 2.0]] * 2)
        sol = make_solution(1, states, rows, 1.0, p)
        expected = -((1.0 - 0.2) ** 2) * (3.0 - 5.0) / 0.2
        assert wealth_row(sol, 0)[0] == pytest.approx(expected, rel=1e-14)

    def test_row_matches_scalar(self, cheap_solution):
        g = cheap_solution.grid
        s = g.states
        for i in (0, 25, 49):
            row = wealth_row(cheap_solution, i)
            v = cheap_solution.surface[i]
            undiscount = np.exp(cheap_solution.params.r * g.times[i])
            for j in (0, 1, 49, 98):
                lo = max(j - 1, 0)
                slope = (v[lo + 1] - v[lo]) / (s[lo + 1] - s[lo])
                expected = -((1.0 - s[j]) ** 2) * slope * undiscount
                assert row[j] == pytest.approx(expected, rel=1e-14)

    def test_decreasing_surface_gives_nonnegative_wealth(self, cheap_solution):
        assert np.all(wealth_row(cheap_solution, 0) >= 0.0)

    def test_cheap_midpoint_wealth_is_first_order_accurate(self, cheap_solution):
        # exact dual wealth at y = 1 is 1; the backward difference
        # carries an O(h) bias, so first-order agreement is the contract
        g = cheap_solution.grid
        j = int(np.argmin(np.abs(g.states - 0.5)))
        w = wealth_row(cheap_solution, 0)[j]
        spacing = float(g.states[j] - g.states[j - 1])
        assert abs(w - 1.0) <= 3.0 * spacing

    def test_terminal_layer_has_no_wealth(self, cheap_solution):
        with pytest.raises(IndexError, match="layers"):
            wealth_row(cheap_solution, cheap_solution.grid.n_steps)


class TestFindInitialState:
    def test_exact_hit(self, cheap_solution):
        x = wealth_row(cheap_solution, 0)[30]
        j, y = find_initial_state(cheap_solution, x)
        assert j == 30
        assert y == expand(float(cheap_solution.grid.states[30]))

    @pytest.mark.parametrize("j", [0, 1, 30, 49, 97, 98])
    def test_start_is_the_expanded_node_state(self, cheap_solution, j):
        j_init, y = find_initial_state(cheap_solution, wealth_row(cheap_solution, 0)[j])
        assert type(y) is float
        assert y == expand(cheap_solution.grid.states[j_init])

    def test_midpoint_start(self, cheap_solution):
        j, y = find_initial_state(
            cheap_solution, wealth_row(cheap_solution, 0)[49]
        )
        assert cheap_solution.grid.states[j] == 0.5
        assert y == 1.0

    def test_unreachable(self, cheap_solution):
        with pytest.raises(UnreachableWealthError, match="outside"):
            find_initial_state(cheap_solution, 1e9)

    def test_negative_rejected(self, cheap_solution):
        with pytest.raises(ValueError, match="nonnegative"):
            find_initial_state(cheap_solution, -0.5)

    def test_start_range_is_the_first_row_range(self, cheap_solution):
        row = cheap_solution.wealth[0]
        lo, hi = cheap_solution.start_range
        assert (lo, hi) == (row.min(), row.max())
        assert type(lo) is float and type(hi) is float

    def test_zero_start_range_end_is_positive_zero(self, dear_coarse_solution):
        # the top node's flat difference reads -0.0; range and message
        # report it as 0
        assert dear_coarse_solution.wealth[0].min() == 0.0
        lo, hi = dear_coarse_solution.start_range
        assert math.copysign(1.0, lo) == 1.0
        with pytest.raises(UnreachableWealthError, match=r"range \[0, "):
            find_initial_state(dear_coarse_solution, 2.0 * hi)

    def test_flat_start_range_ends_are_positive_zero(self):
        # a constant surface reads -0.0 at every node; both ends, and the
        # message, report it as 0
        rows = np.ones((3, 5))
        sol = make_solution(2, np.linspace(0.2, 0.8, 5), rows, 1.0, make_params(r=0.0))
        assert math.copysign(1.0, sol.wealth[0].max()) == -1.0
        lo, hi = sol.start_range
        assert (lo, hi) == (0.0, 0.0)
        assert math.copysign(1.0, lo) == math.copysign(1.0, hi) == 1.0
        with pytest.raises(UnreachableWealthError, match=r"range \[0, 0\] of"):
            find_initial_state(sol, 1.0)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_unreachable_message(self, cheap_solution, side):
        row = cheap_solution.wealth[0]
        lo, hi = float(row.min()), float(row.max())
        x = 2.0 * hi if side == "above" else 0.5 * lo
        assert x >= 0.0
        expected = (
            f"policy: starting wealth {x} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of the starting layer"
        )
        with pytest.raises(UnreachableWealthError) as err:
            find_initial_state(cheap_solution, x)
        assert str(err.value) == expected

    def test_replaced_solution_reads_its_own_range(self, cheap_solution):
        lo, hi = cheap_solution.start_range
        doubled = dataclasses.replace(cheap_solution, surface=2.0 * cheap_solution.surface)
        assert doubled.start_range == (
            float(doubled.wealth[0].min()), float(doubled.wealth[0].max())
        )
        assert doubled.start_range == (2.0 * lo, 2.0 * hi)
        assert cheap_solution.start_range == (lo, hi)
        # 1.5 * hi is out of reach on the first surface only
        find_initial_state(doubled, 1.5 * hi)
        with pytest.raises(UnreachableWealthError):
            find_initial_state(cheap_solution, 1.5 * hi)

    def test_nan_rejected(self, cheap_solution):
        # a ValueError, not UnreachableWealthError: NaN is no wealth at all
        with pytest.raises(ValueError, match="nonnegative") as err:
            find_initial_state(cheap_solution, np.nan)
        assert not isinstance(err.value, UnreachableWealthError)


class TestClaimSnapping:
    def test_on_grid_times(self, cheap_solution):
        path = evolve_path(
            cheap_solution, [0.3, 0.7],
            wealth_row(cheap_solution, 0)[49],
        )
        assert list(np.flatnonzero(path.claim_flag)) == [15, 35]

    def test_early_claim_floors_to_first_step(self, cheap_solution):
        path = evolve_path(
            cheap_solution, [1e-9], wealth_row(cheap_solution, 0)[49]
        )
        assert path.claim_flag[1] == 1

    def test_late_claim_dropped(self, cheap_solution):
        path = evolve_path(
            cheap_solution, [0.999], wealth_row(cheap_solution, 0)[49]
        )
        assert path.claim_flag.sum() == 0

    def test_coinciding_claims_each_kick_the_density(self, dear_refined_solution):
        # 0.4 and 0.401 are both nearest to step 20 of the 50-step mesh:
        # the step counts two claims and the density takes rho once for each
        sol = dear_refined_solution
        g, p = sol.grid, sol.params
        assert g.n_steps == 50
        path = evolve_path(sol, ClaimSchedule(times=np.array([0.4, 0.401])), 1.0)
        assert path.claim_flag.dtype == np.intp
        assert list(np.flatnonzero(path.claim_flag)) == [20]
        assert path.claim_flag[20] == 2
        rho = float(sol.control[20][path.state_index[20]])
        growth = float(np.exp(-p.pi_intensity * g.h_t * (rho - 1.0)))
        assert rho != 1.0
        assert path.density[20] == path.density[19] * growth * rho**2

    @pytest.mark.parametrize(
        "fixture", ["dear_refined_solution", "obstacle_regime_solution"]
    )
    def test_coinciding_claims_are_each_covered(self, fixture, request):
        # c claims at one step take the state to rho ** c * Y_{i-1}, and each
        # is covered at theta: the step's wealth drop is the drift minus
        # c * theta * delta, up to the read-off error a claim-free step shows
        # too (the move from the node after the claims to the new state's
        # node, less the drift, and one node's change from layer i - 1 to i)
        sol = request.getfixturevalue(fixture)
        p, table = sol.params, sol.wealth
        schedule = ClaimSchedule(times=np.array([0.4, 0.401, 0.8, 0.8001, 0.8002]))
        for x in (0.5, 1.0, 2.0):
            path = evolve_path(sol, schedule, x)
            shared = np.flatnonzero(path.claim_flag >= 2)
            assert shared.size == 2
            for i in shared:
                c, theta, j = int(path.claim_flag[i]), path.theta[i], path.state_index[i]
                after = project(
                    sol.grid, compactify(sol.control[i, j] ** c * path.dual_state[i - 1])
                )
                assert path.jump_state_index[i] == after
                dt = path.times[i] - path.times[i - 1]
                drift = (p.alpha - p.beta * (1.0 - theta)) * dt
                drop = path.wealth[i] - path.wealth[i - 1]
                read_off = abs(
                    table[i, path.regulated_state_index[i]] - table[i, after] - drift
                ) + abs(table[i, j] - table[i - 1, j])
                assert abs(drop - (drift - c * theta * p.delta)) <= read_off + 1e-12

    def test_crowded_step_covers_each_claim(self, dear_refined_solution):
        # 256 claims nearest to step 45 of the 50-step mesh all act there;
        # they kick the state to the top node, and the wealth lost over the
        # jump is shared by the claims at the step's mean retention
        sol = dear_refined_solution
        p, table = sol.params, sol.wealth
        k = 45
        times = k * sol.grid.h_t + 1e-5 * np.arange(256)
        path = evolve_path(sol, ClaimSchedule(times=times), 1.0)
        assert list(np.flatnonzero(path.claim_flag)) == [k]
        assert path.claim_flag[k] == 256
        loss = table[k, path.state_index[k]] - table[k, path.jump_state_index[k]]
        assert path.theta[k] > 0.0
        assert path.theta[k] * p.delta * 256 == pytest.approx(loss, rel=1e-14)
        defect = np.diff(path.wealth) - wealth_increments(
            path.theta, path.claim_flag, np.diff(path.times), p
        )
        assert sde_residual(path, p) == np.abs(defect).max()

    @pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
    def test_overflowing_crowd_fails_by_name(self, dear_refined_solution, x):
        # 12,000 claims at one step kick the density by rho ** 12000, past
        # the largest double: the dual state is not finite, and the path
        # fails as an escape, with no OverflowError and no numpy warning
        sol = dear_refined_solution
        times = 45 * sol.grid.h_t + 1e-7 * np.arange(12_000)
        with pytest.raises(PathEscapeError) as exc:
            evolve_path(sol, ClaimSchedule(times=times), x)
        assert str(exc.value) == (
            "policy: dual state inf at step 45 is not positive and finite"
        )

    def test_flags_follow_the_shared_rule(self, cheap_solution):
        # the path places claims exactly where the primal side does
        schedule = poisson_schedule(20.0, 1.0, seed=2001)
        g = cheap_solution.grid
        path = evolve_path(cheap_solution, schedule, wealth_row(cheap_solution, 0)[49])
        np.testing.assert_array_equal(
            path.claim_flag, claim_steps(schedule, g.h_t, g.n_steps)
        )
        assert path.claim_flag.sum() > 5


@pytest.fixture(scope="module")
def cheap_path(cheap_solution):
    x = wealth_row(cheap_solution, 0)[49]
    schedule = ClaimSchedule(times=np.array([0.3, 0.7]))
    return evolve_path(cheap_solution, schedule, x), x


class TestCheapPath:
    """Full retention with zero net loading: nothing should move."""

    def test_theta_identically_zero(self, cheap_path):
        assert np.all(cheap_path[0].theta == 0.0)

    def test_wealth_constant(self, cheap_path):
        p, x = cheap_path
        assert np.max(np.abs(p.wealth - x)) <= 1e-3

    def test_density_and_regulator_are_one(self, cheap_path):
        p, _ = cheap_path
        assert np.all(p.density == 1.0)
        assert np.all(p.regulator == 1.0)
        assert np.all(p.dual_state == p.y_init)
        assert np.all(p.state_index == p.j_init)

    def test_sde_residual_tiny(self, cheap_path, cheap_params):
        assert sde_residual(cheap_path[0], cheap_params) <= 1e-4


class TestDearPath:
    def test_invariants(self, dear_path, dear_params):
        assert np.all(dear_path.wealth >= 0.0)
        assert np.all(np.diff(dear_path.regulator) <= 0.0)
        assert np.all(dear_path.density > 0.0)
        assert np.all(
            dear_path.dual_state
            == dear_path.y_init * dear_path.density * dear_path.regulator
        )
        assert np.all(dear_path.theta >= 0.0)
        assert np.all(dear_path.theta <= 1.0)

    def test_wealth_drops_at_claims(self, dear_path):
        for idx in np.flatnonzero(dear_path.claim_flag):
            assert dear_path.wealth[idx] < dear_path.wealth[idx - 1]

    def test_sde_residual_matches_loop(self, dear_path, dear_params):
        got = sde_residual(dear_path, dear_params)
        worst = 0.0
        for i in range(1, dear_path.times.size):
            dt = dear_path.times[i] - dear_path.times[i - 1]
            dx = dear_path.wealth[i] - dear_path.wealth[i - 1]
            drift = (
                dear_params.alpha - dear_params.beta * (1.0 - dear_path.theta[i])
            ) * dt
            loss = dear_path.theta[i] * dear_params.delta * dear_path.claim_flag[i]
            worst = max(worst, abs(dx - drift + loss))
        assert got == pytest.approx(worst, rel=1e-14)

    def test_density_closed_form_without_claims(self, dear_refined_solution):
        sol = dear_refined_solution
        row = wealth_row(sol, 0)
        x = row[int(np.argmin(np.abs(row - 1.0)))]
        path = evolve_path(sol, [], x)
        assert np.all(path.claim_flag == 0)
        d, y = 1.0, path.y_init
        g, p = sol.grid, sol.params
        for i in range(1, g.n_steps):
            j = project(g, compactify(y * d))
            rho = float(sol.control[i][j])
            d *= float(np.exp(-p.pi_intensity * g.h_t * (rho - 1.0)))
            assert path.density[i] == pytest.approx(d, rel=1e-13)


class TestRegulation:
    def test_floor_escape(self):
        # solvent starting layer, hopeless afterwards: regulation walks
        # to the first node and gives up
        p = make_params(r=0.0)
        states = np.linspace(0.2, 0.8, 6)
        good = 1.0 - 0.5 * states
        bad = 1.0 + 0.5 * states
        rows = np.vstack([good] + [bad] * 4)
        sol = make_solution(4, states, rows, 1.0, p)
        x = wealth_row(sol, 0)[3]
        with pytest.raises(PathEscapeError, match="lowest node"):
            evolve_path(sol, [], x)

    def test_hull_escape(self):
        # a tiny retention at the claim collapses the dual state far
        # below a deliberately narrow hull; ten stranded steps abort (the
        # control 0.01 sits in the table over the ladder {1})
        p = make_params(pi_intensity=2.0, r=0.0)
        states = np.linspace(0.45, 0.55, 11)
        row = 1.0 - 0.5 * states
        n = 15
        rows = np.vstack([row] * (n + 1))
        sol = make_solution(n, states, rows, 0.01, p)
        x = wealth_row(sol, 0)[5]
        with pytest.raises(PathEscapeError, match="hull"):
            evolve_path(sol, [1.0 / n], x)

    def test_successful_regulation_clamps_to_node(self):
        # ceding half of each claim makes the density grow, pushing the
        # dual state into the insolvent upper nodes; the regulator must
        # shrink monotonically and park the state on a solvent node (the
        # control 0.5 sits in the table over the ladder {1})
        p = make_params(pi_intensity=20.0, r=0.0)
        states = np.linspace(0.1, 0.9, 9)
        row = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.6, 0.8, 1.1])
        n = 8
        rows = np.vstack([row] * (n + 1))
        sol = make_solution(n, states, rows, 0.5, p)
        x = wealth_row(sol, 0)[3]
        path = evolve_path(sol, [], x)
        assert np.all(path.wealth >= 0.0)
        assert np.all(np.diff(path.regulator) <= 0.0)
        assert path.regulator[-1] < 1.0
        shrunk = np.flatnonzero(np.diff(path.regulator) < 0.0) + 1
        assert shrunk.size > 0
        for i in shrunk:
            node_state = expand(float(sol.grid.states[path.regulated_state_index[i]]))
            assert path.dual_state[i] == pytest.approx(node_state, rel=1e-13)
