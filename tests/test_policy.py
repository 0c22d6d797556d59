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
from insdual.simulate import claim_steps, poisson_schedule
from tests.test_model import make_params


def make_solution(times, states, rows, control_value, params):
    """Hand-built DiscreteSolution with a uniform control assignment."""
    grid = Grid(times=np.asarray(times, dtype=float),
                states=np.asarray(states, dtype=float))
    n, m = grid.n_steps, grid.n_nodes
    surface = np.asarray(rows, dtype=float)
    assert surface.shape == (n + 1, m)
    return DiscreteSolution(
        grid=grid,
        params=params,
        controls=ControlSet(np.array([control_value])),
        surface=surface,
        control=np.full((n, m), control_value),
        region=np.zeros((n, m), dtype=np.uint8),
        diagnostics=[],
    )


class TestDiscreteWealth:
    def test_constant_row_is_penniless(self):
        p = make_params(r=0.0)
        rows = np.ones((3, 5))
        sol = make_solution([0.0, 0.5, 1.0], np.linspace(0.2, 0.8, 5), rows, 1.0, p)
        assert np.all(wealth_row(sol, 0) == 0.0)
        assert wealth_row(sol, 1)[3] == 0.0

    def test_hand_computed_backward_difference(self):
        p = make_params(r=0.1)
        states = np.array([0.25, 0.5, 0.75])
        rows = np.array([[3.0, 2.0, 1.5]] * 3)
        sol = make_solution([0.0, 0.5, 1.0], states, rows, 1.0, p)
        # node 1: -(1 - 0.5)^2 * (2 - 3) / 0.25 * e^{0.05}
        expected = 0.25 * 4.0 * np.exp(0.1 * 0.5)
        assert wealth_row(sol, 1)[1] == pytest.approx(expected, rel=1e-14)

    def test_first_node_uses_forward_difference(self):
        p = make_params(r=0.0)
        states = np.array([0.2, 0.4, 0.6])
        rows = np.array([[5.0, 3.0, 2.0]] * 2)
        sol = make_solution([0.0, 1.0], states, rows, 1.0, p)
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
        sol = make_solution(np.linspace(0.0, 1.0, 5), states, rows, 1.0, p)
        x = wealth_row(sol, 0)[3]
        with pytest.raises(PathEscapeError, match="lowest node"):
            evolve_path(sol, [], x)

    def test_hull_escape(self):
        # a tiny retention at the claim collapses the dual state far
        # below a deliberately narrow hull; ten stranded steps abort
        p = make_params(pi_intensity=2.0, r=0.0)
        states = np.linspace(0.45, 0.55, 11)
        row = 1.0 - 0.5 * states
        n = 15
        rows = np.vstack([row] * (n + 1))
        sol = make_solution(np.linspace(0.0, 1.0, n + 1), states, rows, 0.01, p)
        x = wealth_row(sol, 0)[5]
        with pytest.raises(PathEscapeError, match="hull"):
            evolve_path(sol, [1.0 / n], x)

    def test_successful_regulation_clamps_to_node(self):
        # ceding half of each claim makes the density grow, pushing the
        # dual state into the insolvent upper nodes; the regulator must
        # shrink monotonically and park the state on a solvent node
        p = make_params(pi_intensity=20.0, r=0.0)
        states = np.linspace(0.1, 0.9, 9)
        row = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.6, 0.8, 1.1])
        n = 8
        rows = np.vstack([row] * (n + 1))
        sol = make_solution(np.linspace(0.0, 1.0, n + 1), states, rows, 0.5, p)
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
