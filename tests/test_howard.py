import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from insdual import (
    ControlSet,
    Grid,
    REGION_OBSTACLE,
    HowardNonconvergence,
    build_uniform,
    complementarity_extrema,
    conjugate_utility,
    expand,
    growth_margins,
    make_control_set,
    solve_backward,
    terminal_condition,
)
from insdual.howard import solve_time_step
from insdual.scheme import source_term
from tests.test_model import make_params
from tests.test_scheme import admissible_oracle, stationary_oracle


def toy_problem():
    """Four interior nodes, two candidates, one backward step."""
    grid = Grid(times=np.array([0.0, 0.5]),
                states=np.array([0.2, 0.4, 0.6, 0.8]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        params = make_params(alpha=2.1, beta=2.15)
    controls = ControlSet(np.array([1.0, 1.3]))
    return grid, params, controls


def enumerate_toy_layer(grid, params, controls, v_next, tol=1e-9):
    """Every admissible (control, region) assignment, solved densely.

    For each assignment the affine system is recovered by probing the
    scalar row oracle with unit vectors and solved with plain dense
    algebra, then screened against the discrete complementarity
    conditions. Returns the list of surviving layer vectors.
    """
    m = grid.n_nodes
    ht = grid.h_t
    s = list(grid.states)
    cand = [float(c) for c in controls.candidates]
    adm = [
        [k for k in range(len(cand)) if admissible_oracle(s, j, cand[k])]
        for j in range(m)
    ]

    def stationary(v, j, k):
        return stationary_oracle(v, s, j, cand[k], params)

    survivors = []
    for kvec in itertools.product(*adm):
        for rbits in itertools.product((False, True), repeat=m - 1):
            region = np.array((False,) + rbits)

            def equations(v):
                out = np.empty(m)
                for j in range(m):
                    if region[j]:
                        out[j] = v[j] - v[j - 1]
                    else:
                        out[j] = v_next[j] - v[j] + ht * stationary(v, j, kvec[j])
                return out

            const = equations(np.zeros(m))
            mat = np.column_stack(
                [equations(np.eye(m)[k]) - const for k in range(m)]
            )
            try:
                v = np.linalg.solve(mat, -const)
            except np.linalg.LinAlgError:
                continue

            best = np.array(
                [min(stationary(v, j, k) for k in adm[j]) for j in range(m)]
            )
            pde = v_next - v + ht * best
            ok = True
            for j in range(m):
                if region[j]:
                    if pde[j] < -tol:
                        ok = False
                else:
                    if abs(pde[j]) > tol:
                        ok = False
                    if j >= 1 and (v[j - 1] - v[j]) / (s[j] - s[j - 1]) < -tol:
                        ok = False
            if ok:
                survivors.append(v)
    return survivors


class TestSingleStep:
    def test_undiscounted_singleton_is_explicit_euler(self):
        # one identity candidate, r = 0: the policy system collapses to
        # the identity matrix and the layer is exactly v_next + h_t *
        # source. alpha < beta makes the source negative, so the layer
        # stays decreasing and the obstacle cannot bind
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = make_params(alpha=1.5, beta=2.0, r=0.0)
        g = build_uniform(10, 40, 1.0)
        cs = ControlSet(np.array([1.0]))
        v_next = terminal_condition(p, g.states)
        v, rho_row, region_row, diag = solve_time_step(
            g.states * 0 + v_next, g, p, cs, time_index=9
        )
        expected = v_next + g.h_t * source_term(p, g.states, 1.0)
        np.testing.assert_allclose(v, expected, rtol=1e-14)
        assert np.all(rho_row == 1.0)
        assert not region_row.any()
        assert diag.time_index == 9
        assert diag.policy_stable

    def test_first_layer_matches_discounted_terminal(self, cheap_params):
        g = build_uniform(50, 100, cheap_params.T)
        cs = make_control_set(cheap_params)
        v_next = terminal_condition(cheap_params, g.states)
        v, rho_row, region_row, _ = solve_time_step(
            v_next, g, cheap_params, cs, time_index=g.n_steps - 1
        )
        target = np.exp(-cheap_params.r * (cheap_params.T - g.h_t)) \
            * conjugate_utility(cheap_params, expand(g.states))
        np.testing.assert_allclose(v, target, rtol=1e-5)
        assert np.all(rho_row == 1.0)
        assert not region_row.any()

    def test_exhaustive_toy_enumeration(self):
        grid, params, controls = toy_problem()
        v_next = terminal_condition(params, grid.states)
        survivors = enumerate_toy_layer(grid, params, controls, v_next)
        assert survivors, "no assignment satisfied complementarity"
        for v in survivors[1:]:
            np.testing.assert_allclose(v, survivors[0], atol=1e-10)
        sol = solve_backward(grid, params, controls)
        np.testing.assert_allclose(sol.surface[0], survivors[0], atol=1e-10)


class TestBackwardSweep:
    def test_shapes_and_terminal_data(self, cheap_solution):
        g = cheap_solution.grid
        assert cheap_solution.surface.shape == (g.n_steps + 1, g.n_nodes)
        assert cheap_solution.control.shape == (g.n_steps, g.n_nodes)
        assert cheap_solution.region.shape == (g.n_steps, g.n_nodes)
        assert len(cheap_solution.diagnostics) == g.n_steps
        np.testing.assert_array_equal(
            cheap_solution.surface[g.n_steps],
            terminal_condition(cheap_solution.params, g.states),
        )

    def test_single_step_horizon_keeps_terminal_bit_exact(self, cheap_params):
        g = build_uniform(1, 50, cheap_params.T)
        sol = solve_backward(g, cheap_params, make_control_set(cheap_params))
        assert sol.surface.shape == (2, 49)
        np.testing.assert_array_equal(
            sol.surface[1], terminal_condition(cheap_params, g.states)
        )

    def test_cheap_surface_against_closed_form(self, cheap_params):
        # no loading differential and no ceding refund: full retention
        # is optimal and the surface is the discounted conjugate
        errs = []
        for nt, ns in ((25, 50), (50, 100), (100, 200)):
            g = build_uniform(nt, ns, cheap_params.T)
            sol = solve_backward(g, cheap_params, make_control_set(cheap_params))
            band = (g.states >= 0.1) & (g.states <= 0.9)
            exact = np.exp(-cheap_params.r * g.times)[:, None] * conjugate_utility(
                cheap_params, expand(g.states)
            )[None, :]
            errs.append(np.max(np.abs(sol.surface - exact)[:, band]))
        assert errs[0] / errs[1] >= 1.4
        assert errs[1] / errs[2] >= 1.4
        assert errs[1] <= 1e-2

    def test_cheap_policy_is_full_retention(self, cheap_solution):
        assert np.all(cheap_solution.control == 1.0)
        assert int(cheap_solution.region.sum()) == 0

    def test_layers_nonincreasing_in_state(self, cheap_solution, dear_coarse_solution):
        for sol in (cheap_solution, dear_coarse_solution):
            forward = np.diff(sol.surface, axis=1)
            assert np.max(forward) <= 1e-9

    def test_deterministic(self, cheap_params):
        g = build_uniform(10, 30, cheap_params.T)
        cs = make_control_set(cheap_params, count=31)
        a = solve_backward(g, cheap_params, cs)
        b = solve_backward(g, cheap_params, cs)
        np.testing.assert_array_equal(a.surface, b.surface)
        np.testing.assert_array_equal(a.control, b.control)
        np.testing.assert_array_equal(a.region, b.region)

    def test_flat_obstacle_blocks_report_the_kink(self, dear_params):
        # at alpha = 5 the obstacle set is a flat block reaching the top
        # node; on it every candidate from the kink up scores the same
        # income rate against a zero stencil, and that exact tie must
        # resolve to the smallest of them, the kink
        p = dataclasses.replace(dear_params, alpha=5.0)
        sol = solve_backward(build_uniform(20, 40, p.T), p, make_control_set(p))
        below_top = sol.region[:, :-1] == REGION_OBSTACLE
        assert below_top.any()
        kink = p.beta / (p.delta * p.pi_intensity)
        np.testing.assert_array_equal(sol.control[:, :-1][below_top], kink)

    def test_cheap_howard_stops_fast(self, cheap_solution):
        for d in cheap_solution.diagnostics:
            assert d.iterations <= 3
            assert d.policy_stable

    def test_oversized_time_step_rejected(self, cheap_params):
        g = build_uniform(1, 10, 25.0)  # h_t * r = 1.25
        with pytest.raises(ValueError, match="h_t"):
            solve_backward(g, cheap_params, make_control_set(cheap_params))

    def test_nonconvergence_carries_diagnostics(self, cheap_params):
        g = build_uniform(50, 100, cheap_params.T)
        cs = make_control_set(cheap_params)
        with pytest.raises(HowardNonconvergence) as exc:
            solve_backward(g, cheap_params, cs, max_iter=1)
        err = exc.value
        assert err.time_index == g.n_steps - 1
        assert len(err.change_history) == 1
        assert err.last_iterate.shape == (g.n_nodes,)


class TestDiagnostics:
    def test_complementarity_extrema_near_zero(self, cheap_solution):
        lowest, largest = complementarity_extrema(cheap_solution)
        assert lowest >= -1e-9
        assert largest <= 1e-9

    def test_complementarity_extrema_dear(self, dear_coarse_solution):
        lowest, largest = complementarity_extrema(dear_coarse_solution)
        assert lowest >= -1e-9
        assert largest <= 1e-9

    def test_growth_margins_cheap(self, cheap_solution):
        below, above = growth_margins(cheap_solution)
        assert below <= 1e-3
        assert above <= 1e-3

    def test_growth_margins_scale_with_mesh(self, cheap_params):
        # the envelope slack is a consistency proxy: it must not blow up
        # on refinement
        g = build_uniform(100, 200, cheap_params.T)
        sol = solve_backward(g, cheap_params, make_control_set(cheap_params))
        coarse = solve_backward(
            build_uniform(25, 50, cheap_params.T),
            cheap_params,
            make_control_set(cheap_params),
        )
        fine_worst = max(growth_margins(sol))
        coarse_worst = max(growth_margins(coarse))
        assert fine_worst <= coarse_worst + 1e-12

    def test_growth_margins_empty_band(self, cheap_solution):
        with pytest.raises(ValueError, match="band"):
            growth_margins(cheap_solution, band=(0.995, 0.999))
