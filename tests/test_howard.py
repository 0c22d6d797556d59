import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from insdual import (
    ControlSet,
    Grid,
    HowardNonconvergence,
    build_uniform,
    cli,
    complementarity_extrema,
    conjugate_utility,
    expand,
    growth_margins,
    howard,
    make_control_set,
    scheme,
    solve_backward,
    terminal_condition,
)
from insdual.howard import solve_time_step
from insdual.scheme import build_tables, operator_values, source_term
from tests.test_cli import count_calls
from tests.test_model import make_params
from tests.test_path_parity import oracle_wealth_row
from tests.test_scheme import admissible_oracle, complementarity_row, stationary_oracle


def toy_problem():
    """Four interior nodes, two candidates, one backward step."""
    grid = Grid(0.5, 1, np.array([0.2, 0.4, 0.6, 0.8]))
    params = make_params(alpha=2.1, beta=2.15)
    controls = ControlSet(np.array([1.0, 1.3]))
    return grid, params, controls


def oracle_growth_margins(solution, band):
    """growth_margins as a loop over the time layers, one layer at a time."""
    grid = solution.grid
    params = solution.params
    mask = (grid.states >= band[0]) & (grid.states <= band[1])
    y = expand(grid.states[mask])
    base = conjugate_utility(params, y)
    k_upper = params.alpha - params.beta + max(
        params.beta - params.delta * params.pi_intensity, 0.0
    )
    k_lower = params.alpha - params.beta
    below = -np.inf
    above = -np.inf
    for i in range(grid.n_steps + 1):
        remaining = params.T - grid.times[i]
        u = np.exp(params.r * grid.times[i]) * solution.surface[i][mask]
        below = max(below, np.max(base + k_lower * y * remaining - u))
        above = max(above, np.max(u - (base + k_upper * y * remaining)))
    return float(below), float(above)


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
        p = make_params(alpha=1.5, beta=2.0, r=0.0)
        g = build_uniform(10, 40, 1.0)
        cs = ControlSet(np.array([1.0]))
        v_next = terminal_condition(p, g.states)
        v, rho_row, region_row, diag = solve_time_step(
            g.states * 0 + v_next, g, p, build_tables(g, p, cs), time_index=9
        )
        expected = v_next + g.h_t * source_term(p, g.states, 1.0)
        np.testing.assert_allclose(v, expected, rtol=1e-14)
        assert np.all(rho_row == 1.0)
        assert not region_row.any()
        assert diag.policy_stable

    def test_first_layer_matches_discounted_terminal(self, cheap_params):
        g = build_uniform(50, 100, cheap_params.T)
        cs = make_control_set(cheap_params)
        v_next = terminal_condition(cheap_params, g.states)
        v, rho_row, region_row, _ = solve_time_step(
            v_next, g, cheap_params, build_tables(g, cheap_params, cs),
            time_index=g.n_steps - 1,
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
        assert cheap_solution.region.dtype == bool
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

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(0.1, 0.9),
        alpha=st.floats(0.0, 6.0),
        beta=st.floats(0.0, 6.0),
        pi=st.floats(0.2, 5.0),
    )
    def test_parameter_space(self, eta, alpha, beta, pi):
        # a finite surface, every control on the ladder (so >= 1), and no
        # layer rising in the state beyond rounding of its row
        p = make_params(eta=eta, alpha=alpha, beta=beta, pi_intensity=pi)
        cs = make_control_set(p)
        sol = solve_backward(build_uniform(10, 30, p.T), p, cs)
        assert np.all(np.isfinite(sol.surface))
        assert np.all(np.isin(sol.control, cs.candidates))
        assert sol.control.min() >= 1.0
        rise = np.diff(sol.surface, axis=1).max(axis=1)
        assert np.all(rise <= 1e-10 * np.abs(sol.surface).max(axis=1))

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
        below_top = sol.region[:, :-1]
        assert below_top.any()
        kink = p.beta / (p.delta * p.pi_intensity)
        np.testing.assert_array_equal(sol.control[:, :-1][below_top], kink)

    def test_obstacle_nodes_copy_their_lower_neighbour(self, obstacle_regime_solution):
        # an obstacle node imposes v[j] = v[j-1]; the policy system must
        # return it as an exact copy, not a rounded one
        sol = obstacle_regime_solution
        i, j = np.nonzero(sol.region)
        assert i.size > sol.region.size // 4
        np.testing.assert_array_equal(sol.surface[i, j], sol.surface[i, j - 1])

    def test_obstacle_blocks_report_the_kink_on_the_fine_mesh(
        self, obstacle_regime_solution
    ):
        sol = obstacle_regime_solution
        p = sol.params
        below_top = sol.region[:, :-1]
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

    @pytest.mark.parametrize("first", [1.5, 1.0 + 1e-12])
    def test_ladder_without_one_rejected_before_any_store(
        self, dear_params, first, monkeypatch
    ):
        # the first node admits rho = 1 only, so without it no layer can be
        # solved; the ladder is named before any operator store is built
        counts = count_calls(monkeypatch, "build_tables")
        g = build_uniform(10, 20, dear_params.T)
        with pytest.raises(ValueError) as exc:
            solve_backward(g, dear_params, ControlSet([first, 2.0]))
        assert str(exc.value).endswith(f"its first candidate is {first}")
        assert counts == {"build_tables": 0}

    def test_nonconvergence_carries_diagnostics(self, dear_params, monkeypatch):
        # the dear problem moves its first layer whatever the discount rate
        # (the cheap one, at r = 0, would keep the terminal row)
        monkeypatch.setattr(howard, "MAX_SWEEPS", 1)
        g = build_uniform(50, 100, dear_params.T)
        cs = make_control_set(dear_params)
        with pytest.raises(HowardNonconvergence) as exc:
            solve_backward(g, dear_params, cs)
        err = exc.value
        # one sweep from the terminal row: its change is the distance to it
        change = np.max(np.abs(err.last_iterate - terminal_condition(dear_params, g.states)))
        assert str(err) == (
            f"howard: no convergence within 1 iterations at time index {g.n_steps - 1}; "
            f"last sup-change {change:.3e}"
        )
        assert change > 0.0
        assert err.time_index == g.n_steps - 1
        assert err.last_iterate.shape == (g.n_nodes,)

    def test_non_finite_evaluation_carries_diagnostics(self, cheap_params, monkeypatch):
        monkeypatch.setattr(
            howard, "solve_policy_system", lambda v_next, *args: np.full_like(v_next, np.nan)
        )
        g = build_uniform(10, 30, cheap_params.T)
        with pytest.raises(HowardNonconvergence) as exc:
            solve_backward(g, cheap_params, make_control_set(cheap_params))
        err = exc.value
        assert str(err) == (
            f"howard: policy evaluation produced non-finite values at time index {g.n_steps - 1}"
        )
        assert err.time_index == g.n_steps - 1
        # the iterate before the failed evaluation: the layer's start row
        assert np.array_equal(err.last_iterate, terminal_condition(cheap_params, g.states))


class TestDiagnostics:
    def test_complementarity_extrema_near_zero(self, cheap_solution):
        lowest, largest = complementarity_extrema(cheap_solution)
        assert lowest >= -1e-9
        assert largest <= 1e-9

    def test_complementarity_extrema_dear(self, dear_coarse_solution):
        lowest, largest = complementarity_extrema(dear_coarse_solution)
        assert lowest >= -1e-9
        assert largest <= 1e-9

    @pytest.mark.parametrize(
        "name", ["cheap_solution", "dear_coarse_solution", "obstacle_regime_solution"]
    )
    def test_complementarity_extrema_recomputed(self, name, request):
        # the extrema recorded during the solve must equal, bit for bit, a
        # fresh evaluation of every layer of the returned surface
        sol = request.getfixturevalue(name)
        g = sol.grid
        tables = build_tables(g, sol.params, sol.controls)
        rows = [
            complementarity_row(sol.surface, g, i, sol.params, tables)
            for i in range(g.n_steps)
        ]
        expected = (min(r.min() for r in rows), max(r.max() for r in rows))
        assert complementarity_extrema(sol) == expected

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

    def test_growth_margins_empty_band(self, cheap_solution, monkeypatch):
        monkeypatch.setattr(howard, "GROWTH_BAND", (0.995, 0.999))
        with pytest.raises(ValueError, match="band"):
            growth_margins(cheap_solution)

    @pytest.mark.parametrize(
        "fixture",
        ["cheap_solution", "dear_refined_solution", "obstacle_regime_solution"],
    )
    @pytest.mark.parametrize("band", [(0.05, 0.95), (0.0, 1.0), (0.3, 0.31)])
    def test_growth_margins_match_the_layer_loop(
        self, fixture, band, request, monkeypatch
    ):
        monkeypatch.setattr(howard, "GROWTH_BAND", band)
        sol = request.getfixturevalue(fixture)
        assert growth_margins(sol) == oracle_growth_margins(sol, band)


class TestSolutionArrays:
    @pytest.fixture
    def fresh_solution(self):
        _, params, controls = toy_problem()
        return solve_backward(build_uniform(4, 10, params.T), params, controls)

    @pytest.mark.parametrize("name", ["wealth", "surface", "control", "region"])
    def test_solved_arrays_are_read_only(self, fresh_solution, name):
        array = getattr(fresh_solution, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = -1.0
        assert np.array_equal(array, before)

    def test_replace_reads_its_own_wealth(self, fresh_solution):
        old = fresh_solution.wealth
        surface = fresh_solution.surface * 2.0 + fresh_solution.grid.states
        new = dataclasses.replace(fresh_solution, surface=surface)
        assert new.wealth is not old
        assert not np.array_equal(new.wealth, old)
        for i in range(new.grid.n_steps):
            assert np.array_equal(new.wealth[i], oracle_wealth_row(new, i)), i
            assert np.array_equal(old[i], oracle_wealth_row(fresh_solution, i)), i


class TestWarmStart:
    def test_first_two_layers_scan_and_later_ones_predict(
        self, dear_params, monkeypatch
    ):
        # a sweep's first two layers scan their first pass, as a fresh slot
        # does; from the third on the slot holds the passes of two layers
        # above, and the first pass is predicted from them, with no scan
        counts = count_calls(monkeypatch, "operator_values", "_first_pass")
        per_layer = []
        step = howard.solve_time_step

        def record_layer(*args, **kwargs):
            before = dict(counts)
            out = step(*args, **kwargs)
            per_layer.append(
                (out[3].iterations, *(counts[k] - before[k] for k in counts))
            )
            return out

        monkeypatch.setattr(howard, "solve_time_step", record_layer)
        g = build_uniform(20, 60, dear_params.T)
        solve_backward(g, dear_params, make_control_set(dear_params))
        assert len(per_layer) == g.n_steps
        for k, (sweeps, scans, predicted) in enumerate(per_layer):
            assert predicted == (k >= 2), k
            assert scans == sweeps - predicted, k

    @pytest.mark.parametrize(
        "name", ["dear_coarse_solution", "obstacle_regime_solution"]
    )
    def test_stale_history_changes_only_the_work(self, name, request):
        # a slot whose passes come from other layers, from an increasing row
        # whose obstacle binds at every node, or from another problem on the
        # same grid and ladder predicts another first policy; the layer still
        # ends on the row, controls, region and extrema of a fresh slot's
        sol = request.getfixturevalue(name)
        g, p, tables = sol.grid, sol.params, sol.tables
        n = g.n_steps
        i = n // 2
        other = dataclasses.replace(p, alpha=p.alpha + 1.5)
        other_tables = build_tables(g, other, sol.controls)
        rising = np.linspace(1.0, 2.0, g.n_nodes)

        def top_layers(params, store):
            slot = scheme._SystemSlot()
            v = terminal_condition(params, g.states)
            for j in (n - 1, n - 2):
                v = solve_time_step(v, g, params, store, time_index=j, slot=slot)[0]
            return slot

        def rising_row():
            slot = scheme._SystemSlot()
            solve_time_step(rising, g, p, tables, slot=slot)
            return slot

        def right_layers():
            slot = scheme._SystemSlot()
            for j in (i + 2, i + 1):
                solve_time_step(sol.surface[j + 1], g, p, tables, time_index=j, slot=slot)
            return slot

        alone = solve_time_step(sol.surface[i + 1], g, p, tables, time_index=i)
        np.testing.assert_array_equal(alone[0], sol.surface[i])
        sweeps = []
        for slot in (
            top_layers(p, tables), rising_row(), top_layers(other, other_tables),
            right_layers(),
        ):
            slotted = solve_time_step(
                sol.surface[i + 1], g, p, tables, time_index=i, slot=slot
            )
            for a, b in zip(alone[:3], slotted[:3]):
                np.testing.assert_array_equal(a, b)
            assert repr(alone[3].lowest_argument) == repr(slotted[3].lowest_argument)
            assert repr(alone[3].largest_minimum) == repr(slotted[3].largest_minimum)
            sweeps.append(slotted[3].iterations)
        # the passes are read, not ignored: the two layers above predict a
        # first policy closer to the layer's own than any other history
        assert sweeps[-1] < min(alone[3].iterations, *sweeps[:-1])


class TestFixedPoint:
    @pytest.mark.parametrize(
        "name",
        ["dear_coarse_solution", "obstacle_regime_solution", "dear_refined_solution"],
    )
    def test_control_row_is_the_argmin_at_the_returned_row(self, name, request):
        # a layer ends on its own improvement at the row it returns, so a
        # scan of the store there chooses the layer's control row again
        sol = request.getfixturevalue(name)
        g, p, tables = sol.grid, sol.params, sol.tables
        for i in range(g.n_steps):
            kstar = operator_values(sol.surface[i], g, p, tables).argmin(axis=0)
            np.testing.assert_array_equal(tables.controls[kstar], sol.control[i])


class TestRoundingCycle:
    @pytest.mark.parametrize("r, time_index", [(30.0, 10), (40.0, 26)])
    def test_layer_ends_on_a_two_cycle(self, r, time_index, tmp_path, monkeypatch):
        # at r = 30 and r = 40 a layer of the default run's coarse solve
        # alternates between two policy systems whose rows differ by one
        # ulp; it ends on the cycle, on a row that solving its own system
        # does not reproduce, and both solves keep complementarity within
        # 100 epsilons of the surface's magnitude (about 35 are reached)
        solutions = []
        real = cli.solve_backward

        def record(*args):
            solutions.append(real(*args))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_backward", record)
        cli.run(cli.RunConfig(r=r), tmp_path)
        assert len(solutions) == 2
        for sol in solutions:
            bound = 100 * np.finfo(float).eps * np.abs(sol.surface).max()
            lowest, largest = complementarity_extrema(sol)
            assert abs(lowest) <= bound and abs(largest) <= bound
        sol = solutions[0]
        g, p, tables = sol.grid, sol.params, sol.tables
        kstar = operator_values(sol.surface[time_index], g, p, tables).argmin(axis=0)
        np.testing.assert_array_equal(tables.controls[kstar], sol.control[time_index])
        again = scheme.solve_policy_system(
            sol.surface[time_index + 1], g, p, tables, kstar, sol.region[time_index]
        )
        assert not np.array_equal(again, sol.surface[time_index])


class TestSystemReuse:
    @staticmethod
    def record_solves(monkeypatch):
        """Every policy solve's inputs and result, and each matrix spsolve got."""
        solves, matrices = [], []
        solve = scheme.solve_policy_system

        def record_solve(v_next, grid, params, tables, kstar, region, slot=None):
            v = solve(v_next, grid, params, tables, kstar, region, slot)
            solves.append((v_next.copy(), kstar.copy(), region.copy(), v))
            return v

        def record_spsolve(matrix, rhs, permc_spec=None):
            matrices.append(matrix)
            return spsolve(matrix, rhs, permc_spec=permc_spec)

        monkeypatch.setattr(howard, "solve_policy_system", record_solve)
        monkeypatch.setattr(scheme, "spsolve", record_spsolve)
        return solves, matrices

    def test_repeated_policy_reuses_its_matrix(self, dear_params, monkeypatch):
        # a solve repeating the previous solve's region and continuation
        # controls hands spsolve the stored matrix: one matrix object per
        # run of equal consecutive signatures; 53 solves on 30 systems
        solves, matrices = self.record_solves(monkeypatch)
        g = build_uniform(50, 100, dear_params.T)
        sol = solve_backward(g, dear_params, make_control_set(dear_params))
        assert len(solves) == len(matrices) == 53
        sigs = [
            kstar[~region].tobytes() + region.tobytes() for _, kstar, region, _ in solves
        ]
        for i in range(1, len(sigs)):
            assert (matrices[i] is matrices[i - 1]) == (sigs[i] == sigs[i - 1]), i
        assert len({id(matrix) for matrix in matrices}) == 30
        # every matrix spsolve got, reused ones included, is the one a
        # standalone solve assembles afresh, and gives that solve's bits
        for i, (v_next, kstar, region, v) in enumerate(solves):
            alone = scheme.solve_policy_system(
                v_next, g, dear_params, sol.tables, kstar, region
            )
            assert np.array_equal(alone, v), i
            assert matrices[-1] is not matrices[i]
            assert np.array_equal(matrices[-1].toarray(), matrices[i].toarray()), i

    def test_no_layer_solves_its_previous_system_again(
        self, obstacle_regime_solution, monkeypatch
    ):
        # a layer ends when its policy system repeats, so within a layer no
        # solve has the signature of the solve before it; the first policy
        # of each layer is predicted, so 205 solves and 405 passes, where
        # taking the layer above's last policy made 335 and 535
        sol = obstacle_regime_solution
        solves, _ = self.record_solves(monkeypatch)
        firsts = []
        step = howard.solve_time_step

        def record_layer(*args, **kwargs):
            firsts.append(len(solves))
            return step(*args, **kwargs)

        monkeypatch.setattr(howard, "solve_time_step", record_layer)
        again = solve_backward(sol.grid, sol.params, sol.controls)
        assert len(firsts) == sol.grid.n_steps
        assert len(solves) == 205
        assert sum(d.iterations for d in again.diagnostics) == 405
        for first, stop in zip(firsts, firsts[1:] + [len(solves)]):
            sigs = [
                kstar[~region].tobytes() + region.tobytes()
                for _, kstar, region, _ in solves[first:stop]
            ]
            assert all(a != b for a, b in zip(sigs, sigs[1:])), first
        np.testing.assert_array_equal(again.surface, sol.surface)

    @pytest.mark.parametrize(
        "name",
        ["dear_coarse_solution", "dear_refined_solution", "obstacle_regime_solution"],
    )
    def test_every_layer_takes_one_pass_more_than_it_solves(
        self, name, request, monkeypatch
    ):
        # a layer ends only when a pass finds the policy system of its last
        # solve again, so every pass but that last one is followed by a solve
        sol = request.getfixturevalue(name)
        solves, _ = self.record_solves(monkeypatch)
        per_layer = []
        step = howard.solve_time_step

        def record_layer(*args, **kwargs):
            first = len(solves)
            out = step(*args, **kwargs)
            per_layer.append(len(solves) - first)
            return out

        monkeypatch.setattr(howard, "solve_time_step", record_layer)
        again = solve_backward(sol.grid, sol.params, sol.controls)
        per_layer.reverse()
        assert [d.iterations for d in again.diagnostics] == [k + 1 for k in per_layer]
        np.testing.assert_array_equal(again.surface, sol.surface)

    @pytest.mark.parametrize(
        "name",
        ["dear_coarse_solution", "dear_refined_solution", "obstacle_regime_solution"],
    )
    def test_one_signature_per_sweep_and_per_solve(self, name, request, monkeypatch):
        # every improvement pass but a layer's first forms a signature for
        # its stop test (the first has no solve of its layer to repeat), and
        # every policy solve forms its own to look up the slot's system
        sol = request.getfixturevalue(name)
        counts = count_calls(monkeypatch, "_signature", "solve_policy_system")
        again = solve_backward(sol.grid, sol.params, sol.controls)
        sweeps = sum(d.iterations for d in again.diagnostics)
        layers = len(again.diagnostics)
        assert counts["_signature"] == sweeps - layers + counts["solve_policy_system"]
        np.testing.assert_array_equal(again.surface, sol.surface)

    def test_each_backward_sweep_has_its_own_slot(self, cheap_params, monkeypatch):
        # every solve of the cheap problem has one (control, region) pair,
        # so one sweep assembles one matrix; a second sweep of the same
        # problem, whose first pair is the first sweep's last, still
        # assembles its own: no slot outlives its sweep
        _, matrices = self.record_solves(monkeypatch)
        g = build_uniform(10, 40, cheap_params.T)
        first = solve_backward(g, cheap_params, make_control_set(cheap_params))
        assert len(matrices) == 10
        second = solve_backward(g, cheap_params, make_control_set(cheap_params))
        assert len(matrices) == 20
        assert all(matrix is matrices[0] for matrix in matrices[:10])
        assert all(matrix is matrices[10] for matrix in matrices[10:])
        assert matrices[10] is not matrices[0]
        assert np.array_equal(first.surface, second.surface)

    def test_obstacle_controls_do_not_enter_the_signature(self, dear_params, monkeypatch):
        # the controls at obstacle nodes are not read by the system, so a
        # solve that changes only those reuses the slot's matrix and gets
        # the bits of the solve that stored it
        solves, matrices = self.record_solves(monkeypatch)
        g = build_uniform(50, 100, dear_params.T)
        sol = solve_backward(g, dear_params, make_control_set(dear_params))
        v_next, kstar, region, v = next(s for s in solves if s[2].any())
        moved = kstar.copy()
        moved[region] = (moved[region] + 1) % len(sol.controls.candidates)
        slot = scheme._SystemSlot()
        del matrices[:]
        first, again = (
            scheme.solve_policy_system(v_next, g, dear_params, sol.tables, k, region, slot)
            for k in (kstar, moved)
        )
        assert matrices[0] is matrices[1]
        assert np.array_equal(first, v) and np.array_equal(again, v)
