"""The backward sweep against the full-scan loop it replaced.

``oracle_solve_backward`` is the sweep as it stood before a layer's
first pass was taken from the layers above: every improvement pass, the
first of each layer included, scans every candidate at the iterate, the
candidate values mask their inadmissible pairs with +inf themselves, and
a layer ends only when its whole control row and region repeat.
Surface, control and region must agree bit for bit, and so must both
complementarity extrema of every ``StepDiagnostics``, on the shared
fixtures and across a sweep of the model parameters. A failing sweep
must fail with the same exception and message. The sweep predicts the
first policy of every layer below its first two, so its pass counts are
not the oracle's: on each shared fixture it takes strictly fewer passes
in total, though a single parameter set may take more.

The oracle also keeps, as a failing assertion, the second stopping rule
the sweep once had, the soft stop: it accepted a layer after
``ORACLE_SOFT_STOP_SWEEPS`` consecutive sweeps whose change was at or
below ``ORACLE_TOL`` without the policy repeating. The sweep now ends a
layer only on a repeated policy, so a parameter set on which the old
rule would have fired fails parity here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insdual import build_uniform, howard, make_control_set, solve_backward
from insdual.howard import (
    DiscreteSolution,
    HowardNonconvergence,
    StepDiagnostics,
    solve_time_step,
)
from insdual.model import terminal_condition
from insdual.scheme import (
    _SystemSlot,
    build_tables,
    obstacle_values,
    operator_values,
    solve_policy_system,
)
from tests.test_model import make_params

# the soft stop of the old sweep: this many consecutive sweeps with a
# change at or below the tolerance ended a layer whose policy still moved
ORACLE_SOFT_STOP_SWEEPS = 5
ORACLE_TOL = 1e-9


def oracle_operator_values(v, grid, params, tables):
    top = v[-1]
    # node-major store: pair (j, k) is row j*K + k of the product
    out = (tables.matrix @ (v - top)).reshape(tables.source.shape[::-1]).T
    out += params.r * top
    out += tables.source
    out[~tables.admissible] = np.inf
    return out


def oracle_improve(v, v_next, grid, params, tables):
    values = oracle_operator_values(v, grid, params, tables)
    kstar = np.argmin(values, axis=0)
    stationary = v_next - v + grid.h_t * values[kstar, np.arange(v.size)]
    return kstar, stationary, obstacle_values(v, grid)


def oracle_extrema(stationary, obstacle):
    return (
        float(min(stationary.min(), obstacle[1:].min())),
        float(np.minimum(stationary, obstacle).max()),
    )


def oracle_solve_time_step(v_next, grid, params, tables, time_index):
    v_next = np.asarray(v_next, dtype=float)
    v = v_next.copy()
    prev_sig = None
    soft = 0
    max_iter = howard.MAX_SWEEPS
    for it in range(1, max_iter + 1):
        kstar, stationary, obstacle = oracle_improve(v, v_next, grid, params, tables)
        region = stationary > obstacle
        sig = kstar.tobytes() + region.tobytes()
        if sig == prev_sig:
            diag = StepDiagnostics(it, *oracle_extrema(stationary, obstacle))
            return v, tables.controls[kstar], region, diag
        v_new = solve_policy_system(v_next, grid, params, tables, kstar, region)
        if not np.all(np.isfinite(v_new)):
            raise HowardNonconvergence(
                f"howard: policy evaluation produced non-finite values at "
                f"time index {time_index}",
                time_index,
                v,
            )
        change = float(np.max(np.abs(v_new - v)))
        v = v_new
        prev_sig = sig
        soft = soft + 1 if change <= ORACLE_TOL else 0
        assert change == 0.0 or soft < ORACLE_SOFT_STOP_SWEEPS, (
            f"the soft stop fires at time index {time_index}"
        )
        if change == 0.0:
            diag = StepDiagnostics(it, *oracle_extrema(stationary, obstacle))
            return v, tables.controls[kstar], region, diag
    raise HowardNonconvergence(
        f"howard: no convergence within {max_iter} iterations at time index "
        f"{time_index}; last sup-change {change:.3e}",
        time_index,
        v,
    )


def oracle_solve_backward(grid, params, controls):
    tables = build_tables(grid, params, controls)
    n = grid.n_steps
    m = grid.n_nodes
    surface = np.empty((n + 1, m))
    surface[n] = terminal_condition(params, grid.states)
    control = np.empty((n, m))
    region = np.empty((n, m), dtype=bool)
    diags = []
    for i in range(n - 1, -1, -1):
        v, rho_row, region_row, diag = oracle_solve_time_step(
            surface[i + 1], grid, params, tables, i
        )
        surface[i] = v
        control[i] = rho_row
        region[i] = region_row
        diags.append(diag)
    diags.reverse()
    return DiscreteSolution(
        grid=grid, params=params, controls=controls, surface=surface,
        control=control, region=region, diagnostics=diags, tables=tables,
    )


def assert_same_solution(got, expected):
    np.testing.assert_array_equal(got.surface, expected.surface)
    np.testing.assert_array_equal(got.control, expected.control)
    np.testing.assert_array_equal(got.region, expected.region)
    assert got.region.dtype == expected.region.dtype
    # repr compares the NaN defaults and the float bits alike; the pass
    # counts differ, since the sweep's first policy of a layer is predicted
    assert [extrema(d) for d in got.diagnostics] == [
        extrema(d) for d in expected.diagnostics
    ]


def extrema(diag):
    return repr(diag.lowest_argument), repr(diag.largest_minimum)


def total_passes(solution):
    return sum(d.iterations for d in solution.diagnostics)


def assert_same_outcome(grid, params, controls):
    try:
        expected = oracle_solve_backward(grid, params, controls)
    except HowardNonconvergence as exc:
        with pytest.raises(HowardNonconvergence) as got:
            solve_backward(grid, params, controls)
        assert str(got.value) == str(exc)
        assert got.value.time_index == exc.time_index
        np.testing.assert_array_equal(got.value.last_iterate, exc.last_iterate)
        return
    assert_same_solution(solve_backward(grid, params, controls), expected)


class TestSweepParity:
    @pytest.mark.parametrize(
        "name",
        ["dear_coarse_solution", "obstacle_regime_solution", "dear_refined_solution"],
    )
    def test_fixture_solutions(self, name, request):
        sol = request.getfixturevalue(name)
        expected = oracle_solve_backward(sol.grid, sol.params, sol.controls)
        assert_same_solution(sol, expected)
        assert total_passes(sol) < total_passes(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.floats(0.1, 0.9),
        alpha=st.floats(0.0, 6.0),
        beta=st.floats(0.0, 4.0),
        pi=st.floats(0.2, 5.0),
    )
    def test_parameter_sweep(self, eta, alpha, beta, pi):
        p = make_params(eta=eta, alpha=alpha, beta=beta, pi_intensity=pi)
        g = build_uniform(10, 40, p.T)
        assert_same_outcome(g, p, make_control_set(p, count=41))


class TestChosenOperatorValues:
    def test_start_pass_equals_the_scan_pass(self, dear_coarse_solution, monkeypatch):
        # a slot holds each pass as its row, its (K, m) operator values and
        # h_t times the values it chose. Holding only the pass that ended
        # the layer above, it predicts nothing: the layer scans its first
        # pass, as a fresh slot's does, and takes the same path
        sol = dear_coarse_solution
        g, p, tables = sol.grid, sol.params, sol.tables
        i = g.n_steps // 2
        slot = _SystemSlot()
        above = solve_time_step(sol.surface[i + 2], g, p, tables, time_index=i + 1, slot=slot)
        np.testing.assert_array_equal(above[0], sol.surface[i + 1])
        ((row, values, scaled),) = slot.passes
        np.testing.assert_array_equal(row, sol.surface[i + 1])
        np.testing.assert_array_equal(values, operator_values(row, g, p, tables))
        kstar = values.argmin(axis=0)
        np.testing.assert_array_equal(tables.controls[kstar], above[1])
        np.testing.assert_array_equal(scaled, g.h_t * values[kstar, np.arange(g.n_nodes)])
        scans = []
        monkeypatch.setattr(
            howard, "operator_values", lambda *a: scans.append(1) or operator_values(*a)
        )
        cold = solve_time_step(sol.surface[i + 1], g, p, tables, time_index=i)
        cold_scans = len(scans)
        warm = solve_time_step(sol.surface[i + 1], g, p, tables, time_index=i, slot=slot)
        assert len(scans) - cold_scans == cold_scans == cold[3].iterations
        for a, b in zip(cold[:3], warm[:3]):
            np.testing.assert_array_equal(a, b)
        assert repr(cold[3]) == repr(warm[3])

    @pytest.mark.parametrize(
        "name", ["dear_coarse_solution", "obstacle_regime_solution"]
    )
    def test_extrapolated_pass_is_the_operator_at_the_extrapolated_row(
        self, name, request
    ):
        # with the passes of two layers above, the first pass reads the row
        # 2 v_{i+1} - v_{i+2} and chooses the argmin of the values extrapolated
        # the same way: the operator there up to rounding, +inf where the pair
        # is inadmissible (formed with no NaN, so with no warning)
        sol = request.getfixturevalue(name)
        g, p, tables = sol.grid, sol.params, sol.tables
        i = g.n_steps // 2
        slot = _SystemSlot()
        for j in (i + 2, i + 1):
            solve_time_step(sol.surface[j + 1], g, p, tables, time_index=j, slot=slot)
        row, kstar, scaled, obstacle = howard._first_pass(slot.passes, g, tables)
        np.testing.assert_array_equal(row, 2.0 * sol.surface[i + 1] - sol.surface[i + 2])
        np.testing.assert_array_equal(obstacle, obstacle_values(row, g))
        # the chosen values are still those of the layer above's last pass
        assert scaled is slot.passes[-1][2]
        exact = operator_values(row, g, p, tables)
        predicted = 2.0 * slot.passes[-1][1]
        adm = tables.admissible
        predicted[adm] -= slot.passes[0][1][adm]
        np.testing.assert_array_equal(kstar, predicted.argmin(axis=0))
        assert np.isposinf(predicted[~adm]).all()
        scale = np.abs(exact[adm]).max()
        np.testing.assert_allclose(predicted[adm], exact[adm], rtol=0, atol=1e-14 * scale)
