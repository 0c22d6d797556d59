"""The backward sweep against the full-scan loop it replaced.

``oracle_solve_backward`` is the sweep as it stood before a layer could
take the last improvement pass of the layer above as its first: every
improvement pass, the first of each layer included, scans every
candidate, the candidate values mask their inadmissible pairs with +inf
themselves, and a layer ends only when its whole control row and region
repeat.
Surface, control and region must agree bit for bit, and every
``StepDiagnostics`` field must be equal, on the shared fixtures and
across a sweep of the model parameters. A failing sweep must fail with
the same exception and message.

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
    # repr compares the NaN defaults and the float bits alike
    assert repr(got.diagnostics) == repr(expected.diagnostics)


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
        assert_same_solution(
            sol, oracle_solve_backward(sol.grid, sol.params, sol.controls)
        )

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
        # a layer that starts from the pass the layer above ended on takes
        # the path of a layer that scans its first pass, with one scan fewer
        sol = dear_coarse_solution
        g, p, tables = sol.grid, sol.params, sol.tables
        i = g.n_steps // 2
        slot = _SystemSlot()
        above = solve_time_step(sol.surface[i + 2], g, p, tables, time_index=i + 1, slot=slot)
        np.testing.assert_array_equal(above[0], sol.surface[i + 1])
        assert slot.scan_at == sol.surface[i + 1].tobytes()
        scans = []
        monkeypatch.setattr(
            howard, "operator_values", lambda *a: scans.append(1) or operator_values(*a)
        )
        cold = solve_time_step(sol.surface[i + 1], g, p, tables, time_index=i)
        cold_scans = len(scans)
        warm = solve_time_step(sol.surface[i + 1], g, p, tables, time_index=i, slot=slot)
        assert len(scans) - cold_scans == cold_scans - 1 == cold[3].iterations - 1
        for a, b in zip(cold[:3], warm[:3]):
            np.testing.assert_array_equal(a, b)
        assert repr(cold[3]) == repr(warm[3])
