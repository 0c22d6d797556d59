"""Path reconstruction against the per-step scalar oracle it replaced.

``oracle_evolve_path`` is the reconstruction loop as it stood before
``evolve_path`` moved to one wealth table per path and float arithmetic
per step: it rebuilds the wealth row of every layer and works on numpy
arrays and 0-d values throughout. Its projection is the nearest-node
distance rule written out here (``project``), independent of the cell
cuts ``grid.project`` searches, and it maps states with ``model.compactify``
and ``model.expand`` one value at a time, where the package reads node
dual states off ``Grid.dual_states``, so the parity tests also pin that
table.
Its density takes one factor rho per claim acting at a step (rho ** 0 is
1.0 and rho ** 1 is rho, so a step with at most one claim keeps the bits
of its first form), and a step with c >= 2 claims jumps by rho ** c and
divides its coverage by c (the same bits as before for c <= 1). A dual
state that is not positive and finite, as when rho ** c overflows or the
state underflows, is a PathEscapeError. A jumped state that cannot be
compactified fails the path only once its loop finishes: a path that
fails otherwise fails with its own error. Every array of the path must
agree bit for bit, and a failing reconstruction must fail with the same
exception and message.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from insdual import (
    build_uniform, evolve_path, make_control_set, refine_around, solve_backward,
)
from insdual import grid as grid_module
from insdual import model as model_module
from insdual import policy
from insdual.howard import DiscreteSolution
from insdual.model import compactify, expand
from insdual.policy import (
    _MAX_HULL_ESCAPES,
    PathEscapeError,
    PolicyPath,
    UnreachableWealthError,
)
from insdual.simulate import ClaimSchedule, claim_steps, poisson_schedule
from tests.test_model import make_params
from tests.test_policy import make_solution


def project(grid, state):
    """The nearer of the two nodes around the state, by distance.

    Ties go to the lower node; off the hull, +-inf included, the extreme
    node; NaN the last node.
    """
    s = grid.states
    x = np.asarray(state, dtype=float)
    hi = np.minimum(np.searchsorted(s, x, side="left"), s.size - 1)
    # above the hull (or NaN) both neighbours are the last node
    lo = np.where(x <= s[-1], np.maximum(hi - 1, 0), hi)
    pick = np.where(np.abs(s[lo] - x) <= np.abs(s[hi] - x), lo, hi)
    return int(pick) if pick.ndim == 0 else pick


def oracle_wealth_row(solution: DiscreteSolution, i: int):
    grid = solution.grid
    if not 0 <= i < grid.n_steps:
        raise IndexError(
            f"policy: wealth defined on layers 0..{grid.n_steps - 1}, got {i}"
        )
    s = grid.states
    v = solution.surface[i]
    undiscount = np.exp(solution.params.r * grid.times[i])
    x = np.empty_like(v)
    x[1:] = -((1.0 - s[1:]) ** 2) * (v[1:] - v[:-1]) / (s[1:] - s[:-1]) * undiscount
    x[0] = -((1.0 - s[0]) ** 2) * (v[1] - v[0]) / (s[1] - s[0]) * undiscount
    return x


def oracle_find_initial_state(solution: DiscreteSolution, x: float):
    if x < 0.0:
        raise ValueError(f"policy: starting wealth must be nonnegative, got {x}")
    row = oracle_wealth_row(solution, 0)
    lo, hi = float(row.min()) + 0.0, float(row.max()) + 0.0  # 0, never -0
    if not lo <= x <= hi:
        raise UnreachableWealthError(
            f"policy: starting wealth {x} outside the attainable range "
            f"[{lo:.6g}, {hi:.6g}] of the starting layer"
        )
    j_init = int(np.argmin(np.abs(row - x)))
    return j_init, expand(float(solution.grid.states[j_init]))


def oracle_evolve_path(solution: DiscreteSolution, claims, x: float) -> PolicyPath:
    grid = solution.grid
    params = solution.params
    n = grid.n_steps
    ht = grid.h_t
    s = grid.states

    flags = claim_steps(claims, ht, n)

    j_init, y_init = oracle_find_initial_state(solution, x)
    unmappable = []  # ValueErrors of jumped states compactify refuses

    def jump_node(kick, y):
        # a jumped state past the largest double (or of inf) maps to the
        # last node
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return project(grid, compactify(kick * y))
        except ValueError as exc:
            unmappable.append(exc)
            return 0

    density = np.ones(n)
    regulator = np.ones(n)
    dual_state = np.empty(n)
    state_index = np.empty(n, dtype=np.int64)
    jump_state_index = np.empty(n, dtype=np.int64)
    regulated_state_index = np.empty(n, dtype=np.int64)
    theta = np.empty(n)
    wealth = np.empty(n)

    dual_state[0] = y_init * density[0] * regulator[0]
    state_index[0] = j_init
    rho0 = float(solution.control[0][j_init])
    jump_state_index[0] = jump_node(rho0, dual_state[0])
    regulated_state_index[0] = j_init
    w = oracle_wealth_row(solution, 0)
    theta[0] = (w[j_init] - w[jump_state_index[0]]) / params.delta
    wealth[0] = w[j_init]

    escapes = 0
    for i in range(1, n):
        target_prev = compactify(dual_state[i - 1])
        j_i = project(grid, target_prev)
        rho = float(solution.control[i][j_i])
        growth = np.exp(-params.pi_intensity * ht * (rho - 1.0))
        claims_here = int(flags[i])
        try:
            power = rho ** claims_here
        except OverflowError:
            power = np.inf
        density[i] = density[i - 1] * growth * power
        regulator[i] = regulator[i - 1]
        dual_state[i] = y_init * density[i] * regulator[i]

        # a step with c >= 1 claims jumps by rho ** c and covers each claim
        # at the mean retention over the c claims
        jp = jump_node(power if claims_here else rho, dual_state[i - 1])
        if not 0.0 < dual_state[i] < np.inf:
            raise PathEscapeError(
                f"policy: dual state {dual_state[i]} at step {i} "
                "is not positive and finite"
            )
        target = compactify(dual_state[i])
        jpp = project(grid, target)
        unregulated = jpp

        w = oracle_wealth_row(solution, i)
        while w[jpp] < 0.0:
            if jpp == 0:
                raise PathEscapeError(
                    f"policy: wealth regulation hit the lowest node at step {i} "
                    f"(dual state {dual_state[i]:.6g})"
                )
            jpp -= 1
        if jpp != unregulated:
            # regulator shrinks so the dual state sits on the chosen node
            regulator[i] = expand(float(s[jpp])) / (y_init * density[i])
            dual_state[i] = y_init * density[i] * regulator[i]

        state_index[i] = j_i
        jump_state_index[i] = jp
        regulated_state_index[i] = jpp
        theta[i] = (w[j_i] - w[jp]) / (params.delta * max(claims_here, 1))
        wealth[i] = w[jpp]

        escapes = escapes + 1 if (target < s[0] or target > s[-1]) else 0
        if escapes >= _MAX_HULL_ESCAPES:
            raise PathEscapeError(
                f"policy: dual state left the mesh hull for {escapes} consecutive "
                f"steps (step {i}, state {target:.6g} outside [{s[0]}, {s[-1]}])"
            )
    if unmappable:
        raise unmappable[0]

    return PolicyPath(
        times=grid.times[:n].copy(),
        density=density,
        regulator=regulator,
        dual_state=dual_state,
        state_index=state_index,
        jump_state_index=jump_state_index,
        regulated_state_index=regulated_state_index,
        theta=theta,
        wealth=wealth,
        claim_flag=flags,
        y_init=y_init,
        j_init=j_init,
    )


PATH_ARRAYS = (
    "times", "density", "regulator", "dual_state", "state_index",
    "jump_state_index", "regulated_state_index", "theta", "wealth",
    "claim_flag",
)


def outcome(reconstruct, solution, claims, x):
    try:
        return reconstruct(solution, claims, x)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return exc


def assert_same_outcome(solution, claims, x):
    """Both reconstructions give the same arrays, or fail the same way."""
    want = outcome(oracle_evolve_path, solution, claims, x)
    got = outcome(evolve_path, solution, claims, x)
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return want
    assert not isinstance(got, Exception), got
    for name in PATH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.y_init, got.j_init) == (want.y_init, want.j_init)
    return want


class TestPathParity:
    def test_poisson_schedules_on_obstacle_surface(self, obstacle_regime_solution):
        claims_seen = 0
        for seed in range(5001, 5061):
            schedule = poisson_schedule(2.0, 1.0, seed=seed)
            path = assert_same_outcome(obstacle_regime_solution, schedule, 1.0)
            claims_seen += int(path.claim_flag.sum())
        assert claims_seen > 60

    def test_dear_refined_starting_wealths(self, dear_refined_solution, two_claims):
        row = oracle_wealth_row(dear_refined_solution, 0)
        starts = [0.25, 0.5, 1.0, 1.5, float(row[40]), float(np.median(row))]
        for x in starts:
            assert isinstance(
                assert_same_outcome(dear_refined_solution, two_claims, x), PolicyPath
            )
        for x, error in ((1e9, UnreachableWealthError), (-0.5, ValueError)):
            assert isinstance(
                assert_same_outcome(dear_refined_solution, two_claims, x), error
            )

    def test_floor_escape(self):
        p = make_params(r=0.0)
        states = np.linspace(0.2, 0.8, 6)
        rows = np.vstack([1.0 - 0.5 * states] + [1.0 + 0.5 * states] * 4)
        sol = make_solution(4, states, rows, 1.0, p)
        x = oracle_wealth_row(sol, 0)[3]
        assert isinstance(assert_same_outcome(sol, [], x), PathEscapeError)

    def test_hull_escape(self):
        # make_solution puts the control 0.01 in the table over the ladder {1}
        p = make_params(pi_intensity=2.0, r=0.0)
        states = np.linspace(0.45, 0.55, 11)
        n = 15
        rows = np.vstack([1.0 - 0.5 * states] * (n + 1))
        sol = make_solution(n, states, rows, 0.01, p)
        x = oracle_wealth_row(sol, 0)[5]
        exc = assert_same_outcome(sol, [1.0 / n], x)
        assert isinstance(exc, PathEscapeError) and "hull" in str(exc)

    def test_successful_regulation(self):
        # make_solution puts the control 0.5 in the table over the ladder {1}
        p = make_params(pi_intensity=20.0, r=0.0)
        states = np.linspace(0.1, 0.9, 9)
        row = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.6, 0.8, 1.1])
        n = 8
        rows = np.vstack([row] * (n + 1))
        sol = make_solution(n, states, rows, 0.5, p)
        x = oracle_wealth_row(sol, 0)[3]
        path = assert_same_outcome(sol, [], x)
        assert path.regulator[-1] < 1.0

    @pytest.mark.parametrize("n_time", [1, 2])
    def test_one_and_two_step_meshes(self, dear_params, n_time):
        sol = solve_backward(
            build_uniform(n_time, 60, dear_params.T), dear_params,
            make_control_set(dear_params),
        )
        row = oracle_wealth_row(sol, 0)
        for claims in ([], [0.5], [0.5, 0.6], [1.0]):
            for x in (0.5, 1.0, float(np.median(row))):
                path = assert_same_outcome(sol, claims, x)
                assert isinstance(path, PolicyPath) and path.theta.size == n_time

    def test_claims_sharing_a_step(self, obstacle_regime_solution, dear_refined_solution):
        # 0.4 and 0.401 share step 20 of a 50-step mesh and step 80 of a
        # 200-step one; 0.8, 0.8001 and 0.8002 share a step on both
        schedule = ClaimSchedule(times=np.array([0.4, 0.401, 0.8, 0.8001, 0.8002]))
        for sol in (dear_refined_solution, obstacle_regime_solution):
            path = assert_same_outcome(sol, schedule, 1.0)
            assert sorted(path.claim_flag[path.claim_flag > 0].tolist()) == [2, 3]

    @pytest.mark.parametrize("fails", [True, False])
    def test_unmappable_jump_fails_only_a_succeeding_path(self, fails):
        # a zero control at step 1 makes that step's jumped state 0, which
        # cannot be compactified. Where the regulation of the same step
        # walks off the lowest node the path fails with that escape; where
        # every wealth is positive the path runs to its end, and the
        # read-off of its jumped states refuses the zero
        p = make_params(r=0.0)
        states = np.linspace(0.2, 0.8, 6)
        later = 1.0 + 0.5 * states if fails else 1.0 - 0.5 * states
        rows = np.vstack([1.0 - 0.5 * states] + [later] * 4)
        sol = make_solution(4, states, rows, 1.0, p)
        control = sol.control.copy()
        control[1] = 0.0
        sol = dataclasses.replace(sol, control=control)
        x = oracle_wealth_row(sol, 0)[3]
        exc = assert_same_outcome(sol, [], x)
        if fails:
            assert isinstance(exc, PathEscapeError)
            assert "hit the lowest node at step 1 " in str(exc)
        else:
            assert type(exc) is ValueError
            assert str(exc) == "model: compactify requires y > 0"


def flat_solution(n_time, states, v, control, **params):
    """Hand-built solution: the surface row v on every layer.

    ``control`` is one value for every node or the whole (n_time, m) table.
    """
    sol = make_solution(
        n_time, states, np.vstack([v] * (n_time + 1)),
        1.0, make_params(r=0.0, **params),
    )
    table = np.broadcast_to(np.asarray(control, dtype=float), sol.control.shape)
    return dataclasses.replace(sol, control=table.copy())


@st.composite
def schedules(draw):
    """Claim times on (0, 1], some of them sharing a step with the next.

    Some fall near 0 (they act at step 1) and some at or just short of the
    horizon (the last step, or past it and dropped).
    """
    times = set()
    near = st.one_of(
        st.floats(1e-9, 1e-2), st.floats(1e-3, 1.0), st.floats(0.98, 1.0),
        st.just(1.0),
    )
    for t in draw(st.lists(near, max_size=8)):
        times.update(t + k * 1e-4 for k in range(draw(st.integers(1, 3))))
    return ClaimSchedule(times=np.array(sorted(times)))


def count_projections(monkeypatch):
    """Shapes of the states ``policy.project`` is called with, in order."""
    calls = []

    def counted(grid, state):
        calls.append(np.shape(state))
        return grid_module.project(grid, state)

    monkeypatch.setattr(policy, "project", counted)
    return calls


class TestStretchCuts:
    """Passes stop only where the per-step rules must take over.

    A pass runs to the last step; claim steps ride inside it.
    """

    @pytest.mark.parametrize("table", ["by_layer", "by_node"])
    def test_control_change_inside_a_stretch(self, dear_refined_solution, table):
        # the control switches at layer 30, or alternates with the node the
        # state settles on; the claim-free path must follow each switch
        sol = dear_refined_solution
        control = np.full(sol.control.shape, 1.075)
        if table == "by_layer":
            control[30:] = 1.5
        else:
            control[:, 1::2] = 1.25
        sol = dataclasses.replace(sol, control=control)
        path = assert_same_outcome(sol, [], 1.0)
        rows = np.arange(1, sol.grid.n_steps)
        used = control[rows, path.state_index[1:]]
        assert np.unique(used).size == 2 and path.regulator[-1] == 1.0

    def test_regulation_after_a_long_stretch(self, monkeypatch):
        # the state climbs at a fixed control until the wealth of its node
        # turns negative (s > 0.6); from there every step is regulated, each
        # from the node its pass projected: no state is projected alone
        states = np.linspace(0.05, 0.95, 91)
        sol = flat_solution(60, states, (states - 0.6) ** 2, 0.5, pi_intensity=8.0)
        calls = count_projections(monkeypatch)
        path = assert_same_outcome(sol, [], oracle_wealth_row(sol, 0)[10])
        first = int(np.argmax(path.regulator < 1.0))
        assert first > 30 and np.all(path.regulator[first:] < 1.0)
        assert () not in calls

    @pytest.mark.parametrize("turn", [None, 26])
    def test_hull_escape_after_a_long_stretch(self, turn, monkeypatch):
        # the state climbs out of the hull after 21 steps; without a turn it
        # stays out for the tolerated count, with one it comes back earlier.
        # Each step off the hull is taken from its pass's node
        states = np.linspace(0.3, 0.7, 41)
        control = np.full((60, states.size), 0.5)
        if turn is not None:
            control[turn:] = 1.5
        sol = flat_solution(60, states, 1.0 - 0.5 * states, control, pi_intensity=8.0)
        calls = count_projections(monkeypatch)
        got = assert_same_outcome(sol, [], oracle_wealth_row(sol, 0)[5])
        assert () not in calls
        if turn is None:
            assert isinstance(got, PathEscapeError) and "step 31," in str(got)
        else:
            assert isinstance(got, PolicyPath)
            assert compactify(got.dual_state).max() > states[-1]

    def test_escape_is_raised_before_the_state_underflows(self):
        # a huge control shrinks the state by about 1e-31 a step: it is below
        # the hull from step 1 and underflows to 0 at step 11, after the
        # escape at step 10; a stretch must not compactify the zero first
        states = np.linspace(0.45, 0.55, 11)
        sol = flat_solution(15, states, 1.0 - 0.5 * states, 1072.0, pi_intensity=1.0)
        growth = np.exp(-sol.params.pi_intensity * sol.grid.h_t * 1071.0)
        assert 0.0 < growth**10 and growth**11 == 0.0
        exc = assert_same_outcome(sol, [], oracle_wealth_row(sol, 0)[5])
        assert isinstance(exc, PathEscapeError) and "step 10," in str(exc)

    def test_no_overflow_warning_past_the_cut(self):
        # a growth of e^10 a step takes the state off the hull at once and
        # overflows the density product at step 71; the pass computes that
        # far, the per-step rules stop at the escape of step 10
        states = np.linspace(0.3, 0.7, 41)
        sol = flat_solution(200, states, 1.0 - 0.5 * states, 0.5, pi_intensity=4000.0)
        x = oracle_wealth_row(sol, 0)[5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exc = assert_same_outcome(sol, [], x)
        assert isinstance(exc, PathEscapeError) and "step 10," in str(exc)

    def test_state_that_underflows_to_zero_fails_by_name(self):
        # a growth of about e^-667 a step takes the state below the hull, to
        # 1e-290, at step 1 and to 0 at step 2: the per-step rules refuse
        # the zero as an escape before compactify sees it
        states = np.array([0.3, 0.5, 0.7])
        sol = flat_solution(3, states, 1.0 - 0.5 * states, 1.5, pi_intensity=4000.0)
        exc = assert_same_outcome(sol, [], oracle_wealth_row(sol, 0)[1])
        assert isinstance(exc, PathEscapeError)
        assert str(exc) == (
            "policy: dual state 0.0 at step 2 is not positive and finite"
        )

    def test_jumped_state_past_the_largest_double_maps_to_the_last_node(self):
        # two claims under a control of 1e150 kick the state of 1e10 by
        # 1e300, past the largest double, while the growth factor e^-690
        # keeps the new state at 2e10, on the top cell: the path is made,
        # and the overflowing jumped state maps to the last node quietly
        states = np.array([0.5, 1.0 - 1e-9, 1.0 - 1e-10])
        sol = flat_solution(
            2, states, 1.0 - 0.5 * states, 1e150, pi_intensity=1380.0 / 1e150
        )
        x = oracle_wealth_row(sol, 0)[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = assert_same_outcome(sol, [0.5, 0.5001], x)
        assert isinstance(path, PolicyPath) and path.claim_flag.tolist() == [0, 2]
        assert path.jump_state_index.tolist() == [2, 2]

    @pytest.mark.parametrize(
        "fixture", ["dear_refined_solution", "obstacle_regime_solution"]
    )
    def test_claim_free_path_is_one_stretch(self, fixture, request, monkeypatch):
        # one projection for the stretch to the last step, one for the jumps
        sol = request.getfixturevalue(fixture)
        calls = count_projections(monkeypatch)
        path = assert_same_outcome(sol, [], 1.0)
        n = sol.grid.n_steps
        assert calls == [(n - 1,), (n,)] and path.regulator[-1] == 1.0

    @pytest.mark.parametrize("claims", ["two_claims", "shared", "first_and_last"])
    @pytest.mark.parametrize(
        "fixture", ["dear_refined_solution", "obstacle_regime_solution"]
    )
    def test_path_with_claims_is_one_pass(self, fixture, claims, request, monkeypatch):
        # claim steps ride inside the pass: two, three claims at one step
        # (0.8, 0.8001 and 0.8002), and claims at step 1 and step n - 1
        sol = request.getfixturevalue(fixture)
        n, h = sol.grid.n_steps, sol.grid.h_t
        schedule = {
            "two_claims": request.getfixturevalue("two_claims"),
            "shared": ClaimSchedule(
                times=np.array([0.4, 0.401, 0.8, 0.8001, 0.8002])
            ),
            "first_and_last": ClaimSchedule(times=np.array([1e-6, h, (n - 1) * h])),
        }[claims]
        calls = count_projections(monkeypatch)
        path = assert_same_outcome(sol, schedule, 1.0)
        assert calls == [(n - 1,), (n,)] and path.regulator[-1] == 1.0
        counts = path.claim_flag[path.claim_flag > 0].tolist()
        assert counts == {"two_claims": [1, 1], "shared": [2, 3],
                          "first_and_last": [2, 1]}[claims]
        if claims == "first_and_last":
            assert path.claim_flag[1] == 2 and path.claim_flag[-1] == 1

    @pytest.mark.parametrize("times", [[0.5], [0.5, 0.501]])
    def test_cut_falls_on_a_claim_step_that_needs_regulation(self, times, monkeypatch):
        # the state drifts down at rho = 1.5 and the claim kick rho^c lifts
        # it onto s = 0.6, where wealth turns negative: that claim step is
        # the first regulated one, so the pass is cut exactly there. The
        # per-step rules regulate it from the node that pass projected,
        # and a second pass runs from step 31 to the end
        states = np.linspace(0.05, 0.95, 91)
        sol = flat_solution(60, states, (states - 0.6) ** 2, 1.5, pi_intensity=0.5)
        calls = count_projections(monkeypatch)
        path = assert_same_outcome(sol, times, oracle_wealth_row(sol, 0)[50])
        assert path.claim_flag[30] == len(times)
        assert path.regulator[29] == 1.0 and path.regulator[30] < 1.0
        assert calls == [(59,), (29,), (60,)]

    def test_control_cuts_are_taken_by_the_next_pass(self, monkeypatch):
        # on the kappa = 3 surface the control changes along the paths, and
        # no step needs regulation or leaves the hull: each cut step starts
        # the next pass, and no step goes to the per-step rules
        p = make_params(alpha=3.0, beta=3.0, pi_intensity=1.0)
        sol = solve_backward(build_uniform(50, 200, p.T), p, make_control_set(p))
        calls = count_projections(monkeypatch)
        for seed in range(20):
            schedule = poisson_schedule(2.0, 1.0, seed=seed)
            assert isinstance(assert_same_outcome(sol, schedule, 1.0), PolicyPath)
        assert () not in calls
        # one jump read-off per path and, on average, more than two passes:
        # the passes are cut
        assert len(calls) > 3 * 20

    @pytest.mark.parametrize("count", [2, 3])
    def test_claim_step_leaves_the_hull(self, count, monkeypatch):
        # the kick 0.5^c at step 2 drops the state below the hull; with two
        # claims it climbs back in after seven steps, with three it stays
        # out for the tolerated count
        states = np.linspace(0.2, 0.8, 61)
        sol = flat_solution(20, states, 1.0 - 0.5 * states, 0.5, pi_intensity=3.8)
        times = [0.1, 0.101, 0.102][:count]
        calls = count_projections(monkeypatch)
        got = assert_same_outcome(sol, times, oracle_wealth_row(sol, 0)[10])
        assert () not in calls
        if count == 2:
            assert isinstance(got, PolicyPath) and got.claim_flag[2] == 2
            outside = compactify(got.dual_state) < states[0]
            assert outside.tolist() == [False] * 2 + [True] * 7 + [False] * 11
        else:
            assert isinstance(got, PathEscapeError) and "step 11," in str(got)

    @pytest.mark.parametrize("turn", [None, 5])
    def test_overflowing_kick_past_a_cut(self, turn):
        # with pi = 1e-160 a control of 1e155 barely moves the state, but two
        # claims under it overflow rho ** 2. A pass from step 1 reaches the
        # claim at step 8 under that control; with a turn to 1.5 at layer 5
        # the claim is taken under 1.5 and the path is made, without one
        # the per-step rules find the state at step 8 not finite
        states = np.linspace(0.2, 0.8, 61)
        control = np.full((12, states.size), 1e155)
        if turn is not None:
            control[turn:] = 1.5
        sol = flat_solution(
            12, states, 1.0 - 0.5 * states, control, pi_intensity=1e-160
        )
        x = oracle_wealth_row(sol, 0)[10]
        got = assert_same_outcome(sol, [8 / 12, 8.001 / 12], x)
        if turn is None:
            assert isinstance(got, PathEscapeError)
            assert str(got) == (
                "policy: dual state inf at step 8 is not positive and finite"
            )
        else:
            assert isinstance(got, PolicyPath) and got.claim_flag[8] == 2

    def test_escape_wins_over_an_unmappable_claim_jump(self):
        # the states span 300 decades, and a control of 1e-100 with a growth
        # of e^60 a step keeps the state inside them. At step 2 the two
        # claims' jump 1e-200 * Y_1 underflows to 0, while the state, one
        # growth factor larger, stays on the hull: the pass goes past it. At
        # step 3 the control turns to 1 (a mappable jump) and every node
        # needs regulation; the path fails with that escape, and the jumped
        # state of step 2, which it never returns, is not read off.
        # make_solution puts the control 1e-100 in the table over the
        # ladder {1}
        states = np.geomspace(1e-300, 0.5, 61)
        v = np.concatenate(([0.0], np.cumsum(-np.arange(1, 61) * np.diff(states))))
        n = 6
        rows = np.vstack([v] * 3 + [-v] * (n - 2))
        sol = make_solution(
            n, states, rows, 1e-100,
            make_params(r=0.0, pi_intensity=60.0 * n),
        )
        control = sol.control.copy()
        control[3:] = 1.0
        sol = dataclasses.replace(sol, control=control)
        x = oracle_wealth_row(sol, 0)[30]
        for claims in ([], [2.0 / n, 2.0001 / n]):
            exc = assert_same_outcome(sol, claims, x)
            assert isinstance(exc, PathEscapeError)
            assert "hit the lowest node at step 3 " in str(exc)

    @settings(max_examples=40, deadline=None)
    @given(schedules(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_random_schedules(
        self, obstacle_regime_solution, dear_refined_solution, schedule, x
    ):
        for sol in (obstacle_regime_solution, dear_refined_solution):
            assert_same_outcome(sol, schedule, x)


class TestPathArrays:
    def test_arrays_are_fresh_and_writable(self, dear_refined_solution, two_claims):
        # the read-off gathers from the solution's tables: no path array may
        # be a view of them, of the grid, or of another path's arrays
        sol = dear_refined_solution
        first = evolve_path(sol, two_claims, 1.0)
        second = evolve_path(sol, two_claims, 1.0)
        shared = [sol.wealth, sol.control, sol.surface, sol.grid.times, sol.grid.states]
        for name in PATH_ARRAYS:
            a = getattr(first, name)
            assert a.flags.writeable, name
            for other in shared + [getattr(second, n) for n in PATH_ARRAYS]:
                assert not np.shares_memory(a, other), name
            for n in PATH_ARRAYS:
                if n != name:
                    assert not np.shares_memory(a, getattr(first, n)), (name, n)


class TestWealthTable:
    @pytest.mark.parametrize(
        "fixture",
        ["cheap_solution", "dear_refined_solution", "obstacle_regime_solution"],
    )
    def test_rows_match_the_per_layer_formula(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        n = sol.grid.n_steps
        table = sol.wealth
        assert table.shape == (n, sol.grid.n_nodes)
        for i in range(n):
            want = oracle_wealth_row(sol, i)
            assert np.array_equal(table[i], want), i
            assert np.array_equal(policy.wealth_row(sol, i), want), i


@st.composite
def grids(draw):
    g = build_uniform(1, draw(st.integers(3, 60)), 1.0)
    if draw(st.booleans()):
        center = draw(st.integers(0, g.n_nodes - 1))
        coarse = g.states[1] - g.states[0]
        g = refine_around(g, center, coarse / draw(st.integers(1, 9)))
    return g


def probes(g):
    """Nodes, exact midpoints, points off the hull, +-inf and NaN."""
    s = g.states
    mid = (s[:-1] + s[1:]) / 2.0
    return [
        *s.tolist(), *mid.tolist(), -0.5, 0.0, s[0] / 2.0,
        (s[-1] + 1.0) / 2.0, 1.0, 7.0, np.inf, -np.inf, np.nan,
    ]


@st.composite
def irregular_grids(draw):
    """Geometric states from a tiny first node: every cell has b > 2a."""
    first = draw(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200, 1e-17]))
    last = draw(st.floats(0.01, 0.99))
    states = np.unique(np.geomspace(first, last, draw(st.integers(2, 40))))
    return grid_module.Grid(1.0, 1, states)


@st.composite
def edge_cells(draw):
    """One cell of a kind the one-step cut rests on: straddling a power of
    two, with b within 3 ulps of 2a, with both ends subnormal, or with b / a
    up to 1e20."""
    kind = draw(st.sampled_from(["straddle", "double", "subnormal", "wide"]))
    if kind == "straddle":
        p = 2.0 ** draw(st.integers(-60, -1))
        a = p * (1.0 - draw(st.floats(2.0 ** -53, 0.5)))
        b = p * (1.0 + draw(st.floats(2.0 ** -52, 0.5)))
    elif kind == "double":
        a = draw(st.floats(1e-300, 0.49))
        b = 2.0 * a
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            b = np.nextafter(b, np.inf if steps > 0 else 0.0)
    elif kind == "subnormal":
        low = draw(st.integers(1, 2**52 - 2))
        a = low * 5e-324
        b = draw(st.integers(low + 1, 2**52 - 1)) * 5e-324
    else:
        a = draw(st.floats(1e-300, 0.5))
        b = min(a * 10.0 ** draw(st.floats(0.0, 20.0)), 0.999)
        b = max(b, np.nextafter(a, 1.0))
    return grid_module.Grid(1.0, 1, np.array([a, b]))


def ulp_probes(g):
    """probes(g), and 1 to 4 ulps either side of each rounded midpoint."""
    s = g.states
    mid = (s[:-1] + s[1:]) / 2.0
    near = [mid]
    down, up = mid, mid
    for _ in range(4):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        near += [down, up]
    return probes(g) + np.concatenate(near).tolist()


class TestProjectOracle:
    """``grid.project`` against the distance rule (``project`` above)."""

    def assert_same_nodes(self, g):
        xs = ulp_probes(g)
        want = project(g, np.array(xs))
        assert np.array_equal(grid_module.project(g, np.array(xs)), want)
        for x, j in zip(xs, want.tolist()):
            assert grid_module.project(g, x) == j, x

    @settings(max_examples=40, deadline=None)
    @given(grids())
    def test_uniform_and_refined_grids(self, g):
        self.assert_same_nodes(g)

    @settings(max_examples=40, deadline=None)
    @given(irregular_grids())
    def test_irregular_grids(self, g):
        self.assert_same_nodes(g)

    @pytest.mark.parametrize(
        "states",
        [[1e-300, 0.5], [1e-300, 3e-300, 1e-10, 0.3, 0.9], [5e-324, 1e-300, 0.5],
         [0.1, 0.30000000000000004, 0.7, 0.9999999999999999]],
    )
    def test_hand_made_grids(self, states):
        g = grid_module.Grid(1.0, 1, np.array(states))
        self.assert_same_nodes(g)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(grids(), irregular_grids(), edge_cells()))
    def test_cuts_are_the_last_doubles_of_the_lower_node(self, g):
        a, b = g.states[:-1], g.states[1:]
        c, after = g.cuts, np.nextafter(g.cuts, np.inf)
        assert np.all((a <= c) & (c < b) & (c - a <= b - c))
        assert np.all((after == b) | (after - a > b - after))


class TestScalarInputs:
    """A Python float, a numpy scalar and a 0-d array give the same result."""

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.lists(st.floats(), max_size=8))
    def test_project_float_equals_array(self, g, extra):
        xs = probes(g) + extra
        from_array = grid_module.project(g, np.array(xs, dtype=float))
        for x, want in zip(xs, from_array.tolist()):
            assert grid_module.project(g, float(x)) == want, x
            assert grid_module.project(g, np.float64(x)) == want, x
            assert grid_module.project(g, np.asarray(x, dtype=float)) == want, x

    @given(grids())
    def test_project_tie_and_hull_rules(self, g):
        s = g.states
        m = s.size
        for j in range(m):
            assert grid_module.project(g, float(s[j])) == j
        for j in range(m - 1):
            mid = (s[j] + s[j + 1]) / 2.0
            if mid - s[j] == s[j + 1] - mid:
                assert grid_module.project(g, float(mid)) == j
        assert grid_module.project(g, np.inf) == m - 1
        assert grid_module.project(g, -np.inf) == 0
        assert grid_module.project(g, np.nan) == m - 1

    @given(st.floats())
    @example(float("inf"))
    def test_compactify_float_equals_array(self, y):
        if y <= 0.0:
            for arg in (y, np.float64(y), np.asarray(y)):
                with pytest.raises(ValueError, match="y > 0"):
                    model_module.compactify(arg)
            return
        if y == np.inf:
            # inf / inf: NaN, with numpy's invalid-value warning for every input
            for arg in (y, np.float64(y), np.asarray(y)):
                with pytest.warns(RuntimeWarning, match="invalid value"):
                    assert np.isnan(model_module.compactify(arg))
            return
        want = model_module.compactify(np.asarray(y))
        from_numpy = model_module.compactify(np.float64(y))
        got = model_module.compactify(y)
        assert type(got) is float and type(from_numpy) is float
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(from_numpy, want, equal_nan=True)

    @given(st.floats())
    def test_expand_float_equals_array(self, state):
        if state <= 0.0 or state >= 1.0:
            for arg in (state, np.float64(state), np.asarray(state)):
                with pytest.raises(ValueError, match="strictly inside"):
                    model_module.expand(arg)
            return
        # NaN passes through
        want = model_module.expand(np.asarray(state))
        from_numpy = model_module.expand(np.float64(state))
        got = model_module.expand(state)
        assert type(got) is float and type(from_numpy) is float
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(from_numpy, want, equal_nan=True)
