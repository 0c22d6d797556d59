import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from insdual import (
    ControlSet,
    Grid,
    build_uniform,
    conjugate_utility,
    expand,
    make_control_set,
    scheme,
    terminal_condition,
)
from insdual.howard import solve_backward, solve_time_step
from insdual.scheme import (
    build_tables,
    jump_target,
    obstacle_values,
    operator_values,
    solve_policy_system,
    source_term,
)
from tests.test_model import make_params


def dear_params():
    return make_params(alpha=2.1, beta=2.15)


def row_oracle(v, s, j, rho, params):
    """Scalar re-implementation of one stationary operator row.

    It also scores rho < 1, which no ladder holds, the way the store once
    did: the drift takes the forward difference, the top node reads the
    ghost v[m] := v[m - 2]. TestSubUnitCandidates scores with it.
    """
    m = len(s)
    y = s[j]
    tgt = rho * y / (1.0 + y * (rho - 1.0))
    tgt = min(max(tgt, s[0]), s[-1])
    lo = 0
    while lo + 1 < m and s[lo + 1] <= tgt:
        lo += 1
    if lo >= m - 1:
        credit = v[m - 1]
    else:
        w = (tgt - s[lo]) / (s[lo + 1] - s[lo])
        credit = (1.0 - w) * v[lo] + w * v[lo + 1]
    b = (1.0 - rho) * (1.0 - y) * y
    if b > 0.0:
        if j == m - 1:
            dv = (v[m - 2] - v[m - 1]) / (s[m - 1] - s[m - 2])
        else:
            dv = (v[j + 1] - v[j]) / (s[j + 1] - s[j])
    elif b < 0.0 and j >= 1:
        dv = (v[j] - v[j - 1]) / (s[j] - s[j - 1])
    else:
        dv = 0.0
    return params.pi_intensity * (credit - v[j] + b * dv) + params.r * v[j]


def admissible_oracle(s, j, rho):
    """Scalar admissibility rule: the jump target stays inside the hull
    (for rho < 1 its lower end matters too), and the first node admits no
    negative drift (it has no lower neighbour)."""
    tgt = rho * s[j] / (1.0 + s[j] * (rho - 1.0))
    return s[0] <= tgt <= s[-1] and not (j == 0 and rho > 1.0)


def stationary_oracle(v, s, j, rho, params):
    """Scalar (A(rho) v + l(rho))[j]."""
    return row_oracle(v, s, j, rho, params) + source_term(params, s[j], rho)


def stored_row(tables, v, k, j):
    """Row of the pair (node j, candidate k) of the store applied to v.

    The store is node-major and holds admissible pairs only: None for an
    inadmissible pair, whose CSR row is empty.
    """
    start, stop = tables.matrix.indptr[j * tables.controls.size + k :][:2]
    if start == stop:
        return None
    r = start // scheme.WIDTH
    return float(tables.weights[r] @ v[tables.cols[r]])


def best_candidates(v, grid, params, controls):
    """The solver's argmin: per node, the winning candidate and its value."""
    vals = operator_values(v, grid, params, build_tables(grid, params, controls))
    k = np.argmin(vals, axis=0)
    return controls.candidates[k], vals[k, np.arange(v.size)]


def complementarity_row(surface, grid, i, params, tables):
    """Pointwise complementarity residual of layer i of a surface."""
    v = surface[i]
    pde = surface[i + 1] - v + grid.h_t * operator_values(v, grid, params, tables).min(axis=0)
    return np.minimum(pde, obstacle_values(v, grid))


class TestControlSet:
    def test_contains_identity_and_kink(self):
        cs = make_control_set(dear_params())
        assert 1.0 in cs.candidates
        assert 2.15 / 2.0 in cs.candidates

    def test_cheap_kink_collapses_onto_identity(self):
        cs = make_control_set(make_params())
        assert np.sum(cs.candidates == 1.0) == 1

    def test_increasing_positive(self):
        cs = make_control_set(dear_params(), low=0.01, high=100.0, count=17)
        assert np.all(cs.candidates > 0)
        assert np.all(np.diff(cs.candidates) > 0)

    def test_rejects(self):
        with pytest.raises(ValueError, match="increasing"):
            ControlSet(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=">= 1, got -1.0"):
            ControlSet(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="finite, got nan"):
            ControlSet(np.array([np.nan]))
        with pytest.raises(ValueError, match="finite, got inf"):
            ControlSet(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="count"):
            make_control_set(make_params(), count=1)
        with pytest.raises(ValueError, match="low < high"):
            make_control_set(make_params(), low=2.0, high=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "low, high", [(1e-3, np.inf), (-np.inf, 1.0), (np.nan, 1e3), (1e-3, np.nan)]
    )
    def test_rejects_non_finite_ladder_end_without_warning(self, low, high):
        # rejected by value: np.geomspace would warn about the NaN
        # candidates it makes of an infinite end
        with pytest.raises(ValueError, match="candidates must be finite"):
            make_control_set(make_params(), low=low, high=high)


def parent_ladder(params, low=1e-3, high=1e3, count=101):
    """The ladder make_control_set built before it dropped rho < 1."""
    base = np.geomspace(low, high, count)
    special = [1.0]
    kink = params.beta / (params.delta * params.pi_intensity)
    if kink > 0.0 and not np.isclose(kink, 1.0, rtol=1e-9, atol=0.0):
        special.append(kink)
    special = np.asarray(special, dtype=float)
    near = np.isclose(base[:, None], special[None, :], rtol=1e-9, atol=0.0)
    return np.unique(np.concatenate([base[~np.any(near, axis=1)], special]))


class TestSubUnitCandidates:
    """The ladder starts at 1, because no candidate below 1 can win.

    The rho-derivative of a node's Hamiltonian is
    pi y (v'(rho y) - v'(y) - delta 1{rho < kink}), negative below 1 on a
    convex v. On solved surfaces, every sub-1 candidate of the default
    geometric ladder, scored by the scalar oracle the way the store once
    scored it, must lose to the chosen control at every continuation node.
    """

    @pytest.mark.parametrize(
        "params, kw",
        [
            (dear_params(), {}),
            (make_params(), {}),
            (make_params(alpha=5.0, beta=2.15), {}),
            (make_params(alpha=3.0, beta=3.0, pi_intensity=1.0), {}),
            (dear_params(), dict(low=0.01, high=100.0, count=17)),
            (make_params(alpha=3.0, beta=3.0, pi_intensity=5.0), {}),
        ],
    )
    def test_ladder_is_the_parent_rule_from_one_up(self, params, kw):
        want = parent_ladder(params, **kw)
        got = make_control_set(params, **kw).candidates
        np.testing.assert_array_equal(got, want[want >= 1.0])
        assert got[0] == 1.0

    def test_control_set_starts_at_one(self):
        with pytest.raises(ValueError, match=">= 1, got 0.999"):
            ControlSet(np.array([0.999, 1.0]))
        assert ControlSet(np.array([1.0])).candidates.tolist() == [1.0]

    @pytest.fixture(scope="class")
    def kappa_three_solution(self):
        p = make_params(alpha=3.0, beta=3.0, pi_intensity=1.0)
        return solve_backward(build_uniform(50, 200, p.T), p, make_control_set(p))

    @pytest.mark.parametrize(
        "name",
        ["dear_coarse_solution", "obstacle_regime_solution", "kappa_three_solution"],
    )
    def test_no_sub_unit_candidate_wins(self, name, request):
        sol = request.getfixturevalue(name)
        p, s = sol.params, list(sol.grid.states)
        rhos = [float(r) for r in np.geomspace(1e-3, 1e3, 101) if r < 1.0]
        n = sol.grid.n_steps
        for i in (0, n // 2, n - 1):
            v = sol.surface[i]
            for j in np.flatnonzero(~sol.region[i]):
                chosen = stationary_oracle(v, s, j, float(sol.control[i, j]), p)
                for rho in rhos:
                    if admissible_oracle(s, j, rho):
                        assert stationary_oracle(v, s, j, rho, p) > chosen, (i, j, rho)


class TestSourceTerm:
    def test_dear_midpoint(self):
        # y = 1, alpha - beta = -0.05, refund (beta - delta*pi)_+ = 0.15
        assert source_term(dear_params(), 0.5, 1.0) == pytest.approx(0.10)

    def test_cheap_identity_vanishes(self):
        p = make_params()
        for s in (0.1, 0.5, 0.9):
            assert source_term(p, s, 1.0) == 0.0

    def test_constant_above_kink(self):
        p = dear_params()
        kink = p.beta / (p.delta * p.pi_intensity)
        base = expand(0.3) * (p.alpha - p.beta)
        for rho in np.linspace(kink, 5 * kink, 9):
            assert source_term(p, 0.3, rho) == pytest.approx(base, rel=1e-12)

    def test_kink_location(self):
        # below the kink the refund decreases linearly in rho
        p = dear_params()
        kink = p.beta / (p.delta * p.pi_intensity)
        lo = source_term(p, 0.5, 0.9 * kink)
        at = source_term(p, 0.5, kink)
        assert lo > at


class TestAdmissibility:
    def test_identity_everywhere(self):
        g = build_uniform(10, 100, 1.0)
        tables = build_tables(g, make_params(), ControlSet(np.array([1.0])))
        assert tables.admissible.all()

    def test_first_node_only_identity(self):
        # rho > 1 fails the drift rule there: the first node has no lower
        # neighbour for the backward difference
        g = build_uniform(10, 100, 1.0)
        cs = ControlSet(np.array([1.0, 1.0001, 1.5]))
        tables = build_tables(g, make_params(), cs)
        assert tables.admissible[:, 0].tolist() == [True, False, False]

    def test_hull_containment(self):
        # a jump never goes down, so only the top of the hull bars a pair
        g = build_uniform(10, 100, 1.0)
        cs = ControlSet(np.array([1.0, 1.5, 1000.0]))
        admissible = build_tables(g, make_params(), cs).admissible
        top = g.n_nodes - 1
        assert admissible[:, top].tolist() == [True, False, False]
        assert admissible[:, 50].tolist() == [True, True, False]
        assert admissible[:, 1].all()


class TestOperatorRow:
    def test_identity_control_is_pure_discount(self):
        g = build_uniform(10, 100, 1.0)
        p = make_params()
        tables = build_tables(g, p, ControlSet(np.array([1.0])))
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 2.0, g.n_nodes)
        for j in (0, 17, 98):
            assert stored_row(tables, v, 0, j) == pytest.approx(p.r * v[j], rel=1e-13)

    def test_constant_row_is_discounted_constant(self):
        g = build_uniform(10, 50, 1.0)
        p = make_params()
        cs = ControlSet(np.array([1.1, 1.3, 2.0]))
        vals = operator_values(np.full(g.n_nodes, 3.7), g, p, build_tables(g, p, cs))
        for j, k in ((5, 0), (20, 1), (40, 2)):
            rho = cs.candidates[k]
            assert vals[k, j] - source_term(p, g.states[j], rho) == pytest.approx(
                p.r * 3.7, rel=1e-13
            )

    def test_five_node_dense_oracle(self):
        g = Grid(1.0, 2, np.array([1, 2, 3, 4, 5]) / 6.0)
        p = dear_params()
        tables = build_tables(g, p, ControlSet(np.array([2.0])))
        v = g.states.copy()
        s = list(g.states)
        for j in range(5):
            got = stored_row(tables, v, 0, j)
            if not admissible_oracle(s, j, 2.0):
                assert got is None
                continue
            assert got == pytest.approx(row_oracle(v, s, j, 2.0, p), rel=1e-13)

    def test_matches_oracle_on_random_rows(self):
        g = build_uniform(4, 37, 1.0)
        p = dear_params()
        cs = ControlSet(np.array([1.0, 1.03, 1.075, 1.8, 6.0, 40.0]))
        tables = build_tables(g, p, cs)
        rng = np.random.default_rng(11)
        v = np.sort(rng.uniform(0.1, 9.0, g.n_nodes))[::-1].copy()
        s = list(g.states)
        for k, rho in enumerate(cs.candidates):
            for j in (0, 1, 17, 34, 35):
                got = stored_row(tables, v, k, j)
                if not admissible_oracle(s, j, rho):
                    assert got is None
                    continue
                assert got == pytest.approx(row_oracle(v, s, j, rho, p), rel=1e-12)


class TestManufacturedSolution:
    """The stored rows against the continuous operator on a smooth v*.

    v*(s) = e^{-2s} + s^3 under the one candidate rho = 1.5: the jump
    target lies above s, so the drift is upwinded backward, and every
    stored row is first-order consistent.
    """

    RHO = 1.5

    @staticmethod
    def continuous(p, s, rho):
        # pi (v*(J) - v*) + pi (1 - rho) s (1 - s) v*' + r v*, J = rho y in s
        v = np.exp(-2.0 * s) + s**3
        target = rho * s / (1.0 + s * (rho - 1.0))
        jumped = np.exp(-2.0 * target) + target**3
        slope = -2.0 * np.exp(-2.0 * s) + 3.0 * s**2
        drift = p.pi_intensity * (1.0 - rho) * s * (1.0 - s) * slope
        return p.pi_intensity * (jumped - v) + drift + p.r * v, v

    def error(self, m):
        g = build_uniform(1, m, 1.0)
        p = make_params()
        tables = build_tables(g, p, ControlSet(np.array([self.RHO])))
        want, v = self.continuous(p, g.states, self.RHO)
        # the first node admits rho = 1 only, and the jump from the top
        # nodes leaves the hull: no row there
        rows = np.isfinite(tables.source[0])
        assert not rows[0] and rows[1] and rows.sum() >= m - 3
        got = operator_values(v, g, p, tables)[0, rows] - tables.source[0, rows]
        return np.abs(got - want[rows]).max()

    def test_observed_order_is_first(self):
        meshes = (100, 400, 1600)
        errs = np.array([self.error(m) for m in meshes])
        assert errs[0] < 1e-2
        order = np.log(errs[:-1] / errs[1:]) / np.log(4.0)
        assert np.all(order >= 0.9), order


class TestManufacturedLayerSolve:
    """One solved layer against a smooth stationary v*, through the solver.

    v*(s) = e^{-2s} is strictly decreasing, so the obstacle stays
    inactive. The store's income is replaced by a manufactured one: minus
    the continuous operator at v* for the candidate RHO, and minus r v*
    for rho = 1, whose row is exactly r v. rho = 1 alone is admissible at
    the first node and where the jump of RHO leaves the hull; wherever RHO
    is admissible, rho = 1 earns MARGIN more and never wins. v* with
    v_next = v* then solves the continuous layer, and the solved row's
    error, through the control choice and the policy solve, is first order
    in m.
    """

    RHO = 1.5
    MARGIN = 1.0

    def error(self, m):
        g = build_uniform(1, m, 1.0)  # h_t = 1: the layer error is not scaled down
        p = make_params()
        s = g.states
        tables = build_tables(g, p, ControlSet(np.array([1.0, self.RHO])))
        v = np.exp(-2.0 * s)
        jumped = np.exp(-2.0 * jump_target(s, self.RHO))
        drift = (1.0 - self.RHO) * s * (1.0 - s) * (-2.0 * v)
        continuous = p.pi_intensity * (jumped - v + drift) + p.r * v
        jumps = tables.admissible[1]
        income = np.stack([-p.r * v + self.MARGIN * jumps, -continuous])
        manufactured = dataclasses.replace(
            tables, source=np.where(tables.admissible, income, np.inf)
        )
        got, rho_row, region, _ = solve_time_step(v, g, p, manufactured)
        assert not region.any()
        np.testing.assert_array_equal(rho_row, np.where(jumps, self.RHO, 1.0))
        return np.abs(got - v).max()

    def test_observed_order_is_first(self):
        errs = np.array([self.error(m) for m in (100, 400, 1600)])
        assert errs[0] < 1e-2
        order = np.log(errs[:-1] / errs[1:]) / np.log(4.0)
        assert np.all(order >= 0.9), (errs, order)


class TestObstacle:
    def test_constant_row(self):
        g = build_uniform(4, 20, 1.0)
        assert obstacle_values(np.ones(g.n_nodes), g)[5] == 0.0

    def test_decreasing_row_positive(self):
        g = build_uniform(4, 20, 1.0)
        assert obstacle_values(1.0 / g.states, g)[7] > 0.0

    def test_linear_row_is_minus_one(self):
        g = build_uniform(4, 100, 1.0)
        assert obstacle_values(g.states.copy(), g)[30] == pytest.approx(-1.0)

    def test_no_row_at_first_node(self):
        g = build_uniform(4, 20, 1.0)
        rng = np.random.default_rng(6)
        out = obstacle_values(rng.uniform(0.0, 1.0, g.n_nodes), g)
        assert out[0] == np.inf
        assert np.all(np.isfinite(out[1:]))

    def test_vectorized_matches_scalar(self):
        g = build_uniform(4, 20, 1.0)
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1.0, g.n_nodes)
        s = list(g.states)
        out = obstacle_values(v, g)
        assert out[0] == np.inf
        for j in range(1, g.n_nodes):
            expected = (v[j - 1] - v[j]) / (s[j] - s[j - 1])
            assert out[j] == pytest.approx(expected, rel=1e-14)


class TestMinimize:
    def test_singleton_identity(self):
        g = build_uniform(10, 50, 1.0)
        p = dear_params()
        cs = ControlSet(np.array([1.0]))
        v = 1.0 / g.states
        rho, val = best_candidates(v, g, p, cs)
        assert rho[12] == 1.0
        expected = p.r * v[12] + source_term(p, g.states[12], 1.0)
        assert val[12] == pytest.approx(expected, rel=1e-13)

    def test_exhaustive_scan_oracle(self):
        g = build_uniform(5, 21, 1.0)
        p = dear_params()
        rng = np.random.default_rng(23)
        # convex decreasing row
        v = np.sort(rng.uniform(0.2, 8.0, g.n_nodes))[::-1].copy()
        cs = ControlSet(np.geomspace(1.0, 20.0, 50))
        s = list(g.states)
        rho_got, val_got = best_candidates(v, g, p, cs)
        for j in range(g.n_nodes):
            best_rho, best_val = None, np.inf
            for rho in cs.candidates:
                if not admissible_oracle(s, j, rho):
                    continue
                val = stationary_oracle(v, s, j, rho, p)
                if val < best_val:
                    best_rho, best_val = rho, val
            assert rho_got[j] == best_rho
            assert val_got[j] == pytest.approx(best_val, rel=1e-12)

    def test_never_beaten_by_identity(self):
        g = build_uniform(10, 40, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=41)
        rng = np.random.default_rng(7)
        v = np.sort(rng.uniform(0.1, 5.0, g.n_nodes))[::-1].copy()
        s = list(g.states)
        _, val = best_candidates(v, g, p, cs)
        for j in (0, 3, 20, g.n_nodes - 1):
            identity = stationary_oracle(v, s, j, 1.0, p)
            assert val[j] <= identity + 1e-13 * abs(identity)

    def test_cheap_convex_row_minimized_by_identity(self):
        g = build_uniform(10, 100, 1.0)
        p = make_params()
        v = conjugate_utility(p, expand(g.states))
        rho, _ = best_candidates(v, g, p, make_control_set(p))
        for j in (10, 49, 80):
            assert rho[j] == 1.0

    def test_tie_takes_smallest(self):
        # constant row, cheap params: every rho scores r*c exactly
        g = build_uniform(10, 50, 1.0)
        p = make_params()
        v = np.full(g.n_nodes, 2.0)
        cs = ControlSet(np.array([1.0, 1.5, 2.0, 3.0]))
        rho, val = best_candidates(v, g, p, cs)
        assert rho[25] == 1.0
        assert val[25] == pytest.approx(p.r * 2.0, rel=1e-13)

    @pytest.mark.parametrize("c", [3.7, 1.0 / 3.0, 123.456])
    def test_constant_rows_tie_exactly(self, c):
        # on a constant row every admissible rho must score the same bits
        # at every node, so the argmin takes rho = 1 everywhere
        g = build_uniform(10, 50, 1.0)
        p = make_params()
        cs = ControlSet(np.array([1.0, 1.5, 2.0, 3.0]))
        tables = build_tables(g, p, cs)
        vals = operator_values(np.full(g.n_nodes, c), g, p, tables)
        for j in range(g.n_nodes):
            kept = vals[:, j][tables.admissible[:, j]]
            assert np.all(kept == kept[0])
        np.testing.assert_array_equal(cs.candidates[np.argmin(vals, axis=0)], 1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ControlSet(np.array([]))


class TestVectorizedTables:
    def test_operator_values_match_scalar_rows(self):
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=21)
        tables = build_tables(g, p, cs)
        rng = np.random.default_rng(2)
        v = np.sort(rng.uniform(0.2, 4.0, g.n_nodes))[::-1].copy()
        vals = operator_values(v, g, p, tables)
        s = list(g.states)
        for k, rho in enumerate(cs.candidates):
            for j in range(g.n_nodes):
                if admissible_oracle(s, j, rho):
                    expected = stationary_oracle(v, s, j, rho, p)
                    assert vals[k, j] == pytest.approx(expected, rel=1e-12)
                else:
                    assert vals[k, j] == np.inf

    def test_admissible_table_matches_predicate(self):
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=21)
        tables = build_tables(g, p, cs)
        s = list(g.states)
        for k, rho in enumerate(cs.candidates):
            for j in range(g.n_nodes):
                assert tables.admissible[k, j] == admissible_oracle(s, j, rho)
        # the +inf income rates are the store's one record of admissibility
        assert "admissible" not in {f.name for f in dataclasses.fields(tables)}
        np.testing.assert_array_equal(tables.admissible, np.isfinite(tables.source))

    def test_store_holds_the_admissible_rows_node_major(self):
        # one stored row per admissible pair, in node-major order, under a
        # CSR matrix over the same arrays in which every other pair is an
        # empty row; the income rates sit in node-major memory too
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=21)
        tables = build_tables(g, p, cs)
        K, m = tables.source.shape
        n = int(tables.admissible.sum())
        assert n < K * m
        assert tables.cols.shape == tables.weights.shape == (n, scheme.WIDTH)
        matrix = tables.matrix
        assert matrix.shape == (m * K, m)
        assert np.shares_memory(matrix.data, tables.weights)
        assert np.shares_memory(matrix.indices, tables.cols)
        assert tables.source.T.flags.c_contiguous
        rng = np.random.default_rng(5)
        v = np.sort(rng.uniform(0.2, 4.0, m))[::-1].copy()
        s = list(g.states)
        for k, rho in enumerate(cs.candidates):
            for j in range(m):
                got = stored_row(tables, v, k, j)
                if admissible_oracle(s, j, rho):
                    assert got == pytest.approx(row_oracle(v, s, j, rho, p), rel=1e-12)
                else:
                    assert got is None
        assert operator_values(v, g, p, tables).T.flags.c_contiguous

    def test_chosen_values_of_inadmissible_pairs_are_infinite(self):
        # a pair with an empty row scores +inf, and only such a pair does,
        # the last pair of the store included
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        tables = build_tables(g, p, make_control_set(p, count=21))
        K, m = tables.source.shape
        v = np.linspace(3.0, 1.0, m)
        full = operator_values(v, g, p, tables)
        for k in (0, K // 2, K - 1):
            np.testing.assert_array_equal(np.isinf(full[k]), ~tables.admissible[k])
        assert not tables.admissible[K - 1, m - 1]

    def test_interpolation_weights_convex(self):
        # convex jump weights and upwinding leave every admissible stacked
        # row with nonnegative off-diagonal entries summing, with the
        # diagonal, to the discount r
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        tables = build_tables(g, p, make_control_set(p, count=21))
        K, m = tables.source.shape
        assert 0 <= tables.cols.min() and tables.cols.max() < m
        # the store holds the admissible rows only, node-major
        admissible = tables.admissible.T.ravel()
        weights = tables.weights
        cols = tables.cols
        node = np.repeat(np.arange(m), K)[admissible]
        assert np.all(weights[cols != node[:, None]] >= 0.0)
        scale = np.abs(weights).max(axis=1)
        assert np.all(np.abs(weights.sum(axis=1) - p.r) <= 1e-12 * scale)

    def test_identity_control_self_credit(self):
        # rho = 1 jumps onto the node itself and has no drift, so A(1)
        # reduces to the discount r on the diagonal
        g = build_uniform(5, 33, 1.0)
        p = make_params()
        tables = build_tables(g, p, ControlSet(np.array([1.0])))
        m = g.n_nodes
        dense = np.zeros((m, m))
        np.add.at(
            dense,
            (np.repeat(np.arange(m), tables.cols.shape[1]), tables.cols[:m].ravel()),
            tables.weights[:m].ravel(),
        )
        np.testing.assert_allclose(dense, p.r * np.eye(m), rtol=0.0, atol=1e-14)


class TestPolicySystem:
    def test_identity_policy_closed_form(self):
        # all-identity controls, no obstacle rows: the jump column folds
        # into the diagonal and v = (v_next + ht*l) / (1 - ht*r)
        g = build_uniform(4, 25, 1.0)
        p = dear_params()
        cs = ControlSet(np.array([1.0]))
        tables = build_tables(g, p, cs)
        rng = np.random.default_rng(1)
        v_next = rng.uniform(0.5, 2.0, g.n_nodes)
        kstar = np.zeros(g.n_nodes, dtype=int)
        region = np.zeros(g.n_nodes, dtype=bool)
        v = solve_policy_system(v_next, g, p, tables, kstar, region)
        src = source_term(p, g.states, 1.0)
        expected = (v_next + g.h_t * src) / (1.0 - g.h_t * p.r)
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_solution_satisfies_assigned_rows(self):
        # the solved row must make every continuation equation vanish
        # under the scalar row oracle, and copy its lower neighbour on
        # obstacle rows
        g = build_uniform(4, 20, 1.0)
        p = dear_params()
        cs = ControlSet(np.array([1.0, 1.3, 1.7]))
        tables = build_tables(g, p, cs)
        rng = np.random.default_rng(9)
        v_next = np.sort(rng.uniform(0.5, 6.0, g.n_nodes))[::-1].copy()
        kstar = np.empty(g.n_nodes, dtype=int)
        for j in range(g.n_nodes):
            options = [k for k in range(3) if tables.admissible[k, j]]
            kstar[j] = options[int(rng.integers(len(options)))]
        region = np.zeros(g.n_nodes, dtype=bool)
        region[[4, 5, 13]] = True
        v = solve_policy_system(v_next, g, p, tables, kstar, region)
        s = list(g.states)
        for j in range(g.n_nodes):
            if region[j]:
                assert v[j] == pytest.approx(v[j - 1], rel=1e-12)
            else:
                rho = float(cs.candidates[kstar[j]])
                res = v_next[j] - v[j] + g.h_t * stationary_oracle(v, s, j, rho, p)
                assert res == pytest.approx(0.0, abs=1e-12)

    def test_policy_matrix_is_monotone(self, monkeypatch):
        # the obstacle nodes are eliminated: the solved matrix holds the
        # continuation rows only, with positive diagonal, nonpositive
        # off-diagonals, rows summing to 1 - h_t * r and strict diagonal
        # dominance, so the natural ordering is safe
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        tables = build_tables(g, p, make_control_set(p, count=21))
        m = g.n_nodes
        seen = []

        def capture(matrix, rhs, permc_spec=None):
            seen.append((matrix.toarray(), permc_spec))
            return spsolve(matrix, rhs, permc_spec=permc_spec)

        monkeypatch.setattr(scheme, "spsolve", capture)
        rng = np.random.default_rng(4)
        kstar = np.array(
            [rng.choice(np.flatnonzero(tables.admissible[:, j])) for j in range(m)]
        )
        region = np.zeros(m, dtype=bool)
        region[[3, 4, 20, m - 1]] = True
        solve_policy_system(np.linspace(2.0, 1.0, m), g, p, tables, kstar, region)
        ((matrix, permc_spec),) = seen
        assert permc_spec == "NATURAL"
        assert matrix.shape == (m - 4, m - 4)
        diag = np.diag(matrix)
        off = matrix - np.diag(diag)
        assert np.all(diag > 0.0)
        assert np.all(off <= 0.0)
        scale = np.abs(matrix).max(axis=1)
        assert np.all(np.abs(matrix.sum(axis=1) - (1.0 - g.h_t * p.r)) <= 1e-12 * scale)
        assert np.all(diag > -off.sum(axis=1))

    def test_reduced_solve_matches_full_mixed_system(self):
        # the full m x m mixed system, continuation rows probed from the
        # scalar row oracle and obstacle rows v[j] - v[j-1] = 0, solved
        # densely
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=21)
        tables = build_tables(g, p, cs)
        m = g.n_nodes
        s = list(g.states)
        rng = np.random.default_rng(17)
        for _ in range(3):
            kstar = np.array(
                [rng.choice(np.flatnonzero(tables.admissible[:, j])) for j in range(m)]
            )
            region = rng.random(m) < 0.3
            region[0] = False
            v_next = np.sort(rng.uniform(0.5, 6.0, m))[::-1].copy()
            full = np.zeros((m, m))
            rhs = np.zeros(m)
            for j in range(m):
                if region[j]:
                    full[j, j], full[j, j - 1] = 1.0, -1.0
                    continue
                rho = float(cs.candidates[kstar[j]])
                row = [row_oracle(e, s, j, rho, p) for e in np.eye(m)]
                full[j] = np.eye(m)[j] - g.h_t * np.array(row)
                rhs[j] = v_next[j] + g.h_t * source_term(p, s[j], rho)
            expected = np.linalg.solve(full, rhs)
            got = solve_policy_system(v_next, g, p, tables, kstar, region)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
            anchor = np.maximum.accumulate(np.where(region, 0, np.arange(m)))
            np.testing.assert_array_equal(got, got[anchor])

    def test_inadmissible_pair_is_refused(self, monkeypatch):
        # an inadmissible pair at a continuation node has no stored row to
        # solve, so it is refused by name before any solve, at the first
        # node and at the top one, whose last candidate is the store's
        # last pair; at an obstacle node the control does not enter the
        # system, so the same pair is solved
        g = build_uniform(5, 33, 1.0)
        p = dear_params()
        cs = make_control_set(p, count=21)
        tables = build_tables(g, p, cs)
        K, m = tables.source.shape
        identity = int(np.searchsorted(cs.candidates, 1.0))
        v_next = np.linspace(2.0, 1.0, m)
        calls = []

        def count(*args, **kwargs):
            calls.append(1)
            return spsolve(*args, **kwargs)

        monkeypatch.setattr(scheme, "spsolve", count)
        region = np.zeros(m, dtype=bool)
        for j in (0, m - 1):
            kstar = np.full(m, identity)
            kstar[j] = K - 1
            assert not tables.admissible[K - 1, j]
            match = rf"control {cs.candidates[-1]} is inadmissible at node {j}$"
            with pytest.raises(ValueError, match=match):
                solve_policy_system(v_next, g, p, tables, kstar, region)
        assert calls == []
        region[m - 1] = True
        v = solve_policy_system(v_next, g, p, tables, kstar, region)
        assert calls == [1]
        assert np.all(np.isfinite(v))

    def test_rejects_large_time_step(self):
        g = build_uniform(1, 10, 25.0)  # h_t = 25 with r = 0.05
        p = dear_params()
        cs = ControlSet(np.array([1.0]))
        tables = build_tables(g, p, cs)
        with pytest.raises(ValueError, match="h_t"):
            solve_policy_system(
                np.ones(g.n_nodes), g, p, tables,
                np.zeros(g.n_nodes, dtype=int), np.zeros(g.n_nodes, dtype=bool),
            )

    def test_rejects_obstacle_at_first_node(self):
        g = build_uniform(4, 10, 1.0)
        p = dear_params()
        cs = ControlSet(np.array([1.0]))
        tables = build_tables(g, p, cs)
        region = np.zeros(g.n_nodes, dtype=bool)
        region[0] = True
        with pytest.raises(ValueError, match="first node"):
            solve_policy_system(
                np.ones(g.n_nodes), g, p, tables,
                np.zeros(g.n_nodes, dtype=int), region,
            )


class TestSchemeResidual:
    def test_converged_solution_residuals(self, cheap_solution):
        g = cheap_solution.grid
        p = cheap_solution.params
        tables = build_tables(g, p, cheap_solution.controls)
        for i in (0, 25, 49):
            res = complementarity_row(cheap_solution.surface, g, i, p, tables)
            for j in (0, 1, 49, 97, 98):
                assert abs(res[j]) <= 1e-9

    def test_analytic_surface_consistency_rate(self):
        # residual of the exact cheap-reinsurance surface shrinks at
        # least first order when both steps halve
        p = make_params()
        res = []
        for nt, ns in ((25, 50), (50, 100), (100, 200)):
            g = build_uniform(nt, ns, p.T)
            tables = build_tables(g, p, make_control_set(p))
            surface = np.exp(-p.r * g.times)[:, None] * conjugate_utility(
                p, expand(g.states)
            )[None, :]
            j = int(np.where(np.isclose(g.states, 0.5))[0][0])
            res.append(abs(complementarity_row(surface, g, 0, p, tables)[j]))
        assert res[0] > res[1] > res[2]
        assert res[0] / res[1] >= 1.4
        assert res[1] / res[2] >= 1.4

    def test_increasing_surface_violates(self):
        g = build_uniform(4, 30, 1.0)
        p = make_params()
        tables = build_tables(g, p, make_control_set(p, count=11))
        surface = np.tile(g.states * 2.0, (g.n_steps + 1, 1))
        assert complementarity_row(surface, g, 1, p, tables)[10] < 0.0

    def test_first_node_has_no_obstacle_arm(self):
        g = build_uniform(4, 30, 1.0)
        p = make_params()
        tables = build_tables(g, p, ControlSet(np.array([1.0])))
        surface = np.tile(terminal_condition(p, g.states), (g.n_steps + 1, 1))
        v = surface[1]
        expected = surface[2][0] - v[0] + g.h_t * (
            p.r * v[0] + source_term(p, g.states[0], 1.0)
        )
        assert complementarity_row(surface, g, 1, p, tables)[0] == pytest.approx(
            expected, rel=1e-12
        )
