import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insdual import Grid, build_uniform, expand, project, refine_around


class TestBuildUniform:
    def test_desk_scale(self):
        g = build_uniform(50, 100, 1.0)
        assert g.h_t == 0.02
        assert g.n_steps == 50
        assert g.n_nodes == 99
        np.testing.assert_array_equal(g.states, np.arange(1, 100) / 100)
        np.testing.assert_allclose(g.times, np.arange(51) / 50, rtol=1e-15)

    def test_smallest_legal(self):
        g = build_uniform(1, 3, 1.0)
        np.testing.assert_allclose(g.states, [1 / 3, 2 / 3])
        assert g.times.size == 2

    def test_interior_ordering(self):
        g = build_uniform(10, 10, 2.0)
        assert g.n_nodes == 9
        assert np.all(g.states > 0) and np.all(g.states < 1)
        assert np.all(np.diff(g.states) > 0)

    @pytest.mark.parametrize(
        "nt,ns,T,named",
        [
            (0, 10, 1.0, "n_steps must be an integer >= 1, got 0"),
            (10, 2, 1.0, "n_state must be an integer >= 3, got 2"),
            # 100.7 would make the 100 nodes j / 100.7, not the mesh j / n_state
            (10, 100.7, 1.0, "n_state must be an integer >= 3, got 100.7"),
            (10, 100.0, 1.0, "n_state must be an integer >= 3, got 100.0"),
            (10, np.nan, 1.0, "n_state must be an integer >= 3, got nan"),
            (10, 10, 0.0, "horizon must be finite and positive, got 0.0"),
            # 2.5 steps would make times 0, 0.4, 0.8, 1.2, past the horizon
            (2.5, 10, 1.0, "n_steps must be an integer >= 1, got 2.5"),
            (2.0, 10, 1.0, "n_steps must be an integer >= 1, got 2.0"),
            (50, 10, np.nan, "horizon must be finite and positive, got nan"),
        ],
        ids=[
            "0-10-1.0", "10-2-1.0", "10-100.7-1.0", "10-100.0-1.0", "10-nan-1.0",
            "10-10-0.0", "2.5-10-1.0", "2.0-10-1.0", "50-10-nan",
        ],
    )
    def test_rejects(self, nt, ns, T, named):
        with pytest.raises(ValueError, match=f"grid: {re.escape(named)}"):
            build_uniform(nt, ns, T)

    def test_numpy_integer_state_count(self):
        g = build_uniform(10, np.int64(100), 1.0)
        assert np.array_equal(g.states, build_uniform(10, 100, 1.0).states)


class TestGridValidation:
    @pytest.mark.parametrize("n,T", [(50, 1.0), (200, 1.0), (1, 1.0), (10, 2.0)])
    def test_times_are_the_uniform_expression(self, n, T):
        g = Grid(T, np.int64(n), np.array([0.3, 0.6]))
        want = T * np.arange(n + 1) / n
        assert np.array_equal(g.times, want)
        assert g.times[0] == 0.0 and g.times[-1] == T
        assert g.h_t == want[1] - want[0]
        assert g.n_steps == n and type(g.n_steps) is int
        assert g.times is g.times
        with pytest.raises(ValueError, match="read-only"):
            g.times[0] = 0.1

    def test_states_inside_unit_interval(self):
        with pytest.raises(ValueError, match="inside"):
            Grid(1.0, 1, np.array([0.0, 0.5]))

    def test_nan_state_rejected(self):
        # every comparison with NaN is false, so each check must fail on it
        with pytest.raises(ValueError, match="inside"):
            Grid(1.0, 1, np.array([0.3, np.nan, 0.6]))

    @pytest.mark.parametrize("last", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, last):
        # the last time node is the horizon
        with pytest.raises(ValueError, match=f"horizon must be finite and positive, got {last}"):
            Grid(last, 1, np.array([0.3, 0.6]))

    def test_one_state_rejected(self):
        with pytest.raises(ValueError, match="at least two state nodes"):
            Grid(1.0, 1, np.array([0.5]))

    def test_states_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(1.0, 1, np.array([0.5, 0.5]))

    def test_immutable_arrays(self):
        g = build_uniform(2, 10, 1.0)
        with pytest.raises(ValueError):
            g.states[0] = 0.5


class TestGaps:
    @pytest.mark.parametrize(
        "g",
        [
            build_uniform(3, 10, 1.0),
            refine_around(build_uniform(3, 40, 1.0), 12, 1.0 / 400.0),
        ],
    )
    def test_cell_widths_read_only(self, g):
        assert np.array_equal(g.gaps, np.diff(g.states))
        assert g.gaps is g.gaps
        with pytest.raises(ValueError, match="read-only"):
            g.gaps[0] = 1.0


class TestDualStates:
    @pytest.mark.parametrize(
        "g",
        [
            build_uniform(3, 10, 1.0),
            refine_around(build_uniform(3, 40, 1.0), 12, 1.0 / 400.0),
            Grid(1.0, 2, np.array([5e-324, 0.5, np.nextafter(1.0, 0.0)])),
        ],
    )
    def test_node_dual_states_read_only(self, g):
        assert g.dual_states.tobytes() == expand(g.states).tobytes()
        assert g.dual_states is g.dual_states
        with pytest.raises(ValueError, match="read-only"):
            g.dual_states[0] = 1.0


class TestRefineAround:
    def test_desk_scale_window(self):
        g = build_uniform(50, 100, 1.0)
        f = refine_around(g, 40, fine_step=1 / 4000)
        lo, hi = g.states[40] - 0.02, g.states[40] + 0.02
        inside = f.states[(f.states >= lo - 1e-12) & (f.states <= hi + 1e-12)]
        # 160 fine intervals across the window
        assert inside.size == 161
        np.testing.assert_allclose(np.diff(inside), 1 / 4000, rtol=1e-9)
        # original nodes all retained
        assert np.all(np.isin(g.states, f.states))

    def test_node_counting(self):
        # coarse-outside + fine-inside - shared coarse nodes
        g = build_uniform(50, 100, 1.0)
        f = refine_around(g, 40, fine_step=1 / 4000)
        expected = 99 + 4 * 39  # 4 coarse cells, 39 new nodes each
        assert f.n_nodes == expected

    def test_noop_refinement(self):
        g = build_uniform(10, 50, 1.0)
        f = refine_around(g, 20, fine_step=1 / 50)
        np.testing.assert_allclose(f.states, g.states, rtol=0, atol=1e-12)

    def test_window_clipped_at_origin(self):
        g = build_uniform(10, 100, 1.0)
        # the window [s_0 - 0.02, s_0 + 0.02] reaches below 0
        f = refine_around(g, 0, fine_step=1 / 400)
        assert f.states[0] > 0.0
        assert np.all(np.isin(g.states, f.states))

    def test_edge_rounding_to_the_hull_is_no_node(self):
        # s_c + 2 * (s_c - s_{c-1}) can round to one ulp below 1; such an
        # edge is the hull's, so no node lies within the merge tolerance
        # of 0 or 1 (on 3x5 that edge is 1 - 1.1e-16, a dual state of 9e15)
        step = 1 / 4000
        merge = step * 1e-6
        f = refine_around(build_uniform(3, 5, 1.0), 2, step)
        assert f.states[-1] == 0.99975
        for n in range(3, 61):
            g = build_uniform(2, n, 1.0)
            for c in range(g.n_nodes):
                f = refine_around(g, c, step)
                assert merge <= f.states[0] and f.states[-1] <= 1.0 - merge, (n, c)
                assert np.all(np.isin(g.states, f.states)), (n, c)

    def test_off_node_window_edges_become_nodes(self):
        # on a nonuniform mesh the window edges s_3 -+ 2 * (s_3 - s_2),
        # 0.15 and 0.75, fall between nodes: each is added as a node
        s = np.array([0.1, 0.2, 0.3, 0.45, 0.6, 0.8])
        step = 0.05
        f = refine_around(Grid(1.0, 1, s), 3, step)
        lo, hi = s[3] - 2 * (s[3] - s[2]), s[3] + 2 * (s[3] - s[2])
        assert not np.any(np.isin([lo, hi], s))
        assert np.all(np.isin([lo, hi], f.states))
        assert np.all(np.isin(s, f.states))
        assert np.all(np.diff(f.states) > 0.0)
        window = f.states[(f.states >= lo) & (f.states <= hi)]
        assert np.diff(window).max() <= step * (1.0 + 1e-9)

    def test_rejects_bad_step(self):
        g = build_uniform(10, 100, 1.0)
        with pytest.raises(ValueError, match="fine_step"):
            refine_around(g, 40, fine_step=0.5)
        with pytest.raises(IndexError):
            refine_around(g, 400, fine_step=1 / 4000)


class TestProject:
    def test_nearest(self):
        g = build_uniform(10, 100, 1.0)
        assert g.states[project(g, 0.123)] == pytest.approx(0.12)

    def test_tie_breaks_low(self):
        g = build_uniform(10, 100, 1.0)
        assert g.states[project(g, 0.125)] == pytest.approx(0.12)

    def test_clamps(self):
        g = build_uniform(10, 100, 1.0)
        assert project(g, 0.9999) == g.n_nodes - 1
        assert project(g, 1e-6) == 0

    def test_infinities_clamp_to_the_extreme_nodes(self):
        g = build_uniform(10, 100, 1.0)
        last = g.n_nodes - 1
        assert project(g, np.inf) == last
        assert project(g, float("inf")) == last
        assert project(g, -np.inf) == 0
        np.testing.assert_array_equal(
            project(g, np.array([np.inf, -np.inf, 2.0, -1.0])), [last, 0, last, 0]
        )

    def test_vectorized(self):
        g = build_uniform(10, 100, 1.0)
        out = project(g, np.array([0.123, 0.125, 0.9999]))
        np.testing.assert_array_equal(out, [11, 11, 98])

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_monotone(self, a, b):
        g = build_uniform(10, 37, 1.0)
        lo, hi = min(a, b), max(a, b)
        assert project(g, lo) <= project(g, hi)

    @given(st.floats(0.03, 0.97))
    def test_within_half_spacing(self, x):
        g = build_uniform(10, 37, 1.0)
        spacing = np.max(np.diff(g.states))
        assert abs(g.states[project(g, x)] - x) <= spacing / 2 + 1e-15
