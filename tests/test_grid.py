import numpy as np
import pytest
from hypothesis import given, strategies as st

from insdual import Grid, build_uniform, project, refine_around


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

    @pytest.mark.parametrize("nt,ns,T", [(0, 10, 1.0), (10, 2, 1.0), (10, 10, 0.0)])
    def test_rejects(self, nt, ns, T):
        with pytest.raises(ValueError, match="grid"):
            build_uniform(nt, ns, T)


class TestGridValidation:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            Grid(times=np.array([0.1, 0.2]), states=np.array([0.3, 0.6]))

    def test_times_must_be_uniform(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            Grid(times=np.array([0.0, 0.1, 0.3]), states=np.array([0.3, 0.6]))

    def test_states_inside_unit_interval(self):
        with pytest.raises(ValueError, match="inside"):
            Grid(times=np.array([0.0, 1.0]), states=np.array([0.0, 0.5]))

    def test_states_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(times=np.array([0.0, 1.0]), states=np.array([0.5, 0.5]))

    def test_immutable_arrays(self):
        g = build_uniform(2, 10, 1.0)
        with pytest.raises(ValueError):
            g.states[0] = 0.5


class TestRefineAround:
    def test_desk_scale_window(self):
        g = build_uniform(50, 100, 1.0)
        f = refine_around(g, 40, halfwidth=2, fine_step=1 / 4000)
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
        f = refine_around(g, 40, halfwidth=2, fine_step=1 / 4000)
        expected = 99 + 4 * 39  # 4 coarse cells, 39 new nodes each
        assert f.n_nodes == expected

    def test_noop_refinement(self):
        g = build_uniform(10, 50, 1.0)
        f = refine_around(g, 20, halfwidth=2, fine_step=1 / 50)
        np.testing.assert_allclose(f.states, g.states, rtol=0, atol=1e-12)

    def test_window_clipped_at_origin(self):
        g = build_uniform(10, 100, 1.0)
        f = refine_around(g, 1, halfwidth=3, fine_step=1 / 400)
        assert f.states[0] > 0.0
        assert np.all(np.isin(g.states, f.states))

    def test_rejects_bad_step(self):
        g = build_uniform(10, 100, 1.0)
        with pytest.raises(ValueError, match="fine_step"):
            refine_around(g, 40, halfwidth=2, fine_step=0.5)
        with pytest.raises(IndexError):
            refine_around(g, 400, halfwidth=2, fine_step=1 / 4000)


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
