import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from insdual import (
    ModelParams,
    compactify,
    conjugate_utility,
    expand,
    inverse_marginal,
    terminal_condition,
    utility,
)
from insdual.scheme import jump_target


def make_params(**over):
    base = dict(eta=0.5, alpha=2.0, beta=2.0, r=0.05, delta=1.0,
                pi_intensity=2.0, T=1.0)
    base.update(over)
    return ModelParams(**base)


class TestParams:
    def test_gamma_derived(self):
        assert make_params(eta=0.5).gamma == 1.0
        assert make_params(eta=0.75).gamma == pytest.approx(3.0)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.eta = 0.6

    @pytest.mark.parametrize("field,value", [
        ("eta", 0.0), ("eta", 1.0), ("eta", 1.5),
        ("alpha", -0.1), ("beta", -1.0), ("r", -0.01),
        ("delta", 0.0), ("pi_intensity", 0.0), ("T", 0.0),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match="model"):
            make_params(**{field: value})

    def test_dear_cover_warns(self):
        with pytest.warns(UserWarning, match="negative net drift"):
            make_params(alpha=2.1, beta=2.15)

    def test_zero_discount_allowed(self):
        # r = 0 must construct: the terminal layer degenerates to the
        # plain conjugate, used by the explicit-step tests
        assert make_params(r=0.0).r == 0.0


class TestUtility:
    def test_values(self):
        p = make_params()
        assert utility(p, 1.0) == 2.0
        assert utility(p, 0.0) == 0.0
        assert utility(p, 4.0) == 4.0

    def test_negative_wealth_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            utility(make_params(), -1e-12)

    def test_vectorized(self):
        p = make_params()
        np.testing.assert_allclose(utility(p, [1.0, 4.0]), [2.0, 4.0])


class TestConjugate:
    def test_values(self):
        p = make_params()
        assert conjugate_utility(p, 1.0) == 1.0
        assert conjugate_utility(p, 2.0) == 0.5

    def test_brute_force_supremum(self):
        # the conjugate is sup_x { U(x) - x*y }; scan a fine wealth grid
        p = make_params()
        y = 0.7
        xs = np.arange(0.0, 100.0, 0.001)
        brute = np.max(utility(p, xs) - xs * y)
        assert conjugate_utility(p, y) == pytest.approx(brute, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError, match="y > 0"):
            conjugate_utility(make_params(), 0.0)

    @given(
        y1=st.floats(0.05, 50.0),
        y2=st.floats(0.05, 50.0),
        lam=st.floats(0.0, 1.0),
    )
    def test_convexity(self, y1, y2, lam):
        p = make_params()
        mix = lam * y1 + (1.0 - lam) * y2
        lhs = conjugate_utility(p, mix)
        rhs = lam * conjugate_utility(p, y1) + (1.0 - lam) * conjugate_utility(p, y2)
        assert lhs <= rhs + 1e-12 * abs(rhs)

    @pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
    def test_fenchel_identity(self, y):
        p = make_params(eta=0.5)
        i = inverse_marginal(p, y)
        fenchel = utility(p, i) - y * i
        assert conjugate_utility(p, y) == pytest.approx(fenchel, rel=1e-10)


class TestInverseMarginal:
    def test_values(self):
        p = make_params()
        assert inverse_marginal(p, 1.0) == 1.0
        assert inverse_marginal(p, 0.5) == pytest.approx(4.0)

    @pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
    def test_marginal_roundtrip(self, y):
        # U'(x) = x**(eta-1); composing with the inverse recovers y
        p = make_params()
        x = inverse_marginal(p, y)
        assert x ** (p.eta - 1.0) == pytest.approx(y, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="y > 0"):
            inverse_marginal(make_params(), -2.0)


class TestCompactification:
    def test_midpoint(self):
        assert compactify(1.0) == 0.5
        assert expand(0.5) == 1.0

    @given(st.floats(1e-6, 1e6))
    def test_roundtrip(self, y):
        # the cancellation in s / (1 - s) amplifies rounding by (1 + y),
        # so the roundtrip bound has to scale with the state itself
        assert expand(compactify(y)) == pytest.approx(y, rel=1e-12 * (1.0 + y))

    def test_jump_target_identity(self):
        # the compact image of y -> rho*y matches the closed form used
        # by the operator assembly
        for rho in (0.25, 0.5, 1.0, 2.0, 7.5):
            for y in (0.1, 0.5, 1.0, 3.0, 40.0):
                s = compactify(y)
                assert jump_target(s, rho) == pytest.approx(
                    compactify(rho * y), rel=1e-12
                )

    def test_domains(self):
        with pytest.raises(ValueError):
            compactify(0.0)
        with pytest.raises(ValueError):
            expand(1.0)
        with pytest.raises(ValueError):
            expand(0.0)


class TestTerminalCondition:
    def test_direct_value(self):
        p = make_params(r=0.05, T=1.0)
        assert terminal_condition(p, 0.5) == pytest.approx(np.exp(-0.05))

    def test_zero_discount(self):
        p = make_params(r=0.0, T=3.0)
        assert terminal_condition(p, 0.5) == 1.0

    def test_matches_discounted_conjugate(self):
        p = make_params()
        s = np.linspace(0.01, 0.99, 57)
        expected = np.exp(-p.r * p.T) * conjugate_utility(p, expand(s))
        np.testing.assert_allclose(terminal_condition(p, s), expected, rtol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            terminal_condition(make_params(), 1.0)
