"""Model primitives for the proportional-insurance problem.

An agent collects premium income at rate ``alpha``, cedes a fraction
``1 - theta`` of every claim to a reinsurer for a premium rate
``beta * (1 - theta)``, and faces claims of fixed size ``delta`` arriving
with Poisson intensity ``pi_intensity``. Terminal preferences are CRRA
with exponent ``eta``.

The solver works on the dual side of the utility maximization, where the
state is the positive marginal-utility variable y. This module supplies
the closed-form kit for that side: the conjugate utility, the inverse
marginal utility, the compactification of (0, inf) onto (0, 1), and the
discounted terminal data of the backward solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "utility",
    "conjugate_utility",
    "inverse_marginal",
    "compactify",
    "expand",
    "terminal_condition",
]


@dataclass(frozen=True)
class ModelParams:
    """Economic constants of one problem instance.

    eta           CRRA exponent, strictly between 0 and 1
    alpha         premium income rate
    beta          reinsurance premium rate for full cover
    r             discount constant of the value transform (r >= 0)
    delta         size of every claim
    pi_intensity  Poisson arrival intensity of claims
    T             horizon
    gamma         derived conjugate exponent eta / (1 - eta)

    Every input must be finite.
    """

    eta: float
    alpha: float
    beta: float
    r: float
    delta: float
    pi_intensity: float
    T: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"model: eta must lie strictly in (0, 1), got {self.eta}")
        # written so that NaN fails every check, and +inf the upper bound
        for name in ("alpha", "beta", "r"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(
                    f"model: {name} must be finite and nonnegative, got {value}"
                )
        for name in ("delta", "pi_intensity", "T"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"model: {name} must be finite and positive, got {value}"
                )
        object.__setattr__(self, "gamma", self.eta / (1.0 - self.eta))


def utility(params: ModelParams, x):
    """CRRA terminal utility x**eta / eta, defined for wealth x >= 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):  # NaN fails too
        raise ValueError("model: utility requires wealth x >= 0")
    out = np.power(x, params.eta) / params.eta
    return float(out) if out.ndim == 0 else out


def _finite(params: ModelParams, name, out):
    """``out`` if every value is finite, else a ValueError that names eta."""
    if not np.isfinite(out).all():
        raise ValueError(
            f"model: {name} overflows the largest double at eta = {params.eta} "
            f"(gamma = {params.gamma:.6g}); take a smaller eta"
        )
    return float(out) if out.ndim == 0 else out


def conjugate_utility(params: ModelParams, y):
    """Convex conjugate of the utility, y**(-gamma) / gamma for y > 0.

    Equals sup_x (utility(x) - x*y); convex and decreasing on (0, inf).
    A value past the largest double (small y, eta near 1) is a ValueError.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):  # NaN fails too
        raise ValueError("model: conjugate_utility requires y > 0")
    with np.errstate(over="ignore"):
        out = np.power(y, -params.gamma) / params.gamma
    return _finite(params, "conjugate_utility", out)


def inverse_marginal(params: ModelParams, y):
    """Inverse of marginal utility, y**(1 / (eta - 1)) for y > 0.

    Satisfies utility'(inverse_marginal(y)) = y; it is the maximizer in
    the conjugate, so conjugate_utility(y) = utility(I(y)) - y * I(y).
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):  # NaN fails too
        raise ValueError("model: inverse_marginal requires y > 0")
    out = np.power(y, 1.0 / (params.eta - 1.0))
    return float(out) if out.ndim == 0 else out


def compactify(y):
    """Map the dual state y in (0, inf) to y / (1 + y) in (0, 1)."""
    y = np.asarray(y, dtype=float)
    if (y <= 0.0).any():
        raise ValueError("model: compactify requires y > 0")
    out = y / (1.0 + y)
    return float(out) if out.ndim == 0 else out


def expand(state):
    """Inverse of compactify: state / (1 - state), for state in (0, 1)."""
    state = np.asarray(state, dtype=float)
    if ((state <= 0.0) | (state >= 1.0)).any():
        raise ValueError("model: expand requires a state strictly inside (0, 1)")
    out = state / (1.0 - state)
    return float(out) if out.ndim == 0 else out


def terminal_condition(params: ModelParams, state):
    """Discounted terminal row of the backward solve, on compact states.

    exp(-r*T) * ((1 - state) / state)**gamma / gamma, which is the
    discounted conjugate utility evaluated at y = expand(state). A value
    past the largest double (a low state, eta near 1) is a ValueError.
    """
    state = np.asarray(state, dtype=float)
    if not np.all((state > 0.0) & (state < 1.0)):  # NaN fails too
        raise ValueError(
            "model: terminal_condition requires a state strictly inside (0, 1)"
        )
    # an overflow is reported by name, not as a warning; 0 * inf (an
    # underflowed discount) is NaN, reported alike
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            np.exp(-params.r * params.T)
            * np.power((1.0 - state) / state, params.gamma)
            / params.gamma
        )
    return _finite(params, "terminal_condition", out)
