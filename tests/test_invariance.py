"""Exact time symmetry of the solve, the path and the run.

Mapping (T, pi, alpha, beta, r) to (T/c, c pi, c alpha, c beta, c r) on
the same mesh leaves every product of a rate and a time as it was. For
c a power of two both factors are scaled exactly, so the solve, the path
and the artifacts must come out bit for bit as before, with only the
times divided by c. (c = 3 rounds, so it is left out.)
"""

import dataclasses
import json

import numpy as np
import pytest

from insdual import (
    ClaimSchedule,
    ModelParams,
    build_uniform,
    evolve_path,
    make_control_set,
    sde_residual,
    solve_backward,
)
from insdual.cli import RunConfig, run
from insdual.howard import growth_margins
from tests.conftest import DEAR

REGIMES = {
    "dear": DEAR,
    "alpha5": dict(DEAR, alpha=5.0),
    "kappa3": dict(DEAR, alpha=3.0, beta=3.0, pi_intensity=1.0),
}
CLAIM_TIMES = np.array([0.4, 0.8])
PATH_ARRAYS = ("theta", "wealth", "dual_state", "density", "regulator", "claim_flag")


def solve(model, c=1):
    """Params and 50x100 solution with time divided by c, rates times c."""
    model = dict(
        model, T=model["T"] / c, pi_intensity=c * model["pi_intensity"],
        alpha=c * model["alpha"], beta=c * model["beta"], r=c * model["r"],
    )
    params = ModelParams(**model)
    grid = build_uniform(50, 100, params.T)
    return params, solve_backward(grid, params, make_control_set(params))


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def layers(solution):
    return [
        (d.iterations, d.lowest_argument, d.largest_minimum)
        for d in solution.diagnostics
    ]


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime(request):
    model = REGIMES[request.param]
    return model, solve(model)


@pytest.mark.parametrize("c", [2, 4])
class TestTimeSymmetry:
    def test_solve(self, regime, c):
        model, (_, base) = regime
        _, sol = solve(model, c)
        for name in ("surface", "control", "region"):
            assert same_bits(getattr(sol, name), getattr(base, name)), name
        assert layers(sol) == layers(base)
        assert growth_margins(sol) == growth_margins(base)

    def test_path(self, regime, c):
        model, (params, base) = regime
        scaled_params, sol = solve(model, c)
        want = evolve_path(base, ClaimSchedule(times=CLAIM_TIMES), 1.0)
        got = evolve_path(sol, ClaimSchedule(times=CLAIM_TIMES / c), 1.0)
        assert want.claim_flag.any()
        for name in PATH_ARRAYS:
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(got.times, want.times / c)
        assert sde_residual(got, scaled_params) == sde_residual(want, params)


def test_run_artifacts_differ_only_in_time(tmp_path):
    c = 2.0
    config = RunConfig()
    halved = dataclasses.replace(
        config, horizon=config.horizon / c, intensity=c * config.intensity,
        alpha=c * config.alpha, beta=c * config.beta, r=c * config.r,
        claim_times=tuple(t / c for t in config.claim_times),
    )
    run(config, out_dir=str(tmp_path / "base"))
    run(halved, out_dir=str(tmp_path / "halved"))
    # every table has the time t as its first column
    for name, sep, head in (
        ("surface.csv", ",", 1), ("path.csv", ",", 1),
        ("strategy.dat", " ", 0), ("wealth.dat", " ", 0),
    ):
        want, got = (
            [line.split(sep) for line in (tmp_path / side / name).read_text().splitlines()]
            for side in ("base", "halved")
        )
        assert len(got) == len(want) > head + 1, name
        assert got[:head] == want[:head], name
        for a, b in zip(want[head:], got[head:]):
            assert b[1:] == a[1:], name
            assert float(b[0]) == float(a[0]) / c, name
    want, got = (
        json.loads((tmp_path / side / "diagnostics.json").read_text())
        for side in ("base", "halved")
    )
    assert got["claims"].pop("times") == [t / c for t in want["claims"].pop("times")]
    assert got == want
