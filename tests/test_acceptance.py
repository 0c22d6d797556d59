"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single PASS line once its assertions hold, so a
verbose run doubles as a checklist. Heavy artifacts (the two-pass solve,
the reconstructed path) come from the shared session fixtures.
"""

import time

import numpy as np
import pytest

from insdual import (
    build_uniform,
    complementarity_extrema,
    conjugate_utility,
    evolve_path,
    expand,
    growth_margins,
    make_control_set,
    sde_residual,
    solve_backward,
    terminal_condition,
    wealth_row,
)
from insdual.cli import RunConfig, run
from tests.test_howard import enumerate_toy_layer, toy_problem


def _band_relative_error(solution, lo=0.1, hi=0.9):
    g = solution.grid
    p = solution.params
    exact = np.exp(-p.r * g.times)[:, None] * conjugate_utility(
        p, expand(g.states)
    )[None, :]
    band = (g.states >= lo) & (g.states <= hi)
    rel = np.abs(solution.surface - exact) / np.abs(exact)
    return float(rel[:, band].max())


def test_1_cheap_reinsurance_analytic_oracle(cheap_params):
    started = time.perf_counter()
    grid = build_uniform(50, 100, cheap_params.T)
    controls = make_control_set(cheap_params)
    solution = solve_backward(grid, cheap_params, controls)

    err = _band_relative_error(solution)
    assert err <= 1e-2

    fine = solve_backward(
        build_uniform(100, 200, cheap_params.T), cheap_params, controls
    )
    err_fine = _band_relative_error(fine)
    assert err / err_fine >= 1.5

    # start from a wealth the starting layer can represent exactly: the
    # backward difference behind the wealth map carries an O(h) bias, so
    # reconstruction accuracy is measured as constancy along the path
    j_mid = int(np.argmin(np.abs(grid.states - 0.5)))
    x = wealth_row(solution, 0)[j_mid]
    path = evolve_path(solution, [0.4, 0.8], x)
    assert float(np.max(np.abs(path.theta))) <= 0.02
    assert float(np.max(np.abs(path.wealth - x))) <= 0.02

    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(
        f"\nACCEPTANCE 1 PASS: cheap-reinsurance oracle "
        f"(rel err {err:.3e}, shrink x{err / err_fine:.2f}, "
        f"sup|theta| {np.max(np.abs(path.theta)):.1e}, "
        f"sup|X - x| {np.max(np.abs(path.wealth - x)):.3e}, {elapsed:.1f}s)"
    )


def test_2_desk_scale_reproduction(dear_refined_solution, dear_path, dear_params):
    res = sde_residual(dear_path, dear_params)
    assert res <= 0.05

    steps = np.diff(dear_path.wealth)
    down = [int(i) for i in np.flatnonzero(steps < 0.0) + 1]
    claim_steps = [int(i) for i in np.flatnonzero(dear_path.claim_flag)]
    assert down == claim_steps
    assert claim_steps == [20, 40]

    # the claim's multiplicative kick reaches the dual state one step
    # later, so "a drop after each claim" reads at c + 1
    theta_steps = np.diff(dear_path.theta)
    assert (theta_steps > 0).any() and (theta_steps < 0).any()
    for c in claim_steps:
        assert dear_path.theta[c + 1] < dear_path.theta[c]

    print(
        f"\nACCEPTANCE 2 PASS: desk-scale reproduction "
        f"(sde residual {res:.4f}, wealth drops exactly at steps "
        f"{claim_steps}, theta drops "
        f"{[round(float(dear_path.theta[c] - dear_path.theta[c + 1]), 4) for c in claim_steps]})"
    )


def test_3_complementarity_suite(
    cheap_solution, cheap_solution_fine, dear_coarse_solution, dear_refined_solution
):
    worst_low, worst_high = 0.0, 0.0
    for sol in (
        cheap_solution,
        cheap_solution_fine,
        dear_coarse_solution,
        dear_refined_solution,
    ):
        lowest, largest = complementarity_extrema(sol)
        assert lowest >= -1e-7
        assert largest <= 1e-7
        worst_low = min(worst_low, lowest)
        worst_high = max(worst_high, largest)
    print(
        f"\nACCEPTANCE 3 PASS: complementarity on 4 solves "
        f"(lowest argument {worst_low:.2e}, largest minimum {worst_high:.2e})"
    )


def test_4_growth_sandwich(
    cheap_solution, cheap_solution_fine, dear_coarse_solution, dear_refined_solution
):
    worst = -np.inf
    for sol in (
        cheap_solution,
        cheap_solution_fine,
        dear_coarse_solution,
        dear_refined_solution,
    ):
        slack = 10.0 * sol.grid.h_t
        below, above = growth_margins(sol)
        assert below <= slack
        assert above <= slack
        worst = max(worst, below / slack, above / slack)
    print(
        f"\nACCEPTANCE 4 PASS: growth sandwich on 4 solves "
        f"(worst violation at {worst:.1%} of the 10*h_t slack)"
    )


def test_5_layers_nonincreasing(
    cheap_solution, cheap_solution_fine, dear_coarse_solution, dear_refined_solution
):
    worst = -np.inf
    for sol in (
        cheap_solution,
        cheap_solution_fine,
        dear_coarse_solution,
        dear_refined_solution,
    ):
        worst = max(worst, float(np.max(np.diff(sol.surface, axis=1))))
        assert worst <= 1e-9
    print(
        f"\nACCEPTANCE 5 PASS: every layer nonincreasing in state "
        f"(largest forward difference {worst:.2e})"
    )


def test_6_toy_oracle_equivalence():
    grid, params, controls = toy_problem()
    v_next = terminal_condition(params, grid.states)
    survivors = enumerate_toy_layer(grid, params, controls, v_next)
    assert survivors
    sol = solve_backward(grid, params, controls)
    gap = max(
        float(np.max(np.abs(sol.surface[0] - v))) for v in survivors
    )
    assert gap <= 1e-10
    print(
        f"\nACCEPTANCE 6 PASS: toy enumeration matches Howard "
        f"({len(survivors)} surviving assignment(s), gap {gap:.2e})"
    )


def test_7_byte_identical_runs(tmp_path):
    config = RunConfig()
    run(config, out_dir=str(tmp_path / "a"))
    run(config, out_dir=str(tmp_path / "b"))
    for name in ("surface.csv", "path.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
    size = (tmp_path / "a" / "surface.csv").stat().st_size
    print(
        f"\nACCEPTANCE 7 PASS: byte-identical artifacts across reruns "
        f"(surface.csv {size} bytes)"
    )
