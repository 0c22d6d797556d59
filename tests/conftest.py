"""Shared solver fixtures.

The heavy solves are session-scoped: the cheap-reinsurance case on two
uniform meshes and the dearer Table-style case run once and feed the
module tests and the acceptance suite alike.
"""

import dataclasses

import numpy as np
import pytest

from insdual import (
    ClaimSchedule,
    ModelParams,
    build_uniform,
    evolve_path,
    find_initial_state,
    make_control_set,
    refine_around,
    solve_backward,
)

CHEAP = dict(eta=0.5, alpha=2.0, beta=2.0, r=0.05, delta=1.0,
             pi_intensity=2.0, T=1.0)
DEAR = dict(eta=0.5, alpha=2.1, beta=2.15, r=0.05, delta=1.0,
            pi_intensity=2.0, T=1.0)


@pytest.fixture(scope="session")
def cheap_params():
    return ModelParams(**CHEAP)


@pytest.fixture(scope="session")
def dear_params():
    return ModelParams(**DEAR)


@pytest.fixture(scope="session")
def cheap_solution(cheap_params):
    grid = build_uniform(50, 100, cheap_params.T)
    return solve_backward(grid, cheap_params, make_control_set(cheap_params))


@pytest.fixture(scope="session")
def cheap_solution_fine(cheap_params):
    grid = build_uniform(100, 200, cheap_params.T)
    return solve_backward(grid, cheap_params, make_control_set(cheap_params))


@pytest.fixture(scope="session")
def dear_coarse_solution(dear_params):
    grid = build_uniform(50, 100, dear_params.T)
    return solve_backward(grid, dear_params, make_control_set(dear_params))


@pytest.fixture(scope="session")
def dear_refined_solution(dear_params, dear_coarse_solution):
    j0, _ = find_initial_state(dear_coarse_solution, 1.0)
    fine_grid = refine_around(dear_coarse_solution.grid, j0, fine_step=1.0 / 4000.0)
    return solve_backward(fine_grid, dear_params, make_control_set(dear_params))


@pytest.fixture(scope="session")
def obstacle_regime_solution(dear_params):
    # alpha = 5 on the default ladder puts about half of the nodes in the
    # obstacle set, in flat blocks reaching the top node
    params = dataclasses.replace(dear_params, alpha=5.0)
    grid = build_uniform(200, 400, params.T)
    return solve_backward(grid, params, make_control_set(params))


@pytest.fixture(scope="session")
def two_claims():
    return ClaimSchedule(times=np.array([0.4, 0.8]))


@pytest.fixture(scope="session")
def dear_path(dear_refined_solution, two_claims):
    return evolve_path(dear_refined_solution, two_claims, x=1.0)
