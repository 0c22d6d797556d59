"""Tests of the benchmark itself, on its smoke mode (tiny meshes, a few ops).

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# the CLI's default parameters price cover above the premium income, and
# the model warns about that on every construction
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-default", "solve-fine", "mc-paths"])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_run():
    import run

    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_declared_per_layer_metrics_match_the_tracer():
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.metric_names()


@pytest.mark.parametrize("name", ["cli-default", "mc-paths"])
def test_same_seed_same_inputs(name, tmp_path):
    import workloads

    make = workloads.WORKLOADS[name]
    first = make(5, True, str(tmp_path)).schedules
    assert make(5, True, str(tmp_path)).schedules == first
    assert make(6, True, str(tmp_path)).schedules != first
    assert all(0.0 < t <= 1.0 for s in first for t in s)
    assert all(list(s) == sorted(s) for s in first)


def test_missing_target_is_absent_not_zero():
    import insdual  # noqa: F401
    from insdual import grid, howard, scheme

    targets = tracing.TARGETS + (("scheme.no_such_function", "insdual.scheme", "no_such_function"),)
    original = scheme.operator_values
    tracer = tracing.Tracer(targets=targets, observers=tracing.OBSERVERS)
    tracer.install()
    try:
        assert howard.operator_values is not original
        params, controls = _toy_problem()
        mesh = grid.build_uniform(4, 10, params.T)
        with tracer.op():
            howard.solve_backward(mesh, params, controls)
    finally:
        tracer.uninstall()
    assert howard.operator_values is original and scheme.operator_values is original
    assert tracer.absent == ["scheme.no_such_function"]
    values, absent = tracing.layer_metrics(tracer, 1)
    assert "scheme.no_such_function.self_s" not in values
    assert values["howard.solve_time_step.calls"] == 4
    assert values["howard.evals_per_sweep"] == 1.0
    # self times partition the op's wall time
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["op.wall_s"], rel=1e-9)


def test_unreadable_observer_reports_absent():
    from insdual import grid, howard

    def broken(tracer, args, kwargs, result):
        raise AttributeError("result changed shape")

    tracer = tracing.Tracer(observers=dict(tracing.OBSERVERS, **{"howard.solve_time_step": broken}))
    tracer.install()
    try:
        params, controls = _toy_problem()
        with tracer.op():
            howard.solve_backward(grid.build_uniform(3, 8, params.T), params, controls)
    finally:
        tracer.uninstall()
    values, absent = tracing.layer_metrics(tracer, 1)
    assert "howard.sweeps" in absent and "howard.sweeps" not in values
    assert "howard.solve_time_step.calls" in values


def test_ratio_without_calls_is_absent_not_zero():
    from insdual import grid, howard, policy, simulate

    params, controls = _toy_problem()
    solution = howard.solve_backward(grid.build_uniform(4, 10, params.T), params, controls)
    tracer = tracing.Tracer(observers=tracing.OBSERVERS)
    tracer.install()
    try:
        with tracer.op():
            path = policy.evolve_path(solution, (0.4,), 1.0)
            simulate.integrate_primal(path.theta, params, (0.4,), 1.0)
    finally:
        tracer.uninstall()
    values, absent = tracing.layer_metrics(tracer, 1)
    for name in tracing.PER_CALL:
        assert name in absent and name not in values
    assert "scheme.candidates_chosen" in absent
    assert values["scheme.spsolve.calls"] == 0
    assert values["policy.evolve_path.calls"] == 1


def _perturb_first_float(digest):
    """A copy of ``digest`` with its first float changed by 1e-6 relative."""
    if isinstance(digest, dict):
        out = dict(digest)
        for key in sorted(out):
            changed = _perturb_first_float(out[key])
            if changed is not None:
                out[key] = changed
                return out
        return None
    if isinstance(digest, list):
        for i, item in enumerate(digest):
            changed = _perturb_first_float(item)
            if changed is not None:
                return digest[:i] + [changed] + digest[i + 1:]
        return None
    if isinstance(digest, float) and digest != 0.0:
        return digest * (1.0 + 1e-6)
    return None


def _digest_perturbed(tmp_path):
    import workloads

    ref = json.loads((HERE / "reference.json").read_text())["smoke"]["mc-paths"]
    assert workloads.compare_digest(ref, ref) == []
    row = dict(ref["row0"], value=[ref["row0"]["value"][0] * (1.0 + 1e-6)] + ref["row0"]["value"][1:])
    yield workloads.compare_digest(ref, dict(ref, row0=row))
    yield workloads.compare_digest(ref, dict(ref, diagnostics=_perturb_first_float(ref["diagnostics"])))


def _surface_increases(tmp_path):
    import dataclasses

    import workloads
    from insdual import grid, howard

    params, controls = _toy_problem()
    solution = howard.solve_backward(grid.build_uniform(4, 10, params.T), params, controls)
    assert workloads.surface_problems(solution, "toy") == []
    surface = solution.surface.copy()
    surface[1, 5] = surface[1, 4] + 1e-6 * abs(surface[1]).max()
    yield workloads.surface_problems(dataclasses.replace(solution, surface=surface), "toy")


def _cli_artifacts_differ(tmp_path):
    import workloads

    cli = workloads.CliDefault(3, True, str(tmp_path))
    diagnostics = cli.op(0)
    assert cli.check(0, diagnostics) == []
    with open(tmp_path / "cli" / "wealth.dat", "ab") as f:
        f.write(b"0")
    yield cli.check(cli.pool_size, diagnostics)
    blob = b"t,x,v\n0,0,1\n0,1,2\n1,0,1\n1,1,0\n"
    yield cli._surface_problems(blob)[0]


def _mc_path_broken(tmp_path):
    import dataclasses

    import workloads

    mc = workloads.McPaths(3, True, str(tmp_path))
    path, residual, wealth = mc.op(0)
    assert mc.check(0, (path, residual, wealth)) == []
    regulator = path.regulator.copy()
    regulator[-1] = 1.5
    yield mc.check(1, (dataclasses.replace(path, regulator=regulator), residual, wealth))
    theta = path.theta.copy()
    theta[0] = np.nan
    yield mc.check(1, (dataclasses.replace(path, theta=theta), residual, wealth))


def _solve_fine_differs(tmp_path):
    import dataclasses

    import workloads

    fine = workloads.SolveFine(3, True, str(tmp_path))
    solution = fine.op(0)
    assert fine.check(0, solution) == []
    surface = solution.surface.copy()
    surface[0, 0] *= 1.0 + 1e-12
    yield fine.check(1, dataclasses.replace(solution, surface=surface))


@pytest.mark.parametrize("broken", [_digest_perturbed, _surface_increases, _cli_artifacts_differ,
                                    _mc_path_broken, _solve_fine_differs])
def test_output_checks_catch_wrong_outputs(broken, tmp_path):
    found = list(broken(tmp_path))
    assert found and all(problems for problems in found), found


def _toy_problem():
    import workloads

    return workloads.default_problem(alpha=2.2)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "cli-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
