"""The benchmark's output checks, run on the package as part of this suite.

``perfbench/workloads.py`` calls package functions and reads
``diagnostics.json`` keys that the package alone could otherwise change
without notice (``claims.mark``, say). Each workload here is built in
smoke mode (tiny meshes), runs one op through its own ``check``, and its
digest must match the stored smoke reference.

``perfbench/tracer.py`` reads fields of the package's arguments and
results (``tables.admissible``, ``diag.iterations``, ...); a renamed field
or a changed return shape turns its metric into a silently absent one.
Each workload is built and run once under the tracer, which must find
every target and read every observed call.

Both modules are loaded by path and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
TRACER_PY = WORKLOADS_PY.with_name("tracer.py")
REFERENCE_JSON = WORKLOADS_PY.with_name("reference.json")

# the benchmark's default problem prices cover above the premium income
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is left next to the benchmark's files
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", WORKLOADS_PY)


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracer", TRACER_PY)


@pytest.mark.parametrize("name", ["cli-default", "mc-paths"])
def test_smoke_workload_meets_its_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, True, str(tmp_path))
    assert workload.setup_problems() == []
    assert workload.check(0, workload.op(0)) == []
    assert workload.finish() == []
    reference = json.loads(REFERENCE_JSON.read_text())["smoke"][name]
    # the benchmark compares the digest as it reads back from JSON
    got = json.loads(json.dumps(workload.digest()))
    assert workloads.compare_digest(reference, got) == []


@pytest.mark.parametrize("name", ["cli-default", "mc-paths"])
def test_tracer_reads_every_observed_call(workloads, tracing, name, tmp_path):
    tracer = tracing.Tracer(observers=tracing.OBSERVERS)
    tracer.install()
    try:
        # the build is traced too: mc-paths solves only in its set-up
        with tracer.op():
            workload = workloads.WORKLOADS[name](0, True, str(tmp_path))
            workload.op(0)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.unreadable == set()
    # the observers ran, so the empty unreadable set is a reading
    assert {
        "operator_values.admissible", "spsolve.nnz", "howard.sweeps"
    } <= set(tracer.counters)
    assert tracing.layer_metrics(tracer, 1)[1] == []
