"""The benchmark's output checks, run on the package as part of this suite.

``perfbench/workloads.py`` calls package functions and reads
``diagnostics.json`` keys that the package alone could otherwise change
without notice (``claims.mark``, say). Each workload here is built in
smoke mode (tiny meshes), runs one op through its own ``check``, and its
digest must match the stored smoke reference. The module is loaded by
path and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
REFERENCE_JSON = WORKLOADS_PY.with_name("reference.json")

# the benchmark's default problem prices cover above the premium income
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is left next to the benchmark's files
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


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
