"""Benchmark of the insdual solver: end-to-end metrics, or a per-module trace.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 40 --trace 0

One process runs one workload on one thread: a closed loop with one
client, the next op starting when the previous one (and its output
check) has finished. BLAS and OpenMP pools are pinned to one thread
before numpy is imported. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (setup_s, op_p50_s,
op_tail_s, ops_per_s, peak_rss_mb); with ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the JSON holds the
per-module metrics of tracer.py plus the tracing overhead. The lines
above the JSON give every metric with its unit and sample count, the
failed fraction, ungated numbers and the environment. ``--smoke`` runs
tiny meshes, for the benchmark's own tests.

BENCHMARK.json declares cli-default and mc-paths. solve-fine (the 200x2000
solve) runs the same way by hand, but is not declared: on a shared host
its run-to-run spread is too wide to gate on (see README.md).

``--record-reference`` rewrites reference.json, the seed-independent
digest every run compares its outputs with; record it only from a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("cli-default", "solve-fine", "mc-paths")
# fresh-process set-ups per run; set-up time is their median
SETUP_PROBES = 5
SMOKE_SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
# op_tail_s is at most this quantile of the op times (see tail())
TAIL_QUANTILE = 0.95
# kernel runs behind each calibration sample of a set-up probe
SETUP_CALIBRATIONS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, failed set-up)."""


def import_workloads():
    """Import the package from this checkout's src/ and the workloads module.

    numpy is loaded here for the first time, so that a set-up probe times
    it; the calibration module is imported only after this.
    """
    if not (SRC / "insdual" / "__init__.py").is_file():
        raise BenchError(f"no insdual package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", UserWarning)
    import insdual

    if Path(insdual.__file__).resolve().parent != (SRC / "insdual").resolve():
        raise BenchError(f"insdual imported from {insdual.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(name, seed, smoke):
    """Time import, input generation and once-per-run work in this process.

    The set-up is timed in two parts, the imports and then the workload's
    construction. The host's speed can change within one set-up, so each
    part is rescaled by a calibration sample taken right after it, outside
    the timed part. Returns (calibrated seconds, raw seconds).
    """
    started = perf_counter()
    workloads = import_workloads()
    imported = perf_counter() - started
    import calibration

    kernel = calibration.InterpreterKernel()
    after_import = kernel.sample(SETUP_CALIBRATIONS)
    work_dir = workloads.make_work_dir(OUT)
    try:
        started = perf_counter()
        workloads.WORKLOADS[name](seed, smoke, work_dir)
        built = perf_counter() - started
    finally:
        workloads.remove_work_dir(work_dir)
    after_build = kernel.sample(SETUP_CALIBRATIONS)
    ref = kernel.REFERENCE_S
    return imported * ref / after_import + built * ref / after_build, imported + built


def measure_setup(name, seed, smoke):
    """Set-up times over fresh processes: [(calibrated, raw) seconds]."""
    count = SMOKE_SETUP_PROBES if smoke else SETUP_PROBES
    samples = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["raw_s"]))
    return samples


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: deps[k].get("name", "?") + " " + str(deps[k].get("version", "?"))
                    for k in ("blas", "lapack") if k in deps}
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "machine": platform.machine(),
    }


class Phase:
    """The ops of one closed-loop phase: calibrated and raw times, failures."""

    def __init__(self, kernel):
        import calibration

        self.timer = calibration.Calibrated(kernel)
        self.durations: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def raw(self):
        return self.timer.raw

    @property
    def completed(self):
        return len(self.raw) - self.failed

    def mean(self):
        return sum(self.durations) / len(self.durations)


def run_op(workload, errors, k, tracer=None):
    """One op and its output check: (seconds, problems)."""
    started = perf_counter()
    try:
        with tracer.op() if tracer is not None else nullcontext():
            result = workload.op(k)
    except errors as exc:
        return perf_counter() - started, [f"op {k}: {type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - started
    return elapsed, workload.check(k, result)


def closed_loop(workload, errors, seconds, first_k, kernel, tracer=None):
    """Ops back to back until the next one would end after ``seconds``.

    The calibration kernel runs between ops (see calibration.py); its time
    counts against ``seconds`` but not against any op.
    """
    phase = Phase(kernel)
    started = perf_counter()
    k = first_k
    while not phase.raw or (
        perf_counter() - started + sum(phase.raw) / len(phase.raw) <= seconds
    ):
        elapsed, problems = run_op(workload, errors, k, tracer)
        phase.timer.add(elapsed)
        if problems:
            phase.failed += 1
            phase.problems += problems
        k += 1
    phase.timer.finish()
    phase.durations = phase.timer.scaled()
    return phase


def tail(durations):
    """The 95th percentile, or a lower order statistic if fewer ops need it.

    The rank is the lower of the 95th percentile and the highest order
    statistic with at least ten samples beyond it. Higher percentiles of a
    run of thousands of ops pick up host spikes shorter than a calibration
    sample and swing from run to run. Returns (value, percentile, samples
    beyond). With fewer than 21 ops no such sample sits above the median,
    and the median is reported.
    """
    xs = sorted(durations)
    n = len(xs)
    rank = min(max(n - 11, (n - 1) // 2), round(TAIL_QUANTILE * (n - 1)))
    pct = 100.0 * rank / (n - 1) if n > 1 else 50.0
    return xs[rank], pct, n - 1 - rank


def end_to_end(phase, setup):
    """Metric values and, per metric, its sample count (and raw wall figure)."""
    n = len(phase.durations)
    tail_s, tail_pct, beyond = tail(phase.durations)
    measured = sum(phase.durations)
    values = {
        "setup_s": statistics.median(s for s, _ in setup),
        "op_p50_s": statistics.median(phase.durations),
        "op_tail_s": tail_s,
        "ops_per_s": phase.completed / measured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups, calibrated; raw wall "
                   f"{[round(r, 4) for _, r in setup]}",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{tail_pct:.1f}, n={n}, {beyond} samples beyond",
        "ops_per_s": f"n={phase.completed} completed in {measured:.3f} s",
        "peak_rss_mb": "n=1, this process",
    }
    notes["op_p50_s"] += f", calibrated; raw wall {statistics.median(phase.raw):.6g} s"
    notes["op_tail_s"] += f", calibrated; raw wall {tail(phase.raw)[0]:.6g} s"
    notes["ops_per_s"] += f" calibrated; {sum(phase.raw):.3f} s raw wall"
    return values, notes


def record_reference():
    workloads = import_workloads()
    work_dir = workloads.make_work_dir(OUT)
    digests = {}
    try:
        for mode, smoke in (("full", False), ("smoke", True)):
            digests[mode] = {
                name: json.loads(json.dumps(workloads.WORKLOADS[name](0, smoke, work_dir).digest()))
                for name in WORKLOAD_NAMES
            }
    finally:
        workloads.remove_work_dir(work_dir)
    body = {
        "note": "Seed-independent digest of each workload's outputs: the time-0 surface "
                "row (41 nodes) and the diagnostics, on the fixed claim schedule "
                f"{list(workloads.REFERENCE_CLAIMS)}. Compared with relative tolerance "
                f"{workloads.REF_RTOL:g}; integers, booleans and strings exactly. "
                "Rewrite with run.py --record-reference only from a commit whose "
                "outputs are known to be right.",
        **digests,
    }
    REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def benchmark(args):
    setup = measure_setup(args.workload, args.seed, args.smoke)
    started = perf_counter()
    workloads = import_workloads()
    import calibration
    import tracer as tracing

    OUT.mkdir(exist_ok=True)
    work_dir = workloads.make_work_dir(OUT)
    make = workloads.WORKLOADS[args.workload]
    setup_tracer = None
    try:
        if args.trace:
            # the set-up's solves count in the per-call solver ratios
            setup_tracer = tracing.Tracer(observers=tracing.OBSERVERS)
            setup_tracer.install()
            try:
                with setup_tracer.op():
                    workload = make(args.seed, args.smoke, work_dir)
            finally:
                setup_tracer.uninstall()
        else:
            workload = make(args.seed, args.smoke, work_dir)
        in_process_setup = perf_counter() - started
        kernel = calibration.InterpreterKernel()
        errors = workloads.OP_ERRORS
        problems = list(workload.setup_problems())
        k = 0
        for _ in range(workload.warmup_ops):
            _, found = run_op(workload, errors, k)
            problems += found
            k += 1
        layer = None
        if args.trace:
            untraced = closed_loop(workload, errors, args.seconds / 2.0, k, kernel)
            k += len(untraced.durations)
            tracer = tracing.Tracer(observers=tracing.OBSERVERS)
            tracer.install()
            bytes_before = getattr(workload, "artifact_bytes", 0)
            try:
                traced = closed_loop(workload, errors, args.seconds / 2.0, k, kernel, tracer)
            finally:
                tracer.uninstall()
            n = len(traced.durations)
            values, absent = tracing.layer_metrics(tracer, n, setup_tracer)
            if "cli.run" not in tracer.absent:
                values["cli.artifact_bytes"] = (
                    getattr(workload, "artifact_bytes", 0) - bytes_before) / n
            values["trace.overhead_frac"] = traced.mean() / untraced.mean() - 1.0
            layer = (values, absent, tracing.phases(tracer, n), n)
            tracer.write(OUT / f"spans-{args.workload}.npz")
            phases = [untraced, traced]
        else:
            phases = [closed_loop(workload, errors, args.seconds, k, kernel)]
        problems += workload.finish()
        reference = json.loads(REFERENCE.read_text())["smoke" if args.smoke else "full"]
        got = json.loads(json.dumps(workload.digest()))
        problems += workloads.compare_digest(reference[args.workload], got)
        info = workload.info()
    finally:
        workloads.remove_work_dir(work_dir)

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.failed for p in phases)
    problems += [p for phase in phases for p in phase.problems]
    env = environment(args.seed)
    head = (f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} smoke={int(args.smoke)}: closed loop, 1 client, 1 thread")
    print(head)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"in-process set-up {in_process_setup:.4f} s (not a metric)")
    if args.trace:
        values, absent, phase_split, n = layer
        units = tracing.metric_names()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        print(f"per-layer metrics over {n} traced ops (untraced ops: "
              f"{len(phases[0].durations)}); self time excludes child spans; the "
              "per-call solver ratios also count the set-up's solves")
        for name in units:
            if name in values:
                print(f"  {name:<42} {values[name]:.6g} {units[name]}")
            else:
                print(f"  {name:<42} absent")
        wall = values[f"{tracing.ROOT}.wall_s"]
        print("phases (s/op, share of traced op time):")
        for label, seconds in phase_split.items():
            print(f"  {label:<70} {seconds:.6g} s/op  {seconds / wall:6.1%}")
        print("time waited: not applicable (one client, closed loop, no queues or threads)")
    else:
        values, notes = end_to_end(phases[0], setup)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<12} {values[name]:.6g} {unit}  ({notes[name]})")
        print("time waited: not applicable (one client, closed loop, no queues or threads)")
    print(f"  failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for key, value in info.items():
        if key != "schedules":
            print(f"  ungated {key} {value}")
    for p in problems[:20]:
        print(f"  PROBLEM {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, env=env, info=info, problems=problems, setup_samples=setup,
                  durations=[p.durations for p in phases], raw=[p.raw for p in phases],
                  calibration=[p.timer.samples for p in phases])
    if args.trace:
        record["absent"] = layer[1]
        record["phases"] = layer[2]
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, for tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not args.seconds > 0:
            parser.error("--seconds must be positive")
        if args.probe_setup:
            setup_s, raw_s = probe_setup(args.workload, args.seed, args.smoke)
            print(json.dumps({"setup_s": setup_s, "raw_s": raw_s}))
            return 0
        benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
