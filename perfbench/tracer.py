"""Per-module spans for the insdual benchmark, taken from outside the package.

Each target is a function named by the module its callers look it up in,
for example ``insdual.howard.solve_time_step`` or ``insdual.scheme.spsolve``
(scipy's solver as the scheme module imported it). Installing the tracer
replaces every reference to that function object held by a module of the
package, so a call is seen whichever module makes it and no file of the
package changes. A target the package no longer has is reported as absent,
never as zero: a later change that renames or deletes a function shows up
as a missing span, not as a saving.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written out once, when the benchmark ends. A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (span name, module the name is looked up in, attribute)
TARGETS = (
    ("cli.run", "insdual.cli", "run"),
    ("howard.solve_backward", "insdual.howard", "solve_backward"),
    ("howard.solve_time_step", "insdual.howard", "solve_time_step"),
    ("howard.complementarity_extrema", "insdual.howard", "complementarity_extrema"),
    ("howard.growth_margins", "insdual.howard", "growth_margins"),
    ("scheme.build_tables", "insdual.scheme", "build_tables"),
    ("scheme.operator_values", "insdual.scheme", "operator_values"),
    ("scheme.obstacle_values", "insdual.scheme", "obstacle_values"),
    ("scheme.solve_policy_system", "insdual.scheme", "solve_policy_system"),
    ("scheme.spsolve", "insdual.scheme", "spsolve"),
    ("grid.refine_around", "insdual.grid", "refine_around"),
    ("grid.project", "insdual.grid", "project"),
    ("policy.find_initial_state", "insdual.policy", "find_initial_state"),
    ("policy.evolve_path", "insdual.policy", "evolve_path"),
    ("policy.wealth_row", "insdual.policy", "wealth_row"),
    ("policy.sde_residual", "insdual.policy", "sde_residual"),
    ("simulate.integrate_primal", "insdual.simulate", "integrate_primal"),
)

ROOT = "op"
# the package whose modules install() patches
PACKAGE = "insdual"

# errors an observer can meet when a wrapped function changes its
# signature or return shape; its counters are then reported as absent
_OBSERVER_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError)


class Tracer:
    """Wraps package functions by name and records one span per call."""

    def __init__(self, targets=TARGETS, observers=None):
        self.targets = tuple(targets)
        self.names = [ROOT] + [t[0] for t in self.targets]
        self.observers = dict(observers or {})
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self.counters: dict[str, float] = {}
        # what observers keep between calls
        self.state: dict = {}
        self.recording = False
        self._patched: list = []
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def install(self):
        """Replace each target at every name the package's modules hold it by."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for index, (name, module_name, attr) in enumerate(self.targets, start=1):
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original, self.observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, index):
        sid = len(self.span_start)
        self.span_name.append(index)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, index, fn, observer):
        tracer = self
        name = self.names[index]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if observer is not None and name not in tracer.unreadable:
                try:
                    observer(tracer, args, kwargs, result)
                except _OBSERVER_ERRORS:
                    tracer.unreadable.add(name)
            return result

        return traced

    @contextmanager
    def op(self):
        """Root span of one benchmark op; spans are recorded only inside it."""
        self.recording = True
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            self.recording = False

    def arrays(self):
        import numpy as np

        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path):
        import numpy as np

        np.savez(path, **self.arrays())

    def edges(self):
        """{(name, parent name): (calls, self seconds, inclusive seconds)}."""
        import numpy as np

        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        parent_name = np.where(inner, name[np.maximum(parent, 0)], -1)
        out = {}
        for key in set(zip(name.tolist(), parent_name.tolist())):
            sel = (name == key[0]) & (parent_name == key[1])
            label = (self.names[key[0]], self.names[key[1]] if key[1] >= 0 else None)
            out[label] = (
                int(sel.sum()),
                float((dur[sel] - child[sel]).sum()),
                float(dur[sel].sum()),
            )
        return out


# ---------------------------------------------------------------------------
# counters read off the arguments and results of wrapped calls


def _table_bytes(tables):
    return sum(
        getattr(tables, f.name).nbytes
        for f in dataclasses.fields(tables)
        if getattr(getattr(tables, f.name), "ndim", 0) == 2
    )


def _observe_operator_values(tracer, args, kwargs, result):
    v = args[0] if args else kwargs["v"]
    tables = args[3] if len(args) > 3 else kwargs["tables"]
    # a solve reuses one tables object for every call, so remembering the
    # last one keeps the summing out of almost every call
    last = tracer.state.get("last_tables")
    if last is None or last[0] is not tables:
        last = (tables, _table_bytes(tables), int(tables.admissible.sum()))
        tracer.state["last_tables"] = last
    _, table_bytes, admissible = last
    tracer.count("operator_values.bytes", table_bytes + v.nbytes + result.nbytes)
    tracer.count("operator_values.pairs", result.size)
    tracer.count("operator_values.admissible", admissible)


def _observe_spsolve(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["A"]
    tracer.count("spsolve.nnz", matrix.nnz)


def _observe_solve_time_step(tracer, args, kwargs, result):
    import numpy as np

    _, rho_row, region_row, diag = result
    tracer.count("howard.sweeps", diag.iterations)
    tracer.count("howard.soft_stops", 0 if diag.policy_stable else 1)
    tracer.count("howard.obstacle_nodes", int(np.count_nonzero(region_row)))
    chosen = tracer.state.setdefault("chosen_controls", set())
    chosen.update(np.unique(rho_row).tolist())


OBSERVERS = {
    "scheme.operator_values": _observe_operator_values,
    "scheme.spsolve": _observe_spsolve,
    "howard.solve_time_step": _observe_solve_time_step,
}

# derived metrics: name -> (unit, spans whose counters it reads). The
# per-call ratios (PER_CALL) are taken over every solve of the traced run,
# set-up included: mc-paths solves its surface only in set-up, so there
# they describe that solve. A ratio with nothing to divide by is absent.
DERIVED = {
    "scheme.operator_values.bytes_computed": ("B/op", ("scheme.operator_values",)),
    "scheme.spsolve.nnz": ("count/call", ("scheme.spsolve",)),
    "scheme.admissible_ratio": ("ratio", ("scheme.operator_values",)),
    "scheme.candidates_chosen": ("count", ("howard.solve_time_step",)),
    "howard.sweeps": ("1/op", ("howard.solve_time_step",)),
    "howard.sweeps_per_layer": ("1/layer", ("howard.solve_time_step",)),
    "howard.evals_per_sweep": (
        "1/sweep",
        ("howard.solve_time_step", "scheme.operator_values"),
    ),
    "howard.soft_stops": ("1/op", ("howard.solve_time_step",)),
    "howard.obstacle_nodes": ("1/op", ("howard.solve_time_step",)),
}
# per-call ratio -> (numerator, denominator) among _solver_totals' keys
PER_CALL = {
    "scheme.spsolve.nnz": ("nnz", "spsolve_calls"),
    "scheme.admissible_ratio": ("admissible", "pairs"),
    "howard.sweeps_per_layer": ("sweeps", "layers"),
    "howard.evals_per_sweep": ("evals", "sweeps"),
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {f"{ROOT}.wall_s": "s/op", f"{ROOT}.self_s": "s/op"}
    for span, _, _ in TARGETS:
        names[f"{span}.calls"] = "1/op"
        names[f"{span}.self_s"] = "s/op"
    for name, (unit, _) in DERIVED.items():
        names[name] = unit
    names["cli.artifact_bytes"] = "B/op"
    names["trace.overhead_frac"] = "ratio"
    return names


def _solver_totals(tracer: Tracer):
    """Counts behind the per-call ratios, over all of one tracer's spans."""
    edges = tracer.edges()
    c = tracer.counters

    def calls(span):
        return sum(v[0] for (n, _), v in edges.items() if n == span)

    return {
        "nnz": c.get("spsolve.nnz", 0.0),
        "spsolve_calls": calls("scheme.spsolve"),
        "admissible": c.get("operator_values.admissible", 0.0),
        "pairs": c.get("operator_values.pairs", 0.0),
        "sweeps": c.get("howard.sweeps", 0.0),
        "layers": calls("howard.solve_time_step"),
        "evals": edges.get(("scheme.operator_values", "howard.solve_time_step"), (0,))[0],
    }


def layer_metrics(tracer: Tracer, n_ops: int, setup: Tracer | None = None):
    """Per-op layer metrics from the recorded spans and counters.

    ``setup`` is the tracer of the run's set-up, whose solves count in the
    per-call ratios only. Returns ({name: value}, [absent names]); a
    metric whose target is missing from the package, whose observer could
    no longer read the call, or whose ratio has nothing to divide by is
    absent rather than zero.
    """
    edges = tracer.edges()
    calls = {n: 0 for n in tracer.names}
    self_s = {n: 0.0 for n in tracer.names}
    wall = 0.0
    for (name, parent), (c, s, inclusive) in edges.items():
        calls[name] += c
        self_s[name] += s
        if name == ROOT:
            wall += inclusive
    tracers = [t for t in (tracer, setup) if t is not None]
    missing = set(tracer.absent).union(*(t.unreadable for t in tracers))
    values = {f"{ROOT}.wall_s": wall / n_ops, f"{ROOT}.self_s": self_s[ROOT] / n_ops}
    for span, _, _ in TARGETS:
        if span in tracer.absent:
            continue
        values[f"{span}.calls"] = calls[span] / n_ops
        values[f"{span}.self_s"] = self_s[span] / n_ops
    c = tracer.counters
    derived = {
        "scheme.operator_values.bytes_computed": c.get("operator_values.bytes", 0.0) / n_ops,
        "howard.sweeps": c.get("howard.sweeps", 0.0) / n_ops,
        "howard.soft_stops": c.get("howard.soft_stops", 0.0) / n_ops,
        "howard.obstacle_nodes": c.get("howard.obstacle_nodes", 0.0) / n_ops,
    }
    totals = Counter()
    for t in tracers:
        totals.update(_solver_totals(t))
    for name, (num, den) in PER_CALL.items():
        if totals[den]:
            derived[name] = totals[num] / totals[den]
    if totals["layers"]:
        chosen = set().union(*(t.state.get("chosen_controls", ()) for t in tracers))
        derived["scheme.candidates_chosen"] = float(len(chosen))
    for name, value in derived.items():
        if not missing.intersection(DERIVED[name][1]):
            values[name] = value
    absent = sorted(set(metric_names()) - set(values) - {"cli.artifact_bytes", "trace.overhead_frac"})
    return values, absent


def phases(tracer: Tracer, n_ops: int):
    """Seconds per op in the phases the ROADMAP names (missing spans count 0)."""
    edges = tracer.edges()

    def pick(name, parent=..., field=1):
        return sum(
            v[field]
            for (n, p), v in edges.items()
            if n == name and (parent is ... or p == parent)
        ) / n_ops

    post = pick("howard.complementarity_extrema", field=2) + pick(
        "howard.growth_margins", field=2
    )
    post += sum(
        v[2] for (n, p), v in edges.items() if n.startswith("scheme.") and p == "cli.run"
    ) / n_ops
    return {
        "improvement (scheme.operator_values in solve_time_step)": pick(
            "scheme.operator_values", "howard.solve_time_step"
        ),
        "assembly (scheme.solve_policy_system self)": pick("scheme.solve_policy_system"),
        "linear solve (scheme.spsolve)": pick("scheme.spsolve"),
        "post-processing (complementarity + growth + scheme calls of cli.run)": post,
        "artifact writing (cli.run self)": pick("cli.run"),
        "path (policy.* + grid.project + simulate.*)": sum(
            pick(n)
            for n in tracer.names
            if n.startswith(("policy.", "simulate.")) or n == "grid.project"
        ),
    }
