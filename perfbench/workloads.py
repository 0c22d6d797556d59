"""The benchmark's workloads: inputs drawn from a seed, one op, output checks.

Every workload builds its inputs and its once-per-run work in the
constructor (that is what ``setup_s`` times), then runs ``op(k)`` in a
closed loop. ``check(k, result)`` returns a list of problems with one op's
output; ``finish()`` returns problems found by checks made after the loop.
``digest()`` is the seed-independent summary compared with the stored
reference (see reference.json), and ``info()`` holds ungated numbers.

Package functions are always looked up through their module at call time
(``howard.solve_backward``, not a name bound at import), so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil

import numpy as np

from insdual import cli, grid, howard, model, policy, scheme, simulate

# relative tolerance of the reference comparison (normwise for a row)
REF_RTOL = 1e-8
# relative bound on a surface's complementarity residual and on any
# increase along a layer: both are at linear-solver precision when the
# solve is right
SURFACE_RTOL = 1e-10
# claim schedules: Poisson arrivals on (0, horizon] with this intensity
CLAIM_INTENSITY = 2.0
# the fixed schedule of the reference digest (the CLI's default)
REFERENCE_CLAIMS = (0.4, 0.8)

OP_ERRORS = (
    howard.HowardNonconvergence,
    policy.UnreachableWealthError,
    policy.PathEscapeError,
)


def claim_times(rng, horizon=1.0):
    """Arrival times on (0, horizon] with exponential inter-arrival gaps."""
    times = []
    t = rng.exponential(1.0 / CLAIM_INTENSITY)
    while t <= horizon:
        times.append(float(t))
        t += rng.exponential(1.0 / CLAIM_INTENSITY)
    return tuple(times)


def default_problem(config=None, **overrides):
    """Model parameters and control ladder of a RunConfig (CLI defaults)."""
    config = config or cli.RunConfig()
    params = model.ModelParams(
        eta=config.eta,
        alpha=config.alpha,
        beta=config.beta,
        r=config.r,
        delta=config.delta,
        pi_intensity=config.intensity,
        T=config.horizon,
    )
    params = dataclasses.replace(params, **overrides)
    controls = scheme.make_control_set(
        params,
        low=config.control_low,
        high=config.control_high,
        count=config.control_count,
    )
    return params, controls


def surface_problems(solution, label):
    """Layers nonincreasing in state; complementarity at solver precision.

    Both are relative to the layer's largest magnitude. The obstacle
    argument is taken as v[j-1] - v[j] (the obstacle expression times the
    cell width), so both arguments of the minimum carry the units of v.
    """
    g = solution.grid
    params = solution.params
    surface = solution.surface
    problems = []
    scale = np.maximum(np.abs(surface).max(axis=1), np.finfo(float).tiny)
    rise = float((np.diff(surface, axis=1).max(axis=1) / scale).max())
    if not rise <= SURFACE_RTOL:
        problems.append(f"{label}: a layer increases in state by {rise:.3e} relative")
    tables = scheme.build_tables(g, params, solution.controls)
    ht = g.h_t
    lowest, largest = np.inf, -np.inf
    for i in range(g.n_steps):
        v = surface[i]
        layer_scale = max(scale[i], scale[i + 1])
        stationary = (
            surface[i + 1] - v + ht * scheme.operator_values(v, g, params, tables).min(axis=0)
        ) / layer_scale
        obstacle = np.full_like(v, np.inf)
        obstacle[1:] = (v[:-1] - v[1:]) / layer_scale
        lowest = min(lowest, stationary.min(), obstacle[1:].min())
        largest = max(largest, np.minimum(stationary, obstacle).max())
    if not (lowest >= -SURFACE_RTOL and largest <= SURFACE_RTOL):
        problems.append(
            f"{label}: relative complementarity residual [{lowest:.3e}, {largest:.3e}] "
            f"outside +-{SURFACE_RTOL:g}"
        )
    return problems


def row_digest(row, points=41):
    row = np.asarray(row, dtype=float)
    pick = np.unique(np.linspace(0, row.size - 1, points).round().astype(int))
    return {"size": int(row.size), "index": pick.tolist(), "value": row[pick].tolist()}


def compare_digest(ref, got, path="digest"):
    """Problems where ``got`` departs from ``ref`` beyond REF_RTOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= reference {sorted(ref)}"]
        if set(ref) == {"size", "index", "value"}:
            if ref["size"] != got["size"] or ref["index"] != got["index"]:
                return [f"{path}: row shape {got['size']} != reference {ref['size']}"]
            a, b = np.asarray(got["value"]), np.asarray(ref["value"])
            err = float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
            return [] if err <= REF_RTOL else [f"{path}: row differs by {err:.3e} relative"]
        return [p for k in ref for p in compare_digest(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in compare_digest(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= REF_RTOL * abs(ref) or got == ref:
            return []
        return [f"{path}: {got!r} != reference {ref!r} (rtol {REF_RTOL:g})"]
    return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]


class Workload:
    """Defaults for the workloads below."""

    name = ""
    warmup_ops = 2

    def setup_problems(self):
        return []

    def finish(self):
        return []

    def info(self):
        return {}


def _array_hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class CliDefault(Workload):
    """``insdual.cli.run`` with every key but the claim times at its default."""

    name = "cli-default"
    pool_size = 8

    def __init__(self, seed, smoke, work_dir):
        rng = np.random.default_rng(seed)
        self.schedules = [claim_times(rng) for _ in range(self.pool_size)]
        self.base = (
            cli.RunConfig(n_time=10, n_state=20, refine_step=1.0 / 100.0)
            if smoke
            else cli.RunConfig()
        )
        self.out_dir = os.path.join(work_dir, "cli")
        self.first_hash = {}
        self.surfaces_seen = {}
        self.artifact_bytes = 0

    def _run(self, times):
        config = dataclasses.replace(self.base, claim_times=times)
        return cli.run(config, out_dir=self.out_dir)

    def op(self, k):
        return self._run(self.schedules[k % self.pool_size])

    def _artifacts(self):
        names = sorted(os.listdir(self.out_dir))
        blobs = {}
        for n in names:
            with open(os.path.join(self.out_dir, n), "rb") as f:
                blobs[n] = f.read()
        return blobs

    @staticmethod
    def _surface(blob):
        """Times and values of surface.csv, one entry per row."""
        cols = [line.split(",") for line in blob.decode().splitlines()[1:]]
        return np.array([float(c[0]) for c in cols]), np.array([float(c[2]) for c in cols])

    def _surface_problems(self, blob):
        """(problems, largest |value|) of one surface.csv."""
        t, v = self._surface(blob)
        times = np.unique(t)
        rows = v.reshape(times.size, -1)
        scale = np.maximum(np.abs(rows).max(axis=1), np.finfo(float).tiny)
        rise = float((np.diff(rows, axis=1).max(axis=1) / scale).max())
        problems = []
        if not rise <= SURFACE_RTOL:
            problems.append(f"{self.name}: a layer of surface.csv increases by {rise:.3e} relative")
        return problems, float(scale.max())

    def check(self, k, diagnostics):
        slot = k % self.pool_size
        blobs = self._artifacts()
        self.artifact_bytes += sum(len(b) for b in blobs.values())
        h = hashlib.sha256(b"".join(n.encode() + b"\0" + b for n, b in blobs.items()))
        problems = []
        if self.first_hash.setdefault(slot, h.hexdigest()) != h.hexdigest():
            problems.append(f"{self.name}: artifacts of schedule {slot} differ across ops")
        surface_hash = hashlib.sha256(blobs["surface.csv"]).hexdigest()
        if surface_hash not in self.surfaces_seen:
            self.surfaces_seen[surface_hash] = self._surface_problems(blobs["surface.csv"])
        layer_problems, scale = self.surfaces_seen[surface_hash]
        problems += layer_problems
        if diagnostics["claims"]["times"] != list(self.schedules[slot]):
            problems.append(f"{self.name}: diagnostics report other claim times")
        comp = diagnostics["complementarity"]
        bound = SURFACE_RTOL * scale
        if not (comp["lowest_argument"] >= -bound and comp["largest_minimum"] <= bound):
            problems.append(f"{self.name}: complementarity {comp} beyond {bound:.3e}")
        return problems

    def digest(self):
        diagnostics = self._run(REFERENCE_CLAIMS)
        blobs = self._artifacts()
        _, v = self._surface(blobs["surface.csv"])
        n0 = diagnostics["grid"]["n_nodes"]
        # iteration counts, change histories and the complementarity
        # extrema are solver-precision internals; they are checked against
        # bounds, not against the reference
        gated = {k: diagnostics[k] for k in ("grid", "growth_bounds", "control_sensitivity",
                                             "path", "claims")}
        gated["policy_stable"] = diagnostics["howard"]["policy_stable"]
        return {"row0": row_digest(v[:n0]), "diagnostics": gated}

    def info(self):
        return {"schedules": [list(s) for s in self.schedules]}


class SolveFine(Workload):
    """``solve_backward`` on the 200x2000 mesh with the default problem."""

    name = "solve-fine"
    # one op is seconds long, which amortises any first-call cost
    warmup_ops = 0

    def __init__(self, seed, smoke, work_dir):
        self.params, self.controls = default_problem()
        n_time, n_state = (20, 200) if smoke else (200, 2000)
        self.grid = grid.build_uniform(n_time, n_state, self.params.T)
        self.first = None
        self.first_digest = None

    def op(self, k):
        return howard.solve_backward(self.grid, self.params, self.controls)

    def _digest_of(self, solution):
        below, above = howard.growth_margins(solution)
        return {
            "row0": row_digest(solution.surface[0]),
            "diagnostics": {
                "growth_bounds": {"below_lower": below, "above_upper": above},
                "policy_stable": all(d.policy_stable for d in solution.diagnostics),
            },
        }

    def check(self, k, solution):
        h = _array_hash(solution.surface, solution.control, solution.region)
        if self.first is None:
            self.first = h
            self.first_digest = self._digest_of(solution)
            return surface_problems(solution, self.name)
        if h != self.first:
            return [f"{self.name}: op {k} gives another surface than op 0"]
        return []

    def digest(self):
        if self.first_digest is None:
            self.check(0, self.op(0))
        return self.first_digest


class McPaths(Workload):
    """Path, SDE defect and primal wealth for one schedule on a fixed surface."""

    name = "mc-paths"
    warmup_ops = 5
    pool_size = 4096
    replayed = 32
    x0 = 1.0

    def __init__(self, seed, smoke, work_dir):
        # alpha = 5 puts about half of the nodes in the obstacle set, so the
        # set-up solve runs in the obstacle regime
        self.params, self.controls = default_problem(alpha=5.0)
        n_time, n_state = (20, 40) if smoke else (200, 400)
        g = grid.build_uniform(n_time, n_state, self.params.T)
        self.solution = howard.solve_backward(g, self.params, self.controls)
        rng = np.random.default_rng(seed)
        self.schedules = [claim_times(rng) for _ in range(self.pool_size)]
        self.hashes = {}
        self.residuals = []

    def _path(self, times):
        path = policy.evolve_path(self.solution, times, self.x0)
        residual = policy.sde_residual(path, self.params)
        wealth = simulate.integrate_primal(path.theta, self.params, times, self.x0)
        return path, residual, wealth

    def op(self, k):
        return self._path(self.schedules[k % self.pool_size])

    @staticmethod
    def _hash(path, wealth):
        return _array_hash(
            path.density, path.regulator, path.dual_state, path.state_index,
            path.jump_state_index, path.regulated_state_index, path.theta,
            path.wealth, path.claim_flag, wealth,
        )

    def check(self, k, result):
        path, residual, wealth = result
        problems = []
        product = path.y_init * path.density * path.regulator
        if not np.allclose(path.dual_state, product, rtol=1e-12, atol=0.0):
            problems.append(f"{self.name}: dual_state != y_init*density*regulator")
        if not (np.all(np.diff(path.regulator) <= 0.0) and path.regulator.max() <= 1.0):
            problems.append(f"{self.name}: regulator increases or exceeds 1")
        if not (np.all(np.isfinite(path.theta)) and np.all(np.isfinite(path.wealth))
                and np.all(np.isfinite(wealth)) and np.isfinite(residual)):
            problems.append(f"{self.name}: non-finite theta, wealth or residual")
        if k < self.replayed:
            self.hashes[k] = self._hash(path, wealth)
        self.residuals.append(residual)
        return problems

    def finish(self):
        """Replay the first schedules: the arrays must repeat bit for bit."""
        problems = []
        for k, h in sorted(self.hashes.items()):
            path, _, wealth = self.op(k)
            if self._hash(path, wealth) != h:
                problems.append(f"{self.name}: replay of op {k} gives other arrays")
        return problems

    def digest(self):
        s = self.solution
        below, above = howard.growth_margins(s)
        path, residual, wealth = self._path(REFERENCE_CLAIMS)
        return {
            "row0": row_digest(s.surface[0]),
            "diagnostics": {
                "growth_bounds": {"below_lower": below, "above_upper": above},
                "policy_stable": all(d.policy_stable for d in s.diagnostics),
                "path": {
                    "j_init": int(path.j_init),
                    "sde_residual": residual,
                    "theta": row_digest(path.theta),
                    "wealth": row_digest(path.wealth),
                    "primal_wealth": row_digest(wealth),
                },
            },
        }

    def setup_problems(self):
        return surface_problems(self.solution, f"{self.name} set-up surface")

    def info(self):
        r = np.asarray(self.residuals)
        if r.size == 0:
            return {}
        # ungated: a known defect, sde_residual above the 0.05 acceptance
        # test 2 pins for one schedule; reported here, never hidden
        return {
            "sde_residual_median": float(np.median(r)),
            "sde_residual_max": float(r.max()),
            "sde_residual_above_0.05": int((r > 0.05).sum()),
            "paths_checked": int(r.size),
            "set_up_obstacle_nodes": int(np.count_nonzero(self.solution.region)),
            "set_up_distinct_controls": int(np.unique(self.solution.control).size),
        }


WORKLOADS = {w.name: w for w in (CliDefault, SolveFine, McPaths)}


def make_work_dir(root):
    path = os.path.join(root, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_work_dir(path):
    shutil.rmtree(path, ignore_errors=True)
