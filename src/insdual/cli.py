"""Command line front end: configure, solve, reconstruct, write artifacts.

A run performs the two-pass solve (coarse mesh to locate the starting
node, refined mesh around it for the reported surface), reconstructs the
controlled path on a claim schedule (the configured times, or a seeded
Poisson draw; every claim has size delta), and writes

    surface.csv       value, chosen control and region label per node
    path.csv          reconstructed strategy and wealth per time step
    diagnostics.json  iteration counts, residual extrema, bound margins,
                      one-step defect, control-ladder sensitivity, and
                      the claims: their times, size (delta) and source
    strategy.dat      two-column (t, theta) series
    wealth.dat        two-column (t, wealth) series

Floats are written as ``%.17g``: 17 significant digits with trailing zeros
dropped (0.5 is ``0.5``), in exponent form from 1e17 up and below 1e-4
(``1e+17``, ``1.0000000000000001e-05``). With a fixed newline, two
identical runs produce byte-identical files.

A rerun into the same directory removes all five earlier artifacts before
it writes the first, then writes each as a new file: a hard link or an
open handle to an old file keeps the old bytes, a read-only old artifact
in a writable directory is replaced, and so is a symlink at an artifact
path, by a regular file. A run that fails while writing leaves none of an
earlier run's artifacts next to its own. (Writing over a truncated old
file was slower: 1.1 against 0.6 ms for a 0.9 MB file on ext4.)
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .grid import _check_refinement, build_uniform, refine_around
from .howard import (
    HowardNonconvergence,
    StepDiagnostics,
    complementarity_extrema,
    growth_margins,
    solve_backward,
)
from .model import ModelParams
from .policy import (
    PathEscapeError,
    UnreachableWealthError,
    evolve_path,
    find_initial_state,
    sde_residual,
)
from .scheme import CONTROL_COUNT, CONTROL_HIGH, CONTROL_LOW, build_tables
from .scheme import make_control_set, operator_values
from .simulate import ClaimSchedule, poisson_schedule

__all__ = ["ConfigError", "RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_RECONSTRUCTION = 3

_ARTIFACTS = ("surface.csv", "path.csv", "strategy.dat", "wealth.dat", "diagnostics.json")


class ConfigError(ValueError):
    """Configuration file or flag rejected before any computation."""


def _key(section: str, default):
    """A RunConfig field read from the key of its own name in [section]."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, declared once.

    Each field is the INI key of its own name in the section its metadata
    names; its annotation is the kind the key is parsed as.
    """

    eta: float = _key("model", 0.5)
    alpha: float = _key("model", 2.1)
    beta: float = _key("model", 2.15)
    r: float = _key("model", 0.05)
    delta: float = _key("model", 1.0)
    intensity: float = _key("model", 2.0)
    horizon: float = _key("model", 1.0)
    n_time: int = _key("grid", 50)
    n_state: int = _key("grid", 100)
    refine: bool = _key("grid", True)
    refine_step: float = _key("grid", 1.0 / 4000.0)
    # the starting wealth is this package's choice, not a published value:
    # 1.0 lands the starting node mid-mesh under the default parameters
    x0: float = _key("experiment", 1.0)
    # every claim has size delta; seed, when set, draws the times instead
    claim_times: tuple = _key("experiment", (0.4, 0.8))
    seed: int | None = _key("experiment", None)
    out_dir: str = _key("output", "out")
    # not keys: the run's fixed ladder, read here by perfbench's default_problem
    control_low: ClassVar[float] = CONTROL_LOW
    control_high: ClassVar[float] = CONTROL_HIGH
    control_count: ClassVar[int] = CONTROL_COUNT


# (section, key) -> kind; annotations are strings under postponed evaluation
_KINDS = {"float": float, "int": int, "bool": bool, "tuple": tuple, "str": str}
_KEYS = {
    (f.metadata["section"], f.name): _KINDS[f.type.removesuffix(" | None")]
    for f in fields(RunConfig)
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _convert(section, key, kind, raw):
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if kind is tuple:
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"cli: cannot parse key '{key}' in section [{section}]: {raw!r}"
        ) from None


def load_config(path) -> RunConfig:
    """Read an INI file into a RunConfig, rejecting unknown keys."""
    # values are read as written, and no header can open the default
    # section "": [DEFAULT] is an unknown section, not keys for every one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cli: cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cli: malformed config file {path}: {exc}") from None
    sections = {section for section, _ in _KEYS}
    overrides = {}
    for section in parser.sections():
        # keys first, so a key set in an unknown section is named
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(
                    f"cli: unknown key '{key}' in section [{section}] of {path}"
                )
            overrides[key] = _convert(section, key, _KEYS[section, key], raw)
        if section not in sections:
            raise ConfigError(f"cli: unknown section [{section}] in {path}")
    return RunConfig(**overrides)


def _model_params(config: RunConfig) -> ModelParams:
    return ModelParams(
        eta=config.eta,
        alpha=config.alpha,
        beta=config.beta,
        r=config.r,
        delta=config.delta,
        pi_intensity=config.intensity,
        T=config.horizon,
    )


def _cells(values):
    """Artifact text of a 1-d float array: ``%.17g`` per value."""
    return list(map("%.17g".__mod__, values.tolist()))


def _interleave(*columns):
    """Equal-length columns as one row-major list of their cells."""
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k :: len(columns)] = column
    return flat


def _cannot_write(path, exc):
    return OSError(f"cli: cannot write artifact '{path}': {exc.strerror}")


def _remove_artifact(path):
    """Unlink the file at path, if there is one."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise _cannot_write(path, exc) from None


@contextmanager
def _open_artifact(path):
    """A new text file at path, in place of any file there.

    Any OSError, from the removal, the open or a write, is raised again
    naming the path.
    """
    _remove_artifact(path)
    try:
        with open(path, "x", newline="\n") as f:
            yield f
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _write_rows(filename, header, row, columns):
    """Write columns as rows of the % template ``row``, in one format call."""
    with _open_artifact(filename) as f:
        f.write(header + (row * len(columns[0])) % tuple(_interleave(*columns)))


def _write_surface(filename, solution):
    """Write surface.csv, one format call per layer of ``%.17g`` values."""
    grid = solution.grid
    m = grid.n_nodes
    # each (candidate, region) pair's text is made once and picked by the
    # control's ladder index, for every layer at once; the terminal layer
    # has neither
    ladder = solution.controls.candidates
    index = ladder.searchsorted(solution.control)
    # any value maps to some slot: one that is not its candidate is refused
    np.minimum(index, ladder.size - 1, out=index)
    off = ladder[index] != solution.control
    if off.any():
        raise ValueError(
            f"cli: control {float(solution.control[off][0])} is not a ladder candidate"
        )
    pairs = [f",{r},{label}\n" for r in _cells(ladder) for label in ("no-jump", "jump")]
    pairs = np.array(pairs, dtype=object)
    tails = pairs[2 * index + solution.region].tolist() + [[",,\n"] * m]
    heads = [f",{s},%.17g" for s in _cells(grid.states)]
    with _open_artifact(filename) as f:
        f.write("t,state,value,rho,region\n")
        for i, (t, tail) in enumerate(zip(_cells(grid.times), tails)):
            template = "".join(_interleave([t] * m, heads, tail))
            f.write(template % tuple(solution.surface[i].tolist()))


def _write_tables(out, solution, path):
    """Write surface.csv, path.csv, strategy.dat and wealth.dat into out."""
    _write_surface(os.path.join(out, "surface.csv"), solution)
    t, theta, wealth = path.times.tolist(), path.theta.tolist(), path.wealth.tolist()
    _write_rows(
        os.path.join(out, "path.csv"),
        "t,theta,wealth,density,regulator,dual_state,claim\n",
        "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
        [t, theta, wealth, path.density.tolist(), path.regulator.tolist(),
         path.dual_state.tolist(), path.claim_flag.tolist()],
    )
    _write_rows(os.path.join(out, "strategy.dat"), "", "%.17g %.17g\n", [t, theta])
    _write_rows(os.path.join(out, "wealth.dat"), "", "%.17g %.17g\n", [t, wealth])


def _control_sensitivity(solution):
    """Rerun the starting-layer minimization with a doubled candidate range.

    Reports how far the per-node minimized stationary value moves (h_t
    scaled, like the residuals) and at how many nodes the chosen control
    changes. A large shift means the reported surface is sensitive to the
    candidate ladder. The ladder is fixed (scheme.CONTROL_*) and no key
    sets it; ROADMAP item 1 replaces this block.
    """
    grid = solution.grid
    params = solution.params
    low, high = CONTROL_LOW / 2.0, CONTROL_HIGH * 2.0
    wide = make_control_set(params, low=low, high=high)
    v0 = solution.surface[0]
    # a solved layer's control row is the argmin of the store at its row,
    # so both ladders are scanned alike
    base = solution.tables
    base_vals = operator_values(v0, grid, params, base)
    wide_vals = operator_values(v0, grid, params, build_tables(grid, params, wide))
    shift = grid.h_t * np.abs(base_vals.min(axis=0) - wide_vals.min(axis=0))
    changed = np.sum(
        ~np.isclose(
            base.controls[base_vals.argmin(axis=0)],
            wide.candidates[wide_vals.argmin(axis=0)],
            rtol=1e-12,
            atol=0.0,
        )
    )
    return {
        "low": low,
        "high": high,
        "max_value_shift": float(shift.max()),
        "changed_nodes": int(changed),
    }


def run(config: RunConfig, out_dir=None) -> dict:
    """Execute one full run and write all artifacts into out_dir.

    Returns the diagnostics dictionary that was written to
    diagnostics.json. Raises, before any solve, ConfigError or ValueError
    for bad inputs or an output directory that cannot be made; after it,
    HowardNonconvergence when a layer fails to converge,
    UnreachableWealthError or PathEscapeError when reconstruction fails,
    and OSError, naming the artifact, when one cannot be written.
    """
    out = config.out_dir if out_dir is None else out_dir
    params = _model_params(config)
    controls = make_control_set(params)
    # validated here, so a bad schedule or wealth is rejected before any solve
    if config.seed is None:
        claims = ClaimSchedule(times=config.claim_times)
    else:
        claims = poisson_schedule(params.pi_intensity, params.T, config.seed)
    if not 0.0 <= config.x0 < np.inf:  # NaN fails too
        raise ValueError(f"cli: starting wealth must be finite, >= 0, got {config.x0}")
    coarse_grid = build_uniform(config.n_time, config.n_state, params.T)
    if config.refine:
        # the coarse mesh is uniform, so the spacing refine_around checks at
        # the start node is known before the solve; its widest cell never
        # rejects a step refine_around takes
        _check_refinement(config.refine_step, coarse_grid.gaps.max())
    # an unusable output path fails here, not after both solves
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cli: cannot make output directory '{out}': {exc.strerror}"
        ) from None
    coarse = solve_backward(coarse_grid, params, controls)
    j0, _ = find_initial_state(coarse, config.x0)
    if config.refine:
        fine_grid = refine_around(coarse_grid, j0, config.refine_step)
        solution = solve_backward(fine_grid, params, controls)
    else:
        solution = coarse

    path = evolve_path(solution, claims, config.x0)

    lowest, largest = complementarity_extrema(solution)
    below, above = growth_margins(solution)
    diagnostics = {
        "grid": {
            "n_steps": solution.grid.n_steps,
            "n_nodes": solution.grid.n_nodes,
            "n_nodes_coarse": coarse_grid.n_nodes,
            "refined": bool(config.refine),
            "initial_node": int(path.j_init),
        },
        "howard": {
            "iterations": [d.iterations for d in solution.diagnostics],
            "policy_stable": StepDiagnostics.policy_stable,
        },
        "complementarity": {
            "lowest_argument": lowest,
            "largest_minimum": largest,
        },
        "growth_bounds": {"below_lower": below, "above_upper": above},
        "control_sensitivity": _control_sensitivity(solution),
        "path": {
            "starting_wealth": config.x0,
            "sde_residual": sde_residual(path, params),
            "theta_min": float(path.theta.min()),
            "theta_max": float(path.theta.max()),
        },
        "claims": {
            "times": [float(t) for t in claims.times],
            "mark": params.delta,
            "source": "deterministic" if config.seed is None else "poisson",
            "seed": config.seed,
        },
    }

    for name in _ARTIFACTS:
        _remove_artifact(os.path.join(out, name))
    _write_tables(out, solution, path)
    with _open_artifact(os.path.join(out, "diagnostics.json")) as f:
        # one write: json.dump writes each of its many chunks separately
        f.write(json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    return diagnostics


def _parse_grid_flag(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"cli: --grid expects N,M, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"cli: --grid expects two integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="insdual",
        description=(
            "Solve the dual reinsurance control problem on a compact mesh "
            "and reconstruct the optimal strategy and wealth path."
        ),
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument(
        "--no-refine",
        action="store_true",
        help="skip the second, locally refined solve",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="draw the claim schedule from a seeded arrival process",
    )
    parser.add_argument("--grid", help="override the coarse mesh as N,M")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of nonconvergence here
        return EXIT_VALIDATION if exc.code else EXIT_OK

    try:
        config = load_config(args.config) if args.config else RunConfig()
        flags = {"out_dir": args.out, "seed": args.seed}
        overrides = {key: value for key, value in flags.items() if value is not None}
        if args.no_refine:
            overrides["refine"] = False
        if args.grid is not None:
            overrides["n_time"], overrides["n_state"] = _parse_grid_flag(args.grid)
        diagnostics = run(replace(config, **overrides))
    except HowardNonconvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (UnreachableWealthError, PathEscapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    comp = diagnostics["complementarity"]
    print(
        "run complete: "
        f"{diagnostics['grid']['n_steps']} steps x "
        f"{diagnostics['grid']['n_nodes']} nodes, "
        f"sde residual {diagnostics['path']['sde_residual']:.3e}, "
        f"complementarity extrema [{comp['lowest_argument']:.3e}, "
        f"{comp['largest_minimum']:.3e}]"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
