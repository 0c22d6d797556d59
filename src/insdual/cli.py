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

Floats are written with 17 significant digits and a fixed newline so two
identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

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
from .scheme import build_tables, make_control_set, operator_values
from .simulate import ClaimSchedule, poisson_schedule

__all__ = ["ConfigError", "RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_RECONSTRUCTION = 3


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
    control_low: float = _key("controls", 1e-3)
    control_high: float = _key("controls", 1e3)
    control_count: int = _key("controls", 101)
    # the starting wealth is this package's choice, not a published value:
    # 1.0 lands the starting node mid-mesh under the default parameters
    x0: float = _key("experiment", 1.0)
    # every claim has size delta; seed, when set, draws the times instead
    claim_times: tuple = _key("experiment", (0.4, 0.8))
    seed: int | None = _key("experiment", None)
    out_dir: str = _key("output", "out")


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
    except OSError as exc:
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
    """Artifact text of a float array, row-major: 17 significant digits."""
    return list(map("{:.17g}".format, np.ravel(values).tolist()))


# rows joined per write: one write per row costs a call each, and one
# string for the whole table holds every row's text at once
_BLOCK_ROWS = 4096


def _write_table(path, columns, header=None, sep=","):
    """Write equal-length columns of text cells as rows, newline "\\n"."""
    rows = zip(*columns)
    with open(path, "w", newline="\n") as f:
        if header is not None:
            f.write(header + "\n")
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            f.write("\n".join(map(sep.join, block)) + "\n")


def _surface_columns(solution):
    """Columns of surface.csv; the terminal layer has no control or region."""
    grid = solution.grid
    m = grid.n_nodes
    blank = [""] * m
    # the control column holds only ladder candidates: format each once
    rho, index = np.unique(solution.control, return_inverse=True)
    rho = _cells(rho)
    return [
        [t for t in _cells(grid.times) for _ in range(m)],
        _cells(grid.states) * (grid.n_steps + 1),
        _cells(solution.surface),
        [rho[k] for k in index.ravel().tolist()] + blank,
        [
            "jump" if obstacle else "no-jump"
            for obstacle in solution.region.ravel().tolist()
        ]
        + blank,
    ]


def _control_sensitivity(solution, config: RunConfig):
    """Rerun the starting-layer minimization with a doubled candidate range.

    Reports how far the per-node minimized stationary value moves (h_t
    scaled, like the residuals) and at how many nodes the chosen control
    changes. A large shift means the reported surface is sensitive to the
    candidate ladder and the range should be widened.
    """
    grid = solution.grid
    params = solution.params
    wide = make_control_set(
        params,
        low=config.control_low / 2.0,
        high=config.control_high * 2.0,
        count=config.control_count,
    )
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
        "low": config.control_low / 2.0,
        "high": config.control_high * 2.0,
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
    and OSError when an artifact cannot be written.
    """
    out = config.out_dir if out_dir is None else out_dir
    params = _model_params(config)
    controls = make_control_set(
        params,
        low=config.control_low,
        high=config.control_high,
        count=config.control_count,
    )
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
        "control_sensitivity": _control_sensitivity(solution, config),
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

    _write_table(
        os.path.join(out, "surface.csv"),
        _surface_columns(solution),
        header="t,state,value,rho,region",
    )
    t, theta, wealth = _cells(path.times), _cells(path.theta), _cells(path.wealth)
    _write_table(
        os.path.join(out, "path.csv"),
        [t, theta, wealth, _cells(path.density), _cells(path.regulator),
         _cells(path.dual_state), [str(c) for c in path.claim_flag.tolist()]],
        header="t,theta,wealth,density,regulator,dual_state,claim",
    )
    _write_table(os.path.join(out, "strategy.dat"), [t, theta], sep=" ")
    _write_table(os.path.join(out, "wealth.dat"), [t, wealth], sep=" ")
    with open(os.path.join(out, "diagnostics.json"), "w", newline="\n") as f:
        json.dump(diagnostics, f, indent=2, sort_keys=True)
        f.write("\n")
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
