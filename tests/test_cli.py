import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from insdual import cli, grid, howard, policy, scheme
from insdual.cli import ConfigError, RunConfig, load_config, main, run
from insdual.simulate import poisson_schedule

CHEAP_INI = """\
[model]
eta = 0.5
alpha = 2.0
beta = 2.0
r = 0.05
delta = 1.0
intensity = 2.0
horizon = 1.0

[grid]
n_time = 10
n_state = 40
refine = no

[experiment]
x0 = 1.0
claim_times = 0.3, 0.7
"""


ARTIFACTS = ("surface.csv", "path.csv", "strategy.dat", "wealth.dat", "diagnostics.json")


@pytest.fixture()
def cheap_ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CHEAP_INI)
    return path


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(
            "[model]\n"
            "eta = 0.4\nalpha = 2.5\nbeta = 2.6\nr = 0.03\ndelta = 0.9\n"
            "intensity = 3.0\nhorizon = 2.0\n"
            "[grid]\n"
            "n_time = 20\nn_state = 50\nrefine = true\nrefine_step = 0.001\n"
            "[experiment]\n"
            "x0 = 1.5\nclaim_times = 0.5, 1.5\nseed = 4\n"
            "[output]\nout_dir = artifacts\n"
        )
        config = load_config(path)
        assert config.eta == 0.4
        assert config.alpha == 2.5
        assert config.beta == 2.6
        assert config.r == 0.03
        assert config.delta == 0.9
        assert config.intensity == 3.0
        assert config.horizon == 2.0
        assert config.n_time == 20
        assert config.n_state == 50
        assert config.refine is True
        assert config.refine_step == 0.001
        assert config.x0 == 1.5
        assert config.claim_times == (0.5, 1.5)
        assert config.seed == 4
        assert config.out_dir == "artifacts"

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[grid]\nn_time = 25\n")
        config = load_config(path)
        assert config.n_time == 25
        assert config.n_state == RunConfig().n_state
        assert config.alpha == RunConfig().alpha

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mdoel]\neta = 0.5\n")
        with pytest.raises(ConfigError, match=r"\[mdoel\]"):
            load_config(path)

    def test_removed_tol_key_named(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[solver]\ntol = 1e-9\nmax_iter = 200\n")
        with pytest.raises(ConfigError, match=r"'tol' in section \[solver\]"):
            load_config(path)

    def test_percent_is_read_as_written(self, tmp_path):
        path = tmp_path / "percent.ini"
        path.write_text("[output]\nout_dir = run_100%\n")
        assert load_config(path).out_dir == "run_100%"

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\neta = 0.7\n", "[DEFAULT]\neta = 0.7\n[model]\nalpha = 2.0\n"],
        ids=["alone", "with-sections"],
    )
    def test_default_section_keys_rejected(self, text, tmp_path):
        # read as-is they would be ignored, or copied into every section
        path = tmp_path / "default.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\netaa = 0.5\n")
        with pytest.raises(ConfigError, match=r"'etaa' in section \[model\]"):
            load_config(path)

    def test_unparsable_value_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nn_time = many\n")
        with pytest.raises(ConfigError, match=r"'n_time' in section \[grid\]"):
            load_config(path)

    def test_bool_words(self, tmp_path):
        for word, expected in (("no", False), ("1", True), ("FALSE", False)):
            path = tmp_path / f"b_{word}.ini"
            path.write_text(f"[grid]\nrefine = {word}\n")
            assert load_config(path).refine is expected

    def test_empty_claim_times(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[experiment]\nclaim_times =\n")
        assert load_config(path).claim_times == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_malformed_file_named(self, tmp_path):
        path = tmp_path / "headless.ini"
        path.write_text("eta = 0.5\n")
        with pytest.raises(ConfigError, match="malformed config file .*headless.ini"):
            load_config(path)

    def test_undecodable_file_named(self, tmp_path):
        # a UTF-16 byte order mark is not UTF-8
        path = tmp_path / "utf16.ini"
        path.write_bytes(b"\xff\xfe[model]\neta = 0.5\n")
        with pytest.raises(ConfigError, match="cannot read config file .*utf16.ini"):
            load_config(path)

    def test_empty_unknown_section_named(self, tmp_path):
        # no key to name, so the section itself is rejected
        path = tmp_path / "empty.ini"
        path.write_text("[model]\neta = 0.5\n[foo]\n")
        with pytest.raises(ConfigError, match=r"unknown section \[foo\]"):
            load_config(path)


COUNTED_MODULES = (scheme, howard, grid, policy, cli)


def count_calls(monkeypatch, *names):
    """Count calls of package functions, under every module name that holds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = next(
            getattr(m, name) for m in COUNTED_MODULES if hasattr(m, name)
        )

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in COUNTED_MODULES:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture(scope="module")
def cheap_run_config():
    return RunConfig(
        alpha=2.0, beta=2.0, n_time=10, n_state=40,
        refine=False, claim_times=(0.3, 0.7),
    )


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, cheap_run_config):
    out = tmp_path_factory.mktemp("artifacts")
    diagnostics = run(cheap_run_config, out_dir=str(out))
    return out, diagnostics


class TestRun:
    def test_artifacts_written(self, artifacts):
        out, _ = artifacts
        assert sorted(os.listdir(out)) == sorted(ARTIFACTS)

    def test_surface_format(self, artifacts):
        out, _ = artifacts
        lines = (out / "surface.csv").read_text().splitlines()
        assert lines[0] == "t,state,value,rho,region"
        assert len(lines) == 1 + 11 * 39
        assert lines[1].endswith(",no-jump")
        # terminal rows carry no control or region
        assert lines[-1].endswith(",,")

    def test_path_format_and_theta(self, artifacts):
        out, _ = artifacts
        lines = (out / "path.csv").read_text().splitlines()
        assert lines[0] == "t,theta,wealth,density,regulator,dual_state,claim"
        assert len(lines) == 1 + 10
        theta = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v == 0.0 for v in theta)
        claims = [int(line.split(",")[6]) for line in lines[1:]]
        assert sum(claims) == 2

    def test_diagnostics_json_matches_return(self, artifacts):
        out, diagnostics = artifacts
        on_disk = json.loads((out / "diagnostics.json").read_text())
        assert on_disk == json.loads(json.dumps(diagnostics))
        for key in (
            "grid", "howard", "complementarity", "growth_bounds",
            "control_sensitivity", "path", "claims",
        ):
            assert key in on_disk
        assert set(on_disk["howard"]) == {"iterations", "policy_stable"}
        assert on_disk["path"]["sde_residual"] <= 1e-3
        assert on_disk["claims"]["source"] == "deterministic"
        assert on_disk["grid"]["refined"] is False

    def test_controls_come_from_the_default_ladder(self, artifacts, cheap_run_config):
        # the ladder is a constant of the run: RunConfig only mirrors
        # make_control_set's defaults, and no INI key reaches it
        out, _ = artifacts
        defaults = inspect.signature(scheme.make_control_set).parameters
        for key in ("low", "high", "count"):
            assert getattr(RunConfig, f"control_{key}") == defaults[key].default
        assert len(dataclasses.fields(RunConfig)) == 15
        ladder = scheme.make_control_set(cli._model_params(cheap_run_config)).candidates
        rows = (out / "surface.csv").read_text().splitlines()[1:]
        chosen = {float(row.split(",")[3]) for row in rows if row.split(",")[3]}
        assert chosen and chosen <= set(ladder.tolist())

    def test_series_files_two_columns(self, artifacts):
        out, _ = artifacts
        for name in ("strategy.dat", "wealth.dat"):
            rows = (out / name).read_text().splitlines()
            assert len(rows) == 10
            assert all(len(r.split(" ")) == 2 for r in rows)

    def test_byte_identical_reruns(self, cheap_run_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(cheap_run_config, out_dir=str(a))
        run(cheap_run_config, out_dir=str(b))
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestRerun:
    """A rerun into a directory that holds an earlier run's artifacts."""

    @staticmethod
    def finer(config):
        # longer files, every one of the five
        return dataclasses.replace(config, n_time=20, n_state=60)

    def test_matches_a_run_into_an_empty_directory(self, cheap_run_config, tmp_path):
        empty, full = tmp_path / "empty", tmp_path / "full"
        run(cheap_run_config, out_dir=str(empty))
        run(self.finer(cheap_run_config), out_dir=str(full))
        for name in ARTIFACTS:
            assert (full / name).stat().st_size > (empty / name).stat().st_size, name
        run(cheap_run_config, out_dir=str(full))
        assert sorted(os.listdir(full)) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert (full / name).read_bytes() == (empty / name).read_bytes(), name

    def test_each_artifact_is_a_new_file(self, cheap_run_config, tmp_path):
        out = tmp_path / "out"
        run(self.finer(cheap_run_config), out_dir=str(out))
        old = {name: (out / name).read_bytes() for name in ARTIFACTS}
        # a hard link to the old surface, a read-only old series (held by a
        # link too), and a symlink at path.csv to a file outside
        os.link(out / "surface.csv", tmp_path / "surface.link")
        os.link(out / "strategy.dat", tmp_path / "strategy.link")
        (out / "strategy.dat").chmod(0o444)
        (tmp_path / "target").write_text("not an artifact\n")
        (out / "path.csv").unlink()
        (out / "path.csv").symlink_to(tmp_path / "target")
        run(cheap_run_config, out_dir=str(out))
        assert (tmp_path / "surface.link").read_bytes() == old["surface.csv"]
        assert (tmp_path / "strategy.link").read_bytes() == old["strategy.dat"]
        assert not os.path.samefile(out / "strategy.dat", tmp_path / "strategy.link")
        assert (tmp_path / "target").read_text() == "not an artifact\n"
        assert not (out / "path.csv").is_symlink()
        for name in ARTIFACTS:
            assert (out / name).read_bytes() != old[name], name

    def test_failed_write_leaves_no_earlier_artifact(
        self, cheap_run_config, tmp_path, monkeypatch
    ):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run(cheap_run_config, out_dir=str(fresh))
        run(self.finer(cheap_run_config), out_dir=str(out))
        real = cli._write_rows

        def write_rows(filename, *args):
            if os.path.basename(filename) == "path.csv":
                raise OSError("disk full")
            return real(filename, *args)

        monkeypatch.setattr(cli, "_write_rows", write_rows)
        with pytest.raises(OSError, match="disk full"):
            run(cheap_run_config, out_dir=str(out))
        assert os.listdir(out) == ["surface.csv"]
        assert (out / "surface.csv").read_bytes() == (fresh / "surface.csv").read_bytes()

    @pytest.mark.parametrize("name", ["surface.csv", "diagnostics.json"])
    def test_directory_at_an_artifact_path(self, name, cheap_ini, tmp_path, capsys):
        (tmp_path / "o" / name).mkdir(parents=True)
        code = main(["--config", str(cheap_ini), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: cli: cannot write artifact '{tmp_path / 'o' / name}': "
        )


class TestWorkCount:
    def test_tables_built_once_per_operator(self, tmp_path, monkeypatch):
        # the two solves each build one store and the control sensitivity
        # one for its wide ladder (the base ladder reuses the refined
        # solve's); every Howard sweep evaluates the operator once, except
        # the first sweep of every layer but the first one solved, and the
        # sensitivity scans both ladders at the time-0 row
        counts = count_calls(monkeypatch, "build_tables", "operator_values")
        solutions = []
        real_solve = howard.solve_backward

        def solve(*args, **kwargs):
            solutions.append(real_solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_backward", solve)
        run(RunConfig(n_time=10, n_state=40), out_dir=str(tmp_path))
        assert len(solutions) == 2
        sweeps = sum(d.iterations for sol in solutions for d in sol.diagnostics)
        started = sum(sol.grid.n_steps - 1 for sol in solutions)
        assert counts["build_tables"] == 3
        assert counts["operator_values"] == sweeps - started + 2

    def test_default_run_calls(self, tmp_path, monkeypatch):
        # the calls a default run makes, pinned: the benchmark's trace reads
        # these functions by name. Every sweep of both solves' 100 layers but
        # a layer's first forms one policy signature for the stop test
        # (258 - 100), and each of the 158 policy solves forms its own to key
        # the stored system: 316
        counts = count_calls(
            monkeypatch, "solve_time_step", "operator_values", "obstacle_values",
            "solve_policy_system", "spsolve", "build_tables", "_signature",
        )
        run(RunConfig(), out_dir=str(tmp_path))
        assert counts == {
            "solve_time_step": 100, "operator_values": 162, "obstacle_values": 160,
            "solve_policy_system": 158, "spsolve": 158, "build_tables": 3,
            "_signature": 316,
        }

    def test_one_wealth_table_per_solution(
        self, dear_refined_solution, two_claims, monkeypatch
    ):
        # the wealth read-off runs once per solution, for every layer
        # together, however many paths and rows read it; a path projects
        # twice: once in its one pass (claim steps ride inside it, and no
        # step of this path is cut) and once for the jumped states of all
        # steps
        sol = dataclasses.replace(dear_refined_solution)  # nothing read off yet
        counts = count_calls(monkeypatch, "_wealth_table", "project")
        path = policy.evolve_path(sol, two_claims, 1.0)
        policy.evolve_path(sol, two_claims, 1.0)
        policy.find_initial_state(sol, 1.0)
        policy.wealth_row(sol, 1)
        assert int(np.count_nonzero(path.claim_flag)) == 2
        assert counts["_wealth_table"] == 1
        assert counts["project"] == 2 * 2


class TestMain:
    def test_ok_run(self, cheap_ini, tmp_path, capsys):
        code = main(["--config", str(cheap_ini), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "run complete" in capsys.readouterr().out
        assert (tmp_path / "o" / "surface.csv").exists()

    def test_default_run_writes_nothing_to_stderr(self, tmp_path, capsys):
        # the default problem prices cover above the premium income
        # (alpha < beta); the run reports nothing but its result
        assert main(["--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seed", [None, 7])
    def test_run_writes_nothing_to_stdout(self, seed, tmp_path, capsys):
        # perfbench reads its result off its last stdout line: only main
        # reports, after run returns
        config = RunConfig(n_time=10, n_state=40, seed=seed)
        run(config, out_dir=str(tmp_path))
        assert capsys.readouterr().out == ""

    def test_validation_failure_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CHEAP_INI.replace("eta = 0.5", "eta = 1.5"))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, named",
        [("alpha = 2.0", "alpha = nan", "alpha must be finite")],
        ids=["alpha"],
    )
    def test_nan_model_parameter_rejected_before_any_solve(
        self, old, new, named, tmp_path, monkeypatch, capsys
    ):
        calls = count_calls(monkeypatch, "solve_backward")
        bad = tmp_path / "nan.ini"
        bad.write_text(CHEAP_INI.replace(old, new))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert calls["solve_backward"] == 0

    @pytest.mark.parametrize(
        "old, new, named",
        [
            # the sweep cap and the refine half-width are constants now
            ("refine = no", "refine = no\n\n[solver]\nmax_iter = 0",
             "'max_iter' in section [solver]"),
            ("refine = no", "refine = no\n\n[solver]\nmax_iter = -3",
             "'max_iter' in section [solver]"),
            ("refine = no", "refine = yes\nrefine_halfwidth = 0",
             "'refine_halfwidth' in section [grid]"),
            ("refine = no", "refine = yes\nrefine_step = 0.5", "fine_step must lie in"),
            # the candidate ladder is a constant too
            ("refine = no", "refine = no\n\n[controls]\ncontrol_low = 0.001",
             "'control_low' in section [controls]"),
            ("refine = no", "refine = no\n\n[controls]\ncontrol_high = inf",
             "'control_high' in section [controls]"),
            ("refine = no", "refine = no\n\n[controls]\ncontrol_count = 21",
             "'control_count' in section [controls]"),
            ("refine = no", "refine = no\n\n[controls]\n", "unknown section [controls]"),
        ],
        ids=["max_iter-0", "max_iter-neg", "refine_halfwidth", "refine_step",
             "control_low", "control_high", "control_count", "controls"],
    )
    def test_solver_and_refine_keys_rejected_before_any_solve(
        self, old, new, named, tmp_path, monkeypatch, capsys
    ):
        calls = count_calls(monkeypatch, "solve_backward")
        bad = tmp_path / "bad.ini"
        bad.write_text(CHEAP_INI.replace(old, new))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert calls["solve_backward"] == 0
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "ini_tail, out",
        [("\n[output]\nout_dir =\n", None), ("", "file/sub")],
        ids=["empty", "below-a-file"],
    )
    def test_unusable_output_directory_rejected_before_any_solve(
        self, ini_tail, out, tmp_path, monkeypatch, capsys
    ):
        calls = count_calls(monkeypatch, "solve_backward")
        ini = tmp_path / "run.ini"
        ini.write_text(CHEAP_INI + ini_tail)
        (tmp_path / "file").write_text("")
        argv = ["--config", str(ini)]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 1
        named = "" if out is None else str(tmp_path / out)
        assert capsys.readouterr().err.startswith(
            f"error: cli: cannot make output directory '{named}': "
        )
        assert calls["solve_backward"] == 0

    @pytest.mark.parametrize("x0", ["nan", "-1", "inf"])
    def test_nan_starting_wealth_is_a_validation_failure(
        self, x0, tmp_path, monkeypatch, capsys
    ):
        # not an unreachable wealth (exit 3): a NaN, negative or infinite
        # x0 is no wealth at all, and is rejected before any solve
        calls = count_calls(monkeypatch, "solve_backward")
        bad = tmp_path / "nan.ini"
        bad.write_text(CHEAP_INI.replace("x0 = 1.0", f"x0 = {x0}"))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "starting wealth" in capsys.readouterr().err
        assert calls["solve_backward"] == 0
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nnu = 0.5\n")
        code = main(["--config", str(bad)])
        assert code == 1
        assert "'nu'" in capsys.readouterr().err

    def test_grid_flag_rejects_garbage(self, cheap_ini, capsys):
        assert main(["--config", str(cheap_ini), "--grid", "wide"]) == 1
        assert "--grid" in capsys.readouterr().err

    def test_grid_flag_rejects_a_non_integer(self, cheap_ini, monkeypatch, capsys):
        calls = count_calls(monkeypatch, "solve_backward")
        assert main(["--config", str(cheap_ini), "--grid", "8,x"]) == 1
        assert "--grid expects two integers, got '8,x'" in capsys.readouterr().err
        assert calls["solve_backward"] == 0

    @pytest.mark.parametrize(
        "argv, named",
        [(["--tol", "1e-7"], "--tol"), (["--seed", "abc"], "--seed")],
        ids=["removed-flag", "bad-value"],
    )
    def test_usage_error_exit(self, argv, named, capsys):
        # argparse's own code 2 would read as nonconvergence
        assert main(argv) == 1
        assert named in capsys.readouterr().err

    def test_help_exit(self, capsys):
        assert main(["--help"]) == 0
        assert "--no-refine" in capsys.readouterr().out

    def test_nonconvergence_exit(self, cheap_ini, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(howard, "MAX_SWEEPS", 1)
        code = main(["--config", str(cheap_ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "howard" in capsys.readouterr().err

    def test_reconstruction_exit(self, tmp_path, capsys):
        bad = tmp_path / "rich.ini"
        bad.write_text(CHEAP_INI.replace("x0 = 1.0", "x0 = 1e9"))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "outside the attainable range" in capsys.readouterr().err

    def test_seeded_claims(self, cheap_ini, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--config", str(cheap_ini), "--out", str(out), "--seed", "5"]
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["claims"]["source"] == "poisson"
        assert diag["claims"]["seed"] == 5
        assert diag["claims"]["mark"] == 1.0
        expected = poisson_schedule(2.0, 1.0, seed=5).times
        assert diag["claims"]["times"] == expected.tolist()

    def test_claims_report_delta_as_mark(self, tmp_path):
        ini = tmp_path / "half.ini"
        ini.write_text(CHEAP_INI.replace("delta = 1.0", "delta = 0.5"))
        out = tmp_path / "o"
        assert main(["--config", str(ini), "--out", str(out)]) == 0
        claims = json.loads((out / "diagnostics.json").read_text())["claims"]
        assert claims == {
            "mark": 0.5, "seed": None, "source": "deterministic", "times": [0.3, 0.7],
        }

    def test_grid_override(self, cheap_ini, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "--config", str(cheap_ini), "--out", str(out),
                "--grid", "8,30", "--no-refine",
            ]
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["grid"]["n_steps"] == 8
        assert diag["grid"]["n_nodes"] == 29

    def test_one_step_mesh(self, tmp_path):
        # a single time step leaves the path no increment to check
        out = tmp_path / "o"
        code = main(["--grid", "1,20", "--no-refine", "--out", str(out)])
        assert code == 0
        assert '"sde_residual": 0.0' in (out / "diagnostics.json").read_text()

    @pytest.mark.parametrize(
        "experiment",
        [
            "claim_times = 0.8, 0.4",
            "claim_times = 0.4, nan",
            "claim_times = 0.4, inf",
            "claim_times = 0.3, 0.7\nclaim_mark = 0.8",
        ],
        ids=["unsorted", "nan", "inf", "mark"],
    )
    def test_claims_rejected_before_any_solve(
        self, experiment, tmp_path, monkeypatch, capsys
    ):
        calls = count_calls(monkeypatch, "solve_backward")
        bad = tmp_path / "claims.ini"
        bad.write_text(CHEAP_INI.replace("claim_times = 0.3, 0.7", experiment))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "claim" in capsys.readouterr().err
        assert calls["solve_backward"] == 0
        assert not (tmp_path / "o").exists()

    def test_crowded_claim_step_rejected_before_any_solve(
        self, tmp_path, monkeypatch, capsys
    ):
        # 300 claims nearest to one step of the default mesh overflow its
        # uint8 count; the refined grid has the same steps, so the coarse
        # grid's count decides before either solve
        def solve(*args, **kwargs):
            pytest.fail("solve_backward called")

        monkeypatch.setattr(cli, "solve_backward", solve)
        times = tuple(0.5 + 1e-5 * i for i in range(300))
        with pytest.raises(ValueError, match="more than 255 claims act at one"):
            run(RunConfig(claim_times=times), out_dir=str(tmp_path / "o"))
        ini = tmp_path / "crowded.ini"
        ini.write_text(f"[experiment]\nclaim_times = {', '.join(map(str, times))}\n")
        assert main(["--config", str(ini), "--out", str(tmp_path / "o")]) == 1
        assert "more than 255 claims" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("route", ["ini", "flag"])
    def test_negative_seed_named_before_any_solve(
        self, route, tmp_path, monkeypatch, capsys
    ):
        calls = count_calls(monkeypatch, "solve_backward")
        ini = tmp_path / "seed.ini"
        ini.write_text(CHEAP_INI + ("seed = -1\n" if route == "ini" else ""))
        argv = ["--config", str(ini), "--out", str(tmp_path / "o")]
        code = main(argv + (["--seed", "-1"] if route == "flag" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "simulate: seed must be a nonnegative integer, got -1" in err
        assert calls["solve_backward"] == 0
        assert not (tmp_path / "o").exists()

    def test_overflowing_eta_rejected_before_any_layer(
        self, tmp_path, monkeypatch, capsys
    ):
        # 39**199 passes the largest double at the mesh's lowest node; the
        # overflow is a validation failure naming eta, with no numpy
        # warning (the suite turns every warning into an error)
        calls = count_calls(monkeypatch, "solve_time_step")
        bad = tmp_path / "eta.ini"
        bad.write_text(CHEAP_INI.replace("eta = 0.5", "eta = 0.995"))
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "eta = 0.995" in err
        assert "Warning" not in err
        assert calls["solve_time_step"] == 0

    def test_claim_mark_key_rejected_by_name(self, tmp_path, monkeypatch, capsys):
        # every claim has size delta, so the removed key is an unknown one,
        # even when it repeats delta
        calls = count_calls(monkeypatch, "solve_backward")
        ini = tmp_path / "mark.ini"
        ini.write_text(CHEAP_INI + "claim_mark = 1.0\n")
        code = main(["--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "'claim_mark' in section [experiment]" in capsys.readouterr().err
        assert calls["solve_backward"] == 0
        assert not (tmp_path / "o").exists()

    def test_module_entry_point(self, cheap_ini, tmp_path):
        # run from the directory that holds the imported package, so the
        # child finds it whether or not PYTHONPATH names it
        proc = subprocess.run(
            [sys.executable, "-m", "insdual.cli", "--help"],
            capture_output=True, text=True, cwd=Path(cli.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert "--no-refine" in proc.stdout


class TestControlSensitivity:
    @staticmethod
    def full_scans(solution):
        # both ladders scanned in full at the starting layer
        g, p = solution.grid, solution.params
        wide = scheme.make_control_set(p, low=0.5e-3, high=2e3)
        v0 = solution.surface[0]
        base_vals = scheme.operator_values(v0, g, p, solution.tables)
        wide_vals = scheme.operator_values(v0, g, p, scheme.build_tables(g, p, wide))
        base_k = np.argmin(base_vals, axis=0)
        wide_k = np.argmin(wide_vals, axis=0)
        shift = g.h_t * np.abs(base_vals.min(axis=0) - wide_vals.min(axis=0))
        changed = ~np.isclose(
            solution.controls.candidates[base_k], wide.candidates[wide_k],
            rtol=1e-12, atol=0.0,
        )
        return float(shift.max()), int(changed.sum())

    def test_matches_full_scans(self):
        params = cli._model_params(RunConfig())
        sol = howard.solve_backward(
            grid.build_uniform(10, 40, params.T), params, scheme.make_control_set(params)
        )
        got = cli._control_sensitivity(sol)
        assert (got["low"], got["high"]) == (0.0005, 2000.0)
        assert (got["max_value_shift"], got["changed_nodes"]) == self.full_scans(sol)


class TestWriteTable:
    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 10000])
    def test_bytes_match_one_line_per_row(self, n_rows, tmp_path):
        columns = [list(range(n_rows)), [f"x{i}" for i in range(n_rows)]]
        path = tmp_path / "t.csv"
        cli._write_rows(path, "a,b\n", "%d,%s\n", columns)
        lines = "".join(f"{i},x{i}\n" for i in range(n_rows))
        assert path.read_bytes() == ("a,b\n" + lines).encode()
        cli._write_rows(path, "", "%d %s\n", columns)
        assert path.read_bytes() == lines.replace(",", " ").encode()


def oracle_surface(solution):
    """surface.csv written one formatted cell and one joined row at a time."""
    cell = "{:.17g}".format
    g = solution.grid
    lines = ["t,state,value,rho,region"]
    for i, t in enumerate(g.times.tolist()):
        for j, state in enumerate(g.states.tolist()):
            row = [cell(t), cell(state), cell(solution.surface[i, j].item())]
            if i < g.n_steps:
                region = "jump" if solution.region[i, j] else "no-jump"
                row += [cell(solution.control[i, j].item()), region]
            else:
                row += ["", ""]
            lines.append(",".join(row))
    return "".join(line + "\n" for line in lines).encode()


def oracle_tables(out, solution, path):
    """The four text artifacts, written by the oracle into the directory out."""
    cell = "{:.17g}".format
    (out / "surface.csv").write_bytes(oracle_surface(solution))
    columns = [
        path.times, path.theta, path.wealth, path.density, path.regulator,
        path.dual_state,
    ]
    rows = [[cell(c[k].item()) for c in columns] for k in range(path.times.size)]
    claims = [str(int(n)) for n in path.claim_flag]
    for name, header, lines in [
        ("path.csv", ["t,theta,wealth,density,regulator,dual_state,claim"],
         [",".join([*row, n]) for row, n in zip(rows, claims)]),
        ("strategy.dat", [], [f"{row[0]} {row[1]}" for row in rows]),
        ("wealth.dat", [], [f"{row[0]} {row[2]}" for row in rows]),
    ]:
        text = "".join(line + "\n" for line in header + lines)
        (out / name).write_bytes(text.encode())


def assert_same_text_artifacts(a, b):
    for name in ("surface.csv", "path.csv", "strategy.dat", "wealth.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestArtifactText:
    @pytest.mark.parametrize(
        "fixture", ["dear_refined_solution", "obstacle_regime_solution"]
    )
    def test_matches_oracle(self, fixture, two_claims, request, tmp_path):
        sol = request.getfixturevalue(fixture)
        path = policy.evolve_path(sol, two_claims, 1.0)
        written, oracle = tmp_path / "written", tmp_path / "oracle"
        written.mkdir()
        oracle.mkdir()
        cli._write_tables(str(written), sol, path)
        oracle_tables(oracle, sol, path)
        assert_same_text_artifacts(written, oracle)

    def test_no_refine_run_matches_oracle(self, tmp_path, monkeypatch):
        tables = []
        real = cli._write_tables

        def capture(out, solution, path):
            tables.append((solution, path))
            real(out, solution, path)

        monkeypatch.setattr(cli, "_write_tables", capture)
        written, oracle = tmp_path / "written", tmp_path / "oracle"
        assert main(["--no-refine", "--out", str(written)]) == 0
        oracle.mkdir()
        oracle_tables(oracle, *tables[0])
        assert_same_text_artifacts(written, oracle)

    def test_hand_made_tables(self, dear_params, tmp_path):
        # every ladder candidate under both region labels, and values %g
        # writes in fixed form and in exponent form, in every float column
        controls = scheme.make_control_set(dear_params, count=7)
        k = controls.candidates.size
        g = grid.build_uniform(1, 2 * k + 1, dear_params.T)
        extremes = [-0.0, 5e-324, 1e-5, 0.5, 1e17, 1.7976931348623157e308]
        values = (extremes * g.n_nodes)[: 2 * g.n_nodes]
        sol = howard.DiscreteSolution(
            grid=g,
            params=dear_params,
            controls=controls,
            surface=np.array(values).reshape(2, g.n_nodes),
            control=np.repeat(controls.candidates, 2)[None, :],
            region=np.tile([False, True], k)[None, :],
        )
        column = [np.roll(extremes, shift) for shift in range(6)]
        index = np.zeros(6, dtype=np.int64)
        path = policy.PolicyPath(
            times=column[0], density=column[1], regulator=column[2],
            dual_state=column[3], state_index=index, jump_state_index=index,
            regulated_state_index=index, theta=column[4], wealth=column[5],
            claim_flag=np.array([0, 1, 2, 3, 255, 0], dtype=np.uint8),
            y_init=1.0, j_init=0,
        )
        written, oracle = tmp_path / "written", tmp_path / "oracle"
        written.mkdir()
        oracle.mkdir()
        cli._write_tables(str(written), sol, path)
        oracle_tables(oracle, sol, path)
        assert_same_text_artifacts(written, oracle)
        texts = {
            "-0", "4.9406564584124654e-324", "1.0000000000000001e-05", "0.5",
            "1e+17", "1.7976931348623157e+308",
        }
        lines = (written / "path.csv").read_text().splitlines()[1:]
        for j in range(6):
            assert {line.split(",")[j] for line in lines} == texts
        lines = (written / "surface.csv").read_text().splitlines()[1:]
        assert {line.split(",")[2] for line in lines} == texts
        rows = [line.split(",")[3:] for line in lines]
        assert {(float(rho), region) for rho, region in rows[:-g.n_nodes]} == {
            (rho, region) for rho in controls.candidates.tolist()
            for region in ("jump", "no-jump")
        }
        assert all(row == ["", ""] for row in rows[-g.n_nodes:])

    @pytest.mark.parametrize("rho", [1.5, 1e9, np.nan])
    def test_off_ladder_control_refused(self, dear_params, tmp_path, rho):
        # a control is written by its ladder index, so one that is no
        # candidate would take its neighbour's text; it is refused by value
        controls = scheme.make_control_set(dear_params, count=7)
        g = grid.build_uniform(1, 6, dear_params.T)
        control = np.ones((1, g.n_nodes))
        control[0, 2] = rho
        assert rho not in controls.candidates
        sol = howard.DiscreteSolution(
            grid=g,
            params=dear_params,
            controls=controls,
            surface=np.zeros((2, g.n_nodes)),
            control=control,
            region=np.zeros((1, g.n_nodes), dtype=bool),
        )
        with pytest.raises(ValueError, match=f"control {rho} is not a ladder candidate"):
            cli._write_surface(str(tmp_path / "surface.csv"), sol)
