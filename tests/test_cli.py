import json

import pytest

from driftflow import cli
from driftflow.evolution import evolve


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


FAST_DECAY = """
experiment = decay
model = heat

[domain]
dim = 2
lengths = 1,1
cells = 12,12

[time]
dt = 0.005
T = 0.2

[solver]
tol = 1e-12

[steady]
tol = 1e-12
"""

SMALL_DRIFT_DECAY = """
experiment = decay
model = singular-drift
model.c = 0.1

[domain]
dim = 3
lengths = 1,1,1
cells = 8,8,8

[time]
dt = 0.01
T = 0.1

[solver]
tol = 1e-12

[steady]
tol = 1e-12
"""


class TestParse:
    def test_sections_and_dots_are_equivalent(self):
        a = cli.parse_config("experiment = evolve\ndomain.dim = 3\n")
        b = cli.parse_config("experiment = evolve\n[domain]\ndim = 3\n")
        assert a == b == {"experiment": "evolve", "domain.dim": "3"}

    def test_comments_and_blank_lines(self):
        cfg = cli.parse_config("# top\nexperiment = steady  # trailing\n\n")
        assert cfg["experiment"] == "steady"

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("experiment = evolve\nwhatever = 3\n")
        assert "line 2" in str(info.value)

    def test_missing_equals(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("experiment evolve\n")

    def test_empty_config_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("")

    def test_model_params_pass_through(self):
        cfg = cli.parse_config("experiment = evolve\nmodel.c = 0.1\n")
        assert cfg["model.c"] == "0.1"


class TestRun:
    def test_decay_run_produces_manifest_and_passes(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        data = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert data["passed"] is True
        assert "decay_report.json" in data["outputs"]
        assert "y_series.csv" in data["outputs"]
        assert data["skipped"] == {}

    def test_manifest_names_skipped_checks(self, tmp_path):
        # below dimension 3 the small-data certificate cannot hold, so the
        # two checks resting on it do not run; the manifest says so and why
        text = SMALL_DRIFT_DECAY.replace("dim = 3", "dim = 2")
        text = text.replace("lengths = 1,1,1", "lengths = 1,1").replace("cells = 8,8,8", "cells = 12,12")
        outdir = tmp_path / "out"
        manifest = cli.run(write_cfg(tmp_path, text), output_dir=outdir)
        data = json.loads((outdir / "run_manifest.json").read_text())
        assert set(data["skipped"]) == {"lyapunov_monotone", "rate_at_least_certified"}
        assert all("dimension 3" in reason for reason in data["skipped"].values())
        assert data["checks"] == {"energy_inequality": True}
        assert data["passed"] is manifest.passed is True

    def test_manifest_lists_every_file(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        outdir = tmp_path / "out"
        cli.run(path, output_dir=outdir)
        data = json.loads((outdir / "run_manifest.json").read_text())
        on_disk = sorted(
            str(p.relative_to(outdir))
            for p in outdir.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        )
        assert data["outputs"] == on_disk

    def test_determinism_bit_identical(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        cli.run(path, output_dir=tmp_path / "a")
        cli.run(path, output_dir=tmp_path / "b")
        for name in ("trace.csv", "y_series.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            FAST_DECAY,
            "experiment = evolve\nmodel = manufactured\ndomain.cells = 8,8\n"
            "time.dt = 0.01\ntime.T = 0.05\nevolve.refine = 1\n",
            "experiment = continuation\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 8,8\ntime.dt = 0.01\ntime.T = 0.05\n",
        ],
        ids=["decay", "evolve", "continuation"],
    )
    def test_manifest_records_phase_timings(self, tmp_path, text):
        outdir = tmp_path / "out"
        manifest = cli.run(write_cfg(tmp_path, text), output_dir=outdir)
        timings = json.loads((outdir / "run_manifest.json").read_text())["timings"]
        assert timings == manifest.timings
        assert set(timings) == {"setup_s", "march_s", "write_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= manifest.wall_time_s
        # wall times stay out of every CSV the run writes
        for path in outdir.glob("*.csv"):
            header = path.read_text(encoding="utf-8").splitlines()[0]
            assert not any(key in header for key in timings), path.name

    def test_override(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        manifest = cli.run(
            path, output_dir=tmp_path / "out", overrides={"time.T": "0.1"}
        )
        assert manifest.config["time.T"] == "0.1"

    @pytest.mark.parametrize("text", [FAST_DECAY, SMALL_DRIFT_DECAY], ids=["heat", "drift3d"])
    def test_decay_trace_matches_standalone_evolve(self, tmp_path, text):
        # the decay run writes the trajectory it fitted, not a second march
        cli.run(write_cfg(tmp_path, text), output_dir=tmp_path / "out")
        cfg = cli.parse_config(text)
        data = cli._build_problem(cfg)
        _, trace = evolve(data, cli._build_evolution(cfg, data))
        trace.write_csv(tmp_path / "standalone.csv")
        assert (tmp_path / "out" / "trace.csv").read_bytes() == (
            tmp_path / "standalone.csv"
        ).read_bytes()

    def test_unknown_model_parameter_rejected(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_DRIFT_DECAY.replace("model.c =", "model.cc ="))
        with pytest.raises(cli.ConfigError, match="'cc'"):
            cli.run(path, output_dir=tmp_path / "out")

    def test_unknown_override_rejected(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        with pytest.raises(cli.ConfigError):
            cli.run(path, output_dir=tmp_path / "out", overrides={"nope": "1"})

    def test_verify_hypotheses_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = verify-hypotheses\ndomain.cells = 8,8\ntime.T = 0.3\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert set(report) == set(
            ["heat", "variable-diffusion", "lipschitz-nonlinear", "singular-drift", "manufactured"]
        )

    def test_uniqueness_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = uniqueness\nmodel = heat\ndomain.cells = 10,10\n"
            "time.dt = 0.005\ntime.T = 0.05\nsolver.tol = 1e-12\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed

    def test_steady_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = steady\nmodel = manufactured\ndomain.cells = 12,12\n"
            "time.T = 0.3\nsteady.tol = 1e-11\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        assert (tmp_path / "out" / "steady_state.csv").exists()

    def test_lorentz_report_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = lorentz-report\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 12,12\ntime.T = 0.1\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        report = json.loads((tmp_path / "out" / "lorentz_report.json").read_text())
        assert report["weak_norm"] > 0
        assert report["certificates"]

    def test_continuation_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = continuation\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 12,12\ntime.dt = 0.002\ntime.T = 0.05\n"
            "solver.tol = 1e-12\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed

    def test_bundled_presets_resolve(self):
        names = cli.list_presets()
        assert "heat_decay" in names
        assert cli.resolve_config_path("heat_decay").is_file()

    def test_custom_drift_field_from_file(self, tmp_path):
        import numpy as np
        from driftflow import grid as G

        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        b = G.sample(dom, lambda c: 0.4 + 0.2 * np.sin(np.pi * c[0]))
        field_path = tmp_path / "drift.csv"
        G.save_grid_function(field_path, b)
        path = write_cfg(
            tmp_path,
            "experiment = lorentz-report\nmodel = singular-drift\n"
            f"model.drift_file = {field_path}\n"
            "domain.cells = 12,12\ntime.T = 0.1\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        report = json.loads((tmp_path / "out" / "lorentz_report.json").read_text())
        assert report["max_value"] == pytest.approx(b.max_abs())


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FAST_DECAY)
        code = cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_exit_one_on_failed_check(self, tmp_path, capsys):
        # two levels far below the drift's size never saturate, so the last
        # two continuation states still differ
        text = (
            "experiment = continuation\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 8,8\ntime.dt = 0.01\ntime.T = 0.05\n"
            "truncation.m0 = 0.01\ntruncation.levels = 2\n"
        )
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] saturated_levels_agree" in out
        assert "continuation: FAIL" in out

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "")
        assert cli.main(["run", str(path)]) == 2

    def test_exit_two_on_unknown_model_parameter(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FAST_DECAY)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", "model.c=0.1"]) == 2
        assert "'c'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("solver", "method", "newton"),
            ("solver", "relaxation", "0.5"),
            ("solver", "energy_tol", "1e9"),
            ("output", "formats", "csv"),
        ],
    )
    def test_exit_two_on_removed_solver_method(self, tmp_path, capsys, section, name, value):
        # the Newton option, the damping and energy tolerances and the output
        # formats are gone; a config that still sets one fails
        path = write_cfg(tmp_path, FAST_DECAY + f"[{section}]\n{name} = {value}\n")
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"'{section}.{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("solver.tol", "abc"),
            ("solver.tol", "-1"),
            ("solver.max_iter", "2.5"),
            ("time.dt", "x"),
            ("time.splitting", "sideways"),
            ("domain.cells", "8,x"),
            ("steady.time", "soon"),
            ("uniqueness.amplitude", "big"),
            ("truncation.factor", "0.5"),
            ("truncation.m0", "-3"),
        ],
    )
    def test_exit_two_on_malformed_value(self, tmp_path, capsys, key, value):
        # each used to escape as a traceback with exit code 1, except a
        # nonpositive m0, which the plan silently replaced by 1
        experiment = "uniqueness" if key.startswith("uniqueness") else "decay"
        base = SMALL_DRIFT_DECAY if key.startswith("truncation") else FAST_DECAY
        text = base.replace("experiment = decay", f"experiment = {experiment}")
        path = write_cfg(tmp_path, text)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"{key}={value}"]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("solver.tol", "inf"),
            ("steady.tol", "inf"),
            ("time.T", "inf"),
            ("time.dt", "nan"),
            ("domain.lengths", "1,inf"),
            ("steady.time", "inf"),
            ("uniqueness.amplitude", "nan"),
            ("truncation.factor", "inf"),
            ("truncation.m0", "nan"),
        ],
    )
    def test_exit_two_on_non_finite_value(self, tmp_path, capsys, key, value):
        # solver.tol = inf ran every resolve with zero iterations and ended
        # "decay: FAIL", steady.tol = inf ended "decay: pass", and time.T = inf
        # escaped as an OverflowError traceback
        experiment = "uniqueness" if key.startswith("uniqueness") else "decay"
        base = SMALL_DRIFT_DECAY if key.startswith("truncation") else FAST_DECAY
        text = base.replace("experiment = decay", f"experiment = {experiment}")
        path = write_cfg(tmp_path, text)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"{key}={value}"]) == 2
        assert f"bad value {value!r} for '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, name, value",
        [
            ("lipschitz-nonlinear", "beta", "inf"),
            ("lipschitz-nonlinear", "beta", "nan"),
            ("variable-diffusion", "alpha", "nan"),
            ("variable-diffusion", "beta", "inf"),
            ("singular-drift", "direction", "1,nan"),
            ("singular-drift", "direction", "0,0"),
        ],
    )
    def test_exit_two_on_non_finite_model_parameter(self, tmp_path, capsys, model, name, value):
        # beta = inf or nan used to reach the solver and fail there
        path = write_cfg(tmp_path, FAST_DECAY.replace("model = heat", f"model = {model}"))
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"model.{name}={value}"]) == 2
        assert f"model.{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["-5", "nan", "inf"])
    def test_exit_two_on_bad_drift_coefficient(self, tmp_path, capsys, c):
        # model.c = -5 used to run and end "decay: pass"
        path = write_cfg(tmp_path, SMALL_DRIFT_DECAY)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"model.c={c}"]) == 2
        assert "model.c must be finite and nonnegative" in capsys.readouterr().err

    def test_exit_two_on_verify_hypotheses_model_parameter(self, tmp_path, capsys):
        text = "experiment = verify-hypotheses\ndomain.cells = 8,8\nmodel.cc = 5\n"
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert "'model.cc'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["other_grid", "negative", "nan"])
    def test_exit_two_on_bad_drift_file(self, tmp_path, capsys, case):
        # a field from a 16x16 grid used to be resampled onto the 8x8 run by
        # nearest-node lookup, and bad values went straight into the clamp
        import numpy as np
        from driftflow import grid as G

        n = 16 if case == "other_grid" else 8
        b = G.sample(G.BoxDomain(2, (1.0, 1.0), (n, n)), lambda c: 0.4 + 0.2 * c[0])
        b.values[2, 3] = {"other_grid": 0.5, "negative": -0.1, "nan": np.nan}[case]
        field_path = tmp_path / "drift.csv"
        G.save_grid_function(field_path, b)
        text = (
            "experiment = evolve\nmodel = singular-drift\n"
            f"model.drift_file = {field_path}\n"
            "domain.cells = 8,8\ntime.dt = 0.01\ntime.T = 0.05\n"
        )
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "model.drift_file" in err
        assert {"other_grid": "lives on", "negative": "negative", "nan": "non-finite"}[case] in err

    def test_exit_two_on_missing_file(self):
        assert cli.main(["run", "/nonexistent/x.cfg"]) == 2

    def test_exit_three_on_solver_failure(self, tmp_path):
        # nonlinear resolve cannot finish in one sweep
        text = (
            "experiment = evolve\nmodel = lipschitz-nonlinear\n"
            "domain.cells = 10,10\ntime.dt = 0.01\ntime.T = 0.05\n"
            "solver.tol = 1e-13\nsolver.max_iter = 1\n"
        )
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3

    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "singular_drift_continuation" in out


class TestPlots:
    def _decay_outputs(self, tmp_path):
        path = write_cfg(tmp_path, FAST_DECAY)
        outdir = tmp_path / "out"
        cli.run(path, output_dir=outdir)
        return outdir

    def test_decay_plot(self, tmp_path):
        outdir = self._decay_outputs(tmp_path)
        out = cli.emit_plot_data(outdir / "y_series.csv", "decay")
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["reference_slope"] == pytest.approx(
            -2.0 * sidecar["theoretical_omega"]
        )

    def test_energy_plot(self, tmp_path):
        outdir = self._decay_outputs(tmp_path)
        out = cli.emit_plot_data(outdir / "trace.csv", "energy")
        assert out.exists()

    def test_convergence_plot(self, tmp_path):
        cfgtext = """
experiment = evolve
model = manufactured
domain.cells = 8,8
time.dt = 0.01
time.T = 0.1
evolve.refine = 2
solver.tol = 1e-12
"""
        path = write_cfg(tmp_path, cfgtext)
        outdir = tmp_path / "out"
        cli.run(path, output_dir=outdir)
        out = cli.emit_plot_data(outdir / "convergence.csv", "convergence")
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["reference_slope"] == 1.0

    def test_unknown_kind(self, tmp_path):
        outdir = self._decay_outputs(tmp_path)
        with pytest.raises(ValueError):
            cli.emit_plot_data(outdir / "trace.csv", "spectrum")

    def test_empty_trace_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,y\n")
        with pytest.raises(ValueError):
            cli.emit_plot_data(empty, "decay")
