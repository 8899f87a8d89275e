import json
from pathlib import Path

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

CONTINUATION = """
experiment = continuation
model = singular-drift
model.c = 0.08
domain.cells = 8,8
time.dt = 0.01
time.T = 0.05
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

    def test_readme_config_reference_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config format", 1)[1]
        block = section.split("```\n", 2)[1]
        keys = {k for k in cli.parse_config(block) if not k.startswith("model.")}
        assert keys == set(cli._KEYS)

    def test_readme_python_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n", 1)[1].split("```\n", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

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
        # below dimension 3 the small-data certificate cannot hold, and with
        # c = 0.3 on 8^3 the drift is too large at every level, so the two
        # checks resting on it do not run; a heat decay whose y reaches the
        # numerical floor before the fit window has no rate to fit.  The
        # manifest says which check did not run and why.
        text = SMALL_DRIFT_DECAY.replace("dim = 3", "dim = 2")
        text = text.replace("lengths = 1,1,1", "lengths = 1,1").replace("cells = 8,8,8", "cells = 12,12")
        small_data = {"lyapunov_monotone", "rate_at_least_certified"}
        cases = [
            (text, small_data, "dimension 3", {"energy_inequality": True}),
            (
                SMALL_DRIFT_DECAY.replace("model.c = 0.1", "model.c = 0.3"),
                small_data,
                "at every level",
                {"energy_inequality": True},
            ),
            (
                FAST_DECAY.replace("cells = 12,12", "cells = 8,8")
                .replace("dt = 0.005", "dt = 0.05")
                .replace("T = 0.2", "T = 2.5"),
                {"rate_at_least_certified"},
                "numerical floor",
                {"energy_inequality": True, "lyapunov_monotone": True},
            ),
        ]
        for k, (config, skipped, reason, checks) in enumerate(cases):
            outdir = tmp_path / f"out{k}"
            manifest = cli.run(write_cfg(tmp_path, config), output_dir=outdir)
            data = json.loads((outdir / "run_manifest.json").read_text())
            assert set(data["skipped"]) == skipped
            assert all(reason in why for why in data["skipped"].values())
            assert data["checks"] == checks
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
    def test_manifest_solver_totals_are_the_trace_csv_sums(self, tmp_path, text):
        outdir = tmp_path / "out"
        manifest = cli.run(write_cfg(tmp_path, text), output_dir=outdir)
        totals = json.loads((outdir / "run_manifest.json").read_text())["solver_totals"]
        assert totals == manifest.solver_totals
        sums = dict.fromkeys(
            ("resolvent_iters", "backtracks", "mixed_steps", "rejected_mixes"), 0
        )
        traces = sorted(outdir.glob("trace*.csv"))
        if "continuation" in text:
            report = json.loads((outdir / "continuation.json").read_text())
            assert len(traces) == len(report["levels"]) > 1
            # a level that reuses another's march adds no solves
            reused = {
                f"trace_M{level:.6g}.csv"
                for level, source in zip(report["levels"], report["reuses_march_of"])
                if source is not None
            }
            assert reused
            traces = [p for p in traces if p.name not in reused]
        else:
            assert [p.name for p in traces] == ["trace.csv"]
        for path in traces:
            header, rows = cli._read_csv(path)
            for name in sums:
                sums[name] += sum(int(row[header.index(name)]) for row in rows)
        assert totals == sums
        assert totals["resolvent_iters"] > 0

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

    def test_refinement_reuses_the_main_march_as_level_zero(self, tmp_path, monkeypatch):
        # level 0 of the ladder is the main march's grid, dt and model, so
        # only the finer levels march again: 2 marches at refine 1, not 3
        marches = []

        def counted(data, cfg, **kw):
            marches.append((data.domain.cells, cfg.dt))
            return evolve(data, cfg, **kw)

        monkeypatch.setattr(cli, "evolve", counted)
        text = (
            "experiment = evolve\nmodel = manufactured\ndomain.cells = 8,8\n"
            "time.dt = 0.01\ntime.T = 0.05\nevolve.refine = 1\n"
        )
        outdir = tmp_path / "out"
        cli.run(write_cfg(tmp_path, text), output_dir=outdir)
        assert marches == [((8, 8), 0.01), ((16, 16), 0.005)]
        summary = json.loads((outdir / "evolve_summary.json").read_text())
        assert summary["refinement_errors"][0] == summary["final_error_l2"]
        rows = (outdir / "convergence.csv").read_text().splitlines()
        assert rows[1] == f"0.01,0.125,{summary['final_error_l2']!r}"

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
        # the build is timed in every experiment; only a march has more phases
        assert set(manifest.timings) == {"setup_s"}
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

    def test_uniqueness_manifest_says_how_much_work_both_marches_did(
        self, tmp_path, monkeypatch
    ):
        reports = []
        harness = cli.uniqueness_harness

        def kept(*args, **kw):
            reports.append(harness(*args, **kw))
            return reports[-1]

        monkeypatch.setattr(cli, "uniqueness_harness", kept)
        path = write_cfg(
            tmp_path,
            "experiment = uniqueness\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 8,8\ntime.dt = 0.01\ntime.T = 0.05\n",
        )
        outdir = tmp_path / "out"
        manifest = cli.run(path, output_dir=outdir)
        data = json.loads((outdir / "run_manifest.json").read_text())
        assert set(data["timings"]) == {"setup_s", "march_s", "write_s"}
        (report,) = reports
        assert len(report.traces) == 2
        assert all(len(tr.times) == 5 for tr in report.traces)
        columns = {
            "resolvent_iters": "solver_iterations", "backtracks": "backtracks",
            "mixed_steps": "mixed_steps", "rejected_mixes": "rejected_mixes",
        }
        sums = {
            csv: sum(sum(getattr(tr, name)) for tr in report.traces)
            for csv, name in columns.items()
        }
        assert data["solver_totals"] == manifest.solver_totals == sums
        assert sums["resolvent_iters"] > 0
        # the traces stay out of the report's JSON
        assert json.loads((outdir / "uniqueness_report.json").read_text()) == json.loads(
            json.dumps(report.as_dict())
        )
        assert "traces" not in report.as_dict()

    def test_steady_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = steady\nmodel = manufactured\ndomain.cells = 12,12\n"
            "time.T = 0.3\nsteady.tol = 1e-11\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        assert set(manifest.timings) == {"setup_s"}
        assert manifest.timings["setup_s"] <= manifest.wall_time_s
        assert (tmp_path / "out" / "steady_state.csv").exists()
        # the data is frozen at the horizon, so a shorter time.T moves it
        at = cli.run(path, output_dir=tmp_path / "at", overrides={"time.T": "0.1"})
        assert at.passed
        frozen = (tmp_path / "at" / "steady_state.csv").read_bytes()
        assert frozen != (tmp_path / "out" / "steady_state.csv").read_bytes()

    def test_lorentz_report_experiment(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "experiment = lorentz-report\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 12,12\ntime.T = 0.1\n",
        )
        manifest = cli.run(path, output_dir=tmp_path / "out")
        assert manifest.passed
        assert set(manifest.timings) == {"setup_s"}
        report = json.loads((tmp_path / "out" / "lorentz_report.json").read_text())
        assert report["weak_norm"] > 0
        assert report["certificates"]

    def test_lorentz_report_reads_the_truncation_keys(self, tmp_path):
        # the report used to certify the default schedule whatever the
        # truncation.* keys said
        path = write_cfg(
            tmp_path,
            "experiment = lorentz-report\nmodel = singular-drift\nmodel.c = 0.08\n"
            "domain.cells = 12,12\ntime.T = 0.1\n",
        )
        levels = {}
        for case, overrides in [
            ("default", {}), ("levels", {"truncation.levels": "2"}),
            ("m0", {"truncation.m0": "0.5"}),
        ]:
            cli.run(path, output_dir=tmp_path / case, overrides=overrides)
            report = json.loads((tmp_path / case / "lorentz_report.json").read_text())
            levels[case] = [c["level"] for c in report["certificates"]]
        default = [0.4525, 0.9051, 1.8102, 3.6204, 7.2408]
        assert levels["default"] == pytest.approx(default, abs=1e-4)
        assert levels["levels"] == levels["default"][:2]
        assert levels["m0"][0] == 0.5

    EXPERIMENTS = {
        "evolve": "experiment = evolve\nmodel = manufactured\ndomain.cells = 8,8\n"
        "time.dt = 0.01\ntime.T = 0.05\nevolve.refine = 1\n",
        "continuation": CONTINUATION,
        "uniqueness": CONTINUATION.replace("= continuation", "= uniqueness"),
        "steady": "experiment = steady\nmodel = manufactured\ndomain.cells = 8,8\ntime.T = 0.3\n",
        "decay": SMALL_DRIFT_DECAY,
        "verify-hypotheses": "experiment = verify-hypotheses\ndomain.cells = 8,8\n",
        "lorentz-report": CONTINUATION.replace("= continuation", "= lorentz-report"),
    }

    def test_experiment_cases_cover_every_experiment(self):
        assert set(self.EXPERIMENTS) == set(cli._EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_run_builds_the_problem_once_before_it_writes(
        self, tmp_path, monkeypatch, experiment
    ):
        outdir = tmp_path / "out"
        calls = {"problem": 0, "plan": 0}

        def counted(name, build):
            def wrapper(*args, **kw):
                calls[name] += 1
                # nothing is written until the experiment's inputs are built
                assert not outdir.exists()
                return build(*args, **kw)
            return wrapper

        monkeypatch.setattr(cli, "_build_problem", counted("problem", cli._build_problem))
        monkeypatch.setattr(
            cli.models, "make_truncation_plan", counted("plan", cli.models.make_truncation_plan)
        )
        path = write_cfg(tmp_path, self.EXPERIMENTS[experiment])
        assert cli.run(path, output_dir=outdir).passed
        # the drift runs that march or certify build one plan, the rest none
        drift_plan = experiment in ("continuation", "uniqueness", "decay", "lorentz-report")
        assert calls == {"problem": 1, "plan": int(drift_plan)}

    def test_lorentz_report_norm_does_not_grow_under_refinement_in_1d(self, tmp_path):
        # the report measures b in weak-L^N, the certificates' space: in 1D
        # the weak-L^2 norm it used to print doubled at every 4x refinement
        reports = []
        for cells in (64, 256, 1024):
            path = write_cfg(
                tmp_path,
                "experiment = lorentz-report\nmodel = singular-drift\nmodel.c = 0.1\n"
                f"domain.dim = 1\ndomain.lengths = 1\ndomain.cells = {cells}\n",
            )
            out = tmp_path / f"out{cells}"
            cli.run(path, output_dir=out)
            reports.append(json.loads((out / "lorentz_report.json").read_text()))
        coarse = reports[0]
        assert coarse["weak_norm"] > 0
        for fine in reports[1:]:
            assert fine["max_value"] > 3 * coarse["max_value"]
            assert fine["weak_norm"] == pytest.approx(coarse["weak_norm"], rel=1e-9)
            assert fine["distance_ladder"]["weak_norms"] == pytest.approx(
                coarse["distance_ladder"]["weak_norms"], rel=1e-9, abs=1e-12
            )

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
            ("uniqueness.amplitude", "big"),
            ("truncation.factor", "0.5"),
            ("truncation.m0", "-3"),
            ("seed", "-3"),
            ("evolve.refine", "-4"),
            ("evolve.refine", "2"),
            ("uniqueness.amplitude", "0"),
        ],
    )
    def test_exit_two_on_malformed_value(self, tmp_path, capsys, key, value):
        # each used to escape as a traceback with exit code 1, except a
        # nonpositive m0, which the plan silently replaced by 1, a negative
        # refine or a refine on heat (no exact solution), which wrote no
        # convergence.csv, and a zero amplitude, which passed both uniqueness
        # checks vacuously
        prefix = key.partition(".")[0]
        experiment = prefix if prefix in ("uniqueness", "evolve") else "decay"
        base = SMALL_DRIFT_DECAY if key.startswith("truncation") else FAST_DECAY
        text = base.replace("experiment = decay", f"experiment = {experiment}")
        path = write_cfg(tmp_path, text)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"{key}={value}"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-7", "50"])
    @pytest.mark.parametrize("experiment", ["steady", "decay"])
    def test_exit_two_on_steady_time_outside_the_horizon(
        self, tmp_path, capsys, experiment, value
    ):
        # the stationary problem is frozen at time.T, the problem's horizon;
        # a config that still sets its old second horizon is refused as an
        # unknown key, in or out of [0, time.T], before the run writes
        text = (
            f"experiment = {experiment}\nmodel = manufactured\ndomain.cells = 8,8\n"
            f"time.dt = 0.01\ntime.T = 0.3\nsteady.time = {value}\n"
        )
        outdir = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(outdir)]
        assert cli.main(argv) == 2
        assert "line 6: unknown key 'steady.time'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("model = singular-drift\nmodel.c = 0.08\n", "model = heat\n", "'model'"),
            ("time.T = 0.05\n", "time.T = 0.05\ntruncation.levels = 1\n", "'truncation.levels'"),
        ],
        ids=["drift-free", "one-level"],
    )
    def test_exit_two_on_continuation_with_fewer_than_two_levels(
        self, tmp_path, capsys, old, new, key
    ):
        # a drift-free model (no plan) or a one-level plan used to pass the
        # checks, make the output directory and then escape as a ValueError
        # traceback with exit code 1
        text = CONTINUATION.replace(old, new)
        outdir = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(outdir)]
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("experiment", ["evolve", "decay", "uniqueness", "continuation"])
    def test_exit_two_on_non_integer_step_count(self, tmp_path, capsys, experiment):
        text = CONTINUATION.replace("experiment = continuation", f"experiment = {experiment}")
        outdir = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(outdir)]
        assert cli.main(argv + ["--override", "time.dt=0.03"]) == 2
        assert "integer number of steps" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_two_removes_only_the_directories_the_run_made(self, tmp_path):
        text = CONTINUATION.replace("experiment = continuation", "experiment = evolve")
        path = write_cfg(tmp_path, text)
        overrides = {"time.dt": "0.03"}
        made = tmp_path / "made"
        with pytest.raises(cli.ConfigError):
            cli.run(path, output_dir=made / "a" / "b", overrides=overrides)
        assert not made.exists()
        # a directory that was there before keeps what it held
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note.txt").write_text("mine", encoding="utf-8")
        with pytest.raises(cli.ConfigError):
            cli.run(path, output_dir=kept, overrides=overrides)
        assert [p.name for p in kept.iterdir()] == ["note.txt"]
        with pytest.raises(cli.ConfigError):
            cli.run(path, output_dir=kept / "new", overrides=overrides)
        assert [p.name for p in kept.iterdir()] == ["note.txt"]

    def test_exit_two_on_negative_seed_option(self, tmp_path, capsys):
        # used to end in numpy's "expected non-negative integer" traceback
        text = FAST_DECAY.replace("experiment = decay", "experiment = uniqueness")
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--seed", "-1"]) == 2
        assert "'seed'" in capsys.readouterr().err

    # a value each key rejects, on an experiment that reads the key only
    # where every experiment does (experiment, domain.*, time.T)
    BAD_UNREAD = {
        "experiment": ("decay", "nope"),
        "model": ("verify-hypotheses", "nope"),
        "seed": ("decay", "-3"),
        "domain.dim": ("decay", "0"),
        "domain.lengths": ("decay", "1,x"),
        "domain.cells": ("decay", "8,x"),
        "time.dt": ("steady", "-1"),
        "time.T": ("decay", "0"),
        "time.splitting": ("steady", "sideways"),
        "truncation.m0": ("decay", "-3"),
        "truncation.factor": ("decay", "1"),
        "truncation.levels": ("decay", "0"),
        "solver.tol": ("steady", "-1"),
        "solver.max_iter": ("steady", "2.5"),
        "steady.tol": ("continuation", "-1"),
        "evolve.refine": ("decay", "-4"),
        "uniqueness.amplitude": ("decay", "0"),
        "output.dir": ("decay", ""),
    }

    def test_bad_unread_cases_cover_every_key(self):
        assert set(self.BAD_UNREAD) == set(cli._KEYS)

    @pytest.mark.parametrize("key", sorted(BAD_UNREAD))
    def test_exit_two_on_bad_value_the_experiment_does_not_read(self, tmp_path, capsys, key):
        # a decay run used to end "decay: pass" with truncation.m0 = -3,
        # evolve.refine = -4 or uniqueness.amplitude = 0, and a continuation
        # run with steady.tol = -1; --seed keeps the seed key unread
        experiment, value = self.BAD_UNREAD[key]
        base = CONTINUATION if experiment == "continuation" else FAST_DECAY
        text = base.replace("experiment = decay", f"experiment = {experiment}")
        outdir = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(outdir)]
        assert cli.main(argv + ["--seed", "0", "--override", f"{key}={value}"]) == 2
        assert f"bad value {value!r} for '{key}'" in capsys.readouterr().err
        # rejected before the run made its output directory
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("solver.tol", "inf"),
            ("steady.tol", "inf"),
            ("time.T", "inf"),
            ("time.dt", "nan"),
            ("domain.lengths", "1,inf"),
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["2", "0", "-1"])
    def test_exit_two_on_variable_diffusion_alpha_out_of_range(self, tmp_path, capsys, alpha):
        # alpha = 2 > beta = 1.5 used to exit 2 naming no key
        text = FAST_DECAY.replace("model = heat", "model = variable-diffusion")
        argv = ["run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"model.alpha={alpha}"]) == 2
        assert "model.alpha must satisfy 0 < alpha <= beta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("c", ["-5", "nan", "inf"])
    def test_exit_two_on_bad_drift_coefficient(self, tmp_path, capsys, c):
        # model.c = -5 used to run and end "decay: pass"
        path = write_cfg(tmp_path, SMALL_DRIFT_DECAY)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--override", f"model.c={c}"]) == 2
        assert "model.c must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_verify_hypotheses_model_parameter(self, tmp_path, capsys):
        # a parameter the named model takes is refused too
        for model, key in [("heat", "model.cc = 5"), ("singular-drift", "model.c = 1")]:
            text = f"experiment = verify-hypotheses\nmodel = {model}\ndomain.cells = 8,8\n{key}\n"
            path = write_cfg(tmp_path, text)
            assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
            assert f"'{key.split()[0]}'" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "case, fault",
        [
            ("no_header", "dim, cells, lengths header"),
            ("two_values", "holds 2 values"),
            ("cut_binary", "holds 7 values"),
            ("trailing_comma", "could not convert"),
            ("missing", "No such file"),
        ],
    )
    def test_exit_two_on_malformed_drift_file(self, tmp_path, capsys, case, fault):
        # each used to escape as a traceback or as an error naming no key
        from driftflow import grid as G

        b = G.sample(G.BoxDomain(2, (1.0, 1.0), (8, 8)), lambda c: 0.4 + 0.2 * c[0])
        suffix = ".gfb" if case == "cut_binary" else ".csv"
        field_path = G.save_grid_function(tmp_path / f"drift{suffix}", b)
        lines = field_path.read_bytes().splitlines() if suffix == ".csv" else []
        if case == "no_header":
            field_path.write_bytes(b"\n".join(lines[3:]))
        elif case == "two_values":
            field_path.write_bytes(b"\n".join(lines[:5]))
        elif case == "cut_binary":
            field_path.write_bytes(field_path.read_bytes()[:100])
        elif case == "missing":
            field_path.unlink()
        else:
            lines[5] += b","
            field_path.write_bytes(b"\n".join(lines))
        text = (
            "experiment = evolve\nmodel = singular-drift\n"
            f"model.drift_file = {field_path}\n"
            "domain.cells = 8,8\ntime.dt = 0.01\ntime.T = 0.05\n"
        )
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'model.drift_file'" in err
        assert str(field_path) in err
        assert fault in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "name, kind, column",
        [("y_series.csv", "energy", "l2_norm"), ("trace.csv", "convergence", "tau")],
    )
    def test_exit_two_on_file_without_the_kinds_columns(
        self, tmp_path, capsys, name, kind, column
    ):
        # each used to end in a KeyError traceback with exit 1
        outdir = self._decay_outputs(tmp_path)
        assert cli.main(["plot", str(outdir / name), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert f"{kind} plots need the column {column!r}" in err
        assert not list(outdir.glob(f"*_{kind}_plot.*"))

    def test_empty_trace_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,y\n")
        with pytest.raises(ValueError):
            cli.emit_plot_data(empty, "decay")
