"""Configuration-driven experiment runner.

Config files are flat ``key = value`` text.  Keys may be written with dots
(``domain.cells = 32,32``) or grouped under ``[section]`` headers that
prefix the keys which follow.  ``#`` starts a comment.  Unknown keys are
rejected so typos fail loudly at parse time, and a value that does not
convert or lies out of range is rejected, naming its key, before anything
is built or written, whether or not the experiment reads the key.  What the
experiment needs (the problem, and its evolution or steady settings) is
built and checked before the output directory is created.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 config parse
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, grid, lorentz, models
from .evolution import (
    EvolutionConfig,
    EvolutionTrace,
    continuation,
    evolve,
    uniqueness_harness,
)
from .grid import BoxDomain, ConvergenceError, GridFunction, norm_l2
from .steady import decay_experiment, solve_steady


class ConfigError(ValueError):
    """Raised on malformed config text or values; carries the offending line."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


_MODEL_PREFIX = "model."


def parse_config(text: str) -> dict[str, str]:
    """Parse the dotted-key grammar into a flat string dict."""
    out: dict[str, str] = {}
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"empty key or value in {line!r}", line_no)
        full = f"{section}.{key}" if section else key
        if full not in _KEYS and not full.startswith(_MODEL_PREFIX):
            raise ConfigError(f"unknown key {full!r}", line_no)
        out[full] = value
    if "experiment" not in out:
        raise ConfigError("config does not name an experiment")
    return out


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in value.split(","))


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(x) for x in value.split(","))


def _positive(x) -> bool:
    return x > 0


def _nonnegative(x) -> bool:
    return x >= 0


def _finite(x) -> bool:
    """False for a NaN or infinite float, alone or in a tuple."""
    return all(
        math.isfinite(v) for v in (x if isinstance(x, tuple) else (x,))
        if isinstance(v, float)
    )


# Every config key: (default, conversion of its text, range or None).  A
# None default leaves an absent key None, or its reader passes a default
# that depends on the run (`steady.tol`, `domain.lengths`, `domain.cells`).
_KEYS = {
    "experiment": (None, str, lambda s: s in _EXPERIMENTS),
    "model": ("heat", str, lambda s: s in models.builtin_models()),
    "seed": ("0", int, _nonnegative),
    "domain.dim": ("2", int, _positive),
    "domain.lengths": (None, _floats, None),
    "domain.cells": (None, _ints, None),
    "time.dt": ("0.002", float, _positive),
    "time.T": ("0.5", float, _positive),
    "time.splitting": (
        "fully-implicit", str, lambda s: s in ("fully-implicit", "semi-implicit")
    ),
    "truncation.m0": (
        "auto", lambda s: None if s == "auto" else float(s),
        lambda m: m is None or m > 0,
    ),
    "truncation.factor": ("2", float, lambda f: f > 1),
    "truncation.levels": (None, int, _positive),
    "solver.tol": ("1e-12", float, _positive),
    "solver.max_iter": ("400", int, _positive),
    "steady.tol": (None, float, _positive),
    "evolve.refine": ("0", int, _nonnegative),
    "uniqueness.amplitude": ("0.5", float, _positive),
    "output.dir": ("out", str, lambda s: s != ""),
}


def _read(cfg: dict[str, str], key: str, default: str | None = None):
    """cfg[key] (default, else its entry's, if absent) through its `_KEYS` entry.

    An absent key with no default reads None, and a bad value names its key.
    A NaN or infinite number is a bad value for every config key; a model
    parameter (a float, or floats for `model.direction`) reaches its builder,
    which names what it rejects.
    """
    model = key.startswith(_MODEL_PREFIX)
    if model:
        entry_default, valid = None, None
        convert = _floats if key == "model.direction" else float
    else:
        entry_default, convert, valid = _KEYS[key]
    value = cfg.get(key, entry_default if default is None else default)
    if value is None:
        return None
    try:
        x = convert(value)
    except ValueError:
        pass
    else:
        if (model or _finite(x)) and (valid is None or valid(x)):
            return x
    raise ConfigError(f"bad value {value!r} for {key!r}")


@dataclass
class RunManifest:
    """What a run produced; serialized next to the outputs."""

    experiment: str
    config: dict[str, str]
    seed: int
    version: str
    wall_time_s: float = 0.0
    outputs: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    # checks the experiment did not run, each with the reason; `passed`
    # reads `checks` alone
    skipped: dict[str, str] = field(default_factory=dict)
    # wall seconds per phase (`_Laps`): `setup_s` in every experiment, and
    # `march_s` and `write_s` in evolve, continuation, uniqueness and decay;
    # they vary run to run, so no CSV carries them
    timings: dict[str, float] = field(default_factory=dict)
    # each counter column of the traces (`EvolutionTrace.counter_totals`),
    # summed over every march of those experiments (a uniqueness run
    # marches twice and writes no trace; a continuation level that reuses
    # another's march adds none)
    solver_totals: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def write(self, outdir: Path) -> Path:
        # list every file actually present so nothing ships unrecorded
        self.outputs = sorted(
            str(p.relative_to(outdir))
            for p in outdir.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        )
        path = outdir / "run_manifest.json"
        _write_json(path, {**asdict(self), "passed": self.passed})
        return path


def _model_params(cfg: dict[str, str]) -> dict:
    params = {}
    for key, value in cfg.items():
        if key.startswith(_MODEL_PREFIX):
            name = key[len(_MODEL_PREFIX):]
            if name == "drift_file":
                try:
                    params["drift_field"] = grid.load_grid_function(value)
                except (OSError, ValueError) as err:
                    raise ConfigError(f"bad value for {key!r}: {err}") from None
            else:
                params[name] = _read(cfg, key)
    return params


def _build_problem(cfg: dict[str, str]) -> models.ProblemData:
    dim = _read(cfg, "domain.dim")
    lengths = _read(cfg, "domain.lengths", ",".join(["1"] * dim))
    cells = _read(cfg, "domain.cells", ",".join(["32"] * dim))
    try:
        domain = BoxDomain(dim, lengths, cells)
    except ValueError as err:
        raise ConfigError(f"bad 'domain' settings: {err}") from None
    name, horizon = _read(cfg, "model"), _read(cfg, "time.T")
    try:
        return models.make_model(name, domain, horizon, **_model_params(cfg))
    except ValueError as err:
        # a builder names the parameter it rejects first; name its config key
        # (the loaded file reaches the builder as its drift_field parameter)
        msg = str(err)
        param = msg.split(" ", 1)[0]
        key = _MODEL_PREFIX + ("drift_file" if param == "drift_field" else param)
        if key in cfg:
            msg = key + msg[len(param):]
        raise ConfigError(msg) from err


def _build_plan(cfg: dict[str, str], data: models.ProblemData) -> models.TruncationPlan | None:
    """The `truncation.*` schedule with its certificates; None without a drift."""
    if not data.has_drift:
        return None
    return models.make_truncation_plan(
        data,
        m0=_read(cfg, "truncation.m0"),
        factor=_read(cfg, "truncation.factor"),
        count=_read(cfg, "truncation.levels"),
    )


def _build_evolution(cfg: dict[str, str], data: models.ProblemData) -> EvolutionConfig:
    try:
        evo = EvolutionConfig(
            dt=_read(cfg, "time.dt"), splitting=_read(cfg, "time.splitting"),
            truncation=_build_plan(cfg, data),
            tol=_read(cfg, "solver.tol"), max_iter=_read(cfg, "solver.max_iter"),
        )
        evo.steps(data)
    except ValueError as err:
        raise ConfigError(f"bad 'time.dt' or 'time.T': {err}") from None
    return evo


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default),
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


class _Laps:
    """Wall time of consecutive phases, written into a manifest's timings.

    `lap(name)` records the seconds since the previous lap, or since the
    stopwatch started.  `run` starts it before the build and records
    `setup_s` (model, truncation plan and its certificates, and the
    evolution and steady settings); the marching experiments record
    `march_s` (every solve of the experiment) and `write_s` (its output
    files, not the manifest).
    """

    def __init__(self, manifest: RunManifest):
        self.timings = manifest.timings
        self.start = self.last = time.monotonic()

    def lap(self, name: str) -> None:
        now = time.monotonic()
        self.timings[name] = now - self.last
        self.last = now


def _run_evolve(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, evo) -> None:
    final, trace = evolve(data, evo)
    summary = {
        "final_l2": norm_l2(final),
        "energy_violations": trace.violations,
        "measured_bound_constant": trace.measured_bound_constant(),
    }
    if data.exact is not None:
        summary["final_error_l2"] = norm_l2(final - data.exact_grid(data.horizon))
    rows = []
    refine = _read(cfg, "evolve.refine")
    if refine > 0:
        # level 0 is the main march; each further level halves dt and h
        dt, cells = evo.dt, data.domain.cells
        rows.append((dt, data.domain.spacing[0], summary["final_error_l2"]))
        for _ in range(refine):
            dt /= 2
            cells = tuple(2 * n for n in cells)
            dom_k = BoxDomain(data.domain.dim, data.domain.lengths, cells)
            data_k = models.make_model(
                data.name, dom_k, data.horizon, **_model_params(cfg)
            )
            final_k, _ = evolve(data_k, replace(evo, dt=dt, truncation=None))
            err = norm_l2(final_k - data_k.exact_grid(data.horizon))
            rows.append((dt, dom_k.spacing[0], err))
        summary["refinement_errors"] = [r[2] for r in rows]
    laps.lap("march_s")
    trace.write_csv(outdir / "trace.csv")
    manifest.solver_totals = EvolutionTrace.counter_totals([trace])
    if rows:
        with open(outdir / "convergence.csv", "w", encoding="utf-8") as f:
            f.write("tau,h,error\n")
            for row in rows:
                f.write(",".join(repr(x) for x in row) + "\n")
    _write_json(outdir / "evolve_summary.json", summary)
    laps.lap("write_s")
    manifest.checks["energy_inequality"] = trace.violations == 0


def _run_continuation(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, evo) -> None:
    result = continuation(data, evo)
    laps.lap("march_s")
    for lev in result.levels:
        lev.trace.write_csv(outdir / f"trace_M{lev.level:.6g}.csv")
    manifest.solver_totals = EvolutionTrace.counter_totals(
        [lev.trace for lev in result.levels if lev.reuses is None]
    )
    payload = {
        "levels": [lev.level for lev in result.levels],
        "certified": [lev.certified for lev in result.levels],
        "reuses_march_of": [lev.reuses for lev in result.levels],
        "differences": result.differences,
        "nonincreasing": result.differences_nonincreasing,
        "warnings": result.warnings,
        "certificates": [c.as_dict() for c in evo.truncation.certificates],
    }
    _write_json(outdir / "continuation.json", payload)
    laps.lap("write_s")
    manifest.checks["differences_nonincreasing"] = result.differences_nonincreasing
    manifest.checks["saturated_levels_agree"] = result.differences[-1] <= 1e-9
    manifest.checks["energy_inequality"] = all(
        lev.trace.violations == 0 for lev in result.levels
    )


def _run_uniqueness(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, evo) -> None:
    rng = np.random.default_rng(manifest.seed)
    amp = _read(cfg, "uniqueness.amplitude")
    v0 = GridFunction(
        data.domain,
        data.initial.values + amp * rng.standard_normal(data.domain.interior_shape),
    )
    report = uniqueness_harness(data, evo, v0)
    laps.lap("march_s")
    manifest.solver_totals = EvolutionTrace.counter_totals(report.traces)
    _write_json(outdir / "uniqueness_report.json", report.as_dict())
    laps.lap("write_s")
    manifest.checks["gronwall_bound"] = report.bound_satisfied
    if data.has_drift:
        manifest.skipped["contraction_monotone"] = (
            "with drift the scheme need not contract; the Gronwall bound is checked"
        )
    else:
        manifest.checks["contraction_monotone"] = report.contraction_monotone


def _run_steady(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, steady_tol) -> None:
    u_inf, diag = solve_steady(data, steady_tol)
    grid.save_grid_function(outdir / "steady_state.csv", u_inf)
    _write_json(
        outdir / "steady_report.json",
        {
            "iterations": diag.iterations,
            "converged": diag.converged,
            "final_dual_residual": diag.residuals[-1] if diag.residuals else 0.0,
        },
    )
    manifest.checks["steady_converged"] = diag.converged


def _run_decay(
    cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, evo, steady_tol
) -> None:
    # the stationary solve, the march and the rate fit
    report = decay_experiment(data, evo, steady_tol)
    laps.lap("march_s")
    payload = report.as_dict()
    payload["y_series_path"] = "y_series.csv"
    _write_json(outdir / "decay_report.json", payload)
    report.write_series(outdir / "y_series.csv")
    report.trace.write_csv(outdir / "trace.csv")
    manifest.solver_totals = EvolutionTrace.counter_totals([report.trace])
    laps.lap("write_s")
    manifest.checks["energy_inequality"] = report.trace.violations == 0
    if not report.small_data_pass:
        reason = _small_data_failure(report.small_data_detail)
        manifest.skipped["lyapunov_monotone"] = reason
        manifest.skipped["rate_at_least_certified"] = reason
        return
    manifest.checks["lyapunov_monotone"] = report.lyapunov_monotone
    if report.saturated:
        manifest.skipped["rate_at_least_certified"] = (
            "|u - u_inf|^2 sits at the numerical floor over the fit window; "
            "there is no rate to fit"
        )
    else:
        manifest.checks["rate_at_least_certified"] = bool(
            report.fitted_rate >= 0.95 * report.theoretical_omega
        )


def _small_data_failure(detail: dict) -> str:
    """Why the small-data certificate failed, from its detail record."""
    if "reason" in detail:
        return f"small-data certificate fails: {detail['reason']}"
    worst = max(detail["remainder_weak_norm"], detail["truncated_weak_norm"])
    return (
        f"small-data certificate fails: drift weak-L^N norm {worst:.3e} "
        f"exceeds {detail['bound']:.3e} at every level"
    )


def _run_verify_hypotheses(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data) -> None:
    # every catalog model, with its default parameters, on the run's grid
    reports = {}
    for name in models.builtin_models():
        model = models.make_model(name, data.domain, data.horizon)
        reports[name] = models.verify_hypotheses(model, seed=manifest.seed).as_dict()
    _write_json(outdir / "hypotheses.json", reports)
    for name, rep in reports.items():
        manifest.checks[f"hypotheses_{name}"] = rep["passed"]


def _run_lorentz_report(cfg, outdir: Path, manifest: RunManifest, laps: _Laps, data, plan) -> None:
    b = data.drift_bound_grid(0.0)
    N = data.domain.dim
    bmax = b.max_abs()
    levels = [bmax * f for f in (0.1, 0.25, 0.5, 0.75, 1.0)] if bmax > 0 else []
    payload = {
        "model": data.name,
        # weak-L^N, the space of the certificates, in every dimension
        "weak_norm": lorentz.weak_norm_of_values(b.values, data.domain.node_weight, N),
        "max_value": bmax,
        "distance_ladder": (
            {
                "levels": levels,
                "weak_norms": lorentz.dist_to_bounded(b, N, levels),
            }
            if levels
            else None
        ),
    }
    if plan is not None:
        payload["certificates"] = [c.as_dict() for c in plan.certificates]
    _write_json(outdir / "lorentz_report.json", payload)
    manifest.checks["report_written"] = True


class _Experiment(NamedTuple):
    """An experiment and what `run` builds for it besides the problem.

    `march` builds `evo`, the `EvolutionConfig` with its truncation plan
    and checked step count; `plan` builds the plan alone; a `steady_tol`
    builds the float `steady_tol`, the key `steady.tol` read with that
    default, which the experiment passes to the stationary solve (frozen at
    `time.T`, the problem's horizon).  `run` passes each as a keyword of
    that name.
    """

    run: Callable[..., None]
    march: bool = False
    plan: bool = False
    steady_tol: str | None = None


_EXPERIMENTS = {
    "evolve": _Experiment(_run_evolve, march=True),
    "continuation": _Experiment(_run_continuation, march=True),
    "uniqueness": _Experiment(_run_uniqueness, march=True),
    "steady": _Experiment(_run_steady, steady_tol="1e-11"),
    "decay": _Experiment(_run_decay, march=True, steady_tol="1e-12"),
    "verify-hypotheses": _Experiment(_run_verify_hypotheses),
    "lorentz-report": _Experiment(_run_lorentz_report, plan=True),
}


def resolve_config_path(name: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled preset."""
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("driftflow").joinpath("presets", f"{name}.cfg")
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"no config file or preset named {name!r}")


def list_presets() -> list[str]:
    folder = resources.files("driftflow").joinpath("presets")
    return sorted(p.name[: -len(".cfg")] for p in folder.iterdir() if p.name.endswith(".cfg"))


def run(
    config_path,
    output_dir=None,
    seed: int | None = None,
    overrides: dict[str, str] | None = None,
) -> RunManifest:
    """Execute the experiment named by a config file and write its outputs.

    Everything the experiment needs is built and checked before the output
    directory is created, so a run refused with a `ConfigError` writes nothing.
    """
    path = resolve_config_path(str(config_path))
    cfg = parse_config(path.read_text(encoding="utf-8"))
    if overrides:
        for key, value in overrides.items():
            if key not in _KEYS and not key.startswith(_MODEL_PREFIX):
                raise ConfigError(f"unknown override key {key!r}")
            cfg[key] = value
    # every key present, read by the experiment or not, before any solve
    for key in cfg:
        if not key.startswith(_MODEL_PREFIX):
            _read(cfg, key)
    name = cfg["experiment"]
    experiment = _EXPERIMENTS[name]
    # a --seed takes the place of the config's seed
    seed = _read(cfg if seed is None else {"seed": str(seed)}, "seed")
    outdir = Path(output_dir if output_dir is not None else _read(cfg, "output.dir"))
    manifest = RunManifest(experiment=name, config=dict(cfg), seed=seed, version=__version__)
    laps = _Laps(manifest)
    if name == "verify-hypotheses":
        # it checks every catalog model with its default parameters
        for key in cfg:
            if key.startswith(_MODEL_PREFIX):
                raise ConfigError(f"verify-hypotheses takes no model parameters, got {key!r}")
    data = _build_problem(cfg)
    if name == "evolve" and _read(cfg, "evolve.refine") > 0 and data.exact is None:
        raise ConfigError(
            f"'evolve.refine' needs a model with an exact solution; {data.name!r} has none"
        )
    # a continuation compares two or more levels of a drift's plan
    if name == "continuation" and not data.has_drift:
        raise ConfigError(f"a continuation needs a 'model' with a drift; {data.name!r} has none")
    if name == "continuation" and _read(cfg, "truncation.levels") == 1:
        raise ConfigError("a continuation needs 'truncation.levels' >= 2, got 1")
    built = {}
    if experiment.steady_tol is not None:
        built["steady_tol"] = _read(cfg, "steady.tol", experiment.steady_tol)
    if experiment.march:
        built["evo"] = _build_evolution(cfg, data)
    if experiment.plan:
        built["plan"] = _build_plan(cfg, data)
    laps.lap("setup_s")
    outdir.mkdir(parents=True, exist_ok=True)
    experiment.run(cfg, outdir, manifest, laps, data, **built)
    manifest.wall_time_s = time.monotonic() - laps.start
    manifest.write(outdir)
    return manifest


# ---------------------------------------------------------------------------
# Plot-ready data
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"trace {path} has no data rows")
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


# the columns each plot kind reads from its file
_PLOT_COLUMNS = {
    "energy": ("t", "l2_norm", "cumulative_dissipation"),
    "decay": ("t", "y"),
    "convergence": ("tau", "error"),
}


def emit_plot_data(trace_path, kind: str, out_path=None) -> Path:
    """Write two-column (x, y) plot data plus a JSON sidecar of references."""
    trace_path = Path(trace_path)
    if kind not in _PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {kind!r}")
    header, rows = _read_csv(trace_path)
    for name in _PLOT_COLUMNS[kind]:
        if name not in header:
            raise ValueError(f"{kind} plots need the column {name!r}; {trace_path} has none")
    out = (
        Path(out_path)
        if out_path is not None
        else trace_path.with_name(trace_path.stem + f"_{kind}_plot.csv")
    )
    sidecar: dict = {"kind": kind, "source": trace_path.name}
    cols = {name: i for i, name in enumerate(header)}
    if kind == "energy":
        xy = [(r[cols["t"]], 0.5 * r[cols["l2_norm"]] ** 2) for r in rows]
        sidecar["final_cumulative_dissipation"] = rows[-1][cols["cumulative_dissipation"]]
        sidecar["max_l2"] = max(r[cols["l2_norm"]] for r in rows)
    elif kind == "decay":
        xy = [
            (r[cols["t"]], math.log(r[cols["y"]]))
            for r in rows
            if r[cols["y"]] > 0
        ]
        report = trace_path.with_name("decay_report.json")
        if report.exists():
            rep = json.loads(report.read_text(encoding="utf-8"))
            sidecar["reference_slope"] = -2.0 * rep["theoretical_omega"]
            sidecar["fitted_rate"] = rep["fitted_rate"]
            sidecar["theoretical_omega"] = rep["theoretical_omega"]
    else:
        xy = [
            (math.log(r[cols["tau"]]), math.log(r[cols["error"]]))
            for r in rows
            if r[cols["error"]] > 0
        ]
        sidecar["reference_slope"] = 1.0
    with open(out, "w", encoding="utf-8") as f:
        f.write("x,y\n")
        for x, y in xy:
            f.write(f"{x!r},{y!r}\n")
    out.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True), encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftflow",
        description="Run drift-diffusion solver experiments from config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config or preset")
    p_run.add_argument("config", help="path to a config file or a bundled preset name")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )

    p_plot = sub.add_parser("plot", help="emit plot-ready data from a trace")
    p_plot.add_argument("trace")
    p_plot.add_argument("--kind", required=True, choices=tuple(_PLOT_COLUMNS))
    p_plot.add_argument("--out", default=None)

    sub.add_parser("presets", help="list bundled experiment presets")

    args = parser.parse_args(argv)
    if args.command == "presets":
        for name in list_presets():
            print(name)
        return 0
    if args.command == "plot":
        try:
            out = emit_plot_data(args.trace, args.kind, args.out)
        except (ValueError, FileNotFoundError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(out)
        return 0
    overrides = {}
    for item in args.override:
        if "=" not in item:
            print(f"error: override {item!r} is not KEY=VALUE", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        manifest = run(
            args.config,
            output_dir=args.output_dir,
            seed=args.seed,
            overrides=overrides,
        )
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    status = "pass" if manifest.passed else "FAIL"
    for name, ok in manifest.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    for name, reason in manifest.skipped.items():
        print(f"  [skip] {name}: {reason}")
    print(f"{manifest.experiment}: {status} ({manifest.wall_time_s:.2f}s)")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
