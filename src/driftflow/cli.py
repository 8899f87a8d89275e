"""Configuration-driven experiment runner.

Config files are flat ``key = value`` text.  Keys may be written with dots
(``domain.cells = 32,32``) or grouped under ``[section]`` headers that
prefix the keys which follow.  ``#`` starts a comment.  Unknown keys are
rejected so typos fail loudly at parse time, and a value that does not
convert or lies out of range is rejected, naming its key, before anything
is solved.

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

import numpy as np

from . import __version__, grid, lorentz, models
from .evolution import (
    EvolutionConfig,
    continuation,
    evolve,
    uniqueness_harness,
)
from .grid import BoxDomain, ConvergenceError, GridFunction, norm_l2
from .operators import ResolventConfig
from .steady import SteadyConfig, decay_experiment, solve_steady_detailed


class ConfigError(ValueError):
    """Raised on malformed config text or values; carries the offending line."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


_KNOWN_KEYS = {
    "experiment",
    "model",
    "seed",
    "domain.dim",
    "domain.lengths",
    "domain.cells",
    "time.dt",
    "time.T",
    "time.splitting",
    "truncation.m0",
    "truncation.factor",
    "truncation.levels",
    "solver.tol",
    "solver.max_iter",
    "steady.tol",
    "steady.time",
    "evolve.refine",
    "uniqueness.amplitude",
    "output.dir",
}
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
        if full not in _KNOWN_KEYS and not full.startswith(_MODEL_PREFIX):
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


def _finite(x) -> bool:
    """False for a NaN or infinite float, alone or in a tuple."""
    return all(
        math.isfinite(v) for v in (x if isinstance(x, tuple) else (x,))
        if isinstance(v, float)
    )


def _read(
    cfg: dict[str, str], key: str, default: str | None, convert=float, valid=None
):
    """cfg[key] (default if absent) through convert; a bad value names its key.

    A NaN or infinite number is a bad value for every config key; a model
    parameter reaches its builder, which names what it rejects.
    """
    value = cfg.get(key, default)
    try:
        x = convert(value)
    except ValueError:
        pass
    else:
        finite = key.startswith(_MODEL_PREFIX) or _finite(x)
        if finite and (valid is None or valid(x)):
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
    # wall seconds per phase of the evolve, continuation and decay
    # experiments (`_Laps`); they vary run to run, so no CSV carries them
    timings: dict[str, float] = field(default_factory=dict)

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


def _build_domain(cfg: dict[str, str]) -> BoxDomain:
    dim = _read(cfg, "domain.dim", "2", int, _positive)
    lengths = _read(cfg, "domain.lengths", ",".join(["1"] * dim), _floats)
    cells = _read(cfg, "domain.cells", ",".join(["32"] * dim), _ints)
    try:
        return BoxDomain(dim, lengths, cells)
    except ValueError as err:
        raise ConfigError(f"bad 'domain' settings: {err}") from None


def _model_params(cfg: dict[str, str]) -> dict:
    params = {}
    for key, value in cfg.items():
        if key.startswith(_MODEL_PREFIX):
            name = key[len(_MODEL_PREFIX):]
            if name == "drift_file":
                params["drift_field"] = grid.load_grid_function(value)
            elif name == "direction":
                params["direction"] = _read(cfg, key, None, _floats)
            else:
                params[name] = _read(cfg, key, None)
    return params


def _build_problem(cfg: dict[str, str]) -> models.ProblemData:
    domain = _build_domain(cfg)
    horizon = _read(cfg, "time.T", "0.5", float, _positive)
    name = cfg.get("model", "heat")
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


def _build_evolution(cfg: dict[str, str], data: models.ProblemData) -> EvolutionConfig:
    resolvent = ResolventConfig(
        tol=_read(cfg, "solver.tol", "1e-12", float, _positive),
        max_iter=_read(cfg, "solver.max_iter", "400", int, _positive),
    )
    splitting = _read(
        cfg, "time.splitting", "fully-implicit", str,
        lambda s: s in ("fully-implicit", "semi-implicit"),
    )
    dt = _read(cfg, "time.dt", "0.002", float, _positive)
    horizon = _read(cfg, "time.T", "0.5", float, _positive)
    plan = None
    if data.has_drift:
        plan = models.make_truncation_plan(
            data,
            m0=_read(
                cfg, "truncation.m0", "auto",
                lambda s: None if s == "auto" else float(s),
                lambda m: m is None or m > 0,
            ),
            factor=_read(cfg, "truncation.factor", "2", float, lambda f: f > 1),
            count=(
                _read(cfg, "truncation.levels", None, int, _positive)
                if "truncation.levels" in cfg
                else None
            ),
        )
    try:
        return EvolutionConfig(
            dt=dt, horizon=horizon, splitting=splitting, truncation=plan, resolvent=resolvent
        )
    except ValueError as err:
        raise ConfigError(f"bad 'time.dt' or 'time.T': {err}") from None


def _steady_config(cfg: dict[str, str], default_tol: str) -> SteadyConfig:
    return SteadyConfig(
        tol=_read(cfg, "steady.tol", default_tol, float, _positive),
        time=_read(cfg, "steady.time", "final", lambda s: s if s == "final" else float(s)),
    )


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
    stopwatch started.  The phases are `setup_s` (model, truncation plan
    and its certificates), `march_s` (every solve of the experiment) and
    `write_s` (its output files, not the manifest).
    """

    def __init__(self, manifest: RunManifest):
        self.timings = manifest.timings
        self.last = time.monotonic()

    def lap(self, name: str) -> None:
        now = time.monotonic()
        self.timings[name] = now - self.last
        self.last = now


def _run_evolve(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    laps = _Laps(manifest)
    data = _build_problem(cfg)
    evo = _build_evolution(cfg, data)
    refine = _read(cfg, "evolve.refine", "0", int)
    laps.lap("setup_s")
    final, trace = evolve(data, evo)
    summary = {
        "final_l2": norm_l2(final),
        "energy_violations": trace.violations,
        "measured_bound_constant": trace.measured_bound_constant(),
    }
    if data.exact is not None:
        summary["final_error_l2"] = norm_l2(final - data.exact_grid(evo.horizon))
    rows = []
    if refine > 0 and data.exact is not None:
        dt, cells = evo.dt, data.domain.cells
        for k in range(refine + 1):
            dom_k = BoxDomain(data.domain.dim, data.domain.lengths, cells)
            data_k = models.make_model(
                data.name, dom_k, evo.horizon, **_model_params(cfg)
            )
            evo_k = replace(evo, dt=dt, truncation=None)
            final_k, _ = evolve(data_k, evo_k)
            err = norm_l2(final_k - data_k.exact_grid(evo.horizon))
            rows.append((dt, dom_k.spacing[0], err))
            dt /= 2
            cells = tuple(2 * n for n in cells)
        summary["refinement_errors"] = [r[2] for r in rows]
    laps.lap("march_s")
    trace.write_csv(outdir / "trace.csv")
    if rows:
        with open(outdir / "convergence.csv", "w", encoding="utf-8") as f:
            f.write("tau,h,error\n")
            for row in rows:
                f.write(",".join(repr(x) for x in row) + "\n")
    _write_json(outdir / "evolve_summary.json", summary)
    laps.lap("write_s")
    manifest.checks["energy_inequality"] = trace.violations == 0


def _run_continuation(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    laps = _Laps(manifest)
    data = _build_problem(cfg)
    evo = _build_evolution(cfg, data)
    laps.lap("setup_s")
    result = continuation(data, evo)
    laps.lap("march_s")
    for lev in result.levels:
        lev.trace.write_csv(outdir / f"trace_M{lev.level:.6g}.csv")
    payload = {
        "levels": [lev.level for lev in result.levels],
        "certified": [lev.certified for lev in result.levels],
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


def _run_uniqueness(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    data = _build_problem(cfg)
    evo = _build_evolution(cfg, data)
    rng = np.random.default_rng(seed)
    amp = _read(cfg, "uniqueness.amplitude", "0.5")
    u0 = data.initial
    v0 = GridFunction(
        data.domain,
        u0.values + amp * rng.standard_normal(data.domain.interior_shape),
    )
    report = uniqueness_harness(data, evo, u0, v0)
    _write_json(outdir / "uniqueness_report.json", report.as_dict())
    manifest.checks["gronwall_bound"] = report.bound_satisfied
    if data.has_drift:
        manifest.skipped["contraction_monotone"] = (
            "with drift the scheme need not contract; the Gronwall bound is checked"
        )
    else:
        manifest.checks["contraction_monotone"] = report.contraction_monotone


def _run_steady(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    scfg = _steady_config(cfg, "1e-11")
    data = _build_problem(cfg)
    u_inf, diag = solve_steady_detailed(data, scfg)
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


def _run_decay(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    laps = _Laps(manifest)
    scfg = _steady_config(cfg, "1e-12")
    data = _build_problem(cfg)
    evo = _build_evolution(cfg, data)
    laps.lap("setup_s")
    # the stationary solve, the march and the rate fit
    report = decay_experiment(data, evo, scfg)
    laps.lap("march_s")
    payload = report.as_dict()
    payload["y_series_path"] = "y_series.csv"
    _write_json(outdir / "decay_report.json", payload)
    report.write_series(outdir / "y_series.csv")
    report.trace.write_csv(outdir / "trace.csv")
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


def _run_verify_hypotheses(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    # every catalog model is checked with its default parameters
    for key in cfg:
        if key.startswith(_MODEL_PREFIX):
            raise ConfigError(f"verify-hypotheses takes no model parameters, got {key!r}")
    domain = _build_domain(cfg)
    horizon = _read(cfg, "time.T", "0.5", float, _positive)
    reports = {}
    for name in models.builtin_models():
        data = models.make_model(name, domain, horizon)
        reports[name] = models.verify_hypotheses(data, samples=1000, seed=seed).as_dict()
    _write_json(outdir / "hypotheses.json", reports)
    for name, rep in reports.items():
        manifest.checks[f"hypotheses_{name}"] = rep["passed"]


def _run_lorentz_report(cfg, outdir: Path, seed: int, manifest: RunManifest) -> None:
    data = _build_problem(cfg)
    b = data.drift_bound_grid(0.0)
    N = data.domain.dim
    bmax = b.max_abs()
    levels = [bmax * f for f in (0.1, 0.25, 0.5, 0.75, 1.0)] if bmax > 0 else []
    payload = {
        "model": data.name,
        "weak_norm": lorentz.lorentz_norm(b, lorentz.LorentzExponents(max(N, 2), math.inf)),
        "max_value": bmax,
        "distance_ladder": (
            {
                "levels": levels,
                "weak_norms": lorentz.dist_to_bounded(b, max(N, 2), levels),
            }
            if levels
            else None
        ),
    }
    if data.has_drift:
        plan = models.make_truncation_plan(data)
        payload["certificates"] = [c.as_dict() for c in plan.certificates]
    _write_json(outdir / "lorentz_report.json", payload)
    manifest.checks["report_written"] = True


_EXPERIMENTS = {
    "evolve": _run_evolve,
    "continuation": _run_continuation,
    "uniqueness": _run_uniqueness,
    "steady": _run_steady,
    "decay": _run_decay,
    "verify-hypotheses": _run_verify_hypotheses,
    "lorentz-report": _run_lorentz_report,
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
    """Execute the experiment named by a config file and write its outputs."""
    path = resolve_config_path(str(config_path))
    cfg = parse_config(path.read_text(encoding="utf-8"))
    if overrides:
        for key, value in overrides.items():
            if key not in _KNOWN_KEYS and not key.startswith(_MODEL_PREFIX):
                raise ConfigError(f"unknown override key {key!r}")
            cfg[key] = value
    experiment = cfg["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if seed is None:
        seed = _read(cfg, "seed", "0", int)
    outdir = Path(output_dir if output_dir is not None else cfg.get("output.dir", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        experiment=experiment, config=dict(cfg), seed=seed, version=__version__
    )
    start = time.monotonic()
    _EXPERIMENTS[experiment](cfg, outdir, seed, manifest)
    manifest.wall_time_s = time.monotonic() - start
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


def emit_plot_data(trace_path, kind: str, out_path=None) -> Path:
    """Write two-column (x, y) plot data plus a JSON sidecar of references."""
    trace_path = Path(trace_path)
    if kind not in ("energy", "decay", "convergence"):
        raise ValueError(f"unknown plot kind {kind!r}")
    header, rows = _read_csv(trace_path)
    out = (
        Path(out_path)
        if out_path is not None
        else trace_path.with_name(trace_path.stem + f"_{kind}_plot.csv")
    )
    sidecar: dict = {"kind": kind, "source": trace_path.name}
    if kind == "energy":
        cols = {name: i for i, name in enumerate(header)}
        xy = [(r[cols["t"]], 0.5 * r[cols["l2_norm"]] ** 2) for r in rows]
        sidecar["final_cumulative_dissipation"] = rows[-1][cols["cumulative_dissipation"]]
        sidecar["max_l2"] = max(r[cols["l2_norm"]] for r in rows)
    elif kind == "decay":
        cols = {name: i for i, name in enumerate(header)}
        if "y" not in cols:
            raise ValueError("decay plots need a y-series trace with columns t,y")
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
        cols = {name: i for i, name in enumerate(header)}
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
    p_plot.add_argument("--kind", required=True, choices=("energy", "decay", "convergence"))
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
