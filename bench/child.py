"""One measured process of the driftflow benchmark.

Usage: python3 bench/child.py WORKLOAD SEED TRACE SPAWNED_AT

Runs one workload once, as a fresh process the way `driftflow run` is,
checks its outputs and prints one JSON object on its last stdout line.
SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process, so set-up time counts interpreter start and imports.
"""

import os

# Pinned before numpy is imported, so every run is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv
import json
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# preset, dimension, resolves timed after the experiment
CLI_WORKLOADS = {
    "drift3d_decay": ("singular_drift_decay_3d", 3, 80),
    "drift2d_continuation": ("singular_drift_continuation", 2, 60),
}
SWEEP_MODELS = ("variable-diffusion", "lipschitz-nonlinear")
SWEEP_CELLS = (64, 64)
SWEEP_LAMS = (1e-3, 1e-2, 0.1, 1.0)
SWEEP_PAIRS = 4
SWEEP_T = 0.25
# resolves timed back to back between two reference ticks after the experiment
PROBE_GROUP = 4
TOL = 1e-12
# criterion 1 of the acceptance gate
NONEXPANSIVE_SLACK = 2e-10
WORKLOADS = (*CLI_WORKLOADS, "resolvent_sweep")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok) -> None:
        self.attempted += 1
        # manifest checks may be numpy booleans; count them as plain bools
        if not bool(ok):
            self.failures.append(name)


def _import_library():
    sys.path.insert(0, str(SRC))
    import driftflow

    if Path(driftflow.__file__).resolve().parent != SRC / "driftflow":
        raise ImportError(f"driftflow imported from {driftflow.__file__}, not {SRC}")
    return driftflow


def resolve(op, lam, g, checks):
    """One cold-start resolve; returns (u, diag), or None on failure."""
    from driftflow import grid
    from driftflow.operators import ResolventConfig

    try:
        return op.resolve_detailed(g, ResolventConfig(lam=lam, tol=TOL))
    except grid.ConvergenceError:
        checks.add("resolve_converged", False)
        return None


def timed_resolves(op, lam, rhs, checks, ref):
    """Resolve each right-hand side, back to back between two reference ticks.

    Returns one (ms, ms at reference speed, resolve's result) per
    right-hand side; every time is rescaled by the slowdown of the group's
    ticks.  Back to back, because a resolve right after a tick starts with
    the tick's cache footprint: 1 ms 2D resolves timed one per tick pair
    drifted twice as much against the ticks as groups of four did.
    """
    timed = []
    with ref.timed() as stretch:
        for g in rhs:
            start = time.perf_counter()
            solved = resolve(op, lam, g, checks)
            timed.append((1e3 * (time.perf_counter() - start), solved))
    scale = stretch.ref_s / stretch.wall_s
    return [(ms, ms * scale, solved) for ms, solved in timed]


def check_resolve(op, lam, g, solved, checks) -> None:
    """Recompute |u + lam*apply(u) - g| <= tol * (1 + |g|) outside the solver."""
    from driftflow import grid

    if solved is None:
        return
    u, diag = solved
    r = grid.GridFunction(g.domain, u.values + lam * op.apply(u).values - g.values)
    checks.add("resolve_converged", diag.converged)
    checks.add("resolve_residual", grid.norm_l2(r) <= TOL * (1.0 + grid.norm_l2(g)))


# -- drift3d_decay, drift2d_continuation: `driftflow.cli.run` on a bundled preset


def setup_cli(workload, seed, rundir):
    import numpy as np
    from driftflow import cli, grid, models
    from driftflow.operators import TruncatedOperator

    preset, dim, probes = CLI_WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    # a top-level key, so it goes before the preset's first [section]
    text = f"model.direction = {','.join(repr(float(x)) for x in direction)}\n"
    text += cli.resolve_config_path(preset).read_text(encoding="utf-8")
    rundir.mkdir(parents=True)
    config = rundir / "bench.cfg"
    config.write_text(text, encoding="utf-8")

    cfg = cli.parse_config(text)
    domain = grid.BoxDomain(
        dim,
        tuple(float(x) for x in cfg["domain.lengths"].split(",")),
        tuple(int(x) for x in cfg["domain.cells"].split(",")),
    )
    horizon, dt = float(cfg["time.T"]), float(cfg["time.dt"])
    data = models.make_model(
        cfg["model"], domain, horizon, c=float(cfg["model.c"]), direction=tuple(direction)
    )
    plan = models.make_truncation_plan(data, factor=float(cfg["truncation.factor"]))
    decay = cfg["experiment"] == "decay"
    # the operator the workload's last time steps solve with.  One operator,
    # so the latencies form one cluster: the 2D levels' resolves differ 3x
    # in cost, and the median of an even mix of six would fall in a gap.
    op = TruncatedOperator(
        data, horizon, level=plan.levels[-1], drift_mode="full" if decay else "remainder"
    )
    return {
        "config": config,
        "outdir": rundir / "out",
        "decay": decay,
        "plan": plan,
        "probe": (op, dt, probes, rng),
    }


def run_cli(state, checks):
    from driftflow import cli, grid

    try:
        state["manifest"] = cli.run(state["config"], output_dir=state["outdir"])
    except grid.ConvergenceError:
        checks.add("cli_run", False)
        state["manifest"] = None


def check_cli(state, checks):
    if state["decay"]:
        # the certified decay rate holds only under certified levels
        checks.add("plan_certified", state["plan"].all_certified)
    manifest = state["manifest"]
    if manifest is None:
        return
    for name, ok in manifest.checks.items():
        checks.add(f"manifest_{name}", ok)
    traces = sorted(state["outdir"].glob("trace*.csv"))
    checks.add("trace_written", bool(traces))
    for path in traces:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        checks.add(
            f"zero_energy_violation_{path.name}",
            bool(rows) and all(float(r["energy_violation"]) == 0.0 for r in rows),
        )


def probe_cli(state, checks, ref):
    """Single-resolve latencies, raw and rescaled, on the operator the workload's last steps use."""
    from driftflow import grid

    op, lam, count, rng = state["probe"]
    latencies, rescaled = [], []
    for _ in range(count // PROBE_GROUP):
        # drawn a group at a time so the probe does not raise the peak memory
        shape = op.domain.interior_shape
        rhs = [grid.GridFunction(op.domain, rng.standard_normal(shape)) for _ in range(PROBE_GROUP)]
        for g, (ms, ms_ref, solved) in zip(rhs, timed_resolves(op, lam, rhs, checks, ref)):
            check_resolve(op, lam, g, solved, checks)
            latencies.append(ms)
            rescaled.append(ms_ref)
    return latencies, rescaled


# -- resolvent_sweep: `TruncatedOperator.resolve_detailed`, no drift, no stepping


def setup_sweep(seed, checks):
    import numpy as np
    from driftflow import grid, models
    from driftflow.operators import TruncatedOperator

    rng = np.random.default_rng(seed)
    domain = grid.BoxDomain(2, (1.0, 1.0), SWEEP_CELLS)
    ops = [
        TruncatedOperator(models.make_model(name, domain, 2 * SWEEP_T), SWEEP_T, drift_mode="none")
        for name in SWEEP_MODELS
    ]

    def rhs():
        return grid.GridFunction(domain, rng.standard_normal(domain.interior_shape))

    pairs = [(op, lam, rhs(), rhs()) for op in ops for lam in SWEEP_LAMS for _ in range(SWEEP_PAIRS)]
    # one warm-up resolve per model fills the lazy caches before timing
    for op in ops:
        g = rhs()
        check_resolve(op, 0.1, g, resolve(op, 0.1, g, checks), checks)
    return {"pairs": pairs}


def run_sweep(state, checks, ref):
    latencies, rescaled, solved = [], [], []
    for op, lam, g1, g2 in state["pairs"]:
        for ms, ms_ref, sol in timed_resolves(op, lam, (g1, g2), checks, ref):
            latencies.append(ms)
            rescaled.append(ms_ref)
            solved.append(sol)
    state["latencies"], state["rescaled"], state["solved"] = latencies, rescaled, solved


def check_sweep(state, checks):
    from driftflow import grid

    solved = iter(state["solved"])
    for op, lam, g1, g2 in state["pairs"]:
        s1, s2 = next(solved), next(solved)
        check_resolve(op, lam, g1, s1, checks)
        check_resolve(op, lam, g2, s2, checks)
        if s1 is not None and s2 is not None:
            slack = grid.norm_l2(s1[0] - s2[0]) - grid.norm_l2(g1 - g2)
            checks.add("sweep_nonexpansive", slack <= NONEXPANSIVE_SLACK)


def main(argv) -> int:
    workload, seed, traced, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    lib = _import_library()
    import numpy
    import scipy

    tracer = None
    if traced:
        tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}")
        tracing.install(tracer)
    # interpreter start and imports, rescaled by the first tick after them
    import_s = time.monotonic() - spawned_at
    ref = reference.Reference()
    # ticks inside a traced span would count toward it, so traced
    # processes tick only around each stretch
    period_s = None if traced else reference.PERIOD_S
    sweep = workload == "resolvent_sweep"
    checks = Checks()
    rundir = OUT / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        with ref.timed(period_s) as setup, tracer.span("bench.setup") if tracer else nullcontext():
            state = setup_sweep(seed, checks) if sweep else setup_cli(workload, seed, rundir)
        setup_s = import_s + setup.wall_s
        setup_ref_s = import_s / setup.first_slowdown + setup.ref_s
        if sweep:
            with tracer.span("bench.run") if tracer else nullcontext():
                run_sweep(state, checks, ref)
        else:
            with ref.timed(period_s) as run, tracer.span("bench.run") if tracer else nullcontext():
                run_cli(state, checks)
        if tracer:
            tracer.active = False
        if sweep:
            check_sweep(state, checks)
            latencies, rescaled = state["latencies"], state["rescaled"]
            # the sweep's run is its solves
            run_s, run_ref_s = 1e-3 * sum(latencies), 1e-3 * sum(rescaled)
        else:
            check_cli(state, checks)
            run_s, run_ref_s = run.wall_s, run.ref_s
            # traced runs report layers only, so they skip the latency probe
            latencies, rescaled = ([], []) if traced else probe_cli(state, checks, ref)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wrappers_installed": tracing.installed_count(),
        "slowdown": ref.slowdown(),
        "ticks": len(ref.times),
        "setup_s": setup_s,
        "run_s": run_s,
        "resolve_ms": latencies,
        # the same times at the reference host speed
        "setup_ref_s": setup_ref_s,
        "run_ref_s": run_ref_s,
        "resolve_ref_ms": rescaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "driftflow": lib.__version__,
        },
    }
    if tracer:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{workload}-seed{seed}.jsonl")
        out["layers"], out["table"] = tracing.summarize(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
