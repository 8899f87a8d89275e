"""The driftflow benchmark: one command, three workloads.

    python3 bench/run.py --workload drift3d_decay --seed 0 --seconds 40 --trace 0

Starts one fresh single-threaded process per measurement (bench/child.py)
and keeps starting them, one after another, until the next would end
after --seconds.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of traced processes, alternated with
untraced ones so the tracing overhead is measured too.  Every reported
time is rescaled to one fixed host speed by the reference kernel each
process times around and between its work (bench/reference.py).  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits 1 without that line if a process fails to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("drift3d_decay", "drift2d_continuation", "resolvent_sweep")
CHILD_TIMEOUT_S = 150
# the benchmark as a whole must end within 180 s
HARD_LIMIT_S = 170

CHILD_FIELDS = (
    "traced", "wrappers_installed", "ticks", "slowdown", "setup_s", "run_s", "peak_rss_mb", "attempted", "failures"
)
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "resolve_ms_p50": "ms",
    "resolve_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

TIME_UNITS = ("s", "ms", "us", "ns")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (
        ("_ns_per_face", "ns"),
        ("_us_per_call", "us"),
        ("_ms_per_step", "ms"),
        ("_mb", "MB"),
        ("_s", "s"),
        ("_share", "ratio"),
        ("_share_of_resolve", "ratio"),
        ("_ratio", "ratio"),
        ("_per_resolve", "count"),
        ("_per_call", "count"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def run_child(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced)), repr(spawned_at)],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process for {workload} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - spawned_at
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Start processes until the next one would overrun `seconds`."""
    start = time.monotonic()
    children: list[dict] = []
    while True:
        # a traced run alternates untraced and traced processes
        traced = trace and len(children) % 2 == 1
        child = run_child(workload, seed, traced)
        children.append(child)
        print("child " + json.dumps({k: child[k] for k in CHILD_FIELDS}), flush=True)
        elapsed = time.monotonic() - start
        typical = statistics.median(c["wall_s"] for c in children)
        have_both = not trace or any(c["traced"] for c in children)
        if have_both and (elapsed + typical > seconds or elapsed + typical > HARD_LIMIT_S):
            return children


def end_to_end(children: list[dict], rescale: bool = True) -> dict[str, float]:
    """End-to-end metrics; times are at the reference host speed unless rescale is off."""
    ref = "_ref" if rescale else ""
    latencies = [ms for c in children for ms in c[f"resolve{ref}_ms"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(len(c["failures"]) for c in children)
    return {
        "run_s": statistics.median(c[f"run{ref}_s"] for c in children),
        "setup_s": statistics.median(c[f"setup{ref}_s"] for c in children),
        "resolve_ms_p50": percentile(latencies, 0.50),
        "resolve_ms_p95": percentile(latencies, 0.95),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "pass_ratio": (attempted - failed) / attempted,
    }


def print_layer_report(traced: list[dict]) -> None:
    first = traced[0]
    print("self-time table of one traced process, wall clock (share of set-up + run):")
    print(f"  {'span':32s} {'calls':>7s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, calls, total, own, share in first["table"]:
        print(f"  {name:32s} {calls:7d} {total:9.4f} {own:9.4f} {100 * share:6.1f}%")
    m = first["layers"]
    print("computed work (from array sizes, ignoring caches):")
    print(
        f"  flux: {m['operators.flux_faces_per_call']:.0f} faces/call, "
        f"{m['operators.flux_computed_mb']:.1f} MB computed, "
        f"{m['operators.flux_ns_per_face']:.1f} ns/face"
    )
    print(
        f"  helmholtz_solve: {m['grid.helmholtz_points_per_call']:.0f} DST points/call, "
        f"{m['grid.helmholtz_computed_mb']:.1f} MB computed"
    )
    print(
        f"  per call: apply {m['operators.apply_us_per_call']:.0f} us, "
        f"helmholtz_solve {m['grid.helmholtz_us_per_call']:.0f} us; "
        f"flux is {100 * m['operators.flux_share_of_resolve']:.1f}% of resolve time"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()[0]
    try:
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(len(c["failures"]) for c in children)
    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    e2e = end_to_end(untraced)
    print("env " + json.dumps({
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **children[0]["versions"],
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "processes": len(children),
        "resolve_samples": sum(len(c["resolve_ms"]) for c in untraced),
        "host_slowdown_median": statistics.median(c["slowdown"] for c in children),
    }))
    wall = end_to_end(untraced, rescale=False)
    print("wall clock, not rescaled: " + ", ".join(
        f"{name} = {wall[name]:.6g} {END_TO_END_UNITS[name]}"
        for name in ("run_s", "setup_s", "resolve_ms_p50", "resolve_ms_p95")
    ))
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed / {attempted} attempted checks)")
    if failed:
        print("failed checks: " + ", ".join(sorted({f for c in children for f in c["failures"]})))

    if args.trace:
        print_layer_report(traced)
        names = traced[0]["layers"].keys()
        metrics = {}
        for name in names:
            unit = layer_unit(name)
            # times are rescaled like the end-to-end ones; counts and ratios are not
            rescale = unit in TIME_UNITS
            value = statistics.median(c["layers"][name] / (c["slowdown"] if rescale else 1.0) for c in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(c["run_ref_s"] for c in traced) - e2e["run_s"],
            "unit": "s",
        }
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
