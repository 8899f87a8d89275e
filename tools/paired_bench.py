"""Paired end-to-end benchmark of two checkouts.

    python tools/paired_bench.py BEFORE AFTER --workload W --pairs N \
        --seeds 701-710 [--label L] [--claim run_s]

BEFORE and AFTER are checkouts of this repository.  Pair i runs
`python3 bench/run.py --workload W --seed S_i --seconds X --trace 0` once
in each checkout, one after the other, with X the `run_seconds` of
AFTER's `BENCHMARK.json`.  BEFORE runs first in even pairs and AFTER in
odd ones, so a drift of the host's speed does not favour one side.
Every end-to-end metric of `BENCHMARK.json` is read from the last stdout
line of each run.  Before the first pair both checkouts' `src` is
byte-compiled (`python -m compileall -q src`), so neither side's runs
compile the library when the other's load it from bytecode: a stale or
missing `__pycache__` costs `setup_s` and memory in every bench process.
Also before the first pair, each checkout's paths that git does not
track, ignored ones included (`.bench_out/`, `.hypothesis/`, test
bytecode, ...; not the `src` bytecode compiled here), are listed and
recorded, with a warning on stderr when either list is not empty: such
leftovers have read +0.67 MB of `peak_rss_mb` on drift3d_decay against a
fresh clone of the same tree, so both sides are best benched from fresh
clones.

For each metric the report prints both sides' q1 / median / q3 (inclusive
quartiles over the pairs), how many pairs the change won (by the metric's
`better` direction), the parent's interquartile range and the median gain.
`--claim METRIC` also states whether the claim rule holds: the change wins
at least 9 of every 10 pairs and its median gain exceeds the parent's IQR.

The result goes to BENCH_<label>.json in the current directory.  An
existing file is updated: the workload's runs are replaced and the other
workloads kept, so one file collects several invocations.  Seeds are
integers or inclusive ranges such as 701-710, one per pair.
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
from pathlib import Path

CLAIM_RULE = ">= 9/10 pairs won and median gain > parent IQR"


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def seed_label(seeds: list[int]) -> str:
    contiguous = seeds == list(range(seeds[0], seeds[0] + len(seeds)))
    if contiguous and len(seeds) > 1:
        return f"{seeds[0]}-{seeds[-1]}"
    return ",".join(str(s) for s in seeds)


COMPILE = ("-m", "compileall", "-q", "src")


def compile_sources(checkout: Path) -> None:
    """Byte-compile the checkout's `src`, so its bench processes load bytecode."""
    proc = subprocess.run(
        [sys.executable, *COMPILE], cwd=checkout, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: compileall exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )


def untracked_paths(checkout: Path) -> list[str] | None:
    """The checkout's paths git does not track, ignored ones included.

    A wholly untracked directory is one entry, ending in "/"; `src`'s
    `__pycache__` directories, which `compile_sources` writes, are left
    out.  None when the checkout is not in a git repository.
    """
    proc = subprocess.run(
        ["git", "ls-files", "--others", "--directory", "-z"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return sorted(
        p for p in proc.stdout.split("\0")
        if p and not (p.startswith("src/") and p.endswith("__pycache__/"))
    )


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation from `checkout`; its final JSON line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: bench/run.py exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    parent = [p[f"parent_{metric}"] for p in pairs]
    change = [p[f"change_{metric}"] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (pq[1] - cq[1])
    return {
        "parent_q1_med_q3": [round(x, 4) for x in pq],
        "change_q1_med_q3": [round(x, 4) for x in cq],
        "change_better_pairs": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "pairs": len(pairs),
        "median_rel_change": round((cq[1] - pq[1]) / pq[1], 4) if pq[1] else 0.0,
        "parent_iqr": round(pq[2] - pq[0], 4),
        "median_gain": round(gain, 4) + 0.0,  # no -0.0
    }


def claim_met(summary: dict) -> bool:
    won = summary["change_better_pairs"] >= math.ceil(0.9 * summary["pairs"])
    return won and summary["median_gain"] > summary["parent_iqr"]


def host_line() -> str:
    import numpy

    return (
        f"{os.cpu_count()} CPU {platform.machine()}, {platform.system()}, "
        f"Python {platform.python_version()}, numpy {numpy.__version__}; "
        "bench processes single-threaded; times rescaled by bench/reference.py ticks"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--label", default="paired")
    parser.add_argument("--claim", default=None, metavar="METRIC")
    args = parser.parse_args(argv)

    spec = json.loads((args.after / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"unknown metric {args.claim!r}")
    seeds = parse_seeds(args.seeds)
    if len(seeds) < args.pairs or args.pairs < 1:
        parser.error(f"{args.pairs} pairs need as many seeds, got {len(seeds)}")
    seeds = seeds[: args.pairs]
    seconds = spec["run_seconds"]

    sides = {"parent": args.before, "change": args.after}
    untracked = {side: untracked_paths(checkout) for side, checkout in sides.items()}
    for side, paths in untracked.items():
        if paths is None:
            print(f"warning: {sides[side]} is not a git checkout; its untracked "
                  "files are unknown", file=sys.stderr)
        elif paths:
            print(f"warning: {sides[side]} holds {len(paths)} paths git does not "
                  f"track ({', '.join(paths)}); they can move peak_rss_mb, so "
                  "bench fresh clones", file=sys.stderr)
    for checkout in sides.values():
        compile_sources(checkout)
    pairs, failed = [], {"parent": 0, "change": 0}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {"seed": seed, "first": order[0]}
        for side in order:
            out = run_bench(sides[side], args.workload, seed, seconds)
            failed[side] += out["failed"]
            for name, metric in out["metrics"].items():
                row[f"{side}_{name}"] = round(metric["value"], 4)
        pairs.append(row)
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): "
              f"run_s {row['parent_run_s']} -> {row['change_run_s']}", flush=True)

    summary = {name: summarize(pairs, name, better[name]) for name in better}
    summary["failed"] = failed
    for name, s in summary.items():
        if name == "failed":
            continue
        print(f"{name}: parent q1/med/q3 {s['parent_q1_med_q3']}, "
              f"change {s['change_q1_med_q3']}, change better in "
              f"{s['change_better_pairs']}/{s['pairs']} pairs, parent IQR "
              f"{s['parent_iqr']}, median gain {s['median_gain']}")
    print(f"failed checks: parent {failed['parent']}, change {failed['change']}")

    path = Path(f"BENCH_{args.label}.json")
    report = (
        json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    )
    report["label"] = args.label
    report["host"] = host_line()
    report["protocol"] = (
        f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
        "--trace 0 on the parent commit and on the change, each from its own "
        "checkout, alternating which side runs first (tools/paired_bench.py); "
        "medians with [q1, q3]"
    )
    report["bytecode"] = (
        f"python {' '.join(COMPILE)} in both checkouts before the first pair"
    )
    report["untracked"] = untracked
    runs = report.setdefault("final_runs", {})
    runs.setdefault("seeds", {})[args.workload] = seed_label(seeds)
    runs[args.workload] = {"summary": summary, "pairs": pairs}
    if args.claim is not None:
        result = summary[args.claim]
        met = claim_met(result)
        report["claim"] = {
            "workload": args.workload,
            "metric": args.claim,
            "met": met,
            "rule": CLAIM_RULE,
            "result": result,
        }
        print(f"claim {args.claim} on {args.workload}: {'met' if met else 'NOT met'}")
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
