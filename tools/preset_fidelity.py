"""Compare what the bundled presets write between two checkouts.

    python tools/preset_fidelity.py BEFORE AFTER [--workdir DIR]

BEFORE and AFTER are checkouts of this repository.  Every bundled preset
runs once from each checkout's `src`, in a fresh process
(`python -m driftflow.cli run <preset> --output-dir DIR/<side>/<preset>`),
one after another.  For each preset the report gives:

- whether the two runs pass the same manifest checks with the same values;
- for every CSV both runs wrote (the traces, `y_series.csv`, ...), the
  worst absolute difference |a - b| of each numeric column and, next to
  it, the worst relative difference |a - b| / max(|a|, |b|) (0 against 0
  counts as 0; NaN against NaN counts as equal, NaN against a number as
  inf, a column only one run wrote as inf, a differing row count is
  reported instead), and every CSV that only one run wrote;
- for every JSON report both runs wrote except `run_manifest.json`, whose
  timings vary from run to run (`decay_report.json`, `continuation.json`,
  `evolve_summary.json`, ...), the worst absolute and relative difference
  of each key, with the same NaN rules.  A key is a path such as
  `certificates[].measured`, taken over every entry of a list; a
  differing string, flag or null, a list of another length or a key only
  one run wrote counts as inf.  JSON reports only one run wrote are
  listed as for CSVs;
- the summed `resolvent_iters` of each side over its trace CSVs;
- each side's `wall_time_s` and phase `timings` from its manifest.  They
  vary from run to run and are one run each, so they are reported but
  neither compared nor counted in the exit status.

The last line is one JSON object with the same content, the relative
differences under "relative".  The exit status
is 1 when any preset's manifest checks differ, else 0.  DIR defaults to a
temporary directory that is deleted afterwards.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def presets(checkout: Path) -> list[str]:
    folder = checkout / "src" / "driftflow" / "presets"
    return sorted(p.stem for p in folder.glob("*.cfg"))


def run_preset(checkout: Path, preset: str, outdir: Path) -> dict:
    """Run one preset in a fresh process; its `run_manifest.json`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "driftflow.cli", "run", preset]
    proc = subprocess.run(
        cmd + ["--output-dir", str(outdir)], env=env, capture_output=True, text=True
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"{checkout}: {preset} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads((outdir / "run_manifest.json").read_text(encoding="utf-8"))


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return {name: [row[name] for row in rows] for name in (rows[0] if rows else {})}


def number_difference(x: float, y: float, relative: bool = False) -> float:
    """|x - y|, or |x - y| / max(|x|, |y|) if `relative`.

    Equal numbers (0 against 0 too) and NaN against NaN give 0; NaN
    against a number, and inf against anything else, give inf.  A NaN
    difference is made inf because `max` would drop it and report
    the cell as equal.
    """
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y)
    if not math.isfinite(diff):
        return math.inf
    return diff / max(abs(x), abs(y)) if relative else diff


def worst_difference(
    a: list[str], b: list[str], relative: bool = False
) -> float | None:
    """max_i `number_difference`(a_i, b_i); None for a column that is not numeric."""
    worst = 0.0
    for x, y in zip(a, b):
        try:
            x, y = float(x), float(y)
        except ValueError:
            return None
        worst = max(worst, number_difference(x, y, relative))
    return worst


_ABSENT = object()


def json_leaves(value, path: str, out: dict[str, list]) -> dict[str, list]:
    """Every leaf of a JSON value under its key path, lists collapsed to `[]`."""
    if isinstance(value, dict):
        for key, item in value.items():
            json_leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        if not value:
            out.setdefault(f"{path}[]", [])
        for item in value:
            json_leaves(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(value)
    return out


def leaf_difference(x, y, relative: bool = False) -> float:
    """`number_difference` of two numbers; else 0 if equal, inf if not."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return number_difference(float(x), float(y), relative)
    return 0.0 if type(x) is type(y) and x == y else math.inf


def compare_json(a, b, relative: bool = False) -> dict[str, float]:
    """Worst difference (relative if `relative`) of each key path of two JSON values."""
    leaves_a, leaves_b = json_leaves(a, "", {}), json_leaves(b, "", {})
    out = {}
    for path in sorted(set(leaves_a) | set(leaves_b)):
        xs, ys = leaves_a.get(path, [_ABSENT]), leaves_b.get(path, [_ABSENT])
        if len(xs) != len(ys):
            out[path] = math.inf
            continue
        out[path] = max(
            (leaf_difference(x, y, relative) for x, y in zip(xs, ys)), default=0.0
        )
    return out


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def json_reports(folder: Path) -> set[str]:
    return {p.name for p in folder.glob("*.json") if p.name != "run_manifest.json"}


def compare(before: Path, after: Path, relative: bool = False) -> dict:
    """Each output file's worst difference per column or key, relative if asked."""
    out = {}
    for name in sorted(json_reports(before) | json_reports(after)):
        if not (after / name).exists():
            out[name] = "missing after"
        elif not (before / name).exists():
            out[name] = "missing before"
        else:
            out[name] = compare_json(
                _read_json(before / name), _read_json(after / name), relative
            )
    for name in sorted(p.name for p in before.glob("*.csv")):
        if not (after / name).exists():
            out[name] = "missing after"
            continue
        cols_a, cols_b = read_columns(before / name), read_columns(after / name)
        rows_a = len(next(iter(cols_a.values()), []))
        rows_b = len(next(iter(cols_b.values()), []))
        if rows_a != rows_b:
            out[name] = f"rows {rows_a} -> {rows_b}"
            continue
        diffs = {}
        for col in cols_a:
            if col in cols_b:
                d = worst_difference(cols_a[col], cols_b[col], relative)
                if d is not None:
                    diffs[col] = d
        # a column only one run wrote differs everywhere
        for col in set(cols_a).symmetric_difference(cols_b):
            diffs[col] = math.inf
        out[name] = diffs
    for name in sorted(p.name for p in after.glob("*.csv")):
        if not (before / name).exists():
            out[name] = "missing before"
    return out


def resolvent_iters(outdir: Path) -> int:
    total = 0
    for path in outdir.glob("trace*.csv"):
        total += sum(int(v) for v in read_columns(path).get("resolvent_iters", []))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        report, differ = {}, False
        for preset in presets(args.before):
            dirs = {side: work / side / preset for side in ("before", "after")}
            manifests = [
                run_preset(checkout, preset, dirs[side])
                for side, checkout in (("before", args.before), ("after", args.after))
            ]
            same = manifests[0]["checks"] == manifests[1]["checks"]
            differ |= not same
            csvs = compare(dirs["before"], dirs["after"])
            rel = compare(dirs["before"], dirs["after"], relative=True)
            iters = [resolvent_iters(dirs["before"]), resolvent_iters(dirs["after"])]
            wall = [m["wall_time_s"] for m in manifests]
            timings = [m["timings"] for m in manifests]
            report[preset] = {
                "checks_equal": same, "resolvent_iters": iters, "csv": csvs,
                "relative": rel, "wall_time_s": wall, "timings": timings,
            }
            print(f"{preset}: checks {'equal' if same else 'DIFFER'}, "
                  f"resolvent_iters {iters[0]} -> {iters[1]}, "
                  f"wall_time_s {wall[0]:.4f} -> {wall[1]:.4f}")
            for phase in sorted(set(timings[0]) | set(timings[1])):
                t = [f"{side.get(phase, math.nan):.4f}" for side in timings]
                print(f"  {phase}: {t[0]} -> {t[1]}")
            for name, diffs in csvs.items():
                if isinstance(diffs, str):
                    print(f"  {name}: {diffs}")
                    continue
                worst = sorted(diffs.items(), key=lambda kv: -kv[1])
                shown = ", ".join(
                    f"{col} {d:.2g} (rel {rel[name][col]:.2g})"
                    for col, d in worst if d > 0
                )
                print(f"  {name}: {shown or 'identical'}")
        print(json.dumps(report))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
