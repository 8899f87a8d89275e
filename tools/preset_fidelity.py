"""Compare what the bundled presets write between two checkouts.

    python tools/preset_fidelity.py BEFORE AFTER [--workdir DIR]

BEFORE and AFTER are checkouts of this repository.  Every bundled preset
runs once from each checkout's `src`, in a fresh process
(`python -m driftflow.cli run <preset> --output-dir DIR/<side>/<preset>`),
one after another.  For each preset the report gives:

- whether the two runs pass the same manifest checks with the same values;
- for every CSV both runs wrote (the traces, `y_series.csv`, ...), the
  worst absolute difference of each numeric column (NaN against NaN
  counts as equal, NaN against a number as inf, a column only one run
  wrote as inf, a differing row count is reported instead), and every CSV
  that only one run wrote;
- the summed `resolvent_iters` of each side over its trace CSVs.

The last line is one JSON object with the same content.  The exit status
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
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "driftflow.cli", "run", preset]
    proc = subprocess.run(
        cmd + ["--output-dir", str(outdir)], env=env, capture_output=True, text=True
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"{checkout}: {preset} exited {proc.returncode}:\n{proc.stderr}"
        )
    manifest = json.loads((outdir / "run_manifest.json").read_text(encoding="utf-8"))
    return manifest["checks"]


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return {name: [row[name] for row in rows] for name in (rows[0] if rows else {})}


def worst_difference(a: list[str], b: list[str]) -> float | None:
    """max |a_i - b_i| over the rows; None for a column that is not numeric.

    NaN against NaN is equal and NaN against a number is inf (`max` would
    drop the NaN difference and report the cell as equal).
    """
    worst = 0.0
    for x, y in zip(a, b):
        try:
            x, y = float(x), float(y)
        except ValueError:
            return None
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        worst = math.inf if math.isnan(diff) else max(worst, diff)
    return worst


def compare(before: Path, after: Path) -> dict:
    out = {}
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
                d = worst_difference(cols_a[col], cols_b[col])
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
            checks = {
                side: run_preset(checkout, preset, dirs[side])
                for side, checkout in (("before", args.before), ("after", args.after))
            }
            same = checks["before"] == checks["after"]
            differ |= not same
            csvs = compare(dirs["before"], dirs["after"])
            iters = [resolvent_iters(dirs["before"]), resolvent_iters(dirs["after"])]
            report[preset] = {
                "checks_equal": same, "resolvent_iters": iters, "csv": csvs
            }
            print(f"{preset}: checks {'equal' if same else 'DIFFER'}, "
                  f"resolvent_iters {iters[0]} -> {iters[1]}")
            for name, diffs in csvs.items():
                if isinstance(diffs, str):
                    print(f"  {name}: {diffs}")
                    continue
                worst = sorted(diffs.items(), key=lambda kv: -kv[1])
                shown = ", ".join(f"{col} {d:.2g}" for col, d in worst if d > 0)
                print(f"  {name}: {shown or 'identical'}")
        print(json.dumps(report))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
