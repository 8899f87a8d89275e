"""Smoke test of the benchmark itself: python3 -m pytest bench/selftest.py -q

Runs every workload at minimal length, untraced and traced, and checks
that each metric BENCHMARK.json declares is printed with its unit, that
no tracing wrapper is installed in an untraced process, and that the
benchmark refuses to report without the library source.  It also checks
that reference ticks interleave with a timed stretch without counting
toward it.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def children(stdout):
    return [json.loads(line[len("child "):]) for line in stdout.splitlines() if line.startswith("child ")]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_minimal_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for line in ("env ", "fail_ratio = "):
        assert any(out.startswith(line) for out in proc.stdout.splitlines())
    procs = children(proc.stdout)
    # every process timed the reference kernel, so its times can be rescaled
    assert all(c["slowdown"] > 0 for c in procs)
    assert any(out.startswith("wall clock, not rescaled: ") for out in proc.stdout.splitlines())
    assert all(c["wrappers_installed"] == 0 for c in procs if not c["traced"])
    assert any(not c["traced"] for c in procs)
    if trace == "1":
        assert all(c["wrappers_installed"] > 0 for c in procs if c["traced"])
        assert any(c["traced"] for c in procs)


def test_refuses_without_library_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_ticks_interleave_and_are_not_counted_as_work():
    ref = reference.Reference()
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with ref.timed(reference.PERIOD_S) as stretch:
        while time.perf_counter() - start < 6 * reference.PERIOD_S:
            pass
    total = time.perf_counter() - start
    # one tick before, one after, and the timer's ticks in between
    assert len(ref.times) >= 5
    assert stretch.wall_s + sum(ref.times) == pytest.approx(total, abs=1e-3)
    assert stretch.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
