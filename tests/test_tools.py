"""The comparison logic of tools/preset_fidelity.py, on synthetic CSVs and JSON reports."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "preset_fidelity.py"
_spec = importlib.util.spec_from_file_location("preset_fidelity", _PATH)
fidelity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity)


def write_csv(folder: Path, name: str, rows: list[str]) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    (folder / name).write_text("\n".join(["step,x,label", *rows]) + "\n", encoding="utf-8")


class TestWorstDifference:
    def test_equal(self):
        assert fidelity.worst_difference(["1.0", "2.5", "inf"], ["1.0", "2.5", "inf"]) == 0.0

    def test_differing(self):
        assert fidelity.worst_difference(["1.0", "2.0"], ["1.5", "2.25"]) == 0.5

    def test_nan_against_nan_is_equal(self):
        assert fidelity.worst_difference(["nan", "1.0"], ["nan", "1.0"]) == 0.0

    @pytest.mark.parametrize("a, b", [(["2.0"], ["nan"]), (["nan"], ["2.0"])])
    def test_nan_against_a_number_is_inf(self, a, b):
        assert fidelity.worst_difference(a, b) == math.inf
        # a later finite difference does not hide it
        assert fidelity.worst_difference(a + ["1.0"], b + ["3.0"]) == math.inf

    def test_non_numeric_column(self):
        assert fidelity.worst_difference(["a"], ["a"]) is None

    def test_relative(self):
        # |a - b| / max(|a|, |b|), worst over the rows
        got = fidelity.worst_difference(["1.0", "-4.0"], ["1.5", "-3.0"], relative=True)
        assert got == pytest.approx(1 / 3)
        assert fidelity.worst_difference(["2e-12"], ["-2e-12"], relative=True) == 2.0

    def test_relative_zero_against_zero_is_zero(self):
        assert fidelity.worst_difference(["0.0", "-0.0"], ["0.0", "0.0"], relative=True) == 0.0
        assert fidelity.worst_difference(["0.0"], ["1e-300"], relative=True) == 1.0

    @pytest.mark.parametrize("a, b", [(["2.0"], ["nan"]), (["inf"], ["2.0"])])
    def test_relative_nan_or_inf_against_a_number_is_inf(self, a, b):
        assert fidelity.worst_difference(a, b, relative=True) == math.inf
        assert fidelity.worst_difference(["nan"], ["nan"], relative=True) == 0.0


class TestCompare:
    def test_identical_and_differing_columns(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a", "2,nan,b"])
        write_csv(tmp_path / "after", "trace.csv", ["1,0.5,a", "2,0.25,b"])
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert out == {"trace.csv": {"step": 0.0, "x": math.inf}}

    def test_missing_after(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a"])
        write_csv(tmp_path / "before", "y_series.csv", ["1,0.5,a"])
        write_csv(tmp_path / "after", "trace.csv", ["1,0.5,a"])
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert out["y_series.csv"] == "missing after"
        assert out["trace.csv"] == {"step": 0.0, "x": 0.0}

    def test_missing_before(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a"])
        write_csv(tmp_path / "after", "trace.csv", ["1,0.5,a"])
        write_csv(tmp_path / "after", "extra.csv", ["1,0.5,a"])
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert out["extra.csv"] == "missing before"

    def test_column_written_by_one_run_only(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a"])
        (tmp_path / "after").mkdir()
        (tmp_path / "after" / "trace.csv").write_text("step,y,label\n1,0.5,a\n", encoding="utf-8")
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert out["trace.csv"] == {"step": 0.0, "x": math.inf, "y": math.inf}

    def test_row_count(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a", "2,0.5,a"])
        write_csv(tmp_path / "after", "trace.csv", ["1,0.5,a"])
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert out["trace.csv"] == "rows 2 -> 1"


def write_json(folder: Path, name: str, value) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    (folder / name).write_text(json.dumps(value), encoding="utf-8")


REPORT = {
    "small_data_pass": True,
    "small_data_detail": {"level": 0.5, "bound": 0.2, "note": "ok"},
    "fitted_rate": float("nan"),
    "certificates": [{"measured": 0.1, "note": ""}, {"measured": 0.0, "note": "x"}],
    "times": [],
}


class TestCompareJson:
    def test_identical(self):
        out = fidelity.compare_json(REPORT, json.loads(json.dumps(REPORT)))
        assert set(out) == {
            "small_data_pass", "small_data_detail.level", "small_data_detail.bound",
            "small_data_detail.note", "fitted_rate", "certificates[].measured",
            "certificates[].note", "times[]",
        }
        assert all(d == 0.0 for d in out.values())

    def test_worst_difference_over_list_entries(self):
        after = json.loads(json.dumps(REPORT))
        after["certificates"][0]["measured"] = 0.125
        after["certificates"][1]["measured"] = 0.5
        after["small_data_detail"]["level"] = 0.75
        out = fidelity.compare_json(REPORT, after)
        assert out["certificates[].measured"] == 0.5
        assert out["small_data_detail.level"] == 0.25
        assert out["small_data_detail.bound"] == 0.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("fitted_rate", 1.0),
            ("small_data_pass", False),
            ("small_data_pass", 1),
            ("times", [1.0]),
            ("certificates", [{"measured": 0.1, "note": ""}]),
        ],
    )
    def test_nan_flag_and_length_differences_are_inf(self, key, value):
        after = {**REPORT, key: value}
        out = fidelity.compare_json(REPORT, after)
        assert math.inf in out.values()
        assert all(d in (0.0, math.inf) for d in out.values())

    def test_relative_difference_per_key(self):
        after = json.loads(json.dumps(REPORT))
        after["certificates"][0]["measured"] = 0.125
        after["small_data_detail"]["bound"] = -0.2
        out = fidelity.compare_json(REPORT, after, relative=True)
        assert out["certificates[].measured"] == pytest.approx(0.2)
        assert out["small_data_detail.bound"] == 2.0
        assert out["small_data_detail.level"] == 0.0
        assert out["fitted_rate"] == 0.0  # NaN against NaN

    def test_compare_reports_relative_differences(self, tmp_path):
        write_csv(tmp_path / "before", "trace.csv", ["1,0.5,a", "2,0.0,b"])
        write_csv(tmp_path / "after", "trace.csv", ["1,0.4,a", "2,0.0,b"])
        write_json(tmp_path / "before", "decay_report.json", {"rate": 4.0})
        write_json(tmp_path / "after", "decay_report.json", {"rate": 5.0})
        out = fidelity.compare(tmp_path / "before", tmp_path / "after", relative=True)
        assert out["trace.csv"] == {"step": 0.0, "x": pytest.approx(0.2)}
        assert out["decay_report.json"] == {"rate": 0.2}

    def test_key_only_one_run_wrote(self):
        after = {**REPORT, "extra": 1.0}
        del after["fitted_rate"]
        out = fidelity.compare_json(REPORT, after)
        assert out["extra"] == math.inf and out["fitted_rate"] == math.inf

    def test_compare_reads_reports_but_not_the_manifest(self, tmp_path):
        write_json(tmp_path / "before", "decay_report.json", REPORT)
        write_json(tmp_path / "after", "decay_report.json", {**REPORT, "fitted_rate": 0.5})
        write_json(tmp_path / "before", "run_manifest.json", {"wall_time_s": 1.0})
        write_json(tmp_path / "after", "run_manifest.json", {"wall_time_s": 2.0})
        write_json(tmp_path / "before", "continuation.json", {"a": 1})
        write_json(tmp_path / "after", "evolve_summary.json", {"a": 1})
        out = fidelity.compare(tmp_path / "before", tmp_path / "after")
        assert set(out) == {"decay_report.json", "continuation.json", "evolve_summary.json"}
        assert out["decay_report.json"]["fitted_rate"] == math.inf
        assert out["continuation.json"] == "missing after"
        assert out["evolve_summary.json"] == "missing before"


_BENCH_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_bench_spec = importlib.util.spec_from_file_location("paired_bench", _BENCH_PATH)
paired = importlib.util.module_from_spec(_bench_spec)
_bench_spec.loader.exec_module(paired)

# A stand-in bench/run.py: its run_s is 1.0 when the library's bytecode is
# current when it starts and 9.0 when the process would compile the library.
STUB_RUN = """
import importlib.util, json, os
src = os.path.join("src", "stublib", "__init__.py")
pyc = importlib.util.cache_from_source(src)
fresh = os.path.exists(pyc) and os.path.getmtime(pyc) >= os.path.getmtime(src)
metrics = {name: {"value": 1.0 if fresh else 9.0} for name in ("run_s", "setup_s")}
print(json.dumps({"failed": 0, "metrics": metrics}))
"""

STUB_SPEC = {
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "run_s", "better": "lower"},
        {"name": "setup_s", "better": "lower"},
    ],
}


def stub_checkout(folder: Path) -> Path:
    (folder / "bench").mkdir(parents=True)
    (folder / "src" / "stublib").mkdir(parents=True)
    (folder / "src" / "stublib" / "__init__.py").write_text("X = 1\n", encoding="utf-8")
    (folder / "bench" / "run.py").write_text(STUB_RUN, encoding="utf-8")
    (folder / "BENCHMARK.json").write_text(json.dumps(STUB_SPEC), encoding="utf-8")
    return folder


class TestPairedBench:
    def test_both_checkouts_are_byte_compiled_before_the_first_pair(
        self, tmp_path, monkeypatch
    ):
        # neither stub has bytecode; every run of either side must find it
        before, after = stub_checkout(tmp_path / "a"), stub_checkout(tmp_path / "b")
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.chdir(tmp_path)
        args = [str(before), str(after), "--workload", "w", "--pairs", "2",
                "--seeds", "1-2", "--label", "stub"]
        assert paired.main(args) == 0
        report = json.loads((tmp_path / "BENCH_stub.json").read_text(encoding="utf-8"))
        assert "compileall" in report["bytecode"]
        pairs = report["final_runs"]["w"]["pairs"]
        assert [p["seed"] for p in pairs] == [1, 2]
        assert all(p["parent_run_s"] == p["change_run_s"] == 1.0 for p in pairs)


_LINES_PATH = Path(__file__).resolve().parents[1] / "tools" / "source_lines.py"
_lines_spec = importlib.util.spec_from_file_location("source_lines", _LINES_PATH)
source_lines = importlib.util.module_from_spec(_lines_spec)
_lines_spec.loader.exec_module(source_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string
    that is code"""
    return math.sqrt(
        x,
    )


class C:
    """Class docstring."""

    y = 1
'''


def write_package(checkout: Path, modules: dict[str, str]) -> None:
    package = checkout / "src" / "driftflow"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text, encoding="utf-8")


class TestSourceLines:
    def test_code_lines_skip_blanks_comments_and_docstrings(self):
        # import, def, the string (two lines), return, x, ), class, y
        assert source_lines.code_lines(MODULE) == 9

    def test_net_per_module_and_json_last_line(self, tmp_path, capsys):
        write_package(tmp_path / "before", {"a.py": MODULE, "gone.py": "x = 1\n"})
        write_package(tmp_path / "after", {"a.py": MODULE + "z = 2\n", "new.py": "y = 2\ny += 1\n"})
        assert source_lines.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
        out = capsys.readouterr().out.splitlines()
        report = json.loads(out[-1])
        assert report["modules"] == {
            "a.py": {"before": 9, "after": 10, "net": 1},
            "gone.py": {"before": 1, "after": 0, "net": -1},
            "new.py": {"before": 0, "after": 2, "net": 2},
        }
        assert (report["before"], report["after"], report["net"]) == (10, 12, 2)
