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
