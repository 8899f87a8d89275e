"""The comparison logic of tools/preset_fidelity.py, on synthetic CSVs."""

import importlib.util
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
