"""``benchmarks/compare.py``, the regression gate CI runs on ``BENCH_*.json``.

Each case writes a synthetic baseline and candidate and checks the exit
status: 1 for a regression, 0 for an improvement or a change within the
threshold, 2 when the files share no record.  A comparison of a file with
itself passes whatever the tool does, so these pairs are what show it can
fail.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def bench_file(path: Path, metrics, sweep="churn", config=None) -> str:
    """A ``BENCH_*.json`` holding one record with ``metrics``."""
    record = {"sweep": sweep, "config": config or {"links": 4}, "metrics": metrics}
    path.write_text(json.dumps({"benchmark": "synthetic", "results": [record]}))
    return str(path)


def exit_code(tmp_path, old, new, *options):
    """``compare.py [options] old.json new.json`` over one record each."""
    old_path = bench_file(tmp_path / "old.json", old)
    return compare.main([*options, old_path, bench_file(tmp_path / "new.json", new)])


@pytest.mark.parametrize(
    "old, new",
    [
        ({"deliveries_count": 100}, {"deliveries_count": 99}),
        ({"deliveries_count": 100}, {"deliveries_count": 101}),
        ({"forwards_count": 0}, {"forwards_count": 1}),
    ],
)
def test_a_count_mismatch_exits_1_whatever_the_threshold(tmp_path, old, new):
    assert exit_code(tmp_path, old, new) == 1
    assert exit_code(tmp_path, old, new, "--threshold", "10") == 1


@pytest.mark.parametrize("metric", ["op_us", "setup_s"])
def test_time_growth_past_the_threshold_exits_1(tmp_path, metric):
    assert exit_code(tmp_path, {metric: 10.0}, {metric: 12.5}) == 1
    assert exit_code(tmp_path, {metric: 10.0}, {metric: 12.5}, "--threshold", "0.5") == 0


def test_a_speedup_that_shrinks_past_the_threshold_exits_1(tmp_path):
    assert exit_code(tmp_path, {"speedup": 10.0}, {"speedup": 7.5}) == 1
    assert exit_code(tmp_path, {"speedup": 10.0}, {"speedup": 7.5}, "--threshold", "0.5") == 0


@pytest.mark.parametrize(
    "old, new",
    [
        ({"op_us": 10.0, "speedup": 5.0}, {"op_us": 5.0, "speedup": 9.0}),  # improvements
        ({"op_us": 10.0, "speedup": 5.0}, {"op_us": 11.9, "speedup": 4.1}),  # within 20 %
        ({"deliveries_count": 7, "wall_sec": 1.0}, {"deliveries_count": 7, "wall_sec": 9.0}),
    ],
)
def test_an_improvement_or_a_change_within_the_threshold_exits_0(tmp_path, old, new):
    assert exit_code(tmp_path, old, new) == 0


def test_files_with_no_shared_record_exit_2(tmp_path):
    old = bench_file(tmp_path / "old.json", {"op_us": 1.0}, sweep="churn")
    new = bench_file(tmp_path / "new.json", {"op_us": 1.0}, sweep="range-table")
    assert compare.main([old, new]) == 2


def test_the_script_exits_with_the_status(tmp_path):
    """What a CI step sees: the process exit status, not a return value."""
    old = bench_file(tmp_path / "old.json", {"op_us": 10.0})
    new = bench_file(tmp_path / "new.json", {"op_us": 20.0})
    result = subprocess.run([sys.executable, str(SCRIPT), old, new], capture_output=True, text=True)
    assert result.returncode == 1 and "REGRESSED" in result.stdout
