"""``benchmarks/compare.py``, the regression gate CI runs on ``BENCH_*.json``.

Each case writes a synthetic baseline and candidate and checks the exit
status: 1 for a regression or for a record or metric the candidate lost, 0
for an improvement, a change within the threshold or an added record, 2 when
the files share no record.  A comparison of a file with
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


def bench_file(path: Path, metrics, sweep="churn", config=None, more=(), **header) -> str:
    """A ``BENCH_*.json`` holding one record with ``metrics``, then the ``more`` records."""
    record = {"sweep": sweep, "config": config or {"links": 4}, "metrics": metrics}
    path.write_text(json.dumps({"benchmark": "synthetic", **header, "results": [record, *more]}))
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


SECOND = {"sweep": "churn", "config": {"links": 8}, "metrics": {"deliveries_count": 40}}


@pytest.mark.parametrize(
    "old_mode, new_mode", [(None, None), ("full", "full"), ("fast", "fast"), ("fast", "full")]
)
def test_a_record_the_candidate_lost_exits_1_and_is_named(tmp_path, capsys, old_mode, new_mode):
    old = bench_file(tmp_path / "old.json", {"op_us": 1.0}, more=[SECOND], mode=old_mode)
    new = bench_file(tmp_path / "new.json", {"op_us": 1.0}, mode=new_mode)
    assert compare.main([old, new]) == 1
    assert compare.main(["--threshold", "10", old, new]) == 1
    assert "MISSING  : record churn[links=8]" in capsys.readouterr().out


def test_a_fast_sweep_need_not_hold_the_full_baselines_other_records(tmp_path, capsys):
    """CI compares ``--fast`` runs with full-sweep baselines: the records the
    fast sweep does not run are listed, but a metric it lost still fails."""
    old = bench_file(tmp_path / "old.json", {"x_count": 3}, more=[SECOND], mode="full")
    new = bench_file(tmp_path / "new.json", {"x_count": 3}, mode="fast")
    assert compare.main([old, new]) == 0
    assert "not run  : record churn[links=8]" in capsys.readouterr().out
    new = bench_file(tmp_path / "new.json", {}, mode="fast")
    assert compare.main([old, new]) == 1


@pytest.mark.parametrize("metric", ["deliveries_count", "op_us"])
def test_a_metric_the_candidate_lost_exits_1_and_is_named(tmp_path, capsys, metric):
    old = {"deliveries_count": 7, "op_us": 1.0}
    new = {name: value for name, value in old.items() if name != metric}
    assert exit_code(tmp_path, old, new) == 1
    assert exit_code(tmp_path, old, {**new, metric: None}) == 1
    assert f"MISSING  : metric churn[links=4] {metric}" in capsys.readouterr().out


def test_a_candidate_that_only_adds_records_and_metrics_exits_0(tmp_path):
    old = bench_file(tmp_path / "old.json", {"deliveries_count": 7})
    new = bench_file(tmp_path / "new.json", {"deliveries_count": 7, "op_us": 1.0}, more=[SECOND])
    assert compare.main([old, new]) == 0
