"""Diff two ``BENCH_*.json`` files and fail on performance regressions.

Records are matched by ``(sweep, config)``.  Time-like metrics (keys ending
in ``_us`` or ``_s`` — lower is better) may not grow by more than the
threshold (default 20%); the ``speedup`` metric may not shrink by more than
the threshold; metrics ending in ``_count`` are machine-independent
deterministic outcomes (delivery counts, protocol overhead) and must match
*exactly*, threshold notwithstanding.  A numeric baseline metric a shared
record lacks counts as a regression, and so does a baseline record the
candidate lacks: a run that stopped producing something has not kept it.
The one exception is a ``"mode": "fast"`` candidate against a ``"mode":
"full"`` baseline: a fast sweep runs a declared subset of the full one, so
the records it did not run are listed, not failed.  Records only the
candidate holds are fine.  Exit status 1 signals at least one regression (2:
the files share no record at all), making this usable as a CI gate::

    PYTHONPATH=src python benchmarks/bench_routing_scale.py -o new.json
    python benchmarks/compare.py BENCH_routing.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    records = {}
    for record in data.get("results", []):
        key = (record.get("sweep"), tuple(sorted(record.get("config", {}).items())))
        records[key] = record.get("metrics", {})
    return data.get("mode"), records


def _fmt_key(key) -> str:
    sweep, config = key
    return f"{sweep}[{', '.join(f'{k}={v}' for k, v in config)}]"


def compare(old_path: str, new_path: str, threshold: float) -> int:
    old_mode, old_records = _load(old_path)
    new_mode, new_records = _load(new_path)
    shared = sorted(set(old_records) & set(new_records), key=repr)
    if not shared:
        print("no comparable records between the two files", file=sys.stderr)
        return 2

    gone = sorted(set(old_records) - set(new_records), key=repr)
    lost = [f"record {_fmt_key(key)}" for key in gone]
    not_run = lost if (old_mode, new_mode) == ("full", "fast") else []
    missing = [] if not_run else lost
    regressions = []
    improvements = []
    for key in shared:
        old_metrics, new_metrics = old_records[key], new_records[key]
        for metric, old_value in old_metrics.items():
            if not isinstance(old_value, (int, float)):
                continue
            new_value = new_metrics.get(metric)
            if not isinstance(new_value, (int, float)):
                missing.append(f"metric {_fmt_key(key)} {metric}")
                continue
            if metric.endswith("_count"):  # deterministic: exact match required
                if new_value != old_value:
                    ratio = new_value / old_value if old_value else float("inf")
                    regressions.append((key, metric, old_value, new_value, ratio))
                continue
            if old_value <= 0:
                continue
            if metric.endswith(("_us", "_s")):  # time: lower is better
                ratio = new_value / old_value
                if ratio > 1 + threshold:
                    regressions.append((key, metric, old_value, new_value, ratio))
                elif ratio < 1 - threshold:
                    improvements.append((key, metric, old_value, new_value, ratio))
            elif metric == "speedup":  # higher is better
                ratio = new_value / old_value
                if ratio < 1 - threshold:
                    regressions.append((key, metric, old_value, new_value, ratio))
                elif ratio > 1 + threshold:
                    improvements.append((key, metric, old_value, new_value, ratio))

    print(f"compared {len(shared)} records ({old_path} -> {new_path}, threshold {threshold:.0%})")
    for key, metric, old_value, new_value, ratio in improvements:
        print(f"  improved : {_fmt_key(key)} {metric}: {old_value:.2f} -> {new_value:.2f} ({ratio:.2f}x)")
    for key, metric, old_value, new_value, ratio in regressions:
        print(f"  REGRESSED: {_fmt_key(key)} {metric}: {old_value:.2f} -> {new_value:.2f} ({ratio:.2f}x)")
    for what in not_run:
        print(f"  not run  : {what} (a fast sweep)")
    for what in missing:
        print(f"  MISSING  : {what}")
    if regressions or missing:
        print(
            f"{len(regressions)} regression(s) beyond {threshold:.0%}, {len(missing)} missing",
            file=sys.stderr,
        )
        return 1
    print("no regressions")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed relative regression (default 0.20 = 20%%)")
    args = parser.parse_args(argv)
    return compare(args.old, args.new, args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
