"""Fault-tolerance benchmark: chaos-recovery outcomes and recovery times.

Runs the pinned chaos storyline (``repro.pubsub.chaosgen.STORYLINE``: broker
``kill -9`` + supervised restart -> TCP link sever/restore -> covering
churn) through ``judge_plan`` on each backend and records two kinds of
metrics:

* **deterministic outcomes** under ``*_count`` keys — published, lost and
  replayed probe counts, delivered totals, applied events, resync markers
  and the transport's recovery-action counters.
  ``benchmarks/compare.py`` requires these to match the committed baseline
  *exactly*, so any change to the recovery protocol's observable behaviour
  fails the CI gate;
* **recovery times** under ``*_sec`` keys — wall-clock medians/maxima of the
  applied ``restart`` and ``restore`` events across ``--repeat`` runs.
  These are machine-dependent and deliberately ignored by the gate; they
  are recorded for the human reading the JSON.

Every run is judged by the invariant library, and off the simulator its
post-recovery delivered sets must equal the simulator oracle's; the
benchmark exits non-zero on any violation (or when repeats disagree on any
deterministic count).

Emits ``BENCH_faults.json`` (see ``--output``).  Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_faults.py --fast     # CI smoke
    python benchmarks/compare.py BENCH_faults.json new.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pubsub.chaosgen import STORYLINE, judge_plan  # noqa: E402


def _counts(result) -> dict:
    """The deterministic outcome of one chaos run, as gated ``_count`` keys."""
    recovery = result.recovery
    return {
        "published_count": result.published,
        "delivered_total_count": sum(len(ids) for ids in result.delivered.values()),
        "messages_lost_count": result.lost,
        "replayed_delivered_count": result.replayed,
        "events_applied_count": result.events_applied,
        "resync_marker_count": result.resync_markers,
        "kill_count": recovery.get("kills", 0),
        "restart_count": recovery.get("restarts", 0),
        "link_sever_count": recovery.get("link_severs", 0),
        "link_restore_count": recovery.get("link_restores", 0),
        "client_resubscribe_count": recovery.get("client_resubscribes", 0),
    }


def _event_sec(result, action: str) -> float:
    return sum(sec for event, sec in result.event_sec.items() if event.action == action)


def run_backend(backend: str, repeat: int):
    """Judge the storyline ``repeat`` times on ``backend``.

    Returns ``(metrics, errors)``; ``errors`` lists invariant violations
    (convergence against the sim oracle included) and repeat disagreements.
    """
    errors = []
    counts = None
    walls, recover_times, restore_times = [], [], []
    for _ in range(max(1, repeat)):
        report = judge_plan(STORYLINE, backend, shrink=False)
        result = report.result
        if not report.ok:
            errors.extend(f"[{backend}] {violation}" for violation in report.violations)
            break
        walls.append(result.wall_sec)
        recover_times.append(_event_sec(result, "restart"))
        restore_times.append(_event_sec(result, "restore"))
        if counts is None:
            counts = _counts(result)
        elif _counts(result) != counts:
            errors.append(
                f"[{backend}] repeats disagree on deterministic outcomes: "
                f"{counts} vs {_counts(result)}"
            )
    if counts is None:
        return None, errors
    metrics = dict(counts)
    metrics["wall_sec"] = min(walls)
    metrics["recover_p50_sec"] = statistics.median(recover_times)
    metrics["recover_max_sec"] = max(recover_times)
    metrics["restore_p50_sec"] = statistics.median(restore_times)
    metrics["restore_max_sec"] = max(restore_times)
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="skip the asyncio backend for CI smoke runs")
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="chaos runs per backend; counts must agree across all of them (default: 3)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_faults.json"),
    )
    args = parser.parse_args(argv)

    backends = ["sim", "cluster"] if args.fast else ["sim", "asyncio", "cluster"]
    results = []
    status = 0
    for backend in backends:
        metrics, errors = run_backend(backend, args.repeat)
        for error in errors:
            print(f"ERROR: {error}", file=sys.stderr)
            status = 1
        if metrics is None:
            continue
        results.append(
            {
                "sweep": "chaos_recovery",
                "config": {"backend": backend, "plan": "storyline"},
                "metrics": metrics,
            }
        )
        print(
            f"chaos {backend:<8} wall={metrics['wall_sec']:6.3f}s "
            f"delivered={metrics['delivered_total_count']} "
            f"lost={metrics['messages_lost_count']} "
            f"replayed={metrics['replayed_delivered_count']} "
            f"resyncs={metrics['resync_marker_count']} "
            f"recover_p50={metrics['recover_p50_sec']:.3f}s "
            f"restore_p50={metrics['restore_p50_sec']:.3f}s"
        )

    payload = {
        "benchmark": "faults",
        "mode": "fast" if args.fast else "full",
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if status == 0:
        print("post-recovery delivered sets identical across all backends")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
