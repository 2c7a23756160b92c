"""Mobility transport benchmark: the replicated-handover stack, sim vs asyncio.

Runs the shared roaming workload (``repro.mobility.handover_workload``:
attach → walk across the broker line → power off → exception-mode
reappearance, under the NLB predictor) on both mobility-capable backends and
records what the paper's experiments care about, per backend:

* **handover latency** — attach request to replicator welcome; simulated
  seconds on ``sim``, *real* end-to-end seconds over TCP on ``asyncio``;
* **delivery counts** — live vs replayed-from-shadow-buffer deliveries,
  plus the control-message overhead of the replication protocol.

Every config doubles as an integration gate: the delivered
``(notification, replayed)`` multisets of both backends are cross-checked
and the benchmark exits non-zero on any divergence.  The asyncio backend
speaks the binary wire codec, the only one a socket speaks.

Emits ``BENCH_mobility.json`` (see ``--output``), consumable by
``benchmarks/compare.py``.  All wall-clock metrics are stored under
``*_sec`` keys, which ``compare.py`` deliberately ignores (they are
machine-dependent); the deterministic outcome counts (deliveries, replays,
handovers, control overhead) are stored under ``*_count`` keys, which
``compare.py`` gates for *exact* equality — behavioural drift against the
committed baseline fails CI even when both backends drift identically.
Usage::

    PYTHONPATH=src python benchmarks/bench_mobility_transport.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_mobility_transport.py --fast   # CI smoke
    python benchmarks/compare.py BENCH_mobility.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.mobility.handover_workload import WorkloadSpec, cross_check_backends  # noqa: E402


def _percentile(values, p: float) -> float:
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(p * len(values)))]


def _metrics(result) -> dict:
    latencies = result.all_handover_latencies()
    # *_count metrics are deterministic outcomes of the phase-quiesced
    # workload (identical on both backends and every machine),
    # so compare.py gates them for EXACT equality against the baseline;
    # wall/latency metrics live under *_sec keys it ignores
    return {
        "wall_sec": result.wall_sec,
        "handover_p50_sec": _percentile(latencies, 0.50),
        "handover_p95_sec": _percentile(latencies, 0.95),
        "published_count": result.published,
        "delivered_count": result.delivered_total(),
        "live_count": sum(c.live for c in result.clients),
        "replayed_count": sum(c.replayed for c in result.clients),
        "handover_count": result.handovers,
        "shadow_count": result.shadows_created,
        "exception_count": result.exception_activations,
        "control_message_count": result.control_messages,
    }


def run_config(brokers: int, publishes: int):
    """Cross-check one config on both backends; returns (records, mismatches)."""
    results, mismatches = cross_check_backends(
        backends=("sim", "asyncio"),
        spec=WorkloadSpec(brokers=brokers, publishes_per_phase=publishes),
    )
    records = []
    for backend in ("sim", "asyncio"):
        metrics = _metrics(results[backend])
        config = {"backend": backend, "brokers": brokers, "publishes": publishes}
        records.append({"sweep": "mobility", "config": config, "metrics": metrics})
        m = metrics
        print(
            f"mobility {backend:<8} "
            f"brokers={brokers} pub/phase={publishes:<3} "
            f"wall={m['wall_sec']:6.2f}s "
            f"handover p50={m['handover_p50_sec'] * 1000:6.2f}ms "
            f"p95={m['handover_p95_sec'] * 1000:6.2f}ms "
            f"live={m['live_count']:<4} replayed={m['replayed_count']:<4} "
            f"control={m['control_message_count']}"
        )
    return records, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="result path (default: BENCH_mobility.json for the full sweep, "
        "BENCH_mobility_fast.json in --fast mode so a smoke run never "
        "overwrites the committed full-sweep baseline)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = "BENCH_mobility_fast.json" if args.fast else "BENCH_mobility.json"
        args.output = str(Path(__file__).resolve().parent.parent / name)

    # fast mode keeps the (3, 4) record so its config key matches the
    # committed full-sweep baseline and compare.py finds shared records
    configs = [(3, 4)]
    if not args.fast:
        configs.append((5, 8))

    results = []
    status = 0
    for brokers, publishes in configs:
        records, mismatches = run_config(brokers, publishes)
        results.extend(records)
        for mismatch in mismatches:
            print(f"ERROR: backend divergence (brokers={brokers}): {mismatch}", file=sys.stderr)
            status = 1

    payload = {
        "benchmark": "mobility_transport",
        "mode": "fast" if args.fast else "full",
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if status == 0:
        print("delivered multisets identical across backends on every config")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
