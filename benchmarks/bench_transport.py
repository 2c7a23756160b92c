"""Transport backend benchmark: simulator vs socket backends.

Measures end-to-end notification throughput and delivery-latency percentiles
of the same pub/sub workload (a line of brokers, one subscriber per broker,
one publisher) across the transport backends:

* ``sim`` — the deterministic discrete-event simulator; wall time here is
  pure matching/routing compute, with zero serialization;
* ``asyncio`` — real localhost TCP sockets; every hop pays wire
  serialization, framing and kernel socket round-trips, and the latency
  percentiles are *real* end-to-end latencies measured against the event
  loop's monotonic clock;
* ``cluster`` — one OS process per broker (full sweep only, on the headline
  config): the same workload across real process boundaries.

The socket backends speak the binary wire codec, the only one a socket
speaks.  ``compare.py`` gates the deterministic ``*_count`` delivery totals
(exact), so the delivery sets are CI-guarded.  Each row is the best of
``--repeats`` runs: best-of damps scheduler noise, which otherwise dominates
sub-second walls on small machines.

Every run also verifies that each subscriber received exactly the
notification set its filter promises, on every backend — the benchmark
doubles as an integration gate and exits non-zero on any miss.

Emits ``BENCH_transport.json`` (see ``--output``).  Wall-clock metrics are
stored under ``*_sec``/``*_ops_per_sec``/``*_latency_sec`` keys, which
``compare.py`` deliberately ignores (they are machine-dependent).  Usage::

    PYTHONPATH=src python benchmarks/bench_transport.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_transport.py --fast   # CI smoke
    python benchmarks/compare.py BENCH_transport.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pubsub.testing import run_line_workload  # noqa: E402


def run_backend(backend: str, brokers: int, notifications: int, repeats: int = 3):
    """Run the shared line workload on one backend; returns (metrics, mismatches).

    The workload itself (progressive AtLeast filters, per-backend latency,
    delivery verification) lives in ``repro.pubsub.testing.run_line_workload``
    and is the exact code path the ``repro demo line`` CLI exercises.  The
    fastest of ``repeats`` runs is recorded; every run's delivery sets are
    verified.
    """
    best = None
    mismatches = 0
    for _ in range(max(1, repeats)):
        result = run_line_workload(
            backend, brokers, notifications, topic="bench", payload_pad="x" * 32
        )
        mismatches = max(mismatches, result.mismatches)
        if best is None or result.wall_sec < best.wall_sec:
            best = result
    latencies = best.all_latencies()

    def percentile(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    wall = best.wall_sec
    metrics = {
        "wall_sec": wall,
        "throughput_ops_per_sec": best.delivered / wall if wall > 0 else 0.0,
        "p50_latency_sec": percentile(0.50),
        "p95_latency_sec": percentile(0.95),
        "p99_latency_sec": percentile(0.99),
        "delivered_fraction": best.delivered / best.expected if best.expected else 1.0,
        "delivered_count": best.delivered,
        "expected_count": best.expected,
    }
    return metrics, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per (backend, config); the best one is recorded (default: 3)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_transport.json"),
    )
    args = parser.parse_args(argv)

    # fast mode keeps the (3, 600) record so its config key matches the
    # committed full-sweep baseline and compare.py finds shared records
    configs = [(3, 600)]
    if not args.fast:
        configs.append((5, 2000))

    results = []
    status = 0
    for brokers, notifications in configs:
        backends = ["sim", "asyncio"]
        if not args.fast and (brokers, notifications) == (5, 2000):
            backends.append("cluster")  # the headline cross-process config
        for backend in backends:
            metrics, mismatches = run_backend(backend, brokers, notifications, args.repeats)
            if mismatches:
                print(
                    f"ERROR: {mismatches} subscriber(s) missed notifications "
                    f"(backend={backend}, brokers={brokers})",
                    file=sys.stderr,
                )
                status = 1
            config = {"backend": backend, "brokers": brokers, "notifications": notifications}
            results.append({"sweep": "transport", "config": config, "metrics": metrics})
            m = metrics
            print(
                f"transport {backend:<8} "
                f"brokers={brokers} n={notifications:<6} "
                f"wall={m['wall_sec']:7.3f}s "
                f"({m['throughput_ops_per_sec']:9.0f} deliveries/s) "
                f"p50={m['p50_latency_sec'] * 1000:7.2f}ms "
                f"p95={m['p95_latency_sec'] * 1000:7.2f}ms "
                f"delivered={m['delivered_fraction']:.3f}"
            )

    payload = {
        "benchmark": "transport",
        "mode": "fast" if args.fast else "full",
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if status == 0:
        print("delivery sets verified on every backend")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
