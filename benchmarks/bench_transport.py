"""Transport backend benchmark: simulator vs socket backends, per wire codec.

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

The socket backends run once per wire codec (``json``, the golden-trace
reference, and ``binary``, the interned-string performance codec); each
binary record carries a ``speedup`` metric — the ratio of the JSON wall time
to the binary wall time for the same backend and config, measured in the
same invocation.  ``compare.py`` gates ``speedup`` (higher is better) and
the deterministic ``*_count`` delivery totals (exact), so both the headline
codec win and the delivery sets are CI-guarded.  Each row is the best of
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
    PYTHONPATH=src python benchmarks/bench_transport.py --fast --codec binary
    python benchmarks/compare.py BENCH_transport.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.pubsub.testing import run_line_workload  # noqa: E402


def run_backend(backend: str, brokers: int, notifications: int, codec=None, repeats: int = 3):
    """Run the shared line workload on one backend; returns (metrics, mismatches).

    The workload itself (progressive AtLeast filters, per-backend latency,
    delivery verification) lives in ``repro.pubsub.testing.run_line_workload``
    and is the exact code path the ``repro net-demo`` CLI exercises.  The
    fastest of ``repeats`` runs is recorded; every run's delivery sets are
    verified.
    """
    best = None
    mismatches = 0
    for _ in range(max(1, repeats)):
        result = run_line_workload(
            backend,
            brokers,
            notifications,
            topic="bench",
            payload_pad="x" * 32,
            config=SystemConfig(codec=codec or "json"),
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
        "--codec",
        choices=("json", "binary", "both"),
        default="both",
        help="wire codec(s) for the socket backends (default: both; the "
        "binary rows only carry a speedup metric when json ran too)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per (backend, codec, config); the best one is recorded (default: 3)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_transport.json"),
    )
    args = parser.parse_args(argv)

    codecs = ("json", "binary") if args.codec == "both" else (args.codec,)

    # fast mode keeps the (3, 600) record so its config key matches the
    # committed full-sweep baseline and compare.py finds shared records
    configs = [(3, 600)]
    if not args.fast:
        configs.append((5, 2000))

    results = []
    status = 0
    for brokers, notifications in configs:
        # sim rows are codec-free: the simulator passes object references and
        # never serializes, so its config key deliberately has no codec
        plan = [("sim", None)]
        backends = ["asyncio"]
        if not args.fast and (brokers, notifications) == (5, 2000):
            backends.append("cluster")  # the headline cross-process config
        for backend in backends:
            for codec in codecs:
                plan.append((backend, codec))

        walls = {}
        for backend, codec in plan:
            metrics, mismatches = run_backend(
                backend, brokers, notifications, codec=codec, repeats=args.repeats
            )
            if mismatches:
                print(
                    f"ERROR: {mismatches} subscriber(s) missed notifications "
                    f"(backend={backend}, codec={codec}, brokers={brokers})",
                    file=sys.stderr,
                )
                status = 1
            config = {
                "backend": backend,
                "brokers": brokers,
                "notifications": notifications,
            }
            note = ""
            if codec is not None:
                config["codec"] = codec
                walls[codec] = (backend, metrics["wall_sec"])
                if codec == "binary" and walls.get("json", (None,))[0] == backend:
                    metrics["speedup"] = walls["json"][1] / metrics["wall_sec"]
                    note = f"  speedup={metrics['speedup']:.2f}x vs json"
            results.append({"sweep": "transport", "config": config, "metrics": metrics})
            m = metrics
            print(
                f"transport {backend:<8} codec={codec or '-':<7} "
                f"brokers={brokers} n={notifications:<6} "
                f"wall={m['wall_sec']:7.3f}s "
                f"({m['throughput_ops_per_sec']:9.0f} deliveries/s) "
                f"p50={m['p50_latency_sec'] * 1000:7.2f}ms "
                f"p95={m['p95_latency_sec'] * 1000:7.2f}ms "
                f"delivered={m['delivered_fraction']:.3f}{note}"
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
