"""Cluster scale-out benchmark: single-process asyncio vs K broker processes.

The fan-out workload: a line of ``brokers`` brokers, ``fanout`` subscribers
per broker all matching the published topic, one publisher at the head.
Every notification therefore traverses the whole line and is delivered
``brokers x fanout`` times — each hop pays wire encode/decode + routing, so
the aggregate work grows with the broker count.  The same workload runs on:

* ``asyncio`` — all brokers, subscribers and their sockets inside ONE
  process (PR 3's backend): every hop's codec + routing work shares one GIL
  and one event loop;
* ``cluster`` — each broker in its own spawned OS process
  (:mod:`repro.net.cluster`): broker hops run in parallel across processes
  (pipelined along the line), and each child's receive path is a tight
  synchronous loop instead of a per-frame coroutine.

Both backends speak the binary wire codec, the only one a socket speaks.

Every run verifies each subscriber received exactly ``notifications``
deliveries — the benchmark doubles as an integration gate and exits non-zero
on any miss or on any broker child exiting non-zero.

Emits ``BENCH_cluster.json`` (see ``--output``).  Wall-clock metrics are
stored under ``*_sec`` keys that ``benchmarks/compare.py`` deliberately
ignores (machine-dependent); the CI job still diffs against the committed
baseline so record/config drift fails loudly.  Each config is run
``--repeat`` times per backend and the best run is recorded (best-of
damps scheduler noise, which dominates near-1x comparisons on small
machines).  ``speedup_vs_asyncio`` is recorded per cluster record; pass
``--require-speedup`` (used when regenerating the committed baseline) to
also fail the run unless the cluster beats single-process asyncio on the
headline config.  On a single-core machine the cluster wins through write
batching and its lean synchronous receive path; on multi-core it
additionally pipelines broker hops across processes.  Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_cluster.py --fast     # CI smoke
    python benchmarks/compare.py BENCH_cluster.json new.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.pubsub.broker_network import line_topology  # noqa: E402
from repro.pubsub.filters import Equals, Filter  # noqa: E402
from repro.pubsub.notification import Notification  # noqa: E402


def run_fanout(backend: str, brokers: int, fanout: int, notifications: int):
    """Run the fan-out workload on one backend.

    Returns ``(metrics, mismatches)``; a cluster broker child exiting
    non-zero raises ``SystemExit`` instead.  The publish wall time excludes
    topology boot (process spawning is a deployment cost, not a routing
    cost) but includes the drain to quiescence.
    """
    config = SystemConfig(transport=backend)
    net = line_topology(n_brokers=brokers, config=config)
    child_failures = {}
    try:
        subscribers = []
        for broker_name in net.broker_names():
            for i in range(fanout):
                client = net.add_client(f"sub{i}@{broker_name}", broker_name)
                client.subscribe(Filter([Equals("topic", "bench")]), sub_id=f"s{i}-{broker_name}")
                subscribers.append(client)
        net.run_until_idle()

        publisher = net.add_client("publisher", net.broker_names()[0])
        payloads = [
            Notification({"topic": "bench", "value": value, "pad": "x" * 32})
            for value in range(notifications)
        ]
        start = time.perf_counter()
        for payload in payloads:
            publisher.publish(payload)
        net.run_until_idle()
        wall = time.perf_counter() - start

        delivered = sum(len(client.deliveries) for client in subscribers)
        expected = notifications * len(subscribers)
        mismatches = sum(1 for client in subscribers if len(client.deliveries) != notifications)
        metrics = {
            "wall_sec": wall,
            "throughput_ops_per_sec": delivered / wall if wall > 0 else 0.0,
            "delivered_fraction": delivered / expected if expected else 1.0,
            "delivered_count": delivered,
            "expected_count": expected,
        }
        return metrics, mismatches
    finally:
        net.close()
        if backend == "cluster":
            child_failures.update(net.transport.failures)
        if child_failures:
            raise SystemExit(f"ERROR: broker process failures: {child_failures}")


#: the config whose cluster-vs-asyncio comparison is the headline claim
HEADLINE = (3, 2, 800)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="runs per backend per config; the best one is recorded (default: 3)",
    )
    parser.add_argument(
        "--require-speedup",
        action="store_true",
        help="fail unless the cluster beats single-process asyncio on the "
        "headline config (used when regenerating the committed baseline)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_cluster.json"),
    )
    args = parser.parse_args(argv)

    # fast mode keeps the headline record so its config key matches the
    # committed full-sweep baseline and compare.py finds shared records
    configs = [HEADLINE]
    if not args.fast:
        configs.append((2, 3, 1200))

    results = []
    status = 0
    for brokers, fanout, notifications in configs:
        throughput = {}
        for backend in ("asyncio", "cluster"):
            metrics = None
            best = -1.0
            for _ in range(max(1, args.repeat)):
                candidate, mismatches = run_fanout(backend, brokers, fanout, notifications)
                if mismatches:
                    print(
                        f"ERROR: {mismatches} subscriber(s) missed notifications "
                        f"(backend={backend}, brokers={brokers}, fanout={fanout})",
                        file=sys.stderr,
                    )
                    status = 1
                if candidate["throughput_ops_per_sec"] > best:
                    best = candidate["throughput_ops_per_sec"]
                    metrics = candidate
            throughput[backend] = metrics["throughput_ops_per_sec"]
            if backend == "cluster" and throughput["asyncio"] > 0:
                metrics["speedup_vs_asyncio"] = throughput["cluster"] / throughput["asyncio"]
            results.append(
                {
                    "sweep": "cluster",
                    "config": {
                        "backend": backend,
                        "brokers": brokers,
                        "fanout": fanout,
                        "notifications": notifications,
                    },
                    "metrics": metrics,
                }
            )
            note = ""
            if "speedup_vs_asyncio" in metrics:
                note = f"  speedup_vs_asyncio={metrics['speedup_vs_asyncio']:.2f}x"
            print(
                f"cluster {backend:<8} brokers={brokers} "
                f"fanout={fanout} n={notifications:<6} "
                f"wall={metrics['wall_sec']:7.3f}s "
                f"({metrics['throughput_ops_per_sec']:9.0f} deliveries/s) "
                f"delivered={metrics['delivered_fraction']:.3f}{note}"
            )
        if (
            args.require_speedup
            and (brokers, fanout, notifications) == HEADLINE
            and throughput["cluster"] <= throughput["asyncio"]
        ):
            print(
                f"ERROR: cluster ({throughput['cluster']:.0f}/s) did not beat "
                f"single-process asyncio ({throughput['asyncio']:.0f}/s) on the "
                f"headline config brokers={brokers}, fanout={fanout}",
                file=sys.stderr,
            )
            status = 1

    payload = {
        "benchmark": "cluster",
        "mode": "fast" if args.fast else "full",
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if status == 0:
        print("delivery sets verified on both backends")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
