"""Churn benchmark: steady-state matching throughput under subscription churn.

Two sweeps, the first self-gating (the benchmark exits non-zero when its
own acceptance bar fails, independent of ``compare.py``):

* ``churn_destinations`` — the headline table-level microbenchmark: 1k
  Range-heavy subscriptions over a handful of links, then rounds of one
  retire+admit churn pair followed by hot-shape ``destinations()`` queries,
  so every query is the first one after a mutation — the normal case in a
  mobile fabric.  The ``"indexed"`` matcher's incrementally repaired
  :class:`~repro.pubsub.matching.IntervalBucketIndex` absorbs each churn
  pair with two bisects and answers from one bucket; ``"brute"`` evaluates
  every entry.  The gated statistic is ``speedup`` (indexed queries/s over
  brute queries/s, best of the interleaved repeats); the run *fails* below
  ``--speedup-floor`` (default 3.0).  An untimed verification pass replays
  the same churn against a lockstep brute-force oracle:
  ``oracle_mismatch_count`` (every query compared) is an exact-gated zero.
* ``churn_backends`` — the same Range-heavy churn shape end-to-end: a
  3-broker line per backend with ``matcher="indexed"``, publishes
  interleaved with between-phase subscription swaps, delivered notification
  ids per subscriber compared against a sim run with ``matcher="brute"``.
  ``delivered_count`` and ``oracle_divergence_count`` are exact-gated; the
  cluster backend joins on the full sweep.

Emits ``BENCH_churn.json`` (see ``--output``).  Usage::

    PYTHONPATH=src python benchmarks/bench_churn.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_churn.py --fast   # CI smoke
    python benchmarks/compare.py BENCH_churn.json new.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.pubsub.broker_network import line_topology  # noqa: E402
from repro.pubsub.filters import Filter, Range  # noqa: E402
from repro.pubsub.notification import Notification  # noqa: E402
from repro.pubsub.routing_table import RoutingTable  # noqa: E402

SUBSCRIPTIONS = 1000
LINKS = 4
ROUNDS = 600
QUERIES_PER_ROUND = 2
HOT_SHAPES = 8
VALUE_SPACE = 10_000.0


def _random_filter(rng: random.Random) -> Filter:
    low = rng.uniform(0, VALUE_SPACE)
    return Filter([Range("value", low, low + rng.uniform(1, 120))])


def _build_table(matcher: str, rng: random.Random) -> tuple:
    table = RoutingTable(matcher=matcher)
    subs = []
    for i in range(SUBSCRIPTIONS):
        sub_id = f"s{i}"
        table.add(_random_filter(rng), f"L{i % LINKS}", sub_id)
        subs.append(sub_id)
    return table, subs


def _timed_churn(matcher: str, seed: int) -> float:
    """Steady churn: one retire+admit pair then hot queries; returns queries/s."""
    rng = random.Random(seed)
    table, subs = _build_table(matcher, rng)
    hot = [{"value": rng.uniform(0, VALUE_SPACE)} for _ in range(HOT_SHAPES)]
    next_id = SUBSCRIPTIONS
    queries = 0
    start = time.perf_counter()
    for _ in range(ROUNDS):
        victim = subs.pop(rng.randrange(len(subs)))
        table.remove(victim)
        sub_id = f"s{next_id}"
        next_id += 1
        table.add(_random_filter(rng), f"L{next_id % LINKS}", sub_id)
        subs.append(sub_id)
        for _ in range(QUERIES_PER_ROUND):
            table.destinations(rng.choice(hot))
            queries += 1
    return queries / (time.perf_counter() - start)


def _verify_churn(seed: int) -> tuple:
    """Replay the identical churn with both matchers in lockstep.

    Every query is compared between brute (the oracle) and indexed; returns
    the number of queries on which they disagree.
    """
    # identical seed per build -> both tables start byte-identical
    brute, _ = _build_table("brute", random.Random(seed))
    indexed, subs = _build_table("indexed", random.Random(seed))
    hot_rng = random.Random(seed)
    for _ in range(2 * SUBSCRIPTIONS):  # skip the draws _build_table consumed
        hot_rng.random()
    hot = [{"value": hot_rng.uniform(0, VALUE_SPACE)} for _ in range(HOT_SHAPES)]
    rng = random.Random(seed + 1)
    next_id = SUBSCRIPTIONS
    mismatches = 0
    for _ in range(ROUNDS):
        victim = subs.pop(rng.randrange(len(subs)))
        new_filter = _random_filter(rng)
        sub_id = f"s{next_id}"
        next_id += 1
        link = f"L{next_id % LINKS}"
        for table in (brute, indexed):
            table.remove(victim)
            table.add(new_filter, link, sub_id)
        subs.append(sub_id)
        for _ in range(QUERIES_PER_ROUND):
            probe = rng.choice(hot)
            if indexed.destinations(probe) != brute.destinations(probe):
                mismatches += 1
    return mismatches


def run_destinations_sweep(repeats: int, speedup_floor: float, seed: int):
    """The headline microbenchmark; returns (record, failures)."""
    failures = []
    brute_best = indexed_best = 0.0
    for _ in range(repeats):
        brute_best = max(brute_best, _timed_churn("brute", seed))
        indexed_best = max(indexed_best, _timed_churn("indexed", seed))
    speedup = indexed_best / brute_best
    mismatches = _verify_churn(seed)
    if speedup < speedup_floor:
        failures.append(
            f"steady-churn speedup {speedup:.2f}x below the {speedup_floor:.1f}x floor "
            f"(indexed {indexed_best:.0f} q/s vs brute {brute_best:.0f} q/s)"
        )
    if mismatches:
        failures.append(f"{mismatches} destinations() mismatches against the brute oracle")
    record = {
        "sweep": "churn_destinations",
        "config": {
            "subscriptions": SUBSCRIPTIONS,
            "links": LINKS,
            "rounds": ROUNDS,
            "queries_per_round": QUERIES_PER_ROUND,
            "seed": seed,
        },
        "metrics": {
            "speedup": speedup,
            "indexed_qps": indexed_best,
            "brute_qps": brute_best,
            "indexed_query_usec": 1e6 / indexed_best,
            "brute_query_usec": 1e6 / brute_best,
            "oracle_mismatch_count": mismatches,
        },
    }
    print(
        f"destinations  subs={SUBSCRIPTIONS} links={LINKS} rounds={ROUNDS} "
        f"indexed={indexed_best:8.0f} q/s brute={brute_best:8.0f} q/s "
        f"speedup={speedup:5.2f}x mismatches={mismatches}"
    )
    return record, failures


def _run_backend_workload(backend: str, matcher: str, phases: int, per_phase: int, seed: int):
    """Range-heavy publish/churn workload on one backend, end to end.

    Every random draw comes from one ``Random(seed)`` in a backend-independent
    order, and churn only happens at quiescence, so the delivered notification
    ids per subscriber are an exact cross-backend/cross-matcher invariant.
    """
    rng = random.Random(seed)
    net = line_topology(n_brokers=3, config=SystemConfig(matcher=matcher, transport=backend))
    try:
        subscribers = []
        serial = 0
        for broker_name in net.broker_names():
            for _ in range(2):
                client = net.add_client(f"sub{serial}@{broker_name}", broker_name)
                low = rng.randrange(0, 900)
                client.subscribe(
                    Filter([Range("value", low, low + rng.randrange(20, 200))]),
                    sub_id=f"r{serial}",
                )
                subscribers.append([client, f"r{serial}"])
                serial += 1
        net.run_until_idle()
        publisher = net.add_client("pub", net.broker_names()[0])
        next_id = 1_000_000
        published = 0
        start = time.perf_counter()
        for _ in range(phases):
            for _ in range(per_phase):
                publisher.publish(
                    Notification({"value": rng.randrange(0, 1000)}, notification_id=next_id)
                )
                next_id += 1
                published += 1
            net.run_until_idle()
            # between-phase churn: one subscriber swaps its range
            entry = subscribers[rng.randrange(len(subscribers))]
            client, old_id = entry
            client.unsubscribe(old_id)
            low = rng.randrange(0, 900)
            new_id = f"r{serial}"
            serial += 1
            client.subscribe(
                Filter([Range("value", low, low + rng.randrange(20, 200))]), sub_id=new_id
            )
            entry[1] = new_id
            net.run_until_idle()
        wall = time.perf_counter() - start
        delivered = {
            client.name: sorted(d.notification.notification_id for d in client.deliveries)
            for client, _ in subscribers
        }
        return delivered, published, wall
    finally:
        net.close()


def run_backend_sweep(backend: str, oracle, phases: int, per_phase: int, seed: int):
    """Indexed matcher on ``backend`` vs the sim brute oracle; (record, failures)."""
    failures = []
    delivered, published, wall = _run_backend_workload(backend, "indexed", phases, per_phase, seed)
    divergences = sum(1 for name, ids in oracle.items() if delivered.get(name) != ids)
    if divergences:
        failures.append(
            f"{backend}: {divergences} subscriber(s) diverged from the sim brute oracle"
        )
    delivered_total = sum(len(ids) for ids in delivered.values())
    record = {
        "sweep": "churn_backends",
        "config": {"backend": backend, "phases": phases, "per_phase": per_phase, "seed": seed},
        "metrics": {
            "wall_sec": wall,
            "published_count": published,
            "delivered_count": delivered_total,
            "oracle_divergence_count": divergences,
        },
    }
    print(
        f"backends      {backend:<8} phases={phases} per_phase={per_phase} "
        f"wall={wall:7.3f}s delivered={delivered_total} divergences={divergences}"
    )
    return record, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved runs per timed arm; best is recorded (default: 3)",
    )
    parser.add_argument(
        "--speedup-floor",
        type=float,
        default=3.0,
        help="minimum indexed-over-brute steady-churn speedup (default: 3.0)",
    )
    parser.add_argument("--seed", type=int, default=7, help="churn workload seed (default: 7)")
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_churn.json"),
    )
    args = parser.parse_args(argv)

    results = []
    failures = []

    repeats = 1 if args.fast else max(1, args.repeats)
    record, errors = run_destinations_sweep(repeats, args.speedup_floor, args.seed)
    results.append(record)
    failures.extend(errors)

    # end-to-end: delivered sets must be identical to a sim brute-force run
    phases, per_phase = 12, 25
    oracle, _published, _wall = _run_backend_workload("sim", "brute", phases, per_phase, args.seed)
    backends = ["sim", "asyncio"]
    if not args.fast:
        backends.append("cluster")
    for backend in backends:
        record, errors = run_backend_sweep(backend, oracle, phases, per_phase, args.seed)
        results.append(record)
        failures.extend(errors)

    payload = {
        "benchmark": "churn",
        "mode": "fast" if args.fast else "full",
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if not failures:
        print(
            "steady-churn speedup above the floor; destinations identical to brute "
            "on every backend"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
