"""Covering/merging subscription-control scaling benchmark.

Three sweeps:

* **churn** — subscribe/unsubscribe churn driven straight through a routing
  strategy (identity / covering / merging) against a fake broker, comparing
  the scan oracle (``repro.pubsub.testing.scan_strategy``: rebuild the
  forwarded-filter list and re-run ``covers`` per query) with the product's
  incremental forwarded-filter index.  Both runs see the same operation
  sequence and their control-message logs are asserted identical (up to
  generated merged-subscription ids).
* **unsub-churn** — the same drive with every second operation an
  unsubscription (a mobile fabric lives on unsubscribe + subscribe), timing
  ``handle_unsubscribe`` and ``handle_subscribe`` apart: ``unsubscribe_us``
  is the mean per call in incremental mode.  ``--before FILE`` embeds the
  sweep as measured by an earlier run — this script copied into a checkout
  of the parent commit, on the same machine — so the committed record holds
  the before and the after.
* **range-table** — ``RoutingTable.destinations`` on a Range-dominated
  workload (the paper's location/zone band filters), the brute-force oracle
  (``repro.pubsub.testing.BruteRoutingTable``) vs the indexed table, which
  exercises the per-attribute Range buckets (``IntervalBucketIndex``).

Emits ``BENCH_covering.json`` (see ``--output``), consumable by
``benchmarks/compare.py``.  Absolute wall times are recorded under
``*_sec``/``*_ops_per_sec`` keys, which ``compare.py`` deliberately ignores:
they are machine-dependent, so the CI regression gate runs on the
machine-portable ``speedup`` ratios only.  Usage::

    PYTHONPATH=src python benchmarks/bench_covering_scale.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_covering_scale.py --fast   # CI smoke
    python benchmarks/compare.py BENCH_covering.json new.json

``compare.py`` matches records by configuration and the fast run's
unsub-churn sizes differ from the full run's, so the machine-dependent
``unsubscribe_us`` is never compared across machines; the fast run gates the
sweep itself (identical decisions, >= 5x over scan).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pubsub.filters import Equals, Filter, Range  # noqa: E402
from repro.pubsub.notification import Notification  # noqa: E402
from repro.pubsub.routing import make_strategy  # noqa: E402
from repro.pubsub.routing_table import RoutingTable  # noqa: E402
from repro.pubsub.subscription import Subscription  # noqa: E402
from repro.pubsub.testing import BruteRoutingTable  # noqa: E402
from repro.pubsub.testing import RecordingBroker as FakeBroker  # noqa: E402
from repro.pubsub.testing import scan_strategy  # noqa: E402
from repro.pubsub.testing import normalize_merged_ids as normalized  # noqa: E402

#: share of subscribes followed by an unsubscribe of a random live subscription, per sweep
UNSUBSCRIBE_SHARE = {"churn": 0.25, "unsub-churn": 0.5}
N_SERVICES = 40
N_LOCATIONS = 12
BAND = 10  # value bands are quantized so filters repeat and cover each other


def make_covering_filter(rng: random.Random) -> Filter:
    """Overlap-heavy filters in the shape of the paper's workloads: a few
    broad service subscriptions cover many narrower band/location ones."""
    roll = rng.random()
    service = Equals("service", f"svc-{rng.randrange(N_SERVICES)}")
    if roll < 0.10:
        return Filter([service])
    if roll < 0.50:
        low = BAND * rng.randrange(0, 10)
        return Filter([service, Range("value", low, low + BAND * rng.randint(1, 3))])
    if roll < 0.80:
        return Filter([service, Equals("location", f"r{rng.randrange(N_LOCATIONS)}")])
    low = BAND * rng.randrange(0, 10)
    return Filter([Range("value", low, low + BAND * rng.randint(1, 2))])


def make_ops(subscriptions: int, seed: int, unsubscribe_share: float):
    """A churn schedule: ~subscriptions subscribes, each followed by an
    unsubscribe of a random live subscription with ``unsubscribe_share``."""
    rng = random.Random(seed)
    ops = []
    live = []
    for step in range(subscriptions):
        filter = make_covering_filter(rng)
        sub_id = f"s{step}"
        from_link = rng.choice(["c1", "c2"])
        ops.append(("sub", sub_id, filter, from_link))
        live.append((sub_id, filter, from_link))
        if live and rng.random() < unsubscribe_share:
            ops.append(("unsub", *live.pop(rng.randrange(len(live)))))
    return ops


def run_churn(strategy_name: str, advertising: str, ops, links: int):
    """Drive ``ops`` through the product strategy (``advertising="incremental"``)
    or its scan oracle; returns (seconds by operation kind, control-message log)."""
    broker = FakeBroker([f"N{i}" for i in range(links)])
    build = scan_strategy if advertising == "scan" else make_strategy
    strategy = build(strategy_name, broker)
    seconds = {"sub": 0.0, "unsub": 0.0}
    for op, sub_id, filter, from_link in ops:
        start = time.perf_counter()
        if op == "sub":
            strategy.handle_subscribe(
                Subscription(sub_id=sub_id, filter=filter, subscriber=from_link), from_link
            )
        else:
            strategy.handle_unsubscribe(sub_id, filter, from_link)
        seconds[op] += time.perf_counter() - start
    return seconds, broker.log


def bench_churn(
    strategy_name: str,
    subscriptions: int,
    links: int,
    seed: int = 0,
    compare_scan: bool = True,
    sweep: str = "churn",
):
    """One record of the churn sweep, or of its unsubscribe-heavy variant."""
    ops = make_ops(subscriptions, seed, UNSUBSCRIBE_SHARE[sweep])
    config = {"strategy": strategy_name, "subscriptions": subscriptions, "links": links}
    metrics = {}
    seconds, incremental_log = run_churn(strategy_name, "incremental", ops, links)
    incremental_s = sum(seconds.values())
    metrics["incremental_sec"] = incremental_s
    metrics["incremental_ops_per_sec"] = len(ops) / incremental_s
    if sweep == "unsub-churn":
        config["unsubscribe_share"] = UNSUBSCRIBE_SHARE[sweep]
        unsubscribes = sum(op[0] == "unsub" for op in ops)
        metrics["unsubscribe_us"] = 1e6 * seconds["unsub"] / unsubscribes
        metrics["subscribe_us"] = 1e6 * seconds["sub"] / (len(ops) - unsubscribes)
        metrics["control_messages_count"] = len(incremental_log)
    if compare_scan:
        scan_seconds, scan_log = run_churn(strategy_name, "scan", ops, links)
        if normalized(scan_log) != normalized(incremental_log):
            raise AssertionError(
                f"forwarding divergence: strategy={strategy_name} subs={subscriptions}"
            )
        metrics["scan_sec"] = scan_s = sum(scan_seconds.values())
        metrics["speedup"] = scan_s / incremental_s
        metrics["decisions_identical"] = True
    return {
        "sweep": sweep,
        "config": config,
        "metrics": metrics,
    }


# --------------------------------------------------------------- range sweep


def make_range_filter(rng: random.Random) -> Filter:
    """Range-dominated subscriptions: narrow numeric bands, no equality key."""
    attribute = rng.choice(["value", "zone"])
    low = rng.uniform(0, 900)
    return Filter([Range(attribute, low, low + rng.uniform(5, 40))])


def bench_range_table(links: int, subscriptions: int, notifications: int, seed: int = 0):
    rng = random.Random(seed)
    filters = [(make_range_filter(rng), f"L{i % links}", f"s{i}") for i in range(subscriptions)]
    payloads = [
        Notification({"value": rng.uniform(0, 1000), "zone": rng.uniform(0, 1000)})
        for _ in range(notifications)
    ]
    metrics = {}
    reference = None
    for matcher, make_table in (("brute", BruteRoutingTable), ("indexed", RoutingTable)):
        table = make_table()
        for filter, link, sub_id in filters:
            table.add(filter, link, sub_id)
        # the first query after the build batch is reported apart from the
        # steady-state per-notification measurement: it must cost no more
        # than any other (nothing is rebuilt on a query)
        start = time.perf_counter()
        table.destinations(payloads[0])
        metrics[f"{matcher}_first_query_sec"] = time.perf_counter() - start
        results = []
        start = time.perf_counter()
        for payload in payloads:
            results.append(table.destinations(payload))
        elapsed = time.perf_counter() - start
        metrics[f"{matcher}_sec"] = elapsed
        if reference is None:
            reference = results
        elif results != reference:
            raise AssertionError(
                f"matcher divergence on range workload: subs={subscriptions}"
            )
    metrics["speedup"] = metrics["brute_sec"] / metrics["indexed_sec"]
    metrics["destinations_identical"] = True
    return {
        "sweep": "range-table",
        "config": {"links": links, "subscriptions": subscriptions},
        "metrics": metrics,
    }


# -------------------------------------------------------- probe-order check


def assert_cheapest_first_probe_order() -> None:
    """Micro-assert: covering candidates are probed cheapest-first.

    Builds a forwarded-filter index whose single pin group holds filters of
    different constraint counts (several constraints on the same attribute
    share one attribute-set bucket) and checks the group's ``(low, high,
    filter)`` members are kept in ascending constraint count as members come
    and go; only the one-range filter carries bounds to compare.
    """
    from repro.pubsub.routing import _ForwardedFilterIndex

    index = _ForwardedFilterIndex()
    three = Filter([Range("value", 0, 100), Range("value", 20, 80), Range("value", 40, 60)])
    one = Filter([Range("value", -1000, 1000)])
    two = Filter([Range("value", 0, 100), Range("value", 10, 90)])
    index.set_contribution("s3", "L", [three])
    index.set_contribution("s1", "L", [one])
    index.set_contribution("s2", "L", [two])
    ((group,),) = (groups.values() for groups in index._links["L"].by_attrs.values())
    counts = [len(f.constraints) for _low, _high, f in group]
    assert counts == [1, 2, 3], f"probe order not cheapest-first: {counts}"
    bounds = [(low, high) for low, high, _f in group]
    assert bounds == [(-1000, 1000), (None, None), (None, None)], f"member bounds: {bounds}"
    # the cheap broad filter must decide covered() without the narrow probes
    assert index.covered("L", Filter([Range("value", 5, 6)]))
    index.remove_contribution("s1", "L")
    counts = [len(f.constraints) for _low, _high, f in group]
    assert counts == [2, 3], f"stale probe order after removal: {counts}"
    print("probe-order micro-assert: ok")


def assert_wire_fragment_caches() -> None:
    """Micro-assert: domain wire fragments are cached once.

    Filters, subscriptions and notifications are immutable, so their binary
    wire fragment is memoized on the object.  Encoding the same payload
    twice must go *via the cache* (the second encode reuses the stored
    fragment object).
    """
    from repro.net.process import Message
    from repro.net.wire import frame_message_binary

    filt = Filter([Equals("service", "svc-0"), Range("value", 0, 100)])
    sub = Subscription(sub_id="s-cache", filter=filt, subscriber="c1")
    notif = Notification({"topic": "bench", "value": 7, "pad": "x" * 8})

    def lookup(payload):
        # a Subscription (frozen dataclass, no slots) has no attribute until cached
        return getattr(payload, "_wire_bin", None)

    for payload in (filt, sub, notif):
        assert lookup(payload) is None, f"{payload!r}: stale binary cache"
        frame_message_binary(Message(kind="publish", payload=payload, sender="bench"))
        fragment = lookup(payload)
        assert isinstance(fragment, bytes), f"{type(payload).__name__}: fragment not cached"
        # a re-encode must *hit* the cache: same fragment object, not a rebuild
        frame_message_binary(Message(kind="publish", payload=payload, sender="bench"))
        assert lookup(payload) is fragment, (
            f"{type(payload).__name__}: re-encode rebuilt the fragment"
        )
    print("wire-fragment cache micro-assert: ok")


# -------------------------------------------------------------------- driver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--output",
        "-o",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_covering.json"),
    )
    parser.add_argument(
        "--before", help="an earlier run's output (parent commit, same machine) to embed"
    )
    args = parser.parse_args(argv)

    strategies = ("identity", "covering", "merging")
    if args.fast:
        assert_cheapest_first_probe_order()
        assert_wire_fragment_caches()
        churn_configs = [(s, 1000, 4, True) for s in strategies]
        # sizes the full sweep does not use: compare.py must not match these
        # records, their per-call microseconds are machine speed
        unsub_configs = [("covering", 300, True), ("simple", 300, True)]
        range_configs = [(4, 1000)]
        # same notification count as the full sweep: the record shares its
        # config key with the committed baseline, so the measured ratio must
        # come from the same sample
        range_notifications = 300
    else:
        churn_configs = [
            (s, subs, 4, True) for s in strategies for subs in (1000, 3000)
        ] + [
            # scan is O(subscriptions) per decision: at 10k it would dominate
            # the run, so the largest size records incremental throughput only
            (s, 10000, 4, False) for s in strategies
        ]
        # scan re-examines every pair against every advertisement on every
        # unsubscription: covering at 2000 would run for the better part of
        # an hour, so its decisions are checked at 400 and simple's at both
        unsub_configs = [
            ("covering", 2000, False),
            ("simple", 2000, True),
            ("covering", 400, True),
            ("simple", 400, True),
        ]
        range_configs = [(4, 1000), (4, 5000)]
        range_notifications = 300

    results = []
    for strategy, subs, links, compare_scan in churn_configs:
        record = bench_churn(strategy, subs, links, compare_scan=compare_scan)
        results.append(record)
        m = record["metrics"]
        line = (
            f"churn   {strategy:<9} subs={subs:<6} "
            f"incremental={m['incremental_sec']:7.3f}s "
            f"({m['incremental_ops_per_sec']:9.0f} ops/s)"
        )
        if "speedup" in m:
            line += f" scan={m['scan_sec']:8.3f}s speedup={m['speedup']:6.1f}x"
        print(line)
    for strategy, subs, compare_scan in unsub_configs:
        record = bench_churn(strategy, subs, 4, compare_scan=compare_scan, sweep="unsub-churn")
        results.append(record)
        m = record["metrics"]
        line = (
            f"unsub   {strategy:<9} subs={subs:<6} "
            f"unsubscribe={m['unsubscribe_us']:9.1f}us subscribe={m['subscribe_us']:7.1f}us"
        )
        if "speedup" in m:
            line += f" scan={m['scan_sec']:8.3f}s speedup={m['speedup']:6.1f}x"
        print(line)
    for links, subs in range_configs:
        record = bench_range_table(links, subs, range_notifications)
        results.append(record)
        m = record["metrics"]
        print(
            f"range   links={links:<2} subs={subs:<6} "
            f"brute={m['brute_sec']:7.3f}s indexed={m['indexed_sec']:7.3f}s "
            f"speedup={m['speedup']:6.1f}x"
        )

    # headline: the worst covering/merging churn speedup at >= 1000 subscriptions
    headline_pool = [
        r for r in results
        if r["sweep"] == "churn"
        and r["config"]["strategy"] in ("covering", "merging")
        and r["config"]["subscriptions"] >= 1000
        and "speedup" in r["metrics"]
    ]
    headline = min(headline_pool, key=lambda r: r["metrics"]["speedup"]) if headline_pool else None
    range_pool = [r for r in results if r["sweep"] == "range-table"]
    range_headline = max(range_pool, key=lambda r: r["metrics"]["speedup"]) if range_pool else None

    unsub_headline = next(
        r for r in results if r["sweep"] == "unsub-churn" and r["config"]["strategy"] == "covering"
    )
    payload = {
        "benchmark": "covering_scale",
        "mode": "fast" if args.fast else "full",
        "results": results,
        "headline": headline,
        "range_headline": range_headline,
        "unsub_headline": unsub_headline,
    }
    if args.before:
        before = json.loads(Path(args.before).read_text())
        payload["before"] = {
            "note": "the unsub-churn sweep of this script run on the parent commit, same machine",
            "results": [r for r in before["results"] if r["sweep"] == "unsub-churn"],
        }
        was = before["unsub_headline"]
        if was["config"] != unsub_headline["config"] or (
            was["metrics"]["control_messages_count"]
            != unsub_headline["metrics"]["control_messages_count"]
        ):
            raise AssertionError("the --before run did not drive the same unsub-churn headline")
        payload["unsubscribe_speedup_vs_before"] = (
            was["metrics"]["unsubscribe_us"] / unsub_headline["metrics"]["unsubscribe_us"]
        )
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    status = 0
    if headline is not None:
        speedup = headline["metrics"]["speedup"]
        print(f"headline (worst covering/merging churn): {headline['config']} -> {speedup:.1f}x")
        if speedup < 5.0:
            print("WARNING: churn speedup below the 5x acceptance bar", file=sys.stderr)
            status = 1
    m = unsub_headline["metrics"]
    print(f"unsub-churn headline: {unsub_headline['config']} -> {m['unsubscribe_us']:.1f}us")
    if "unsubscribe_speedup_vs_before" in payload:
        print(f"  {payload['unsubscribe_speedup_vs_before']:.1f}x the --before run")
    if "speedup" in m and m["speedup"] < 5.0:
        print("WARNING: unsubscribe-heavy churn speedup below the 5x bar", file=sys.stderr)
        status = 1
    if range_headline is not None:
        speedup = range_headline["metrics"]["speedup"]
        print(f"range-table headline: {range_headline['config']} -> {speedup:.1f}x")
        if speedup < 1.5:
            print("WARNING: range-indexed destinations() shows no measurable win", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
