"""The traced run: per-layer metrics for one workload.

Times come from loops, run here, over the workload's *own* generated filters
and notifications calling each layer's public functions; counts come from the
counters the program already keeps, read at the end of the first traced
repetition.  A layer the workload does not exercise (the wire on a simulator
workload, the replicator on a static one) reads 0.  Layer names are module
names under ``src/repro``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count, cycle, islice
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.config import SystemConfig
from repro.core.buffering import NotificationBuffer
from repro.core.location import cell_grid_space, cell_name
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub
from repro.core.mobile_client import MobileClient
from repro.net.process import Message, Process
from repro.net.simulator import Simulator
from repro.net.transport import AsyncioTransport, SimTransport
from repro.net.wire import FrameDecoder, get_codec
from repro.obs.metrics import MetricsRegistry
from repro.pubsub.broker_network import BrokerNetwork, line_topology
from repro.pubsub.client import Client
from repro.pubsub.filters import Filter
from repro.pubsub.matching import AttributeIndexMatcher
from repro.pubsub.notification import Notification
from repro.pubsub.routing import make_strategy
from repro.pubsub.routing_table import RoutingTable
from repro.pubsub.subscription import subscription
from repro.pubsub.testing import RecordingBroker

from calibrate import reference_s, slowdown, timed_rep
from tracing import Tracer

#: calls that become spans during a traced repetition
BOUNDARIES = [
    (BrokerNetwork, "add_client", "pubsub.broker_network"),
    (Client, "subscribe", "pubsub.client"),
    (Client, "unsubscribe", "pubsub.client"),
    (Client, "publish", "pubsub.client"),
    (SimTransport, "run_until_idle", "net.transport"),
    (AsyncioTransport, "run_until_idle", "net.transport"),
    (Simulator, "run", "net.simulator"),
    (Simulator, "run_until_idle", "net.simulator"),
    (MobilePubSub, "attach", "core.middleware"),
    (MobilePubSub, "move", "core.middleware"),
    (MobilePubSub, "power_off", "core.middleware"),
    (MobilePubSub, "power_on", "core.middleware"),
    (MobileClient, "subscribe_location", "core.mobile_client"),
    (MobileClient, "subscribe", "core.mobile_client"),
    (MobileClient, "unsubscribe", "core.mobile_client"),
]

#: items per timing loop; three rounds of each, the median reported
LOOP_ITEMS = 2000
ROUNDS = 3

#: every per-layer metric, with its unit — the order they are printed in
UNITS = {
    "pubsub.filters.matches_ns": "ns",
    "pubsub.filters.covers_ns": "ns",
    "pubsub.matching.match_us": "us",
    "pubsub.matching.update_us": "us",
    "pubsub.routing_table.destinations_miss_us": "us",
    "pubsub.routing_table.destinations_hit_us": "us",
    "pubsub.routing_table.destinations_small_us": "us",
    "pubsub.routing_table.update_us": "us",
    "pubsub.routing_table.cache_hit_share": "share",
    "pubsub.routing.subscribe_us": "us",
    "pubsub.routing.unsubscribe_us": "us",
    "pubsub.routing.forwards_per_op": "count",
    "pubsub.broker.hop_us": "us",
    "pubsub.broker.forwards_per_publish": "count",
    "pubsub.broker.deliveries_per_publish": "count",
    "pubsub.broker.duplicates_dropped": "count",
    "pubsub.client.publish_us": "us",
    "net.process.msgs_per_delivery": "count",
    "net.simulator.events_per_s": "1/s",
    "net.simulator.events_per_delivery": "count",
    "net.wire.frame_us.binary": "us",
    "net.wire.frame_cached_us.binary": "us",
    "net.wire.decode_us.binary": "us",
    "net.wire.split_us": "us",
    "net.wire.bytes_per_msg.binary": "bytes",
    "net.wire.subscribe_frame_us.binary": "us",
    "net.wire.frame_us.json": "us",
    "net.wire.decode_us.json": "us",
    "net.wire.bytes_per_msg.json": "bytes",
    "net.transport.raw_msgs_per_s": "1/s",
    "net.transport.frames_per_write": "count",
    "net.transport.bytes_per_delivery": "bytes",
    "net.transport.residual_us_per_msg": "us",
    "net.transport.idle_floor_ms": "ms",
    "net.transport.link_open_ms": "ms",
    "core.replicator.handovers": "count",
    "core.replicator.shadows_created": "count",
    "core.replicator.exception_activations": "count",
    "core.replicator.control_msgs_per_handover": "count",
    "core.replicator.shadow_useful_share": "share",
    "core.buffering.add_us": "us",
    "core.buffering.drain_us": "us",
    "core.buffering.peak_bytes": "bytes",
    "core.location_filter.bind_us": "us",
    "obs.metrics.inc_ns": "ns",
    "obs.metrics.observe_ns": "ns",
    "obs.metrics.overhead_share": "share",
    "bench.loadgen.lateness_p99_ms": "ms",
    "bench.loadgen.latency_p99_ms": "ms",
    "bench.ledger.accounted_share": "share",
    "bench.trace.overhead_share": "share",
}


def per_item(op: Callable, make_items: Callable[[], list]) -> float:
    """Median seconds ``op`` takes per item, over ROUNDS fresh item lists."""
    rounds = []
    for _ in range(ROUNDS):
        items = make_items()
        start = perf_counter()
        for item in items:
            op(item)
        rounds.append((perf_counter() - start) / len(items))
    return median(rounds)


def take(items: list, count: int = LOOP_ITEMS) -> list:
    """``count`` items, cycling when there are fewer."""
    return list(islice(cycle(items), count))


# ----------------------------------------------------------------- layer loops


def matching_layers(filters: List[Filter], contents: List[Dict]) -> Dict[str, float]:
    """pubsub.filters, pubsub.matching, pubsub.routing_table, pubsub.routing."""
    probes = take(contents)
    serial = count()

    def unique() -> List[Dict]:
        # one attribute no filter names makes each probe a new cache key: a miss
        return [dict(content, probe=next(serial)) for content in probes]

    pairs = list(zip(take(filters), probes))
    neighbours = list(zip(take(filters), take(filters[1:] + filters[:1])))
    subs = [subscription(f, subscriber="bench", sub_id=f"m{i}") for i, f in enumerate(filters)]
    churned = take(subs)
    out = {
        "pubsub.filters.matches_ns": per_item(lambda p: p[0].matches(p[1]), lambda: pairs) * 1e9,
        "pubsub.filters.covers_ns": per_item(lambda p: p[0].covers(p[1]), lambda: neighbours) * 1e9,
    }

    matcher = AttributeIndexMatcher()
    for sub in subs:
        matcher.add(sub)
    out["pubsub.matching.match_us"] = per_item(matcher.match, lambda: probes) * 1e6

    def matcher_swap(sub) -> None:
        matcher.remove(sub.sub_id)
        matcher.add(sub)

    out["pubsub.matching.update_us"] = per_item(matcher_swap, lambda: churned) * 1e6

    table = RoutingTable(matcher=SystemConfig().matcher)
    for i, sub in enumerate(subs):
        table.add_subscription(sub, f"L{i % 4}")
    out["pubsub.routing_table.destinations_miss_us"] = per_item(table.destinations, unique) * 1e6
    hot = unique()
    for probe in hot:
        table.destinations(probe)
    out["pubsub.routing_table.destinations_hit_us"] = (
        per_item(table.destinations, lambda: hot) * 1e6
    )
    small = RoutingTable(matcher=SystemConfig().matcher)
    for i, sub in enumerate(subs[:5]):
        small.add_subscription(sub, f"L{i}")
    out["pubsub.routing_table.destinations_small_us"] = per_item(small.destinations, unique) * 1e6
    links = {sub.sub_id: f"L{i % 4}" for i, sub in enumerate(subs)}

    def table_swap(sub) -> None:
        table.remove(sub.sub_id)
        table.add_subscription(sub, links[sub.sub_id])

    out["pubsub.routing_table.update_us"] = per_item(table_swap, lambda: churned) * 1e6

    # the covering strategy as one broker sees it: subscriptions arrive on one
    # link, are forwarded (or found covered) towards two neighbours.  At most
    # sub_churn_sim's 400: an unsubscribe re-examines what it covered, 56 ms
    # apiece at 2000 subscriptions
    broker = RecordingBroker(["N1", "N2"])
    strategy = make_strategy("covering", broker)
    batch = subs[:400]
    subscribe_s, unsubscribe_s = [], []
    for _ in range(ROUNDS):
        start = perf_counter()
        for sub in batch:
            strategy.handle_subscribe(sub, "C1")
        subscribed = perf_counter()
        for sub in batch:
            strategy.handle_unsubscribe(sub.sub_id, sub.filter, "C1")
        subscribe_s.append((subscribed - start) / len(batch))
        unsubscribe_s.append((perf_counter() - subscribed) / len(batch))
    out["pubsub.routing.subscribe_us"] = median(subscribe_s) * 1e6
    out["pubsub.routing.unsubscribe_us"] = median(unsubscribe_s) * 1e6
    out["pubsub.routing.forwards_per_op"] = len(broker.log) / (2 * ROUNDS * len(batch))
    return out


def hop_layer(contents: List[Dict]) -> float:
    """pubsub.broker.hop_us: one broker, one subscriber, simulator — per publish."""
    probes = take(contents)
    rounds = []
    for _ in range(ROUNDS):
        net = line_topology(n_brokers=1, config=SystemConfig())
        subscriber = net.add_client("subscriber", "B1")
        subscriber.subscribe(Filter([]), sub_id="everything")
        publisher = net.add_client("publisher", "B1")
        net.run_until_idle()
        start = perf_counter()
        for content in probes:
            publisher.publish(content)
        net.run_until_idle()
        rounds.append((perf_counter() - start) / len(probes))
        if len(subscriber.deliveries) != len(probes):
            raise RuntimeError("the one-hop probe lost deliveries")
    return median(rounds) * 1e6


def wire_layers(filters: List[Filter], contents: List[Dict]) -> Dict[str, float]:
    """net.wire: frame, cached re-frame, split and decode per message, per codec."""
    out = {}
    probes = take(contents)
    for name in ("binary", "json"):
        codec = get_codec(name)

        def messages() -> List[Message]:
            return [
                Message("publish", Notification(c, published_at=0.0, publisher="p"), sender="p")
                for c in probes
            ]

        out[f"net.wire.frame_us.{name}"] = per_item(codec.frame_message, messages) * 1e6
        framed = messages()
        frames = [codec.frame_message(message) for message in framed]
        out[f"net.wire.bytes_per_msg.{name}"] = sum(map(len, frames)) / len(frames)
        out[f"net.wire.decode_us.{name}"] = per_item(
            codec.decode_message, lambda: [frame[4:] for frame in frames]
        ) * 1e6  # fmt: skip
        if name == "binary":
            out["net.wire.frame_cached_us.binary"] = (
                per_item(codec.frame_message, lambda: framed) * 1e6
            )
            stream = b"".join(frames)
            reads = [stream[i : i + 65536] for i in range(0, len(stream), 65536)]
            decoder = FrameDecoder(codec)
            out["net.wire.split_us"] = (
                per_item(decoder.feed, lambda: reads) * len(reads) / len(frames) * 1e6
            )
            subs = [
                subscription(f, subscriber="bench", sub_id=f"w{i}")
                for i, f in enumerate(take(filters))
            ]
            out["net.wire.subscribe_frame_us.binary"] = per_item(
                codec.frame_message, lambda: [Message("subscribe", s, sender="c") for s in subs]
            ) * 1e6  # fmt: skip
    return out


class _Sink(Process):
    """A bare process: counts what it receives and nothing else."""

    def on_message(self, message: Message) -> None:
        pass


def transport_layers() -> Dict[str, float]:
    """net.transport with no pub/sub on top: idle floor, link open, bare forwarding."""
    net = BrokerNetwork(
        link_latency=0.0, config=SystemConfig(transport="asyncio", codec="binary")
    )
    try:
        a, b, c = (_Sink(net.sim, name) for name in "abc")
        for process in (a, b, c):
            net.add_process(process)
        net.connect_processes("a", "b")
        net.run_until_idle()

        def idle() -> float:
            start = perf_counter()
            net.run_until_idle()
            return perf_counter() - start

        floor = median(idle() for _ in range(5))
        opens = []
        for _ in range(6):
            start = perf_counter()
            link = net.transport.open_dynamic_link(a, c, latency=0.0)
            opens.append(perf_counter() - start)
            link.disconnect()
            net.transport.close_dynamic_link(link)
            net.run_until_idle()
        burst = 20_000
        rates = []
        for _ in range(ROUNDS):
            messages = [Message("m") for _ in range(burst)]
            start = perf_counter()
            a.send_many("b", messages)
            net.run_until_idle()
            rates.append(burst / (perf_counter() - start - floor))
        if b.messages_received != ROUNDS * burst:
            raise RuntimeError("the bare transport probe lost messages")
    finally:
        net.close()
    return {
        "net.transport.idle_floor_ms": floor * 1e3,
        "net.transport.link_open_ms": median(opens[1:]) * 1e3,  # the first also starts c's server
        "net.transport.raw_msgs_per_s": median(rates),
    }


def mobility_layers(contents: List[Dict]) -> Dict[str, float]:
    """core.buffering and core.location_filter on the workload's notifications."""
    notifications = [Notification(content) for content in take(contents)]
    buffer = NotificationBuffer()
    add_s, drain_s = [], []
    for _ in range(ROUNDS):
        start = perf_counter()
        for notification in notifications:
            buffer.add(notification, 0.0)
        added = perf_counter()
        buffer.drain()
        add_s.append((added - start) / len(notifications))
        drain_s.append((perf_counter() - added) / len(notifications))
    space = cell_grid_space(4, 4)
    template = location_dependent({"service": "temperature"})
    cells = take([cell_name(r, c) for r in range(4) for c in range(4)])
    return {
        "core.buffering.add_us": median(add_s) * 1e6,
        "core.buffering.drain_us": median(drain_s) * 1e6,
        "core.location_filter.bind_us": per_item(
            lambda cell: template.bind_for_location(space, cell), lambda: cells
        ) * 1e6,  # fmt: skip
    }


def metrics_layers() -> Dict[str, float]:
    """obs.metrics: one counter increment, one histogram observation."""
    registry = MetricsRegistry()
    inc = registry.counter("bench.counter").inc
    observe = registry.histogram("bench.histogram").observe
    values = [float(i % 5000) for i in range(20 * LOOP_ITEMS)]
    return {
        "obs.metrics.inc_ns": per_item(lambda _v: inc(), lambda: values) * 1e9,
        "obs.metrics.observe_ns": per_item(observe, lambda: values) * 1e9,
    }


# ---------------------------------------------------------------- the traced run


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(values: Dict[str, float], counts: Dict[str, float], busy_s: float) -> Dict[str, float]:
    """What the layer loops predict for a repetition's counts, against what it took.

    A hop moves two messages (the publish in, the notify out), so half a hop
    less its own match is one message's handling; the wire terms are 0 on the
    simulator.  What the prediction leaves unexplained is the residual.
    """
    hit_share = values["pubsub.routing_table.cache_hit_share"]
    handling_us = max(
        0.0, values["pubsub.broker.hop_us"] - values["pubsub.routing_table.destinations_small_us"]
    ) / 2  # fmt: skip
    wire_us = (
        values["net.wire.frame_us.binary"]
        + values["net.wire.split_us"]
        + values["net.wire.decode_us.binary"]
    )
    match_us = (
        hit_share * values["pubsub.routing_table.destinations_hit_us"]
        + (1 - hit_share) * values["pubsub.routing_table.destinations_miss_us"]
    )
    messages = counts["messages"]
    accounted_s = (messages * (handling_us + wire_us) + counts["matches"] * match_us) * 1e-6
    return {
        "bench.ledger.accounted_share": accounted_s / busy_s,
        "net.transport.residual_us_per_msg": ratio((busy_s - accounted_s) * 1e6, messages),
    }


def per_layer(workload, seconds: float, out) -> Tuple[Dict[str, Dict], int, int]:
    """Untraced and traced repetitions side by side, then the layer loops."""
    attempted = failed = 0
    plain, traced, tracers = [], [], []
    reading = reference_s()

    def run(trace: bool, metrics: bool = True):
        nonlocal attempted, failed, reading
        tracer = Tracer(workload.name)
        if trace:
            with tracer.patched(BOUNDARIES), tracer.span("rep", "bench"):
                rep, reading = timed_rep(workload, reading, metrics=metrics)
            tracers.append(tracer)
        else:
            rep, reading = timed_rep(workload, reading, metrics=metrics)
        attempted += rep.expected
        failed += rep.failed
        return rep

    run(False)  # warm-up, discarded
    started = perf_counter()
    while len(plain) < 2 or perf_counter() - started < 0.4 * seconds:
        plain.append(run(False))
        traced.append(run(True))
    unmetered = [run(False, metrics=False) for _ in range(2)] if workload.has_metrics_switch else []

    def busy(reps) -> float:
        """Measured time of a repetition on the nominal machine, the median."""
        return median((rep.wall_s + rep.extra_s) * rep.wall_scale for rep in reps)

    first, tracer = traced[0], tracers[0]
    counts = defaultdict(float, first.counts)  # a counter the workload lacks reads 0
    deliveries, publishes = first.deliveries, counts["publishes"]
    filters, contents = workload.sample()
    values = dict.fromkeys(UNITS, 0.0)
    values.update(matching_layers(filters, contents))
    values.update(metrics_layers())
    values["pubsub.broker.hop_us"] = hop_layer(contents)
    if workload.transport == "asyncio":
        values.update(wire_layers(filters, contents))
    if workload.mobile:
        values.update(mobility_layers(contents))
    # the loops above are pure CPU work: report them for the nominal machine
    loops_scale = 1.0 / slowdown(reading, reference_s())
    for name, unit in UNITS.items():
        if unit in ("ns", "us"):
            values[name] *= loops_scale
    if workload.transport == "asyncio":
        values.update(transport_layers())

    values.update(
        {
            "pubsub.routing_table.cache_hit_share": ratio(counts["cache_hits"], counts["matches"]),
            "pubsub.broker.forwards_per_publish": ratio(counts["forwards"], publishes),
            "pubsub.broker.deliveries_per_publish": ratio(counts["delivered_locally"], publishes),
            "pubsub.broker.duplicates_dropped": counts["duplicates_dropped"],
            "pubsub.client.publish_us": tracer.mean_duration("Client.publish") * 1e6,
            "net.process.msgs_per_delivery": ratio(counts["messages"], deliveries),
            "net.simulator.events_per_s": ratio(counts["events"], busy(plain)),
            "net.simulator.events_per_delivery": ratio(counts["events"], deliveries),
            "net.transport.frames_per_write": ratio(counts["frames_sent"], counts["writes"]),
            "net.transport.bytes_per_delivery": ratio(counts["bytes_sent"], deliveries),
            "core.replicator.handovers": counts["handovers"],
            "core.replicator.shadows_created": counts["shadows_created"],
            "core.replicator.exception_activations": counts["exception_activations"],
            "core.replicator.control_msgs_per_handover": ratio(
                counts["control_msgs"], counts["handovers"]
            ),
            "core.replicator.shadow_useful_share": ratio(
                counts["replayed"], counts["shadow_buffered"]
            ),
            "core.buffering.peak_bytes": counts["buffer_bytes"],
            "bench.loadgen.lateness_p99_ms": counts["lateness_p99_ms"],
            "bench.loadgen.latency_p99_ms": counts["latency_p99_ms"],
            "obs.metrics.overhead_share": (
                busy(plain) / busy(unmetered) - 1.0 if unmetered else 0.0
            ),
            "bench.trace.overhead_share": busy(traced) / busy(plain) - 1.0,
        }
    )

    values.update(ledger(values, counts, busy(plain)))

    tracer.write(out, counts)
    print(f"# spans of the first traced repetition: {out}")
    for layer, entry in sorted(tracer.self_times().items()):
        print(
            f"# self time {layer:<24} {entry['self_s'] * 1e3:>10.3f} ms "
            f"in {entry['spans']} spans (total {entry['total_s'] * 1e3:.3f} ms)"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    return metrics, attempted, failed
