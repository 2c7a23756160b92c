"""The seven workloads of the cost ledger.

One random stream per run, seeded by ``--seed``, generates every input.  Each
:meth:`Workload.rep` draws fresh inputs (and its oracle's expectations) from
that stream, builds a fresh system from them (*set-up*), drives the measured
phase, checks every delivered set against the oracle and tears the system
down.  Fresh inputs per repetition keep one lucky or unlucky draw from deciding
a whole run: a run's medians are over many draws, so they depend little on the
seed.  Workloads use ``SystemConfig()`` product defaults except the fields
they name.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.location import cell_name
from repro.core.location_filter import MYLOC, location_dependent
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.mobility.handover_workload import WorkloadSpec, run_handover_workload
from repro.mobility.models import RandomWalkMobility
from repro.mobility.scenario import build_grid_scenario
from repro.mobility.workload import temperature_workload
from repro.pubsub.broker_network import balanced_tree_topology, line_topology
from repro.pubsub.filters import AtLeast, Equals, Filter, Range
from repro.pubsub.notification import Notification

from loadgen import OpenLoopGenerator, percentile, uniform_schedule

#: a delivery later than this after its due time misses the paced workload's limit
SLO_MS = 10.0


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_s: float  # the measured phase: first publish (or move) -> quiescence
    deliveries: int  # notifications handed to subscribers during the measured phase
    op_ms: List[float]  # durations of the workload's timed operation
    expected: int  # deliveries the oracle expects
    failed: int  # missing + duplicate + unexpected deliveries
    #: share of expected deliveries that arrived within the workload's limit;
    #: without a limit of its own, the share that arrived exactly once
    on_time_share: Optional[float] = None
    counts: Dict[str, float] = field(default_factory=dict)  # raw layer counters
    extra_s: float = 0.0  # measured time outside wall_s (sub_churn_sim's swap phases)
    op_scale: float = 1.0  # measured -> nominal-machine time, set by calibrate.timed_rep
    wall_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.on_time_share is None:
            self.on_time_share = (self.expected - self.failed) / self.expected


def count_failures(expected: Counter, got: Counter) -> int:
    """Missing plus duplicate/unexpected entries between two multisets."""
    return sum((expected - got).values()) + sum((got - expected).values())


def check_by_id(expected: List[Counter], clients) -> Tuple[int, int]:
    """(expected, failed): client *i* got exactly the notification ids ``expected[i]``."""
    failed = sum(
        count_failures(want, Counter(d.notification.notification_id for d in client.deliveries))
        for want, client in zip(expected, clients)
    )
    return sum(sum(want.values()) for want in expected), failed


def fabric_counts(net) -> Dict[str, float]:
    """Counters of a broker network, read through the public control plane."""
    snapshot = net.transport.metrics_snapshot()
    brokers = list(snapshot["brokers"].values())
    transport = snapshot["transport"]

    def total(key: str) -> int:
        return sum(broker["counters"].get(key, 0) for broker in brokers)

    return {
        "messages": net.total_messages(),
        "matches": total("broker.matches"),
        "cache_hits": total("match.cache_hit"),
        "forwards": total("broker.forwards"),
        "delivered_locally": total("broker.delivered_locally"),
        "duplicates_dropped": total("broker.duplicates_dropped"),
        "frames_sent": transport["counters"].get("transport.frames_sent", 0),
        "bytes_sent": transport["counters"].get("transport.bytes_sent", 0),
        "writes": transport["histograms"].get("transport.socket_write_bytes", {}).get("count", 0),
        "events": getattr(net.sim, "events_processed", 0),
    }


def mobility_counts(system: MobilePubSub) -> Dict[str, float]:
    """Fabric counters plus the replicator layer's, before the system closes."""
    counts = fabric_counts(system.network)
    stats = [replicator.stats for replicator in system.replicators.values()]
    counts.update(
        handovers=sum(s.handovers for s in stats),
        shadows_created=sum(s.shadows_created for s in stats),
        exception_activations=sum(s.exception_activations for s in stats),
        replayed=sum(s.replayed_to_device for s in stats),
        shadow_buffered=system.total_shadow_deliveries(),
        control_msgs=system.control_message_count(),
        buffer_bytes=system.total_buffer_memory(),
    )
    return counts


class Workload:
    """One seeded random stream; :meth:`rep` draws inputs and runs one repetition."""

    name = ""
    why = ""
    transport = "sim"
    mobile = False
    #: whether ``rep(metrics=False)`` really switches the live instruments off
    has_metrics_switch = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def config(self, metrics: bool = True) -> SystemConfig:
        if self.transport == "asyncio":
            return SystemConfig(transport="asyncio", codec="binary", metrics=metrics)
        return SystemConfig(metrics=metrics)

    def rep(self, metrics: bool = True) -> Rep:
        raise NotImplementedError

    def sample(self) -> Tuple[List[Filter], List[Dict]]:
        """The workload's own filters and notification contents, for the layer loops."""
        raise NotImplementedError


# ------------------------------------------------------------------ the line


class LineWorkload(Workload):
    """5-broker line, one subscriber per broker: ``topic == t AND value >= i*N/5``."""

    BROKERS = 5
    NOTIFICATIONS = 5000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.thresholds = [i * self.NOTIFICATIONS // self.BROKERS for i in range(self.BROKERS)]
        self.values = list(range(self.NOTIFICATIONS))

    def draw(self) -> None:
        self.rng.shuffle(self.values)

    def filters(self) -> List[Filter]:
        return [Filter([Equals("topic", "t"), AtLeast("value", t)]) for t in self.thresholds]

    def contents(self, values: Iterable[int]) -> List[Dict]:
        return [{"topic": "t", "value": value, "pad": "x" * 32} for value in values]

    def sample(self):
        return self.filters(), self.contents(self.values)

    def build(self, metrics: bool, values: List[int]):
        """Set-up: topology, subscribers, first drain, the notifications to publish."""
        latency = 0.0 if self.transport == "asyncio" else 0.001
        net = line_topology(
            n_brokers=self.BROKERS, link_latency=latency, config=self.config(metrics)
        )
        subscribers = []
        for i, (broker, filter) in enumerate(zip(net.broker_names(), self.filters())):
            client = net.add_client(f"sub{i}", broker)
            client.subscribe(filter, sub_id=f"line-{i}")
            subscribers.append(client)
        publisher = net.add_client("publisher", net.broker_names()[0])
        net.run_until_idle()
        notifications = [Notification(content) for content in self.contents(values)]
        return net, subscribers, publisher, notifications

    def check(self, subscribers, values: List[int]) -> Tuple[int, int]:
        """(expected, failed): each subscriber got exactly the values its filter promises."""
        expected = failed = 0
        for client, threshold in zip(subscribers, self.thresholds):
            want = Counter(value for value in values if value >= threshold)
            got = Counter(delivery.notification["value"] for delivery in client.deliveries)
            expected += sum(want.values())
            failed += count_failures(want, got)
        return expected, failed

    def rep(self, metrics: bool = True) -> Rep:
        self.draw()
        start = perf_counter()
        net, subscribers, publisher, notifications = self.build(metrics, self.values)
        try:
            built = perf_counter()
            for notification in notifications:
                publisher.publish(notification)
            net.run_until_idle()
            wall = perf_counter() - built
            expected, failed = self.check(subscribers, self.values)
            counts = fabric_counts(net)
        finally:
            net.close()
        deliveries = sum(len(client.deliveries) for client in subscribers)
        counts["publishes"] = len(notifications)
        return Rep(
            setup_s=built - start,
            wall_s=wall,
            deliveries=deliveries,
            op_ms=[wall * 1e3],
            expected=expected,
            failed=failed,
            counts=counts,
        )


class LineSatSim(LineWorkload):
    name = "line_sat_sim"
    why = (
        "5-broker line on the simulator, 5000 notifications blasted then drained: pure "
        "pubsub + simulator compute, no serialisation; a wire or transport change must not move it"
    )


class LineSatTcp(LineWorkload):
    name = "line_sat_tcp"
    transport = "asyncio"
    why = (
        "identical inputs over loopback TCP with the binary codec, saturated: adds "
        "frame/encode/socket/decode on every hop, so net.wire and net.transport show here"
    )


class LinePacedTcp(LineWorkload):
    name = "line_paced_tcp"
    transport = "asyncio"
    why = (
        "same line over loopback TCP, open loop at 1000 notifications/s (far below capacity): "
        "service latency from the due time; batching that adds delay shows here as a loss"
    )

    RATE = 1000.0
    WARM_S = 0.25
    WINDOW_S = 1.0
    NOTIFICATIONS = int(RATE * WINDOW_S)

    def draw(self) -> None:
        super().draw()
        # warm-up values lie above every threshold and outside the window's
        # permutation, so a delivery's value says which part it belongs to
        self.warm = int(self.RATE * self.WARM_S)
        self.schedule_values = [self.NOTIFICATIONS + i for i in range(self.warm)] + self.values
        self.offsets = uniform_schedule(self.rng, self.warm, 0.0, self.WARM_S) + uniform_schedule(
            self.rng, self.NOTIFICATIONS, self.WARM_S, self.WARM_S + self.WINDOW_S
        )

    def sample(self):
        return self.filters(), self.contents(self.schedule_values)

    def rep(self, metrics: bool = True) -> Rep:
        self.draw()
        start = perf_counter()
        net, subscribers, publisher, notifications = self.build(metrics, self.schedule_values)
        try:
            built = perf_counter()
            clock = net.transport.clock
            origin = clock.now + 0.01
            due = [origin + offset for offset in self.offsets]
            generator = OpenLoopGenerator(
                clock, lambda i: publisher.publish(notifications[i]), due
            )
            generator.start()
            net.run_until_idle()
            expected, failed = self.check(subscribers, self.schedule_values)
            counts = fabric_counts(net)
        finally:
            net.close()
        due_of = dict(zip(self.schedule_values, due))
        window = [
            (delivery.received_at, delivery.received_at - due_of[delivery.notification["value"]])
            for client in subscribers
            for delivery in client.deliveries
            if delivery.notification["value"] < self.NOTIFICATIONS
        ]
        latencies_ms = [latency * 1e3 for _received, latency in window]
        window_expected = sum(self.NOTIFICATIONS - t for t in self.thresholds)
        counts["publishes"] = len(notifications)
        counts["lateness_p99_ms"] = percentile(generator.lateness(), 0.99) * 1e3
        counts["latency_p99_ms"] = percentile(latencies_ms, 0.99)
        return Rep(
            setup_s=built - start,
            wall_s=max(received for received, _latency in window) - due[self.warm],
            deliveries=len(window),
            op_ms=latencies_ms,
            expected=expected,
            # a lost delivery never arrives, so it misses the limit too
            on_time_share=sum(1 for ms in latencies_ms if ms <= SLO_MS) / window_expected,
            failed=failed,
            counts=counts,
        )


# ------------------------------------------------------------- wide matching


def range_subscription(rng: random.Random, topics: List[str], span: int) -> Tuple[str, int, int]:
    low = rng.randrange(span)
    return rng.choice(topics), low, low + rng.choice((20, 100, 500))


def spec_filter(spec: Tuple[str, int, int]) -> Filter:
    topic, low, high = spec
    return Filter([Equals("topic", topic), Range("value", low, high)])


def clients_expecting(content: Dict, subscriptions: Iterable[Tuple[int, Tuple[str, int, int]]]):
    """Plain-Python oracle: the clients owning a subscription that matches ``content``."""
    topic, value = content["topic"], content["value"]
    return {
        client for client, (t, low, high) in subscriptions if t == topic and low <= value <= high
    }


class MatchWideSim(Workload):
    name = "match_wide_sim"
    why = (
        "3-broker line on the simulator, 30 clients, 3000 Equals+Range subscriptions, 3000 "
        "notifications, half repeats of 64 hot shapes: matching and the destination cache dominate"
    )

    CLIENTS = 30
    SUBSCRIPTIONS = 3000
    NOTIFICATIONS = 3000
    HOT_SHAPES = 64
    FIRST_ID = 1_000_000

    def draw(self) -> None:
        rng = self.rng
        topics = [f"t{i}" for i in range(32)]
        self.subscriptions = [
            (rng.randrange(self.CLIENTS), range_subscription(rng, topics, 10_000))
            for _ in range(self.SUBSCRIPTIONS)
        ]

        def content() -> Dict:
            return {"topic": rng.choice(topics), "value": rng.randrange(10_500)}

        hot = [content() for _ in range(self.HOT_SHAPES)]
        # no per-message attribute: a repeat is equal to its hot shape, so the
        # destination cache can hit; identity travels in the notification id
        self.contents = [
            dict(rng.choice(hot)) if i % 2 else content() for i in range(self.NOTIFICATIONS)
        ]
        by_topic: Dict[str, list] = {}
        for owner, spec in self.subscriptions:
            by_topic.setdefault(spec[0], []).append((owner, spec))
        self.expected = [Counter() for _ in range(self.CLIENTS)]
        for index, item in enumerate(self.contents):
            for client in clients_expecting(item, by_topic.get(item["topic"], ())):
                self.expected[client][self.FIRST_ID + index] += 1

    def sample(self):
        return [spec_filter(spec) for _owner, spec in self.subscriptions], self.contents

    def rep(self, metrics: bool = True) -> Rep:
        self.draw()
        start = perf_counter()
        net = line_topology(n_brokers=3, config=self.config(metrics))
        try:
            brokers = net.broker_names()
            clients = [
                net.add_client(f"c{i}", brokers[i % len(brokers)]) for i in range(self.CLIENTS)
            ]
            for index, (owner, spec) in enumerate(self.subscriptions):
                clients[owner].subscribe(spec_filter(spec), sub_id=f"s{index}")
            publisher = net.add_client("publisher", brokers[0])
            net.run_until_idle()
            notifications = [
                Notification(item, notification_id=self.FIRST_ID + index)
                for index, item in enumerate(self.contents)
            ]
            built = perf_counter()
            for notification in notifications:
                publisher.publish(notification)
            net.run_until_idle()
            wall = perf_counter() - built
            counts = fabric_counts(net)
        finally:
            net.close()
        expected, failed = check_by_id(self.expected, clients)
        counts["publishes"] = len(notifications)
        return Rep(
            setup_s=built - start,
            wall_s=wall,
            deliveries=sum(len(client.deliveries) for client in clients),
            op_ms=[wall * 1e3],
            expected=expected,
            failed=failed,
            counts=counts,
        )


# ----------------------------------------------------------- subscription churn


class SubChurnSim(Workload):
    name = "sub_churn_sim"
    why = (
        "7-broker tree, covering routing, 400 live subscriptions; 20 rounds of 8 retire+admit "
        "swaps then 60 publishes: the write side of the index that match_wide_sim only reads"
    )

    CLIENTS = 24
    LIVE = 400
    ROUNDS = 20
    SWAPS = 8
    PUBLISHES = 60
    FIRST_ID = 2_000_000

    def draw(self) -> None:
        rng = self.rng
        topics = [f"t{i}" for i in range(8)]
        serial = 0

        def admit() -> Tuple[str, int, Tuple[str, int, int]]:
            nonlocal serial
            serial += 1
            return f"s{serial}", rng.randrange(self.CLIENTS), range_subscription(rng, topics, 1000)

        self.initial = [admit() for _ in range(self.LIVE)]
        live = list(self.initial)
        self.rounds = []  # (swaps as (retired, admitted), publishes as (id, content))
        self.expected = [Counter() for _ in range(self.CLIENTS)]
        next_id = self.FIRST_ID
        for _ in range(self.ROUNDS):
            swaps = []
            for _ in range(self.SWAPS):
                retired = live.pop(rng.randrange(len(live)))
                admitted = admit()
                live.append(admitted)
                swaps.append((retired, admitted))
            publishes = []
            for _ in range(self.PUBLISHES):
                item = {"topic": rng.choice(topics), "value": rng.randrange(1500)}
                publishes.append((next_id, item))
                owners = ((client, spec) for _sub_id, client, spec in live)
                for client in clients_expecting(item, owners):
                    self.expected[client][next_id] += 1
                next_id += 1
            self.rounds.append((swaps, publishes))

    def sample(self):
        filters = [spec_filter(spec) for _sub_id, _client, spec in self.initial]
        contents = [item for _swaps, publishes in self.rounds for _id, item in publishes]
        return filters, contents

    def rep(self, metrics: bool = True) -> Rep:
        self.draw()
        start = perf_counter()
        net = balanced_tree_topology(
            branching=2, depth=2, routing="covering", config=self.config(metrics)
        )
        try:
            brokers = net.broker_names()
            clients = [
                net.add_client(f"c{i}", brokers[i % len(brokers)]) for i in range(self.CLIENTS)
            ]
            for sub_id, client, spec in self.initial:
                clients[client].subscribe(spec_filter(spec), sub_id=sub_id)
            publisher = net.add_client("publisher", brokers[0])
            net.run_until_idle()
            built = perf_counter()
            op_ms = []
            publish_s = 0.0
            for swaps, publishes in self.rounds:
                round_start = perf_counter()
                for (old_id, old_client, _old), (new_id, new_client, spec) in swaps:
                    clients[old_client].unsubscribe(old_id)
                    clients[new_client].subscribe(spec_filter(spec), sub_id=new_id)
                net.run_until_idle()
                swapped = perf_counter()
                op_ms.append((swapped - round_start) * 1e3)
                notifications = [Notification(item, notification_id=nid) for nid, item in publishes]
                publish_start = perf_counter()
                for notification in notifications:
                    publisher.publish(notification)
                net.run_until_idle()
                publish_s += perf_counter() - publish_start
            counts = fabric_counts(net)
        finally:
            net.close()
        expected, failed = check_by_id(self.expected, clients)
        counts["publishes"] = self.ROUNDS * self.PUBLISHES
        counts["sub_ops"] = self.ROUNDS * self.SWAPS * 2
        return Rep(
            setup_s=built - start,
            wall_s=publish_s,  # the publish phases; the swap phases are the timed operation
            extra_s=sum(op_ms) / 1e3,
            deliveries=sum(len(client.deliveries) for client in clients),
            op_ms=op_ms,
            expected=expected,
            failed=failed,
            counts=counts,
        )


# -------------------------------------------------------------------- mobility


class HandoverTcp(Workload):
    name = "handover_tcp"
    transport = "asyncio"
    mobile = True
    why = (
        "handover family over loopback TCP (5 brokers, 2 walkers, 2 commuters, NLB, seeded walks "
        "and churn), sim run as oracle: attach->welcome, shadow set-up, exception-mode replay"
    )

    BROKERS = 5

    def draw(self) -> WorkloadSpec:
        """The next family member: the stream draws walks and subscription churn; the
        structure is pinned so that repetitions (and seeds) do comparable work."""
        return dataclasses.replace(
            WorkloadSpec.draw(self.rng.randrange(2**31)),
            brokers=self.BROKERS,
            walkers=2,
            commuters=2,
            publishes_per_phase=4,
            predictor="nlb",
            spike_rate=0.0,
            connect_latency=0.0,
        )

    def sample(self):
        locations = [f"l{i + 1}" for i in range(self.BROKERS)]
        template = location_dependent({"service": "news", "location": MYLOC})
        filters = [template.bind([location]) for location in locations]
        filters.append(Filter([Equals("service", "alerts")]))
        contents = [
            {"service": "news", "location": location, "seq": seq}
            for seq in range(4)
            for location in locations
        ] + [{"service": "alerts", "level": 1}]
        return filters, contents * 20

    def rep(self, metrics: bool = True) -> Rep:
        spec = self.draw()
        config = self.config(metrics)
        counts: Dict[str, float] = {}
        harvest_s = 0.0
        close = MobilePubSub.close

        def harvesting_close(system: MobilePubSub) -> None:
            # the workload function owns the system; its counters are only
            # readable at the moment it closes
            nonlocal harvest_s
            began = perf_counter()
            counts.update(mobility_counts(system))
            harvest_s = perf_counter() - began
            close(system)

        MobilePubSub.close = harvesting_close
        try:
            start = perf_counter()
            result = run_handover_workload("asyncio", spec=spec, config=config)
            total = perf_counter() - start
        finally:
            MobilePubSub.close = close
        oracle = run_handover_workload("sim", spec=spec, config=config.replace(transport="sim"))
        got, want = result.delivered_map(), oracle.delivered_map()
        failed = sum(
            count_failures(Counter(want.get(name, ())), Counter(got.get(name, ())))
            for name in set(want) | set(got)
        )
        expected = oracle.delivered_total()
        counts["publishes"] = result.published
        return Rep(
            setup_s=total - result.wall_sec - harvest_s,  # build the line, close the sockets
            wall_s=result.wall_sec,
            deliveries=result.delivered_total(),
            op_ms=[latency * 1e3 for latency in result.all_handover_latencies()],
            expected=expected,
            failed=failed,
            counts=counts,
        )


class RoamGridSim(Workload):
    name = "roam_grid_sim"
    mobile = True
    has_metrics_switch = False  # build_grid_scenario takes no SystemConfig
    why = (
        "4x4 cell grid on the simulator, replicators + NLB, 16 random-walk subscribers, 100 "
        "simulated s: replicator/buffer/location-filter compute; lost delivery rate shows here"
    )

    SIDE = 4
    WALKERS = 16
    DWELL_S = 6.0
    PERIOD_S = 3.0
    DURATION_S = 100.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.published: List[Dict] = []

    def sample(self):
        template = location_dependent({"service": "temperature"})
        cells = [cell_name(r, c) for r in range(self.SIDE) for c in range(self.SIDE)]
        return [template.bind([cell]) for cell in cells], self.published

    def rep(self, metrics: bool = True) -> Rep:
        start = perf_counter()
        scenario = build_grid_scenario(
            rows=self.SIDE,
            cols=self.SIDE,
            config=MobilitySystemConfig(predictor="nlb"),
        )
        publishers, recorder = temperature_workload(
            scenario.system, period=self.PERIOD_S, recorder=scenario.recorder, until=self.DURATION_S
        )
        template = location_dependent({"service": "temperature"})
        subscribers = []
        for index in range(self.WALKERS):
            model = RandomWalkMobility(
                scenario.space,
                start=cell_name(index % self.SIDE, (index // self.SIDE) % self.SIDE),
                dwell_time=self.DWELL_S,
            )
            subscribers.append(
                scenario.add_roaming_subscriber(
                    f"walker-{index}",
                    template,
                    model,
                    duration=self.DURATION_S,
                    seed=self.rng.randrange(2**31),
                )
            )
        built = perf_counter()
        scenario.run(self.DURATION_S)
        wall = perf_counter() - built
        publishers.stop()
        counts = mobility_counts(scenario.system)
        outcomes = [scenario.evaluate(subscriber) for subscriber in subscribers]
        self.published = [dict(notification) for notification in recorder.published]
        counts["publishes"] = len(recorder.published)
        return Rep(
            setup_s=built - start,
            wall_s=wall,
            deliveries=sum(len(subscriber.client.deliveries) for subscriber in subscribers),
            op_ms=[wall * 1e3],
            # the paper's QoS: a location-relevant notification the walker never
            # got is late for good; only a duplicate is a wrong delivery
            expected=sum(outcome.relevant for outcome in outcomes),
            on_time_share=sum(outcome.delivered_relevant for outcome in outcomes)
            / sum(outcome.relevant for outcome in outcomes),
            failed=sum(outcome.duplicates for outcome in outcomes),
            counts=counts,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        LineSatSim,
        LineSatTcp,
        LinePacedTcp,
        MatchWideSim,
        SubChurnSim,
        HandoverTcp,
        RoamGridSim,
    )
}
