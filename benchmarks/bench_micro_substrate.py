"""Micro-benchmarks of the hot substrate operations (matching, routing, simulation).

These are conventional pytest-benchmark measurements (multiple rounds) of the
operations every experiment exercises millions of times, useful for tracking
performance regressions of the library itself.
"""

import random

from repro.net.simulator import Simulator
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter, InSet, Range
from repro.pubsub.matching import AttributeIndexMatcher
from repro.pubsub.notification import Notification
from repro.pubsub.subscription import subscription
from repro.pubsub.testing import BruteForceMatcher

SERVICES = ["temperature", "stock", "news", "weather", "traffic"]


def _subscriptions(count):
    rng = random.Random(42)
    subs = []
    for index in range(count):
        service = rng.choice(SERVICES)
        constraints = [Equals("service", service)]
        if index % 2:
            constraints.append(Range("value", 0, rng.randint(10, 80)))
        if index % 3 == 0:
            constraints.append(InSet("location", {f"r{i}" for i in range(rng.randint(1, 4))}))
        subs.append(subscription(Filter(constraints), subscriber=f"c{index}", sub_id=f"s{index}"))
    return subs


def _notifications(count):
    rng = random.Random(7)
    return [
        Notification(
            {
                "service": rng.choice(SERVICES),
                "value": rng.randint(0, 100),
                "location": f"r{rng.randint(0, 5)}",
            }
        )
        for _ in range(count)
    ]


def test_bench_brute_force_matching(benchmark):
    matcher = BruteForceMatcher()
    for sub in _subscriptions(500):
        matcher.add(sub)
    notifications = _notifications(200)
    benchmark(lambda: [matcher.match(n) for n in notifications])


def test_bench_indexed_matching(benchmark):
    matcher = AttributeIndexMatcher()
    for sub in _subscriptions(500):
        matcher.add(sub)
    notifications = _notifications(200)
    benchmark(lambda: [matcher.match(n) for n in notifications])


def test_bench_filter_covering(benchmark):
    subs = _subscriptions(300)
    filters = [sub.filter for sub in subs]

    def cover_all():
        count = 0
        for f in filters[:50]:
            for g in filters:
                if f.covers(g):
                    count += 1
        return count

    benchmark(cover_all)


def test_bench_end_to_end_publication_path(benchmark):
    """Publish 100 notifications through a 10-broker line with 20 subscribers."""

    def run_once():
        network = line_topology(10)
        sim = network.sim
        subscribers = []
        for index in range(20):
            client = network.add_client(f"sub{index}", f"B{(index % 10) + 1}")
            client.subscribe(Filter([Equals("service", SERVICES[index % len(SERVICES)])]))
            subscribers.append(client)
        publisher = network.add_client("pub", "B1")
        sim.run_until_idle()
        for i in range(100):
            publisher.publish({"service": SERVICES[i % len(SERVICES)], "value": i})
        sim.run_until_idle()
        return sum(len(c.deliveries) for c in subscribers)

    assert benchmark(run_once) > 0


def test_bench_simulator_event_throughput(benchmark):
    def run_once():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run_until_idle()
        return counter[0]

    assert benchmark(run_once) == 20_000
