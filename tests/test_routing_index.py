"""Brute-force vs indexed routing-table equivalence.

The indexed matcher is a pure candidate pre-selection: on any workload —
including subscription churn, replacements and link removals — its
forwarding decisions must be identical to brute force.  These tests drive
randomized workloads through both matchers side by side and assert equality
at every step, at the table level and end-to-end through a broker network.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.net.simulator import Simulator
from repro.pubsub.broker_network import random_tree_topology
from repro.pubsub.filters import (
    Equals,
    Filter,
    InSet,
    NotEquals,
    Prefix,
    Range,
    match_all,
)
from repro.pubsub.notification import Notification
from repro.pubsub.routing_table import RoutingTable

SERVICES = ["temperature", "stock", "news", "traffic"]
LOCATIONS = ["r1", "r2", "r3", "r4", "r5"]


def random_filter(rng: random.Random) -> Filter:
    """A random filter; roughly half get an indexable equality constraint."""
    roll = rng.random()
    if roll < 0.05:
        return match_all()
    constraints = []
    if roll < 0.55:
        constraints.append(Equals("service", rng.choice(SERVICES)))
    elif roll < 0.65:
        # single-value InSet: indexable through the other code path
        constraints.append(InSet("service", [rng.choice(SERVICES)]))
    elif roll < 0.75:
        constraints.append(InSet("location", rng.sample(LOCATIONS, rng.randint(2, 3))))
    elif roll < 0.85:
        constraints.append(Prefix("service", rng.choice(["t", "s", "ne"])))
    elif roll < 0.90:
        constraints.append(NotEquals("service", rng.choice(SERVICES)))
    elif roll < 0.95:
        # range-only: indexed through the per-attribute range buckets
        low = rng.randint(0, 30)
        return Filter([Range("value", low, low + rng.randint(0, 20))])
    else:
        # unhashable equality value: must fall back to the unindexed path
        constraints.append(Equals("tags", ["a", "b"]))
    if rng.random() < 0.5:
        low = rng.randint(0, 30)
        constraints.append(Range("value", low, low + rng.randint(0, 20)))
    return Filter(constraints)


def random_notification(rng: random.Random) -> Notification:
    attrs = {
        "service": rng.choice(SERVICES),
        "location": rng.choice(LOCATIONS),
        # True/False equal 1/0 and hash alike, yet no Range accepts them
        "value": rng.choice([rng.randint(0, 50), rng.randint(0, 1), True, False]),
    }
    if rng.random() < 0.1:
        attrs["tags"] = ["a", "b"]  # unhashable attribute value
    return Notification(attrs)


def assert_tables_agree(brute: RoutingTable, indexed: RoutingTable, rng: random.Random, rounds: int = 20):
    links = brute.links()
    for _ in range(rounds):
        n = random_notification(rng)
        exclude = rng.sample(links, min(len(links), rng.randint(0, 2))) if links else []
        assert brute.destinations(n, exclude=exclude) == indexed.destinations(n, exclude=exclude)
        brute_entries = {(e.sub_id, e.link) for e in brute.matching_entries(n, exclude=exclude)}
        indexed_entries = {(e.sub_id, e.link) for e in indexed.matching_entries(n, exclude=exclude)}
        assert brute_entries == indexed_entries


class TestTableLevelEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_churn(self, seed):
        """add / replace / remove / remove_link churn keeps both matchers identical."""
        rng = random.Random(seed)
        brute = RoutingTable(matcher="brute")
        indexed = RoutingTable(matcher="indexed")
        live_subs = []
        for step in range(300):
            op = rng.random()
            if op < 0.6 or not live_subs:
                sub_id = f"s{step}" if op < 0.5 or not live_subs else rng.choice(live_subs)
                link = f"L{rng.randint(1, 6)}"
                f = random_filter(rng)
                brute.add(f, link, sub_id)
                indexed.add(f, link, sub_id)
                if sub_id not in live_subs:
                    live_subs.append(sub_id)
            elif op < 0.85:
                sub_id = rng.choice(live_subs)
                link = f"L{rng.randint(1, 6)}" if rng.random() < 0.5 else None
                brute.remove(sub_id, link=link)
                indexed.remove(sub_id, link=link)
                if not brute.has_subscription(sub_id):
                    live_subs.remove(sub_id)
            else:
                link = f"L{rng.randint(1, 6)}"
                removed_b = {(e.sub_id, e.link) for e in brute.remove_link(link)}
                removed_i = {(e.sub_id, e.link) for e in indexed.remove_link(link)}
                assert removed_b == removed_i
                live_subs = [s for s in live_subs if brute.has_subscription(s)]
            if step % 25 == 0:
                assert len(brute) == len(indexed)
                assert_tables_agree(brute, indexed, rng, rounds=5)
        assert_tables_agree(brute, indexed, rng, rounds=40)

    def test_set_matcher_rebuilds_index(self):
        rng = random.Random(7)
        table = RoutingTable(matcher="brute")
        reference = RoutingTable(matcher="brute")
        for i in range(120):
            f = random_filter(rng)
            link = f"L{i % 5}"
            table.add(f, link, f"s{i}")
            reference.add(f, link, f"s{i}")
        table.set_matcher("indexed")
        assert table.matcher == "indexed"
        assert_tables_agree(reference, table, rng, rounds=30)
        # switching back drops the index but keeps the same results
        table.set_matcher("brute")
        assert_tables_agree(reference, table, rng, rounds=10)

    def test_clear_resets_index(self):
        table = RoutingTable(matcher="indexed")
        table.add(Filter([Equals("service", "stock")]), "L1", "s1")
        table.clear()
        assert table.destinations({"service": "stock"}) == []
        table.add(Filter([Equals("service", "stock")]), "L1", "s2")
        assert table.destinations({"service": "stock"}) == ["L1"]

    def test_replace_same_sub_same_link_updates_index(self):
        table = RoutingTable(matcher="indexed")
        table.add(Filter([Equals("service", "t")]), "L1", "s1")
        table.add(Filter([Equals("service", "stock")]), "L1", "s1")
        assert table.destinations({"service": "t"}) == []
        assert table.destinations({"service": "stock"}) == ["L1"]

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(matcher="magic")
        with pytest.raises(ValueError):
            RoutingTable().set_matcher("magic")

    def test_interval_is_not_a_matcher_name(self):
        """One index, no alias: the retired name fails like any other typo."""
        from repro.config import SystemConfig

        with pytest.raises(ValueError, match="unknown matcher 'interval'; allowed: brute, indexed$"):
            SystemConfig(matcher="interval")
        with pytest.raises(ValueError):
            RoutingTable(matcher="interval")


def _deliveries(matcher: str, seed: int):
    """Run a randomized pub/sub workload; return {subscriber: sorted notification ids}."""
    rng = random.Random(seed)
    sim = Simulator()
    network = random_tree_topology(sim, 6, seed=seed, config=SystemConfig(matcher=matcher))
    brokers = network.broker_names()
    subscribers = []
    for i in range(12):
        client = network.add_client(f"sub-{i}", rng.choice(brokers))
        client.subscribe(random_filter(rng))
        subscribers.append(client)
    sim.run_until_idle()
    publisher = network.add_client("pub", rng.choice(brokers))
    for i in range(40):
        publisher.publish(Notification(dict(random_notification(rng)), notification_id=1000 + i))
    sim.run_until_idle()
    return {
        client.name: sorted(d.notification.notification_id for d in client.deliveries)
        for client in subscribers
    }


class TestEndToEndEquivalence:
    """The acceptance cross-check: identical delivery sets, brute vs indexed."""

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_delivery_sets(self, seed):
        assert _deliveries("brute", seed) == _deliveries("indexed", seed)


class TestMiddlewareMatcherConfig:
    def test_config_none_keeps_network_choice(self):
        from repro.core.location import LocationSpace
        from repro.core.middleware import MobilePubSub, MobilitySystemConfig
        from repro.pubsub.broker_network import line_topology

        sim = Simulator()
        net = line_topology(sim, 2, config=SystemConfig(matcher="brute"))
        space = LocationSpace({"r1": "B1", "r2": "B2"})
        MobilePubSub(sim, net, space, config=MobilitySystemConfig())
        assert all(b.matcher == "brute" for b in net.brokers.values())
