"""Property-style equivalence of the matching engines.

Feeds randomized subscriptions and notifications through
:func:`repro.pubsub.testing.cross_check` (the indexed matcher against the
brute-force oracle), covering the cases that exercise
the index's edges: ``InSet`` constraints (single- and multi-value),
tuple filter values and notification values, and equal values of different
types (``1``, ``1.0``, ``True``), which select one index bucket.
"""

from __future__ import annotations

import random

import pytest

from repro.pubsub.filters import (
    AtLeast,
    Equals,
    Filter,
    InSet,
    LessThan,
    Prefix,
    Range,
    match_all,
)
from repro.pubsub.matching import (
    AttributeIndexMatcher,
    IntervalBucketIndex,
    pick_index_key,
    pick_range_constraint,
)
from repro.pubsub.notification import Notification, attribute_dict
from repro.pubsub.subscription import subscription
from repro.pubsub.testing import BruteForceMatcher, cross_check, use_brute_matching

SERVICES = ["temperature", "stock", "news"]
LOCATIONS = ["r1", "r2", "r3", "r4"]


def candidates(matcher: AttributeIndexMatcher, notification) -> int:
    """How many subscriptions ``matcher.match`` evaluates for
    ``notification``: every member of every group its index hands out."""
    groups = matcher._index.groups(attribute_dict(notification))
    return sum(1 for _, group in groups for _ in group)


def random_subscription(rng: random.Random, index: int):
    roll = rng.random()
    constraints = []
    if roll < 0.30:
        constraints.append(Equals("service", rng.choice(SERVICES)))
    elif roll < 0.45:
        constraints.append(InSet("service", [rng.choice(SERVICES)]))
    elif roll < 0.60:
        constraints.append(InSet("location", rng.sample(LOCATIONS, rng.randint(1, 3))))
    elif roll < 0.70:
        constraints.append(Equals("tags", ("t", 1)))  # a tuple value, bucketed like any
    elif roll < 0.80:
        constraints.append(Prefix("service", rng.choice(["t", "s"])))
    elif roll < 0.90:
        constraints.append(Range("value", rng.randint(0, 10), rng.randint(10, 40)))
    # else: match-all (no constraints) — always a full-evaluation candidate
    if constraints and rng.random() < 0.4:
        constraints.append(Range("value", 0, rng.randint(5, 50)))
    return subscription(Filter(constraints), subscriber=f"c{index}", sub_id=f"s{index}")


def random_notification(rng: random.Random) -> Notification:
    attrs = {
        "service": rng.choice(SERVICES),
        "location": rng.choice(LOCATIONS),
        # True/False equal 1/0 and hash alike, and Range reads them as 1/0
        "value": rng.choice([rng.randint(0, 60), True, False]),
    }
    if rng.random() < 0.15:
        attrs["tags"] = rng.choice([("t", 1), ("t", True), ("t", 1.5)])
    if rng.random() < 0.1:
        del attrs["service"]
    return Notification(attrs)


class TestMatcherEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_cross_check_randomized(self, seed):
        rng = random.Random(seed)
        brute = BruteForceMatcher()
        indexed = AttributeIndexMatcher()
        for i in range(rng.randint(20, 120)):
            sub = random_subscription(rng, i)
            brute.add(sub)
            indexed.add(sub)
        notifications = [random_notification(rng) for _ in range(150)]
        assert cross_check([brute, indexed], notifications)

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_check_with_removals(self, seed):
        rng = random.Random(100 + seed)
        brute = BruteForceMatcher()
        indexed = AttributeIndexMatcher()
        subs = [random_subscription(rng, i) for i in range(80)]
        for sub in subs:
            brute.add(sub)
            indexed.add(sub)
        for sub in rng.sample(subs, 40):
            assert brute.remove(sub.sub_id) is not None
            assert indexed.remove(sub.sub_id) is not None
        assert len(brute) == len(indexed) == 40
        notifications = [random_notification(rng) for _ in range(100)]
        assert cross_check([brute, indexed], notifications)

    def test_index_prunes_candidates(self):
        """The fixed candidate lookup is O(notification attrs), and selective."""
        indexed = AttributeIndexMatcher()
        for i, service in enumerate(SERVICES * 10):
            indexed.add(subscription(Filter([Equals("service", service)]), "c", sub_id=f"s{i}-{service}"))
        notification = Notification({"service": "stock"})
        matched = indexed.match(notification)
        assert {s.sub_id.split("-")[1] for s in matched} == {"stock"}
        # only the stock bucket was evaluated, not all 30 subscriptions
        assert candidates(indexed, notification) == 10

    def test_an_equal_tuple_value_selects_the_pins_bucket(self):
        indexed = AttributeIndexMatcher()
        brute = BruteForceMatcher()
        sub = subscription(Filter([Equals("tags", ("a", 1))]), "c", sub_id="s1")
        indexed.add(sub)
        brute.add(sub)
        hits = [Notification({"tags": tags}) for tags in [("a", 1), ("a", True), ("a", 1.0)]]
        miss = Notification({"tags": ("a", "1")})
        assert cross_check([brute, indexed], hits + [miss])
        assert [indexed.matching_ids(n) for n in hits] == [{"s1"}] * 3
        assert indexed.matching_ids(miss) == set()


class TestMatcherReplacesAndAnswersEqualValuesAlike:
    def test_readding_a_sub_id_replaces_the_old_filter(self):
        """Same id, new filter: the old filter must stop matching at once and
        must not survive ``remove`` — what brute force does by construction."""
        brute, indexed = BruteForceMatcher(), AttributeIndexMatcher()
        for filter in (Filter([Equals("service", "stock")]), Filter([Range("value", 0, 5)])):
            for matcher in (brute, indexed):
                matcher.add(subscription(filter, "c", sub_id="s1"))
        assert len(indexed) == len(indexed.subscriptions) == 1
        old, new = Notification({"service": "stock"}), Notification({"value": 3})
        assert cross_check([brute, indexed], [old, new])
        assert indexed.matching_ids(old) == set() and indexed.matching_ids(new) == {"s1"}
        assert indexed.remove("s1") is not None and indexed.remove("s1") is None
        assert indexed.matching_ids(old) == indexed.matching_ids(new) == set()

    @pytest.mark.parametrize("order", [(1, True, 1.0), (True, 1.0, 1)])
    def test_equal_values_match_alike(self, order):
        """``1 == True == 1.0`` with equal hashes, and ``Range`` reads a bool
        as its int: every spelling, in any order, is matched."""
        brute, indexed = BruteForceMatcher(), AttributeIndexMatcher()
        for matcher in (brute, indexed):
            matcher.add(subscription(Filter([Range("a", 0, 2)]), "c", sub_id="s1"))
        notifications = [Notification({"a": value}) for value in order * 2]
        assert cross_check([brute, indexed], notifications)
        assert all(indexed.matching_ids(n) == {"s1"} for n in notifications)


def random_range_subscription(rng: random.Random, index: int):
    """Filters dominated by Range/LessThan/AtLeast constraints (the paper's
    location/zone workloads), which must hit the range buckets rather than
    the always-evaluated fallback set."""
    roll = rng.random()
    attribute = rng.choice(["value", "temperature", "zone"])
    if roll < 0.35:
        low = rng.randint(0, 40)
        constraints = [Range(attribute, low, low + rng.choice([3, 8, 15]))]
    elif roll < 0.55:
        constraints = [LessThan(attribute, rng.randint(5, 45))]
    elif roll < 0.75:
        constraints = [AtLeast(attribute, rng.randint(5, 45))]
    elif roll < 0.85:
        # half-open both ways around the same point: exercises boundary hits
        point = rng.randint(0, 50)
        constraints = [Range(attribute, point, point)]
    else:
        # a second range on another attribute: only one can be the index key
        constraints = [
            Range("value", rng.randint(0, 20), rng.randint(25, 50)),
            AtLeast("zone", rng.randint(0, 10)),
        ]
    if rng.random() < 0.25:
        constraints.append(Range("extra", 0, rng.randint(10, 60), include_high=False))
    return subscription(Filter(constraints), subscriber=f"c{index}", sub_id=f"s{index}")


def random_range_notification(rng: random.Random) -> Notification:
    attrs = {
        "value": rng.randint(0, 55),
        "temperature": rng.randint(0, 55),
        "zone": rng.choice([rng.randint(0, 12), True, False]),
    }
    if rng.random() < 0.3:
        attrs["extra"] = rng.randint(0, 70)
    if rng.random() < 0.1:
        attrs["value"] = "not-a-number"  # Range never matches non-numeric values
    if rng.random() < 0.1:
        del attrs["zone"]
    return Notification(attrs)


class TestRangeHeavyEquivalence:
    """Satellite acceptance: Range-dominated workloads stay exact under the
    range buckets, for both matchers and all five routing strategies."""

    @pytest.mark.parametrize("seed", range(8))
    def test_cross_check_randomized(self, seed):
        rng = random.Random(500 + seed)
        brute = BruteForceMatcher()
        indexed = AttributeIndexMatcher()
        for i in range(rng.randint(30, 150)):
            sub = random_range_subscription(rng, i)
            brute.add(sub)
            indexed.add(sub)
        notifications = [random_range_notification(rng) for _ in range(150)]
        assert cross_check([brute, indexed], notifications)

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_check_with_removals(self, seed):
        rng = random.Random(600 + seed)
        brute = BruteForceMatcher()
        indexed = AttributeIndexMatcher()
        subs = [random_range_subscription(rng, i) for i in range(90)]
        for sub in subs:
            brute.add(sub)
            indexed.add(sub)
        for sub in rng.sample(subs, 45):
            assert brute.remove(sub.sub_id) is not None
            assert indexed.remove(sub.sub_id) is not None
        assert len(brute) == len(indexed) == 45
        notifications = [random_range_notification(rng) for _ in range(120)]
        assert cross_check([brute, indexed], notifications)

    def test_range_filters_are_not_unindexed(self):
        """Range-only filters are pruned through the range buckets, not
        always evaluated: past ``MAX_BUCKET`` entries a match evaluates at
        most one bucket's worth, however many filters are registered."""
        indexed = AttributeIndexMatcher()
        entries = 20 * IntervalBucketIndex.MAX_BUCKET
        for i in range(entries):
            low = 3 * i
            indexed.add(
                subscription(Filter([Range("value", low, low + 2)]), "c", sub_id=f"s{i}")
            )
        notification = Notification({"value": 31})
        matched = indexed.match(notification)
        assert {s.sub_id for s in matched} == {"s10"}  # [30, 32]
        assert 1 <= candidates(indexed, notification) <= IntervalBucketIndex.MAX_BUCKET < entries

    @pytest.mark.parametrize("strategy", ["flooding", "simple", "identity", "covering", "merging"])
    @pytest.mark.parametrize("matcher", ["brute", "indexed"])
    def test_all_strategies_deliver_exactly_under_range_workload(self, strategy, matcher):
        from repro.pubsub.broker_network import random_tree_topology

        rng = random.Random(9)
        network = random_tree_topology(5, routing=strategy, seed=3)
        if matcher == "brute":
            use_brute_matching(network)
        sim = network.sim
        brokers = network.broker_names()
        subscribers = []
        for i in range(10):
            client = network.add_client(f"sub-{i}", brokers[i % len(brokers)])
            sub = random_range_subscription(rng, i)
            client.subscribe(sub.filter, sub_id=f"rs{i}")
            subscribers.append((client, sub.filter))
        sim.run_until_idle()
        publisher = network.add_client("pub", brokers[0])
        published = []
        for i in range(50):
            n = Notification(dict(random_range_notification(rng)), notification_id=100 + i)
            publisher.publish(n)
            published.append(n)
        sim.run_until_idle()
        for client, filter in subscribers:
            expected = sorted(
                n.notification_id for n in published if filter.matches(n)
            )
            received = sorted(d.notification.notification_id for d in client.deliveries)
            assert received == expected, f"{strategy}/{matcher}: {client.name}"


class TestPickIndexKey:
    def test_equals_is_indexable(self):
        assert pick_index_key(Filter([Equals("a", 1)])) == ("a", 1)

    def test_single_value_inset_is_indexable(self):
        assert pick_index_key(Filter([InSet("a", ["x"])])) == ("a", "x")

    def test_multi_value_inset_is_not(self):
        assert pick_index_key(Filter([InSet("a", ["x", "y"])])) is None

    def test_the_first_equality_pin_is_the_key(self):
        assert pick_index_key(Filter([Equals("a", ("x",)), Equals("b", 2)])) == ("a", ("x",))
        assert pick_index_key(Filter([InSet("a", ["x", "y"]), Equals("b", True)])) == ("b", 1)

    def test_match_all_unindexable(self):
        assert pick_index_key(match_all()) is None

    def test_pick_range_constraint_prefers_bounded(self):
        bounded = Range("a", 0, 5)
        half = AtLeast("b", 3)
        assert pick_range_constraint(Filter([half, bounded])) is bounded
        assert pick_range_constraint(Filter([half])) is half
        assert pick_range_constraint(Filter([Equals("a", 1)])) is None
