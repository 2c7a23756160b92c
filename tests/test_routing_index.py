"""Brute-force vs indexed routing-table equivalence.

The indexed matcher is a pure candidate pre-selection: on any workload —
including subscription churn, replacements and link removals — its
forwarding decisions must be identical to brute force (the oracle
:class:`~repro.pubsub.testing.BruteRoutingTable`).  These tests drive
randomized workloads through both tables side by side and assert equality
at every step, at the table level and end-to-end through a broker network.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.pubsub.broker_network import random_tree_topology
from repro.pubsub.filters import (
    AtLeast,
    AtMost,
    Equals,
    Exists,
    Filter,
    GreaterThan,
    InSet,
    LessThan,
    NotEquals,
    Prefix,
    Range,
    match_all,
)
from repro.pubsub.matching import IntervalBucketIndex, placement
from repro.pubsub.notification import Notification
from repro.pubsub.routing_table import SMALL_TABLE_SCAN, RoutingTable
from repro.pubsub.testing import BruteRoutingTable, use_brute_matching

SERVICES = ["temperature", "stock", "news", "traffic"]
LOCATIONS = ["r1", "r2", "r3", "r4", "r5"]


#: a notification may carry NaN; it equals no pin, so it selects no bucket
NAN = float("nan")


def random_range(rng: random.Random, attribute: str = "value") -> Range:
    """A ``Range`` whose place may or may not decide it: closed or half-open
    at either end, bounds spelt as ints, as equal floats or off the integers.
    Notification values are small integers (spelt ``5``, ``5.0`` or ``True``),
    so they hit an integral bound exactly, where inclusivity decides."""
    low = rng.randint(0, 30)
    high = low + rng.randint(0, 20)
    spelling = rng.random()
    if spelling < 0.2:
        low, high = float(low), float(high)
    elif spelling < 0.3:
        low, high = low - 0.5, high + 0.25
    return Range(
        attribute, low, high, include_low=rng.random() < 0.7, include_high=rng.random() < 0.7
    )


def bucket_shape_filter(rng: random.Random) -> Filter:
    """A filter led by an ``Equals`` whose equality bucket may or may not
    decide that ``Equals`` on a candidate's behalf, and whose place may or
    may not decide the rest."""
    second = random_range(rng)
    shape = rng.randrange(7)
    if shape == 0:
        # tuple key: equal tuples of differently typed members share one bucket
        return Filter([Equals("tags", ("a", rng.choice([1, True, 1.0]))), second])
    if shape == 1:
        # the bucket is the second constraint's, and a candidate from it has
        # passed the second, not the first
        pair = [InSet("service", rng.sample(SERVICES, 2)), Equals("flag", rng.choice([1, 0]))]
        return Filter(pair)
    if shape == 2:
        # repeated Equals on one attribute: matches only when both agree
        return Filter(
            [Equals("service", rng.choice(SERVICES)), Equals("service", rng.choice(SERVICES))]
        )
    if shape == 3:
        # the second constraint's attribute is mostly absent, and a missing
        # attribute fails even a NotEquals
        return Filter([Equals("service", rng.choice(SERVICES)), NotEquals("tags", ("b",))])
    if shape == 4:
        # a third constraint after the range: key and range pass, it may not
        third = Prefix("location", rng.choice(["r", "r1"]))
        return Filter([Equals("service", rng.choice(SERVICES)), second, third])
    if shape == 5:
        # two ranges on different attributes: the index places one of them
        return Filter([Equals("service", rng.choice(SERVICES)), second, random_range(rng, "level")])
    # 1 == True == 1.0 share one bucket, whichever spelling keyed it
    return Filter([Equals("flag", rng.choice([1, True, 1.0])), second])


def random_filter(rng: random.Random) -> Filter:
    """A random filter; roughly half get an indexable equality constraint,
    and one in eight is a :func:`bucket_shape_filter`."""
    roll = rng.random()
    if roll < 0.125:
        return bucket_shape_filter(rng)
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
        # range-only: indexed through the per-attribute range buckets, maybe
        # beside a range on a second attribute
        constraints.append(random_range(rng))
        if rng.random() < 0.3:
            constraints.append(random_range(rng, "level"))
        return Filter(constraints)
    else:
        # a tuple equality value: bucketed like any other
        constraints.append(Equals("tags", ("a", "b")))
    if rng.random() < 0.5:
        constraints.append(random_range(rng))
        extra = rng.random()
        if extra < 0.15:
            constraints.append(Prefix("location", rng.choice(["r", "r1"])))
        elif extra < 0.3:
            constraints.append(random_range(rng, "level"))
    return Filter(constraints)


def random_notification(rng: random.Random) -> Notification:
    value = rng.choice([rng.randint(0, 50), rng.randint(0, 1)])
    attrs = {
        "service": NAN if rng.random() < 0.05 else rng.choice(SERVICES),
        "location": rng.choice(LOCATIONS),
        # 5, 5.0 and True/1 are equal and hash alike, and Range reads a bool
        # as its int; bounds are hit exactly in every spelling
        "value": rng.choice([value, float(value), bool(value) if value in (0, 1) else value]),
        "flag": rng.choice([1, True, 1.0, 0, False]),
    }
    if rng.random() < 0.8:
        attrs["level"] = rng.choice([rng.randint(0, 50), float(rng.randint(0, 50))])
    if rng.random() < 0.1:
        attrs["tags"] = rng.choice([("a", "b"), ("a", 1.0), ("a", True), ("b",)])
    return Notification(attrs)


def assert_each_link_decided_alike(brute: RoutingTable, indexed: RoutingTable, n) -> None:
    """Every link asked alone (all others excluded) gets brute force's answer:
    the probe's early exit never hides a link's own decision."""
    links = brute.links()
    for link in links:
        others = [other for other in links if other != link]
        assert indexed.destinations(n, exclude=others) == brute.destinations(n, exclude=others), (n, link)


def assert_tables_agree(brute: RoutingTable, indexed: RoutingTable, rng: random.Random, rounds: int = 20):
    links = brute.links()
    for _ in range(rounds):
        n = random_notification(rng)
        exclude = rng.sample(links, min(len(links), rng.randint(0, 2))) if links else []
        assert brute.destinations(n, exclude=exclude) == indexed.destinations(n, exclude=exclude)
        assert_each_link_decided_alike(brute, indexed, n)


class TestTableLevelEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_churn(self, seed):
        """add / replace / remove / remove_link churn keeps both tables identical."""
        rng = random.Random(seed)
        brute = BruteRoutingTable()
        indexed = RoutingTable()
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

    def test_clear_resets_index(self):
        table = RoutingTable()
        table.add(Filter([Equals("service", "stock")]), "L1", "s1")
        table.clear()
        assert table.destinations({"service": "stock"}) == []
        table.add(Filter([Equals("service", "stock")]), "L1", "s2")
        assert table.destinations({"service": "stock"}) == ["L1"]

    def test_clear_and_reload_agree_with_brute(self):
        """An index rebuilt from empty after ``clear`` answers like brute force."""
        rng = random.Random(7)
        brute = BruteRoutingTable()
        indexed = RoutingTable()
        for round_ in range(2):
            for table in (brute, indexed):
                table.clear()
            for i in range(120):
                f = random_filter(rng)
                brute.add(f, f"L{i % 5}", f"s{round_}.{i}")
                indexed.add(f, f"L{i % 5}", f"s{round_}.{i}")
            assert len(brute) == len(indexed) == 120
            assert_tables_agree(brute, indexed, rng, rounds=30)

    def test_replace_same_sub_same_link_updates_index(self):
        table = RoutingTable()
        table.add(Filter([Equals("service", "t")]), "L1", "s1")
        table.add(Filter([Equals("service", "stock")]), "L1", "s1")
        assert table.destinations({"service": "t"}) == []
        assert table.destinations({"service": "stock"}) == ["L1"]

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(matcher="magic")

    def test_interval_is_not_a_matcher_name(self):
        """One index, no alias: the retired name fails like any other typo."""
        with pytest.raises(TypeError):
            SystemConfig(matcher="interval")
        with pytest.raises(ValueError, match="unknown matcher 'interval'"):
            RoutingTable(matcher="interval")


def _deliveries(brute: bool, seed: int):
    """Run a randomized pub/sub workload, on brute-force tables if ``brute``;
    return {subscriber: sorted notification ids}."""
    rng = random.Random(seed)
    network = random_tree_topology(6, seed=seed)
    if brute:
        use_brute_matching(network)
    sim = network.sim
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
        assert _deliveries(True, seed) == _deliveries(False, seed)


class TestMiddlewareMatcherConfig:
    def test_config_none_keeps_network_choice(self):
        from repro.core.location import LocationSpace
        from repro.core.middleware import MobilePubSub, MobilitySystemConfig
        from repro.pubsub.broker_network import line_topology

        net = use_brute_matching(line_topology(2))
        space = LocationSpace({"r1": "B1", "r2": "B2"})
        MobilePubSub(net, space, config=MobilitySystemConfig())
        assert all(type(b.routing_table) is BruteRoutingTable for b in net.brokers.values())


# ------------------------------------------------------- one index vs brute

TOPICS = ["t0", "t1", "t2"]
ONE_INDEX_LINKS = ["L0", "L1", "L2", "L3"]
ONE_INDEX_SUBS = [f"s{i}" for i in range(12)]

_ranges = st.builds(
    lambda low, width: Range("value", low, low + width), st.integers(0, 30), st.integers(0, 15)
)
_topics = st.sampled_from(TOPICS)
_filters = st.one_of(
    st.builds(lambda topic, r: Filter([Equals("topic", topic), r]), _topics, _ranges),
    st.builds(lambda topic: Filter([Equals("topic", topic)]), _topics),
    st.builds(
        lambda topics: Filter([InSet("topic", topics)]),
        st.lists(_topics, min_size=1, max_size=2, unique=True),
    ),
    st.builds(lambda prefix: Filter([Prefix("topic", prefix)]), st.sampled_from(["t", "t1", "x"])),
    _ranges.map(lambda r: Filter([r])),
    st.just(match_all()),
    st.sampled_from(
        [
            Filter([Equals("flag", True), Range("value", 0, 5)]),  # bool key, 1 == True
            Filter([Equals("value", 1)]),
            Filter([InSet("value", [1.0, "1"])]),  # 1.0 == 1 == True, not "1"
            Filter([Equals("tags", ("a",)), Range("value", 0, 20)]),  # tuple value
        ]
    ),
)
_values = st.one_of(
    st.integers(-2, 50),
    st.floats(-2, 50, allow_nan=False),
    st.booleans(),
    st.just(math.nan),
    st.none(),
)
_notifications = st.fixed_dictionaries(
    {},
    optional={
        "topic": st.one_of(_topics, st.just(("a",)), st.just(1)),
        "value": _values,
        "flag": st.one_of(st.booleans(), st.just(1)),
        "tags": st.sampled_from([("a",), ("a", 1)]),
    },
)
_subs = st.sampled_from(ONE_INDEX_SUBS)
_links = st.sampled_from(ONE_INDEX_LINKS)
_ops = st.one_of(
    st.tuples(st.just("add"), _filters, _links, _subs),
    st.tuples(st.just("remove"), _subs, st.one_of(st.none(), _links)),
    st.tuples(st.just("remove_link"), _links),
    st.tuples(st.just("clear")),
)


def _assert_one_index_agrees(brute, indexed, notifications, exclude):
    for n in notifications:
        assert indexed.destinations(n, exclude=exclude) == brute.destinations(n, exclude=exclude), n
        assert_each_link_decided_alike(brute, indexed, n)
    assert len(indexed) == len(brute)


class TestOneIndexEqualsBrute:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_filters, _links, _subs), min_size=0, max_size=14),
        st.lists(_ops, min_size=1, max_size=25),
        st.lists(_notifications, min_size=1, max_size=5),
        st.lists(_links, max_size=2, unique=True),
    )
    def test_every_step_answers_like_brute(self, population, ops, notifications, exclude):
        """One index over the whole table, under any add / remove / remove_link
        / clear sequence, answers every probe like the brute-force twin — with
        ``shared`` on two links, bool/NaN/tuple values on both sides, and
        tables on both sides of the small-table scan."""
        brute, indexed = BruteRoutingTable(), RoutingTable()
        shared = Filter([Equals("topic", "t1"), Range("value", 0, 10)])
        for table in (brute, indexed):
            table.add(shared, "L0", "shared")
            table.add(shared, "L1", "shared")
            for f, link, sub_id in population:
                table.add(f, link, sub_id)
        _assert_one_index_agrees(brute, indexed, notifications, exclude)
        for op in ops:
            for table in (brute, indexed):
                getattr(table, op[0])(*op[1:])
            _assert_one_index_agrees(brute, indexed, notifications, exclude)


def test_equality_buckets_stab_their_ranges():
    """200 ``Equals(topic) AND Range(value)`` entries over three links, one
    topic: the index hands out only the stabbed range bucket of the topic's
    equality bucket, never the whole bucket."""
    table = RoutingTable()
    rng = random.Random(3)
    filters = {}
    for i in range(200):
        low = rng.randrange(10_000)
        f = filters[f"s{i}"] = Filter([Equals("topic", "t"), Range("value", low, low + 50)])
        table.add(f, f"L{i % 3}", f"s{i}")
    for value in (0, 2_500, 5_000, 7_777, 10_049):
        probe = {"topic": "t", "value": value}
        candidates = [e for _, group in table._index.groups(probe) for _, _, e in group]
        assert len(candidates) <= 2 * IntervalBucketIndex.MAX_BUCKET, value
        assert {e.sub_id for e in candidates} >= {
            sub_id for sub_id, f in filters.items() if f.matches(probe)
        }


#: filter shapes and whether their index placement decides them
EXACTNESS = {
    "equals+closed-range": (Filter([Equals("topic", "t"), Range("value", 0, 5)]), True),
    "closed-range+equals": (Filter([Range("value", 0, 5), Equals("topic", "t")]), True),
    "lone-closed-range": (Filter([Range("value", 0.5, 5)]), True),
    "lone-at-least": (Filter([AtLeast("value", 3)]), True),
    "lone-at-most": (Filter([AtMost("value", 3)]), True),
    "lone-equals": (Filter([Equals("topic", "t")]), True),
    "lone-single-inset": (Filter([InSet("topic", ["t"])]), True),
    "single-inset+closed-range": (Filter([InSet("topic", ["t"]), Range("value", 0, 5)]), True),
    "empty": (match_all(), True),
    "greater-than": (Filter([GreaterThan("value", 3)]), False),
    "less-than": (Filter([LessThan("value", 3)]), False),
    "open-low-range": (Filter([Range("value", 0, 5, include_low=False)]), False),
    "open-high-range": (Filter([Range("value", 0, 5, include_high=False)]), False),
    "empty-point-range": (Filter([Range("value", 5, 5, include_low=False)]), False),
    "equals+half-open-range": (
        Filter([Equals("topic", "t"), Range("value", 0, 5, include_high=False)]),
        False,
    ),
    "equals+closed-range+prefix": (
        Filter([Equals("topic", "t"), Range("value", 0, 5), Prefix("location", "r")]),
        False,
    ),
    "two-ranges": (Filter([Range("value", 0, 5), Range("level", 0, 5)]), False),
    "equals+two-ranges": (
        Filter([Equals("topic", "t"), Range("value", 0, 5), Range("level", 0, 5)]),
        False,
    ),
    "equals+inset": (Filter([Equals("topic", "t"), InSet("location", ["r1", "r2"])]), False),
    "two-equals": (Filter([Equals("topic", "t"), Equals("flag", 1)]), False),
    "multi-inset": (Filter([InSet("topic", ["t", "u"])]), False),
    "lone-prefix": (Filter([Prefix("topic", "t")]), False),
    "lone-not-equals": (Filter([NotEquals("topic", "t")]), False),
    "lone-exists": (Filter([Exists("topic")]), False),
}


@pytest.mark.parametrize("shape", EXACTNESS)
def test_placement_is_exact_only_where_it_decides_the_filter(shape):
    """``exact`` holds iff the filter is its equality key and/or one closed
    ``Range``, and nothing else."""
    f, exact = EXACTNESS[shape]
    assert placement(f)[2] is exact


def _raise(*args):
    raise AssertionError("a filter its place decides was evaluated")


def test_a_decided_entry_is_never_evaluated():
    """A table of exact entries only, past the small-table scan, answers like
    brute force while every indexed filter's ``matches`` and ``tail`` raise:
    the probe decides each from its place alone."""
    rng = random.Random(5)
    shapes = [
        lambda: [Equals("topic", rng.choice(TOPICS)), Range("value", *_bounds(rng))],
        lambda: [Range("value", *_bounds(rng))],
        lambda: [Equals("topic", rng.choice(TOPICS))],
        lambda: [InSet("topic", [rng.choice(TOPICS)]), Range("value", *_bounds(rng))],
    ]
    population = [([], "L0")]  # the empty filter, on one link
    population += [(rng.choice(shapes)(), f"L{i % 12}") for i in range(6 * SMALL_TABLE_SCAN)]
    brute, indexed = BruteRoutingTable(), RoutingTable()
    for i, (constraints, link) in enumerate(population):
        decided = Filter(constraints)
        assert placement(decided)[2]
        decided.matches, decided.tail = _raise, ("value", _raise)
        brute.add(Filter(constraints), link, f"s{i}")
        indexed.add(decided, link, f"s{i}")
    assert len(indexed) > SMALL_TABLE_SCAN
    answers = set()
    for _ in range(300):
        value = rng.randint(-2, 52)
        n = {
            "topic": rng.choice(TOPICS + ["other"]),
            "value": rng.choice([value, float(value), value == 1]),
        }
        if rng.random() < 0.1:
            del n["value"]
        exclude = rng.sample(brute.links(), rng.randint(0, 2))
        expected = brute.destinations(n, exclude=exclude)
        assert indexed.destinations(n, exclude=exclude) == expected, n
        assert_each_link_decided_alike(brute, indexed, n)
        answers.add(tuple(expected))
    assert len(answers) > 20  # the answers depend on the notification


def _bounds(rng: random.Random):
    low = rng.randint(0, 40)
    return (low, low + rng.randint(0, 10)) if rng.random() < 0.7 else (float(low), low + 0.5)
