"""The range side of the index: incremental buckets and the table's answers.

The routing table keeps range-only entries in the incrementally repaired
:class:`~repro.pubsub.matching.IntervalBucketIndex`.  Its contract:
forwarding decisions byte-identical to brute force (the
:mod:`repro.pubsub.testing` oracles) under any churn, at the
index level, the table level and end-to-end through a broker network — every
mutation seen by the next query, *equal* notifications (``1``, ``1.0`` and
``True``) answered alike, and nothing kept per notification answered.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.pubsub.broker_network import random_tree_topology
from repro.pubsub.filters import Equals, Filter, InSet, NotEquals, Range
from repro.pubsub.matching import AttributeIndexMatcher, IntervalBucketIndex
from repro.pubsub.notification import Notification
from repro.pubsub.routing_table import SMALL_TABLE_SCAN, RoutingTable
from repro.pubsub.subscription import subscription
from repro.pubsub.testing import (
    BruteForceMatcher,
    BruteRoutingTable,
    interval_candidates,
    use_brute_matching,
)

from test_routing_index import assert_tables_agree, random_filter, random_notification

#: the product table and its brute-force oracle, by name
TABLES = {"brute": BruteRoutingTable, "indexed": RoutingTable}


def linear_candidates(live, value):
    """The oracle: payloads of every live range whose [low, high] brackets value."""
    return sorted(p for p, (low, high) in live.items() if low <= value <= high)


def assert_placed_where_bisect_says(index, live):
    """Every live entry sits in exactly the buckets ``bisect_left(cuts, low)``
    … ``bisect_left(cuts, high)`` — the ones ``discard`` empties — or in
    ``_wide`` alone, and no bucket holds anything else.  Wherever it sits, it
    is its one member ``(low, high, payload)``, the tuple ``_ranges`` holds."""
    cuts = index._cuts
    assert len(index._buckets) == len(index._retry_at) == len(cuts) + 1
    assert cuts == sorted(set(cuts))
    assert {entry_id: member[:2] for entry_id, member in index._ranges.items()} == live
    expected = [set() for _ in index._buckets]
    for entry_id, (low, high) in live.items():
        if entry_id in index._wide:
            continue
        for i in range(bisect.bisect_left(cuts, low), bisect.bisect_left(cuts, high) + 1):
            expected[i].add(entry_id)
    assert [set(bucket) for bucket in index._buckets] == expected
    assert set(index._wide) <= set(live)
    for members in (*index._buckets, index._wide):
        assert all(member is index._ranges[entry_id] for entry_id, member in members.items())


class TestIntervalBucketIndex:
    def test_basic_stabbing(self):
        """Candidates are a superset of the true hits and discard is exact."""
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        index.add("b", Range("x", 5, 20), "b")
        index.add("c", Range("x", 15, 30), "c")
        assert {"a", "b"} <= set(interval_candidates(index, 7))
        assert {"b", "c"} <= set(interval_candidates(index, 17))
        index.discard("b")
        assert "b" not in interval_candidates(index, 7)
        assert "a" in interval_candidates(index, 7)
        assert len(index) == 2

    def test_exact_after_splits(self):
        """Once queries have grown the cut list, buckets localize candidates."""
        index = IntervalBucketIndex()
        for i in range(300):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        # candidate sets are localized: a probe yields far fewer than n entries
        assert len(interval_candidates(index, 451)) <= 2 * IntervalBucketIndex.MAX_BUCKET
        assert index.repairs > 0
        assert "n150" in interval_candidates(index, 451)
        # more than one bucket's worth of ranges away
        assert "n150" not in interval_candidates(index, 600)

    def test_infinite_bounds(self):
        index = IntervalBucketIndex()
        index.add("lo", Range("x", high=5), "lo")  # (-inf, 5]
        index.add("hi", Range("x", low=5), "hi")  # [5, inf)
        index.add("all", Range("x"), "all")  # (-inf, inf)
        assert {"all", "lo"} <= set(interval_candidates(index, -1e18))
        assert {"all", "hi"} <= set(interval_candidates(index, 1e18))
        assert {"all", "hi", "lo"} <= set(interval_candidates(index, 5))
        assert {"all", "hi"} <= set(interval_candidates(index, math.inf))
        assert {"all", "lo"} <= set(interval_candidates(index, -math.inf))

    def test_nan_query_matches_nothing(self):
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        assert interval_candidates(index, math.nan) == []

    def test_nan_bounds_rejected_at_construction(self):
        with pytest.raises(ValueError, match="NaN"):
            Range("x", math.nan, 5)
        with pytest.raises(ValueError, match="NaN"):
            Range("x", 0, math.nan)

    def test_non_numeric_queries(self):
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        assert interval_candidates(index, "5") == []
        assert interval_candidates(index, None) == []
        assert interval_candidates(index, True) == ["a"]  # a bool stabs as its int

    def test_duplicate_boundaries(self):
        """Many ranges sharing boundary points: still exact, each yielded once."""
        index = IntervalBucketIndex()
        for i in range(100):
            index.add(f"p{i}", Range("x", 5, 5), f"p{i}")  # identical points
        for i in range(20):
            index.add(f"r{i}", Range("x", 5, 10), f"r{i}")
        got = interval_candidates(index, 5)
        assert len(got) == len(set(got)) == 120
        assert sorted(interval_candidates(index, 7)) == sorted(f"r{i}" for i in range(20))

    def test_unsplittable_bucket_backs_off(self):
        """All-identical point intervals cannot be separated: no repair loop."""
        index = IntervalBucketIndex()
        for i in range(8 * IntervalBucketIndex.MAX_BUCKET):
            index.add(f"p{i}", Range("x", 1, 1), f"p{i}")
        # at most one degenerate split (at the shared point); every later
        # attempt finds no interior bound, refuses and backs off
        assert index.repairs <= 1
        assert len(interval_candidates(index, 1)) == 8 * IntervalBucketIndex.MAX_BUCKET
        assert interval_candidates(index, 2) == []

    def test_wide_entries_fall_back_to_scan(self):
        """Entries spanning > MAX_SPAN buckets join the always-scanned wide set."""
        index = IntervalBucketIndex()
        # enough disjoint narrow ranges, each stabbed once, to force splits
        # and grow the cut list
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        for i in range(200):
            interval_candidates(index, 3 * i + 1)
        assert index.repairs > 0
        assert len(index._cuts) > IntervalBucketIndex.MAX_SPAN
        index.add("wide", Range("x", 0, 600), "wide")
        assert "wide" in index._wide
        for probe in (1, 299, 599):
            assert "wide" in interval_candidates(index, probe)
        index.discard("wide")
        assert "wide" not in interval_candidates(index, 299)

    def test_repair_counter_wired(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        index = IntervalBucketIndex(repair_counter=registry.counter("index.repair"))
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        interval_candidates(index, 301)
        assert index.repairs > 0
        assert registry.counter("index.repair").value == index.repairs

    def test_compaction_reset_when_drained(self):
        index = IntervalBucketIndex()
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        interval_candidates(index, 301)
        assert len(index._cuts) > 0
        for i in range(200):
            index.discard(f"n{i}")
        assert len(index) == 0
        assert index._cuts == [] and index._buckets == [{}]

    def test_adds_alone_never_split(self):
        """An insert is two bisects and dict stores: however large a bucket
        grows, no split happens until a query stabs it."""
        index = IntervalBucketIndex()
        for i in range(10 * IntervalBucketIndex.MAX_BUCKET):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        for i in range(0, 10 * IntervalBucketIndex.MAX_BUCKET, 2):
            index.discard(f"n{i}")
        assert index.repairs == 0
        assert index._cuts == []

    def test_one_query_splits_an_oversized_bucket_once(self):
        """A stab splits an oversized bucket in one pass into pieces of at most
        MAX_BUCKET members, so stabbing each of them afterwards splits nothing."""
        count = 10 * IntervalBucketIndex.MAX_BUCKET
        index = IntervalBucketIndex()
        for i in range(count):
            index.add(f"n{i}", Range("x", 10 * i, 10 * i + 5), f"n{i}")
        interval_candidates(index, 0)
        assert index.repairs == 1
        assert all(len(bucket) <= IntervalBucketIndex.MAX_BUCKET for bucket in index._buckets)
        for i in range(count):
            assert f"n{i}" in interval_candidates(index, 10 * i + 2)
        assert index.repairs == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_a_query_repairs_the_bucket_it_stabs(self, seed):
        """After a query the stabbed bucket holds at most MAX_BUCKET entries or
        cannot be split (no member bound strictly inside it), and every split
        the query made is counted."""
        from repro.obs.metrics import MetricsRegistry

        rng = random.Random(seed)
        registry = MetricsRegistry()
        index = IntervalBucketIndex(repair_counter=registry.counter("index.repair"))
        for i in range(400):
            low = rng.choice([rng.uniform(0, 1000), 500.0])  # some share one point
            width = 0.0 if rng.random() < 0.2 else rng.uniform(0, 40)
            index.add(f"e{i}", Range("x", low, low + width), f"e{i}")
        for _ in range(60):
            value = rng.choice([rng.uniform(-10, 1050), 500.0])
            interval_candidates(index, value)
            i = bisect.bisect_left(index._cuts, value)
            bucket = index._buckets[i]
            bucket_lo = index._cuts[i - 1] if i > 0 else -math.inf
            bucket_hi = index._cuts[i] if i < len(index._cuts) else math.inf
            interior = [
                bound
                for low, high, _ in bucket.values()
                for bound in (low, high)
                if bucket_lo < bound < bucket_hi
            ]
            assert len(bucket) <= IntervalBucketIndex.MAX_BUCKET or not interior
        assert index.repairs > 0
        assert registry.counter("index.repair").value == index.repairs

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_churn_vs_linear_oracle(self, seed):
        rng = random.Random(seed)
        index = IntervalBucketIndex()
        live = {}
        for step in range(2500):
            op = rng.random()
            if op < 0.55 or not live:
                entry_id = f"e{step}"
                low = rng.uniform(-100, 100)
                width = 0.0 if rng.random() < 0.15 else rng.uniform(0, 60)
                index.add(entry_id, Range("x", low, low + width), entry_id)
                live[entry_id] = (low, low + width)
            elif op < 0.8:
                entry_id = rng.choice(list(live))
                index.discard(entry_id)
                del live[entry_id]
            else:
                value = rng.uniform(-120, 120)
                got = sorted(interval_candidates(index, value))
                assert len(got) == len(set(got))  # no duplicate yields
                # candidates is a superset; it must contain every true hit,
                # and nothing discarded (the caller would evaluate it)
                assert set(linear_candidates(live, value)) <= set(got) <= set(live)
            assert_placed_where_bisect_says(index, live)

    def test_half_open_ranges_exact_through_table(self):
        """Inclusivity is the filter's job; the table restores exactness."""
        for matcher, make_table in TABLES.items():
            table = make_table()
            table.add(Filter([Range("x", 0, 10, include_low=False)]), "L1", "s1")
            table.add(Filter([Range("x", 0, 10, include_high=False)]), "L2", "s2")
            table.add(
                Filter([Range("x", 0, 10, include_low=False, include_high=False)]), "L3", "s3"
            )
            assert table.destinations({"x": 0}) == ["L2"], matcher
            assert table.destinations({"x": 10}) == ["L1"], matcher
            assert table.destinations({"x": 5}) == ["L1", "L2", "L3"], matcher


def typed_twins(notification):
    """The notification re-spelt with equal-but-differently-typed values.

    ``1 == True == 1.0`` (and they hash alike), and every constraint answers
    them alike — a ``Range`` reads a bool as its int — so each spelling must
    get brute force's answer, whichever was asked first.
    """
    twins = []
    for attribute, value in notification.items():
        if isinstance(value, (bool, int, float)) and value in (0, 1):
            for other in (int(value), bool(value), float(value)):
                if type(other) is not type(value):
                    twins.append({**notification, attribute: other})
    return twins


def assert_typed_twins_agree(brute, indexed, rng, rounds):
    """Publish a notification, then its typed twins, then it again: every
    answer (in either order) must equal brute force."""
    for _ in range(rounds):
        n = dict(random_notification(rng))
        n["value"] = rng.choice([0, 1, True, False, 1.0])
        for probe in (n, *typed_twins(n), n):
            assert indexed.destinations(probe) == brute.destinations(probe), probe


def check_mapping_spellings(seed, rounds=60):
    """One population in both tables and both matchers; every probe — ``1`` /
    ``True`` / ``1.0`` back to back — asked as a ``Notification``, as its
    ``dict`` and as a ``MappingProxyType``: the hot loops unwrap the first and
    take the others as they come, and all must answer like brute force."""
    rng = random.Random(seed)
    brute, indexed = BruteRoutingTable(), RoutingTable()
    brute_matcher, indexed_matcher = BruteForceMatcher(), AttributeIndexMatcher()
    for i in range(200):
        f, link = random_filter(rng), f"L{rng.randint(1, 6)}"
        brute.add(f, link, f"s{i}")
        indexed.add(f, link, f"s{i}")
        for matcher in (brute_matcher, indexed_matcher):
            matcher.add(subscription(f, subscriber="c", sub_id=f"s{i}"))
    for _ in range(rounds):
        n = dict(random_notification(rng))
        n["value"] = rng.choice([0, 1, True, False, 1.0])
        for probe in (n, *typed_twins(n), n):
            links = brute.destinations(probe)
            without_l6 = brute.destinations(probe, exclude=["L6"])
            ids = brute_matcher.matching_ids(probe)
            for spelling in (Notification(probe), probe, MappingProxyType(probe)):
                assert indexed.destinations(spelling) == links, probe
                assert brute.destinations(spelling) == links, probe
                assert indexed.destinations(spelling, exclude=["L6"]) == without_l6, probe
                assert indexed_matcher.matching_ids(spelling) == ids, probe
                assert brute_matcher.matching_ids(spelling) == ids, probe


@pytest.mark.parametrize("seed", range(3))
def test_notification_dict_and_proxy_answer_alike(seed):
    check_mapping_spellings(seed)


class TestRangeTableEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_churn_with_typed_twins(self, seed):
        """The churn of ``test_routing_index``, probed with ``1``/``True``/``1.0``
        back to back so every collision of equal values is asked."""
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
            else:
                sub_id = rng.choice(live_subs)
                brute.remove(sub_id)
                indexed.remove(sub_id)
                live_subs.remove(sub_id)
            if step % 25 == 0:
                assert_typed_twins_agree(brute, indexed, rng, rounds=5)
        assert_typed_twins_agree(brute, indexed, rng, rounds=40)

    def test_range_heavy_churn(self):
        """Pure-Range filters (the regime the bucket index is built for)."""
        rng = random.Random(11)
        brute = BruteRoutingTable()
        indexed = RoutingTable()
        live = []
        for step in range(600):
            if rng.random() < 0.6 or not live:
                sub_id = f"s{step}"
                low = rng.uniform(0, 1000)
                f = Filter([Range("value", low, low + rng.uniform(0, 80))])
                link = f"L{rng.randint(1, 8)}"
                brute.add(f, link, sub_id)
                indexed.add(f, link, sub_id)
                live.append(sub_id)
            else:
                sub_id = live.pop(rng.randrange(len(live)))
                brute.remove(sub_id)
                indexed.remove(sub_id)
            if step % 50 == 0:
                for _ in range(10):
                    value = rng.choice([rng.uniform(-50, 1100), True, False, 1, math.inf])
                    probe = {"value": value}
                    assert brute.destinations(probe) == indexed.destinations(probe)

    def test_remove_link_and_reload_agree_with_brute(self):
        """Dropping a link's index and growing it back from empty answers
        like brute force at every stage."""
        rng = random.Random(7)
        brute = BruteRoutingTable()
        indexed = RoutingTable()
        loaded = [(random_filter(rng), f"L{i % 5}", f"s{i}") for i in range(120)]
        for table in (brute, indexed):
            for f, link, sub_id in loaded:
                table.add(f, link, sub_id)
        assert_tables_agree(brute, indexed, rng, rounds=15)
        for table in (brute, indexed):
            table.remove_link("L2")
        assert "L2" not in indexed.links()
        assert_tables_agree(brute, indexed, rng, rounds=15)
        for table in (brute, indexed):
            for f, link, sub_id in loaded:
                if link == "L2":
                    table.add(f, link, sub_id)
        assert_tables_agree(brute, indexed, rng, rounds=15)


class TestDestinations:
    """What every ``destinations()`` caller is promised, checked against a
    brute table holding the same entries — on the small-table scan and, with
    filler entries past :data:`SMALL_TABLE_SCAN`, on the index probe."""

    def probe(self):
        return {"service": "stock", "value": 7}

    def build(self, path):
        tables = BruteRoutingTable(), RoutingTable()
        for table in tables:
            table.add(Filter([Equals("service", "stock"), Range("value", 0, 10)]), "L1", "s1")
            table.add(Filter([Range("value", 5, 20)]), "L2", "s2")
            if path == "probe":  # entries the probe never matches, on a link of their own
                for i in range(SMALL_TABLE_SCAN):
                    table.add(Filter([Equals("service", f"weather{i}")]), "L8", f"w{i}")
        return tables

    def assert_agree(self, tables, probe, **kwargs):
        brute, indexed = tables
        answer = indexed.destinations(probe, **kwargs)
        assert answer == brute.destinations(probe, **kwargs), (probe, kwargs)
        return answer

    @pytest.mark.parametrize("path", ["scan", "probe"])
    def test_every_mutation_is_seen_by_the_next_query(self, path):
        tables = self.build(path)
        probe = self.probe()
        assert self.assert_agree(tables, probe) == ["L1", "L2"]
        mutations = [
            lambda table: table.add(Filter([Range("value", 6, 8)]), "L3", "s3"),
            lambda table: table.add(Filter([Range("value", 8, 9)]), "L3", "s3"),  # replaces
            lambda table: table.remove("s3"),
            lambda table: table.remove_link("L2"),
            lambda table: table.clear(),
            lambda table: table.add(Filter([Equals("service", "stock")]), "L9", "s9"),
        ]
        answers = []
        for mutate in mutations:
            for table in tables:
                mutate(table)
            answers.append(self.assert_agree(tables, probe))
        assert answers == [["L1", "L2", "L3"], ["L1", "L2"], ["L1", "L2"], ["L1"], [], ["L9"]]

    @pytest.mark.parametrize("path", ["scan", "probe"])
    def test_exclusions_are_honoured(self, path):
        tables = self.build(path)
        probe = self.probe()
        assert self.assert_agree(tables, probe) == ["L1", "L2"]
        assert self.assert_agree(tables, probe, exclude=("L1",)) == ["L2"]
        assert self.assert_agree(tables, probe, exclude=("L2",)) == ["L1"]
        assert self.assert_agree(tables, probe, exclude=("L1", "L2", "L8")) == []

    @pytest.mark.parametrize("path", ["scan", "probe"])
    def test_a_returned_list_is_the_callers_own(self, path):
        tables = self.build(path)
        probe = self.probe()
        first = self.assert_agree(tables, probe)
        first.append("junk")
        assert self.assert_agree(tables, probe) == ["L1", "L2"]
        assert self.assert_agree(tables, probe) is not self.assert_agree(tables, probe)

    @pytest.mark.parametrize("path", ["scan", "probe"])
    def test_tuple_values_route_by_equality(self, path):
        tables = self.build(path)
        for table in tables:
            table.add(Filter([Equals("tags", ("a", 1))]), "L4", "s4")
        probe = {"service": "stock", "value": 7, "tags": ("a", 1)}
        for tags in [("a", 1), ("a", True), ("a", 1.0)]:
            assert self.assert_agree(tables, {**probe, "tags": tags}) == ["L1", "L2", "L4"]
        assert self.assert_agree(tables, {**probe, "tags": ("a", "1")}) == ["L1", "L2"]

    @pytest.mark.parametrize("order", [(1, True, 1.0), (True, 1, 1.0), (1.0, True, 1)])
    def test_equal_values_of_different_type_get_one_answer(self, order):
        """``1 == True == 1.0`` and they hash alike, and ``Range`` reads a bool
        as its int: every spelling, in any order, is answered ``["L"]``."""
        table = RoutingTable()
        for i in range(SMALL_TABLE_SCAN + 1):  # past the small-table scan: the index answers
            table.add(Filter([Range("a", 0, 2)]), "L", f"s{i}")
        brute = BruteRoutingTable()
        brute.add(Filter([Range("a", 0, 2)]), "L", "s0")
        for value in order * 2:
            assert table.destinations({"a": value}) == brute.destinations({"a": value}) == ["L"]

    @pytest.mark.parametrize("entries", [5, 40], ids=["scan", "probe"])
    def test_distinct_notifications_leave_nothing_behind(self, entries):
        """A broker sees a stream of notifications it never sees again: after
        a warm-up, answering 20 000 distinct ones must not grow the table's
        memory (a memo of past answers held ~1 MB here)."""
        table = RoutingTable()
        for i in range(entries):
            low = i % 10 * 10
            constraints = [Range("value", low, low + 15)]
            if i % 2:
                constraints.append(Equals("service", f"s{i % 4}"))
            table.add(Filter(constraints), f"L{i % 5}", f"sub{i}")

        def answer(first, count):
            for i in range(first, first + count):
                notification = {"service": f"s{i % 4}", "value": i % 100, "seq": i}
                table.destinations(Notification(notification))

        answer(0, 2_000)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            answer(2_000, 20_000)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 16 * 1024


class TestNaNRegression:
    def test_nan_notification_matches_no_range_on_any_matcher(self):
        """NaN used to satisfy brute Ranges but not the indexed path; now neither."""
        for matcher, make_table in TABLES.items():
            table = make_table()
            table.add(Filter([Range("value", 0, 10)]), "L1", "s1")
            assert table.destinations({"value": math.nan}) == [], matcher

    def test_a_nan_value_selects_no_bucket_on_the_probe_path(self):
        """A table too large to scan, every entry ``Equals("k", 0.0) AND
        Range``: a NaN notification value selects no equality bucket, and a
        ``NotEquals`` still admits it (``nan != 0.0``)."""
        probe = {"k": math.nan, "value": 5}
        for matcher, make_table in TABLES.items():
            table = make_table()
            for i in range(SMALL_TABLE_SCAN + 4):
                table.add(Filter([Equals("k", 0.0), Range("value", 0, 10)]), f"L{i % 3}", f"s{i}")
            assert table.destinations(probe) == [], matcher
            table.add(Filter([NotEquals("k", 0.0)]), "L9", "s9")
            assert table.destinations(probe) == ["L9"], matcher


class TestEqualTupleValues:
    """A notification value equal to a pin but spelt with other types
    (``(True, "a") == (1, "a")``) selects the pin's equality bucket, and
    every query path answers like brute force.  Past the small-table scan,
    next to a bucket-mate whose tail alone would pass: an answer handed out
    from a bucket the value never selected would name its link too."""

    CASES = [((1, "a"), (True, "a"), (2, "a")), ((1.0,), (1,), (1.5,))]

    def populate(self, pin, other):
        filters = [
            Filter([Equals("tags", pin)]),
            Filter([Equals("tags", pin), Range("value", 0, 10)]),
            Filter([Equals("tags", other), Range("value", 0, 10)]),
            # a singleton InSet shares the pin's bucket
            Filter([InSet("tags", [pin])]),
        ]
        filters += [Filter([Equals("topic", f"t{i}"), Range("value", 0, 5)]) for i in range(7)]
        assert len(filters) == 11 > SMALL_TABLE_SCAN
        return [(f, f"L{i}", f"s{i}") for i, f in enumerate(filters)]

    @pytest.mark.parametrize("pin,value,other", CASES, ids=["bool", "float"])
    def test_every_query_path_answers_like_brute(self, pin, value, other):
        entries = self.populate(pin, other)
        tables = {matcher: table() for matcher, table in TABLES.items()}
        matchers = {"brute": BruteForceMatcher(), "indexed": AttributeIndexMatcher()}
        for f, link, sub_id in entries:
            for table in tables.values():
                table.add(f, link, sub_id)
            for matcher in matchers.values():
                matcher.add(subscription(f, "c", sub_id=sub_id))
        for probe, expected in (
            ({"tags": value}, ["L0", "L3"]),
            ({"tags": value, "value": 5}, ["L0", "L1", "L3"]),
            ({"tags": value, "value": 50}, ["L0", "L3"]),
            ({"tags": value, "topic": "t1", "value": 5}, ["L0", "L1", "L3", "L5"]),
        ):
            answers = {
                name: (table.destinations(probe), sorted(matchers[name].matching_ids(probe)))
                for name, table in tables.items()
            }
            assert answers["indexed"] == answers["brute"], probe
            links, sub_ids = answers["brute"]
            assert links == expected, probe
            assert sub_ids == [f"s{link[1:]}" for link in links], probe
            assert tables["indexed"].destinations(probe, exclude=["L0"]) == links[1:], probe


def _deliveries(brute: bool, seed: int):
    """End-to-end: a range-only population through a broker tree (on
    brute-force tables if ``brute``), published values spelt as int, float
    and bool."""
    rng = random.Random(seed)
    network = random_tree_topology(6, seed=seed)
    if brute:
        use_brute_matching(network)
    sim = network.sim
    brokers = network.broker_names()
    subscribers = []
    for i in range(30):
        client = network.add_client(f"sub-{i}", rng.choice(brokers))
        low = rng.randint(-2, 8)
        client.subscribe(Filter([Range("value", low, low + rng.randint(0, 4))]))
        subscribers.append(client)
    sim.run_until_idle()
    publisher = network.add_client("pub", rng.choice(brokers))
    for i in range(60):
        value = rng.choice([rng.randint(0, 10), rng.uniform(0, 10), True, False, 1.0])
        publisher.publish(Notification({"value": value}, notification_id=1000 + i))
    sim.run_until_idle()
    return {
        client.name: sorted(d.notification.notification_id for d in client.deliveries)
        for client in subscribers
    }


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_delivery_sets(self, seed):
        assert _deliveries(True, seed) == _deliveries(False, seed)


_HASHSEED_SCRIPT = """
import random
import sys

from repro.pubsub.routing_table import RoutingTable
from repro.pubsub.testing import BruteRoutingTable

sys.path.insert(0, {tests_dir!r})
from test_routing_index import assert_tables_agree, random_filter

rng = random.Random(5150)
brute = BruteRoutingTable()
indexed = RoutingTable()
live = []
for step in range(400):
    if rng.random() < 0.6 or not live:
        sub_id = f"s{{step}}"
        f = random_filter(rng)
        link = f"L{{rng.randint(1, 6)}}"
        brute.add(f, link, sub_id)
        indexed.add(f, link, sub_id)
        live.append(sub_id)
    else:
        sub_id = live.pop(rng.randrange(len(live)))
        brute.remove(sub_id)
        indexed.remove(sub_id)
assert_tables_agree(brute, indexed, rng, rounds=60)
print("OK")
"""


def _run_under_hashseed(script: str, hashseed: str) -> None:
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(repo_root / "src")
    result = subprocess.run(
        [sys.executable, "-c", script.format(tests_dir=str(repo_root / "tests"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "OK"


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_equivalence_under_pythonhashseed(hashseed):
    """Dict/set iteration order must not leak into forwarding decisions."""
    _run_under_hashseed(_HASHSEED_SCRIPT, hashseed)


_SPELLINGS_SCRIPT = """
import sys

sys.path.insert(0, {tests_dir!r})
from test_interval_index import check_mapping_spellings

check_mapping_spellings(5150)
print("OK")
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_mapping_spellings_under_pythonhashseed(hashseed):
    """... nor into which spelling of a notification the tables were asked with."""
    _run_under_hashseed(_SPELLINGS_SCRIPT, hashseed)
