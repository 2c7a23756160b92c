"""The range side of the index: incremental buckets, destination cache, flips.

The ``"indexed"`` matcher keeps range-only entries in the incrementally
repaired :class:`~repro.pubsub.matching.IntervalBucketIndex` and puts an
epoch-guarded destination cache in front of the routing table.  Its
contract: forwarding decisions byte-identical to brute force under any
churn, at the index level, the table level and end-to-end through a broker
network — plus the cache must never serve a stale entry across a mutation
or a live matcher flip, nor one computed for a merely *equal* notification
(``1`` vs ``True``) that a ``Range`` tells apart.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.config import SystemConfig
from repro.net.simulator import Simulator
from repro.pubsub.broker_network import random_tree_topology
from repro.pubsub.filters import Equals, Filter, Range
from repro.pubsub.matching import AttributeIndexMatcher, BruteForceMatcher, IntervalBucketIndex
from repro.pubsub.notification import Notification
from repro.pubsub.routing_table import RoutingTable
from repro.pubsub.subscription import subscription

from test_routing_index import assert_tables_agree, random_filter, random_notification


def linear_candidates(live, value):
    """The oracle: payloads of every live range whose [low, high] brackets value."""
    return sorted(p for p, (low, high) in live.items() if low <= value <= high)


class TestIntervalBucketIndex:
    def test_basic_stabbing(self):
        """Candidates are a superset of the true hits and discard is exact."""
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        index.add("b", Range("x", 5, 20), "b")
        index.add("c", Range("x", 15, 30), "c")
        assert {"a", "b"} <= set(index.candidates(7))
        assert {"b", "c"} <= set(index.candidates(17))
        index.discard("b")
        assert "b" not in index.candidates(7)
        assert "a" in index.candidates(7)
        assert len(index) == 2

    def test_exact_after_splits(self):
        """Once churn has grown the cut list, buckets localize candidates."""
        index = IntervalBucketIndex()
        for i in range(300):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        assert index.repairs > 0
        # candidate sets are localized: a probe yields far fewer than n entries
        assert len(index.candidates(451)) <= 2 * IntervalBucketIndex.MAX_BUCKET
        assert "n150" in index.candidates(451)
        assert "n150" not in index.candidates(470)

    def test_infinite_bounds(self):
        index = IntervalBucketIndex()
        index.add("lo", Range("x", high=5), "lo")  # (-inf, 5]
        index.add("hi", Range("x", low=5), "hi")  # [5, inf)
        index.add("all", Range("x"), "all")  # (-inf, inf)
        assert {"all", "lo"} <= set(index.candidates(-1e18))
        assert {"all", "hi"} <= set(index.candidates(1e18))
        assert {"all", "hi", "lo"} <= set(index.candidates(5))
        assert {"all", "hi"} <= set(index.candidates(math.inf))
        assert {"all", "lo"} <= set(index.candidates(-math.inf))

    def test_nan_query_matches_nothing(self):
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        assert index.candidates(math.nan) == []

    def test_nan_bounds_rejected_at_construction(self):
        with pytest.raises(ValueError, match="NaN"):
            Range("x", math.nan, 5)
        with pytest.raises(ValueError, match="NaN"):
            Range("x", 0, math.nan)

    def test_non_numeric_queries(self):
        index = IntervalBucketIndex()
        index.add("a", Range("x", 0, 10), "a")
        assert index.candidates("5") == []
        assert index.candidates(None) == []
        assert index.candidates(True) == []  # bool is not a numeric match

    def test_duplicate_boundaries(self):
        """Many ranges sharing boundary points: still exact, each yielded once."""
        index = IntervalBucketIndex()
        for i in range(100):
            index.add(f"p{i}", Range("x", 5, 5), f"p{i}")  # identical points
        for i in range(20):
            index.add(f"r{i}", Range("x", 5, 10), f"r{i}")
        got = index.candidates(5)
        assert len(got) == len(set(got)) == 120
        assert sorted(index.candidates(7)) == sorted(f"r{i}" for i in range(20))

    def test_unsplittable_bucket_backs_off(self):
        """All-identical point intervals cannot be separated: no repair loop."""
        index = IntervalBucketIndex()
        for i in range(8 * IntervalBucketIndex.MAX_BUCKET):
            index.add(f"p{i}", Range("x", 1, 1), f"p{i}")
        # at most one degenerate split (at the shared point); every later
        # attempt finds no interior bound, refuses and backs off
        assert index.repairs <= 1
        assert len(index.candidates(1)) == 8 * IntervalBucketIndex.MAX_BUCKET
        assert index.candidates(2) == []

    def test_wide_entries_fall_back_to_scan(self):
        """Entries spanning > MAX_SPAN buckets join the always-scanned wide set."""
        index = IntervalBucketIndex()
        # enough disjoint narrow ranges to force splits and grow the cut list
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        assert index.repairs > 0
        assert len(index._cuts) > IntervalBucketIndex.MAX_SPAN
        index.add("wide", Range("x", 0, 600), "wide")
        assert "wide" in index._wide
        for probe in (1, 299, 599):
            assert "wide" in index.candidates(probe)
        index.discard("wide")
        assert "wide" not in index.candidates(299)

    def test_repair_counter_wired(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        index = IntervalBucketIndex(repair_counter=registry.counter("index.repair"))
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        assert index.repairs > 0
        assert registry.counter("index.repair").value == index.repairs

    def test_compaction_reset_when_drained(self):
        index = IntervalBucketIndex()
        for i in range(200):
            index.add(f"n{i}", Range("x", 3 * i, 3 * i + 2), f"n{i}")
        assert len(index._cuts) > 0
        for i in range(200):
            index.discard(f"n{i}")
        assert len(index) == 0
        assert index._cuts == [] and index._buckets == [{}]

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
                got = sorted(index.candidates(value))
                assert len(got) == len(set(got))  # no duplicate yields
                # candidates is a superset; it must contain every true hit
                assert set(linear_candidates(live, value)) <= set(got)

    def test_half_open_ranges_exact_through_table(self):
        """Inclusivity is the filter's job; the table restores exactness."""
        for matcher in ("brute", "indexed"):
            table = RoutingTable(matcher=matcher)
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

    ``1 == True == 1.0`` (and they hash alike), yet a ``Range`` accepts the
    numbers and rejects the bool — so an answer memoized for one spelling
    must never be served for another.
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
    answer (cached or not, either order) must equal brute force."""
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
    brute, indexed = RoutingTable(matcher="brute"), RoutingTable(matcher="indexed")
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
            entries = sorted(
                (e.sub_id, e.link) for e in brute.matching_entries(probe) if e.link != "L6"
            )
            ids = brute_matcher.matching_ids(probe)
            for spelling in (Notification(probe), probe, MappingProxyType(probe)):
                assert indexed.destinations(spelling) == links, probe
                assert brute.destinations(spelling) == links, probe
                found = indexed.matching_entries(spelling, exclude=["L6"])
                assert sorted((e.sub_id, e.link) for e in found) == entries, probe
                assert indexed_matcher.matching_ids(spelling) == ids, probe
                assert brute_matcher.matching_ids(spelling) == ids, probe


@pytest.mark.parametrize("seed", range(3))
def test_notification_dict_and_proxy_answer_alike(seed):
    check_mapping_spellings(seed)


class TestRangeTableEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_churn_with_typed_twins(self, seed):
        """The churn of ``test_routing_index``, probed with ``1``/``True``/``1.0``
        back to back so the destination cache sees every collision."""
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
        brute = RoutingTable(matcher="brute")
        indexed = RoutingTable(matcher="indexed")
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

    def test_set_matcher_flips_back_and_forth(self):
        rng = random.Random(7)
        table = RoutingTable(matcher="brute")
        reference = RoutingTable(matcher="brute")
        for i in range(120):
            f = random_filter(rng)
            link = f"L{i % 5}"
            table.add(f, link, f"s{i}")
            reference.add(f, link, f"s{i}")
        for flip in ("indexed", "brute", "indexed", "brute", "indexed"):
            table.set_matcher(flip)
            assert table.matcher == flip
            assert_tables_agree(reference, table, rng, rounds=15)


class TestDestinationCache:
    def probe(self):
        return {"service": "stock", "value": 7}

    def build(self, matcher):
        table = RoutingTable(matcher=matcher)
        table.add(Filter([Equals("service", "stock"), Range("value", 0, 10)]), "L1", "s1")
        table.add(Filter([Range("value", 5, 20)]), "L2", "s2")
        return table

    @pytest.mark.parametrize("matcher", ["indexed"])
    def test_repeat_publish_hits_cache(self, matcher):
        table = self.build(matcher)
        assert table.destinations(self.probe()) == ["L1", "L2"]
        assert table.cache_hits == 0
        for _ in range(5):
            assert table.destinations(self.probe()) == ["L1", "L2"]
        assert table.cache_hits == 5

    @pytest.mark.parametrize("matcher", ["indexed"])
    def test_every_mutation_invalidates(self, matcher):
        table = self.build(matcher)
        probe = self.probe()
        table.destinations(probe)

        table.add(Filter([Range("value", 6, 8)]), "L3", "s3")
        assert table.destinations(probe) == ["L1", "L2", "L3"]
        table.remove("s3")
        assert table.destinations(probe) == ["L1", "L2"]
        table.remove_link("L2")
        assert table.destinations(probe) == ["L1"]
        table.clear()
        assert table.destinations(probe) == []
        # only the identical re-queries above could have hit; mutations never serve stale
        table.add(Filter([Equals("service", "stock")]), "L9", "s9")
        assert table.destinations(probe) == ["L9"]

    def test_matcher_flip_invalidates(self):
        table = self.build("indexed")
        probe = self.probe()
        assert table.destinations(probe) == ["L1", "L2"]
        table.destinations(probe)
        hits = table.cache_hits
        table.set_matcher("brute")
        table.set_matcher("indexed")
        assert table.destinations(probe) == ["L1", "L2"]
        assert table.cache_hits == hits  # first post-flip query recomputed

    def test_exclusions_are_part_of_the_key(self):
        table = self.build("indexed")
        probe = self.probe()
        assert table.destinations(probe) == ["L1", "L2"]
        assert table.destinations(probe, exclude=("L1",)) == ["L2"]
        assert table.destinations(probe, exclude=("L2",)) == ["L1"]
        assert table.cache_hits == 0

    def test_cached_lists_are_isolated_copies(self):
        table = self.build("indexed")
        probe = self.probe()
        first = table.destinations(probe)
        first.append("junk")
        assert table.destinations(probe) == ["L1", "L2"]

    def test_unhashable_attribute_values_skip_the_cache(self):
        table = self.build("indexed")
        table.add(Filter([Equals("tags", ["a"])]), "L4", "s4")
        probe = {"service": "stock", "value": 7, "tags": ["a"]}
        assert table.destinations(probe) == ["L1", "L2", "L4"]
        assert table.destinations(probe) == ["L1", "L2", "L4"]
        assert table.cache_hits == 0

    @pytest.mark.parametrize("order", [(1, True, 1.0), (True, 1, 1.0), (1.0, True, 1)])
    def test_equal_values_of_different_type_do_not_share_an_answer(self, order):
        """``1 == True`` and they hash alike, but ``Range`` matches only the number:
        a cached ``["L"]`` served for ``True`` is a wrong delivery, a cached
        ``[]`` served for ``1`` a lost one."""
        table = RoutingTable(matcher="indexed")
        for i in range(6):  # past SMALL_LINK_SCAN: the index answers
            table.add(Filter([Range("a", 0, 2)]), "L", f"s{i}")
        brute = RoutingTable(matcher="brute")
        brute.add(Filter([Range("a", 0, 2)]), "L", "s0")
        for value in order * 2:
            assert table.destinations({"a": value}) == brute.destinations({"a": value}), value
        # 1 and 1.0 share an answer (every constraint treats them alike), True has its own
        assert table.cache_hits == 4

    def test_capacity_bounded_fifo(self):
        table = RoutingTable(matcher="indexed")
        table.CACHE_CAPACITY = 8
        table.add(Filter([Range("value", 0, 1000)]), "L1", "s1")
        for i in range(50):
            table.destinations({"value": i})
        assert len(table._destination_cache) <= 8

    def test_cache_hit_counter_wired(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        table = RoutingTable(matcher="indexed", metrics=registry)
        table.add(Filter([Range("value", 0, 10)]), "L1", "s1")
        table.destinations({"value": 5})
        table.destinations({"value": 5})
        assert registry.counter("match.cache_hit").value == 1

    def test_brute_matcher_stays_uncached(self):
        table = self.build("brute")
        probe = self.probe()
        table.destinations(probe)
        table.destinations(probe)
        assert table.cache_hits == 0


class TestNaNRegression:
    def test_nan_notification_matches_no_range_on_any_matcher(self):
        """NaN used to satisfy brute Ranges but not the indexed path; now neither."""
        for matcher in ("brute", "indexed"):
            table = RoutingTable(matcher=matcher)
            table.add(Filter([Range("value", 0, 10)]), "L1", "s1")
            assert table.destinations({"value": math.nan}) == [], matcher

    def test_nan_equals_still_matches_by_identity_semantics(self):
        # Equals uses ==, and nan != nan: NaN never matches there either,
        # so every constraint family agrees that NaN routes nowhere
        for matcher in ("brute", "indexed"):
            table = RoutingTable(matcher=matcher)
            table.add(Filter([Equals("value", math.nan)]), "L1", "s1")
            assert table.destinations({"value": math.nan}) == [], matcher


def _deliveries(matcher: str, seed: int):
    """End-to-end: a range-only population through a broker tree, published
    values spelt as int, float and bool."""
    rng = random.Random(seed)
    sim = Simulator()
    network = random_tree_topology(sim, 6, seed=seed, config=SystemConfig(matcher=matcher))
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
        assert _deliveries("brute", seed) == _deliveries("indexed", seed)


_HASHSEED_SCRIPT = """
import random
import sys

from repro.pubsub.routing_table import RoutingTable

sys.path.insert(0, {tests_dir!r})
from test_routing_index import assert_tables_agree, random_filter

rng = random.Random(5150)
brute = RoutingTable(matcher="brute")
indexed = RoutingTable(matcher="indexed")
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
