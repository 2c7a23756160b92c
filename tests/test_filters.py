"""Unit tests for content-based filters: matching, covering, overlap, merging,
and the one value domain they are defined over."""

import math
from decimal import Decimal

import pytest

from repro.config import SystemConfig
from repro.net.wire import WireError
from repro.pubsub.broker_network import line_topology
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
    conjunction,
    filter_from_dict,
    match_all,
)
from repro.pubsub.notification import Notification, notification


class TestConstraintMatching:
    def test_equals(self):
        constraint = Equals("service", "temperature")
        assert constraint.matches({"service": "temperature"})
        assert not constraint.matches({"service": "stock"})
        assert not constraint.matches({"other": "temperature"})

    def test_not_equals(self):
        constraint = NotEquals("service", "stock")
        assert constraint.matches({"service": "temperature"})
        assert not constraint.matches({"service": "stock"})

    def test_exists(self):
        constraint = Exists("location")
        assert constraint.matches({"location": "anywhere"})
        assert not constraint.matches({"service": "x"})

    def test_in_set(self):
        constraint = InSet("location", {"room-1", "room-2"})
        assert constraint.matches({"location": "room-1"})
        assert not constraint.matches({"location": "room-3"})

    def test_range_inclusive_bounds(self):
        constraint = Range("value", low=10, high=20)
        assert constraint.matches({"value": 10})
        assert constraint.matches({"value": 20})
        assert not constraint.matches({"value": 21})
        assert not constraint.matches({"value": 9.999})

    def test_range_exclusive_bounds(self):
        constraint = Range("value", low=10, high=20, include_low=False, include_high=False)
        assert not constraint.matches({"value": 10})
        assert not constraint.matches({"value": 20})
        assert constraint.matches({"value": 15})

    def test_range_rejects_non_numeric(self):
        constraint = Range("value", low=0, high=10)
        assert not constraint.matches({"value": "five"})
        # a bool is a number: True == 1 and hashes alike, so Range reads it as 1
        assert constraint.matches({"value": True})
        assert not Range("value", low=2, high=10).matches({"value": True})

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Range("value", low=10, high=5)

    def test_comparison_helpers(self):
        assert LessThan("v", 5).matches({"v": 4})
        assert not LessThan("v", 5).matches({"v": 5})
        assert AtMost("v", 5).matches({"v": 5})
        assert GreaterThan("v", 5).matches({"v": 6})
        assert not GreaterThan("v", 5).matches({"v": 5})
        assert AtLeast("v", 5).matches({"v": 5})

    def test_prefix(self):
        constraint = Prefix("topic", "news/")
        assert constraint.matches({"topic": "news/sport"})
        assert not constraint.matches({"topic": "weather/today"})
        assert not constraint.matches({"topic": 42})


class TestConstraintCovering:
    def test_equals_covers_itself_only(self):
        a = Equals("x", 1)
        assert a.covers(Equals("x", 1))
        assert not a.covers(Equals("x", 2))
        assert not a.covers(Equals("y", 1))

    def test_exists_covers_any_constraint_on_attribute(self):
        assert Exists("x").covers(Equals("x", 5))
        assert Exists("x").covers(Range("x", 0, 10))
        assert not Exists("x").covers(Equals("y", 5))

    def test_inset_covering(self):
        big = InSet("loc", {"a", "b", "c"})
        small = InSet("loc", {"a", "b"})
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(Equals("loc", "a"))
        assert not big.covers(Equals("loc", "z"))

    def test_range_covering(self):
        wide = Range("v", 0, 100)
        narrow = Range("v", 10, 20)
        assert wide.covers(narrow)
        assert not narrow.covers(wide)
        assert wide.covers(Equals("v", 50))
        assert wide.covers(InSet("v", {1, 2, 3}))
        assert not wide.covers(InSet("v", {1, 200}))

    def test_range_covering_boundary_inclusion(self):
        closed = Range("v", 0, 10)
        open_high = Range("v", 0, 10, include_high=False)
        assert closed.covers(open_high)
        assert not open_high.covers(closed)

    def test_prefix_covering(self):
        assert Prefix("t", "news").covers(Prefix("t", "news/sport"))
        assert not Prefix("t", "news/sport").covers(Prefix("t", "news"))
        assert Prefix("t", "news").covers(Equals("t", "news/sport"))

    def test_not_equals_covering(self):
        ne = NotEquals("x", 3)
        assert ne.covers(Equals("x", 4))
        assert not ne.covers(Equals("x", 3))
        assert ne.covers(InSet("x", {1, 2}))
        assert not ne.covers(InSet("x", {2, 3}))


class TestConstraintOverlap:
    def test_disjoint_equals(self):
        assert not Equals("x", 1).overlaps(Equals("x", 2))
        assert Equals("x", 1).overlaps(Equals("x", 1))

    def test_disjoint_ranges(self):
        assert not Range("v", 0, 5).overlaps(Range("v", 6, 10))
        assert Range("v", 0, 5).overlaps(Range("v", 5, 10))
        assert not Range("v", 0, 5, include_high=False).overlaps(Range("v", 5, 10))

    def test_different_attributes_always_overlap(self):
        assert Equals("x", 1).overlaps(Equals("y", 2))

    def test_inset_overlap(self):
        assert InSet("loc", {"a", "b"}).overlaps(InSet("loc", {"b", "c"}))
        assert not InSet("loc", {"a"}).overlaps(InSet("loc", {"c"}))


class TestFilter:
    def test_empty_filter_matches_everything(self):
        assert match_all().matches({"anything": 1})
        assert match_all().matches({})
        assert match_all().constraints == ()

    def test_conjunction_semantics(self):
        f = conjunction(Equals("service", "temperature"), Range("value", 0, 30))
        assert f.matches({"service": "temperature", "value": 20})
        assert not f.matches({"service": "temperature", "value": 40})
        assert not f.matches({"service": "stock", "value": 20})
        assert not f.matches({"value": 20})

    def test_callable(self):
        f = conjunction(Equals("a", 1))
        assert f({"a": 1})

    def test_attributes_listing(self):
        f = conjunction(Equals("a", 1), Range("b", 0, 5), Equals("a", 1))
        assert f.attributes == ["a", "b"]
        assert len(f.constraints_on("a")) == 2

    def test_filter_from_dict(self):
        f = filter_from_dict({"service": "temperature", "location": {"r1", "r2"}, "value": ("range", (0, 30))})
        assert f.matches({"service": "temperature", "location": "r1", "value": 10})
        assert not f.matches({"service": "temperature", "location": "r3", "value": 10})
        assert not f.matches({"service": "temperature", "location": "r1", "value": 99})

    def test_equality_ignores_constraint_order(self):
        f1 = conjunction(Equals("a", 1), Equals("b", 2))
        f2 = conjunction(Equals("b", 2), Equals("a", 1))
        assert f1 == f2
        assert hash(f1) == hash(f2)

    def test_matches_notification_object(self):
        f = filter_from_dict({"service": "temperature"})
        assert f.matches(notification(service="temperature", value=3))


class TestFilterCovering:
    def test_empty_filter_covers_everything(self):
        assert match_all().covers(filter_from_dict({"a": 1}))

    def test_fewer_constraints_cover_more(self):
        broad = filter_from_dict({"service": "temperature"})
        narrow = filter_from_dict({"service": "temperature", "location": "r1"})
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covering_is_reflexive(self):
        f = filter_from_dict({"service": "temperature", "location": {"a", "b"}})
        assert f.covers(f)

    def test_covering_with_ranges(self):
        broad = conjunction(Equals("s", "t"), Range("v", 0, 100))
        narrow = conjunction(Equals("s", "t"), Range("v", 10, 20))
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covering_soundness_spot_check(self):
        broad = conjunction(Equals("s", "t"), InSet("loc", {"a", "b", "c"}))
        narrow = conjunction(Equals("s", "t"), InSet("loc", {"a"}))
        assert broad.covers(narrow)
        sample = {"s": "t", "loc": "a"}
        assert narrow.matches(sample) and broad.matches(sample)

    def test_overlap_detects_disjoint(self):
        f1 = filter_from_dict({"service": "temperature"})
        f2 = filter_from_dict({"service": "stock"})
        assert not f1.overlaps(f2)
        assert f1.overlaps(filter_from_dict({"service": "temperature", "value": 3}))


class TestFilterMerge:
    def test_merge_keeps_shared_constraints(self):
        f1 = conjunction(Equals("s", "t"), Equals("loc", "a"))
        f2 = conjunction(Equals("s", "t"), Equals("loc", "b"))
        merged = f1.merge(f2)
        assert merged.covers(f1)
        assert merged.covers(f2)
        assert merged.matches({"s": "t", "loc": "anything"})

    def test_merge_of_identical_filters_is_identity(self):
        f = filter_from_dict({"s": "t", "loc": "a"})
        assert f.merge(f) == f

    def test_concatenated_constraints_conjoin(self):
        f1 = filter_from_dict({"s": "t"})
        f2 = filter_from_dict({"loc": "a"})
        combined = Filter(f1.constraints + f2.constraints)
        assert combined.matches({"s": "t", "loc": "a"})
        assert not combined.matches({"s": "t", "loc": "b"})


class TestValueDomain:
    """One value domain — ``None``, ``bool``, ``int``, ``float``, ``str`` and
    tuples of them — and one equality, Python's ``==`` and ``hash``."""

    def test_a_nan_constraint_value_is_refused(self):
        # nan != nan: an Equals(nan) would match nothing, not even the NaN
        # object it was built from, so no constraint may pin one
        for build in (
            lambda: Equals("v", math.nan),
            lambda: NotEquals("v", math.nan),
            lambda: InSet("v", [math.nan]),
            lambda: Equals("v", (1, math.nan)),
        ):
            with pytest.raises(WireError, match="NaN"):
                build()
        # a notification may carry NaN: it lies in no range and equals nothing
        assert not Filter([Range("v")]).matches({"v": math.nan})
        assert NotEquals("v", 1).matches({"v": math.nan})

    def test_equal_sets_of_differently_typed_members_are_one_filter(self):
        spellings = [Filter([InSet("v", ["1", member])]) for member in (1, 1.0, True)]
        assert len(set(spellings)) == 1
        assert len({hash(f) for f in spellings}) == 1
        assert all(f == spellings[0] for f in spellings)

    def test_a_filter_key_does_not_depend_on_set_order(self):
        # frozenset([1, 9]) prints as {1, 9} and frozenset([9, 1]) as {9, 1}:
        # a key sorted by repr would put InSet({5}) after one and before the other
        a = Filter([InSet("v", [1, 9]), InSet("v", [5])])
        b = Filter([InSet("v", [9, 1]), InSet("v", [5])])
        assert a.key() == b.key() and hash(a) == hash(b) and a == b

    def test_equal_values_are_one_value_to_every_constraint(self):
        assert len({Filter([Equals("v", value)]) for value in (1, True, 1.0)}) == 1
        assert Range("v", 0, 5).covers(Equals("v", 1))
        for value in (1, True, 1.0):
            assert Range("v", 0, 5).matches({"v": value})
            assert Equals("v", 1).matches({"v": value})
            assert InSet("v", [True]).matches({"v": value})
        assert Equals("v", (1, "a")).matches({"v": (True, "a")})
        assert not Equals("v", (1, "a")).matches({"v": ("1", "a")})

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_a_publish_outside_the_domain_fails_alike_on_every_backend(self, backend):
        net = line_topology(n_brokers=2, config=SystemConfig(transport=backend))
        try:
            subscriber = net.add_client("sub", "B2")
            subscriber.subscribe(Filter([Exists("v")]))
            publisher = net.add_client("pub", "B1")
            net.run_until_idle()
            for value in (Decimal(1), b"x", [1]):
                with pytest.raises(WireError, match="outside the value domain"):
                    publisher.publish(Notification({"v": value}))
            publisher.publish(Notification({"v": (1, "x")}))
            net.run_until_idle()
            assert [d.notification["v"] for d in subscriber.deliveries] == [(1, "x")]
        finally:
            net.close()

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_an_attribute_name_that_is_no_str_fails_alike_on_every_backend(self, backend):
        net = line_topology(n_brokers=2, config=SystemConfig(transport=backend))
        try:
            subscriber = net.add_client("sub", "B2")
            subscriber.subscribe(Filter([Exists("v")]))
            publisher = net.add_client("pub", "B1")
            net.run_until_idle()
            for name in (1, None, ("v",)):
                with pytest.raises(WireError, match="attribute name .* is not a str"):
                    publisher.publish(Notification({name: "x", "v": 1}))
            net.run_until_idle()
            assert subscriber.deliveries == []
        finally:
            net.close()
