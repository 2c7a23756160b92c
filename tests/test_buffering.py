"""Unit and property tests for buffering policies, buffers and the shared footprint."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffering import (
    REFERENCE_SIZE,
    CombinedPolicy,
    CountBasedPolicy,
    NotificationBuffer,
    SemanticPolicy,
    TimeBasedPolicy,
    UnboundedPolicy,
    make_policy,
    shared_footprint,
)
from repro.pubsub.notification import Notification


def reading(room, value, index=0):
    return Notification({"service": "temperature", "location": room, "value": value, "i": index})


class TestPolicies:
    def test_unbounded_never_evicts(self):
        buffer = NotificationBuffer(UnboundedPolicy())
        for i in range(100):
            buffer.add(reading("r1", i), now=float(i))
        assert len(buffer) == 100
        assert buffer.evicted == 0

    def test_time_based_evicts_old_entries(self):
        buffer = NotificationBuffer(TimeBasedPolicy(ttl=10.0))
        buffer.add(reading("r1", 1), now=0.0)
        buffer.add(reading("r1", 2), now=5.0)
        buffer.add(reading("r1", 3), now=20.0)  # triggers eviction of the first two
        assert [n["value"] for n in buffer.contents()] == [3]
        assert buffer.evicted == 2

    def test_time_based_expire_without_add(self):
        buffer = NotificationBuffer(TimeBasedPolicy(ttl=5.0))
        buffer.add(reading("r1", 1), now=0.0)
        assert buffer.contents(now=10.0) == []
        assert len(buffer) == 0
        assert buffer.evicted == 1

    def test_count_based_keeps_last_n(self):
        buffer = NotificationBuffer(CountBasedPolicy(max_entries=3))
        for i in range(10):
            buffer.add(reading("r1", i), now=float(i))
        assert [n["value"] for n in buffer.contents()] == [7, 8, 9]
        assert buffer.evicted == 7

    def test_combined_is_union_of_evictions(self):
        policy = CombinedPolicy([TimeBasedPolicy(ttl=10.0), CountBasedPolicy(max_entries=2)])
        buffer = NotificationBuffer(policy)
        buffer.add(reading("r1", 1), now=0.0)
        buffer.add(reading("r1", 2), now=1.0)
        buffer.add(reading("r1", 3), now=20.0)
        # time policy kills values 1 and 2 (too old); count policy would keep last 2
        assert [n["value"] for n in buffer.contents()] == [3]

    def test_semantic_nullification(self):
        policy = SemanticPolicy(lambda n: n.get("location"))
        buffer = NotificationBuffer(policy)
        buffer.add(reading("r1", 1), now=0.0)
        buffer.add(reading("r2", 2), now=1.0)
        buffer.add(reading("r1", 3), now=2.0)  # nullifies the first r1 reading
        values = [n["value"] for n in buffer.contents()]
        assert values == [2, 3]

    def test_semantic_none_key_exempt(self):
        policy = SemanticPolicy(lambda n: None)
        buffer = NotificationBuffer(policy)
        buffer.add(reading("r1", 1), now=0.0)
        buffer.add(reading("r1", 2), now=1.0)
        assert len(buffer) == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TimeBasedPolicy(0)
        with pytest.raises(ValueError):
            CountBasedPolicy(0)
        with pytest.raises(ValueError):
            CombinedPolicy([])

    def test_make_policy_factory(self):
        assert isinstance(make_policy("unbounded"), UnboundedPolicy)
        assert isinstance(make_policy("time", ttl=5), TimeBasedPolicy)
        assert isinstance(make_policy("count", max_entries=5), CountBasedPolicy)
        assert isinstance(make_policy("combined"), CombinedPolicy)
        assert isinstance(make_policy("semantic"), SemanticPolicy)
        with pytest.raises(ValueError):
            make_policy("nonsense")


class TestNotificationBuffer:
    def test_drain_returns_in_insertion_order_and_empties(self):
        buffer = NotificationBuffer()
        for i in range(5):
            buffer.add(reading("r1", i), now=float(i))
        drained = buffer.drain()
        assert [n["value"] for n in drained] == [0, 1, 2, 3, 4]
        assert len(buffer) == 0
        assert buffer.replayed == 5

    def test_drain_applies_policy_first(self):
        buffer = NotificationBuffer(TimeBasedPolicy(ttl=5.0))
        buffer.add(reading("r1", 1), now=0.0)
        buffer.add(reading("r1", 2), now=8.0)
        drained = buffer.drain(now=10.0)
        assert [n["value"] for n in drained] == [2]

    def test_clear(self):
        buffer = NotificationBuffer()
        buffer.add(reading("r1", 1), now=0.0)
        assert buffer.clear() == 1
        assert len(buffer) == 0

    def test_memory_bytes_tracks_content(self):
        buffer = NotificationBuffer()
        assert buffer.memory_bytes() == 0
        buffer.add(reading("r1", 1), now=0.0)
        assert buffer.memory_bytes() > 0


class TestSharedStore:
    def test_shared_memory_smaller_than_individual_for_overlap(self):
        notifications = [reading("r1", i) for i in range(50)]
        buffers = [NotificationBuffer() for _ in range(5)]
        for buffer in buffers:
            for n in notifications:
                buffer.add(n, now=0.0)
        individual_bytes = sum(b.memory_bytes() for b in buffers)
        assert shared_footprint(buffers) < individual_bytes

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("shared", [False, True], ids=["disjoint", "same-objects"])
    def test_footprint_counts_each_object_once_plus_a_reference_per_entry(self, k, shared):
        n = 4
        batches = [[reading("r1", i, index=b) for i in range(n)] for b in range(k)]
        if shared:
            batches = [batches[0]] * k
        buffers = [NotificationBuffer() for _ in range(k)]
        for buffer, batch in zip(buffers, batches):
            for notification in batch:
                buffer.add(notification, now=0.0)
        if shared:
            expected = buffers[0].memory_bytes() + REFERENCE_SIZE * k * n
        else:
            expected = sum(b.memory_bytes() for b in buffers) + REFERENCE_SIZE * k * n
        assert shared_footprint(buffers) == expected

    def test_equal_but_distinct_objects_are_each_counted_and_replayed(self):
        # a stamped copy keeps id and content: equal, same hash, another object
        original = reading("r1", 1)
        copy = original.stamped(published_at=5.0, publisher="p")
        assert copy == original and hash(copy) == hash(original)
        first, second = NotificationBuffer(), NotificationBuffer()
        first.add(original, now=0.0)
        second.add(copy, now=0.0)
        assert shared_footprint([first, second]) == 2 * (original.estimated_size() + REFERENCE_SIZE)
        assert second.drain()[0] is copy


# ------------------------------------------------------------------ properties


@settings(max_examples=100, deadline=None)
@given(
    max_entries=st.integers(1, 10),
    values=st.lists(st.integers(0, 100), min_size=0, max_size=40),
)
def test_count_policy_never_exceeds_bound(max_entries, values):
    buffer = NotificationBuffer(CountBasedPolicy(max_entries))
    for i, value in enumerate(values):
        buffer.add(reading("r", value, i), now=float(i))
        assert len(buffer) <= max_entries
    # the survivors are exactly the most recent entries, in order
    survivors = [n["value"] for n in buffer.contents()]
    assert survivors == values[-len(survivors):] if survivors else values == [] or len(values) >= 0


@settings(max_examples=100, deadline=None)
@given(
    ttl=st.floats(min_value=0.5, max_value=20.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
)
def test_time_policy_only_keeps_fresh_entries(ttl, gaps):
    buffer = NotificationBuffer(TimeBasedPolicy(ttl))
    now = 0.0
    for i, gap in enumerate(gaps):
        now += gap
        buffer.add(reading("r", i, i), now=now)
    for entry in buffer.contents(now=now):
        pass  # contents() already applied the policy at `now`
    assert all(now - ttl <= now for _ in buffer.contents(now=now))
    # explicit check: after expiring at a much later time everything is gone
    buffer.contents(now + ttl + 1.0)
    assert len(buffer) == 0


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 50)), max_size=30))
def test_semantic_policy_keeps_exactly_latest_per_key(values):
    buffer = NotificationBuffer(SemanticPolicy(lambda n: n.get("location")))
    for i, (room, value) in enumerate(values):
        buffer.add(reading(room, value, i), now=float(i))
    contents = buffer.contents()
    keys = [n["location"] for n in contents]
    assert len(keys) == len(set(keys))  # at most one entry per semantic key
    expected_latest = {}
    for room, value in values:
        expected_latest[room] = value
    for n in contents:
        assert n["value"] == expected_latest[n["location"]]
