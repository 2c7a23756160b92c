"""Unit tests for notifications, subscriptions and the matching engines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.filters import Equals, Filter, InSet, Range, filter_from_dict
from repro.pubsub.matching import AttributeIndexMatcher
from repro.net.process import Message
from repro.net.wire import (
    decode_message,
    decode_message_binary,
    encode_message,
    encode_message_binary,
)
from repro.pubsub.notification import Notification, attribute_dict, notification
from repro.pubsub.subscription import next_subscription_id, subscription
from repro.pubsub.testing import BruteForceMatcher, cross_check


class TestNotification:
    def test_mapping_interface(self):
        n = notification(service="temperature", value=21)
        assert n["service"] == "temperature"
        assert n.get("missing") is None
        assert set(n) == {"service", "value"}
        assert len(n) == 2

    def test_views_are_the_dicts_own(self):
        """``items``/``keys``/``values``/``in`` delegate to the backing dict (C-level
        views, no per-item Python call) — also on the instances the binary codec
        builds through ``__new__`` — and what callers derive from them is unchanged."""
        attrs = {"service": "temperature", "value": 21, "tags": ("a", "b")}
        built = Notification(attrs, notification_id=7, published_at=1.5, publisher="p")
        frame = Message(kind="notify", payload=built, msg_id=1)
        decoded = decode_message_binary(encode_message_binary(frame)).payload
        assert decoded is not built
        for n in (built, decoded):
            assert type(n.items()) is type(attrs.items())
            assert type(n.keys()) is type(attrs.keys())
            assert type(n.values()) is type(attrs.values())
            assert n.items() == attrs.items() and n.keys() == attrs.keys()
            assert list(n.values()) == [n[key] for key in n]
            assert "value" in n and "missing" not in n and ("a",) not in n.values()
            assert dict(n) == attrs and dict(n) is not attribute_dict(n)
            assert sorted(n.items()) == sorted(attrs.items())
            assert attribute_dict(n) == attrs and attribute_dict(attrs) is attrs
            for encode, decode in (
                (encode_message, decode_message),
                (encode_message_binary, decode_message_binary),
            ):
                assert encode(Message(kind="notify", payload=n, msg_id=1)) == encode(frame)
                assert decode(encode(frame)).payload == built

    def test_ids_unique(self):
        assert notification(a=1).notification_id != notification(a=1).notification_id

    def test_stamped_keeps_id_and_content(self):
        original = notification(a=1)
        stamped = original.stamped(published_at=3.0, publisher="p")
        assert stamped.notification_id == original.notification_id
        assert stamped.published_at == 3.0
        assert stamped.publisher == "p"
        assert stamped == original

    def test_with_attributes_changes_id(self):
        original = notification(a=1)
        updated = original.with_attributes(a=2, b=3)
        assert updated["a"] == 2 and updated["b"] == 3
        assert updated.notification_id != original.notification_id

    def test_digest_stable(self):
        n = notification(a=1, b="x")
        assert hash(n) == hash(n)

    def test_estimated_size_counts_strings(self):
        small = notification(a="x")
        large = notification(a="x" * 100)
        assert large.estimated_size() > small.estimated_size()


class TestSubscription:
    def test_id_generation_unique(self):
        assert next_subscription_id() != next_subscription_id()

    def test_factory_defaults(self):
        sub = subscription(filter_from_dict({"service": "t"}), subscriber="alice")
        assert sub.subscriber == "alice"
        assert not sub.location_dependent
        assert sub.matches({"service": "t"})

    def test_rebound_keeps_identity(self):
        sub = subscription(filter_from_dict({"service": "t"}), subscriber="alice")
        rebound = sub.rebound(filter_from_dict({"service": "t", "location": "r1"}))
        assert rebound.sub_id == sub.sub_id
        assert rebound.filter != sub.filter

    def test_for_subscriber(self):
        sub = subscription(filter_from_dict({"service": "t"}), subscriber="alice")
        shadow = sub.for_subscriber("shadow-of-alice")
        assert shadow.sub_id == sub.sub_id
        assert shadow.subscriber == "shadow-of-alice"


def _make_subs():
    return [
        subscription(Filter([Equals("service", "temperature")]), "a", sub_id="s1"),
        subscription(Filter([Equals("service", "stock")]), "b", sub_id="s2"),
        subscription(Filter([Equals("service", "temperature"), Range("value", 0, 10)]), "c", sub_id="s3"),
        subscription(Filter([InSet("location", {"r1", "r2"})]), "d", sub_id="s4"),
        subscription(Filter([]), "e", sub_id="s5"),  # match-all
    ]


@pytest.mark.parametrize("matcher_cls", [BruteForceMatcher, AttributeIndexMatcher])
class TestMatchers:
    def test_basic_matching(self, matcher_cls):
        matcher = matcher_cls()
        for sub in _make_subs():
            matcher.add(sub)
        matched = matcher.matching_ids({"service": "temperature", "value": 5, "location": "r9"})
        assert matched == {"s1", "s3", "s5"}

    def test_remove(self, matcher_cls):
        matcher = matcher_cls()
        for sub in _make_subs():
            matcher.add(sub)
        matcher.remove("s1")
        assert "s1" not in matcher
        assert matcher.matching_ids({"service": "temperature", "value": 50}) == {"s5"}

    def test_len_and_contains(self, matcher_cls):
        matcher = matcher_cls()
        for sub in _make_subs():
            matcher.add(sub)
        assert len(matcher) == 5
        assert "s2" in matcher
        matcher.clear()
        assert len(matcher) == 0

    def test_remove_missing_returns_none(self, matcher_cls):
        assert matcher_cls().remove("nope") is None


@settings(max_examples=100, deadline=None)
@given(
    notifications=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "service": st.sampled_from(["temperature", "stock", "news"]),
                "value": st.integers(-5, 20),
                "location": st.sampled_from(["r1", "r2", "r3"]),
            },
        ),
        min_size=1,
        max_size=20,
    )
)
def test_index_matcher_agrees_with_brute_force(notifications):
    brute = BruteForceMatcher()
    indexed = AttributeIndexMatcher()
    for sub in _make_subs():
        brute.add(sub)
        indexed.add(sub)
    wrapped = [Notification(attrs) for attrs in notifications]
    assert cross_check([brute, indexed], wrapped)
