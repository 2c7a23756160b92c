"""Unit tests for virtual clients (active vs buffering shadows)."""

import pytest

from repro.core.buffering import CountBasedPolicy
from repro.core.location import LocationSpace
from repro.core.location_filter import location_dependent
from repro.core.virtual_client import VirtualClient, VirtualClientMode
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification

from helpers import FakeHost


@pytest.fixture
def space():
    return LocationSpace({"r1": "B1", "r2": "B1", "r3": "B2"})


@pytest.fixture
def host():
    return FakeHost()


@pytest.fixture
def shadow(host, space):
    """A freshly created shadow (buffering) virtual client at B1."""
    vc = VirtualClient("alice", host, "B1", space)
    vc.add_template("temp", location_dependent({"service": "temperature"}))
    return vc


def temp(room):
    return Notification({"service": "temperature", "location": room, "value": 20})


class TestShadowBehaviour:
    def test_starts_in_buffering_mode(self, shadow):
        assert shadow.mode is VirtualClientMode.BUFFERING
        assert not shadow.is_active

    def test_shadow_binds_to_broker_coverage(self, shadow, host):
        (subscription,) = host.subscribed.values()
        assert subscription.filter.matches(temp("r1"))
        assert subscription.filter.matches(temp("r2"))
        assert not subscription.filter.matches(temp("r3"))
        assert subscription.location_dependent

    def test_shadow_buffers_matching_notifications(self, shadow, host):
        assert shadow.handle_notification(temp("r1")) is False
        assert len(shadow.buffer) == 1
        assert host.delivered == []

    def test_shadow_ignores_non_matching(self, shadow):
        assert shadow.handle_notification(temp("r3")) is False
        assert len(shadow.buffer) == 0

    def test_shadow_does_not_install_plain_filters(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        assert all("plain" not in sub_id for sub_id in host.subscribed)
        # but the filter is remembered for later activation
        assert "stock" in shadow.plain_filters


class TestActivation:
    def test_activation_rebinds_and_replays(self, shadow, host):
        shadow.handle_notification(temp("r1"))
        shadow.handle_notification(temp("r2"))
        replay = shadow.activate("r1")
        assert shadow.is_active
        assert [n["location"] for n in replay] == ["r1", "r2"]
        assert len(shadow.buffer) == 0
        # after activation the binding is the precise myloc, not the broker area
        bound = [s for s in host.subscribed.values() if s.location_dependent]
        assert len(bound) == 1
        assert bound[0].filter.matches(temp("r1"))
        assert not bound[0].filter.matches(temp("r2"))

    def test_activation_installs_plain_filters(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        shadow.activate("r1")
        assert any("plain-stock" in sub_id for sub_id in host.subscribed)

    def test_active_delivers_live(self, shadow, host):
        shadow.activate("r1")
        assert shadow.handle_notification(temp("r1")) is True
        assert len(host.delivered) == 1
        client_id, _notification, replayed = host.delivered[0]
        assert client_id == "alice" and replayed is False

    def test_update_location_rebinds(self, shadow, host):
        shadow.activate("r1")
        shadow.update_location("r2")
        bound = [s for s in host.subscribed.values() if s.location_dependent]
        assert bound[0].filter.matches(temp("r2"))
        assert not bound[0].filter.matches(temp("r1"))

    def test_update_location_noop_when_buffering(self, shadow, host):
        before = dict(host.subscribed)
        shadow.update_location("r2")
        assert host.subscribed == before

    def test_deactivate_returns_to_broker_binding(self, shadow, host):
        shadow.activate("r1")
        shadow.deactivate()
        assert not shadow.is_active
        bound = [s for s in host.subscribed.values() if s.location_dependent]
        assert bound[0].filter.matches(temp("r2"))

    def test_deactivate_keeps_plain_filters_installed(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        shadow.activate("r1")
        shadow.deactivate()
        assert any("plain-stock" in sub_id for sub_id in host.subscribed)
        # the old broker keeps buffering stock quotes for the disconnected client
        assert shadow.handle_notification(Notification({"service": "stock", "price": 1})) is False
        assert len(shadow.buffer) == 1

    def test_unknown_location_falls_back_to_broker_binding(self, shadow, host):
        shadow.activate("not-a-location")
        bound = [s for s in host.subscribed.values() if s.location_dependent]
        assert bound[0].filter.matches(temp("r1")) and bound[0].filter.matches(temp("r2"))


class TestSubscriptionManagement:
    def test_remove_template_unsubscribes(self, shadow, host):
        shadow.remove_template("temp")
        assert host.subscribed == {}
        assert len(host.unsubscribed) == 1

    def test_remove_plain_filter(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        shadow.activate("r1")
        shadow.remove_plain_filter("stock")
        assert not any("plain-stock" in sub_id for sub_id in host.subscribed)

    def test_withdraw_plain_filters(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        shadow.activate("r1")
        shadow.withdraw_plain_filters()
        assert not any("plain" in sub_id for sub_id in host.subscribed)
        assert "stock" in shadow.plain_filters  # remembered, just not installed

    def test_teardown_unsubscribes_everything_and_drops_buffer(self, shadow, host):
        shadow.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        shadow.handle_notification(temp("r1"))
        dropped = shadow.teardown()
        assert dropped == 1
        assert host.subscribed == {}
        assert len(shadow.buffer) == 0

    def test_rebind_is_idempotent(self, shadow, host):
        before = shadow.rebinds
        shadow.deactivate()  # binding unchanged (already broker scope)
        assert shadow.rebinds == before


class TestBufferOptions:
    def test_buffer_policy_applied(self, host, space):
        vc = VirtualClient("alice", host, "B1", space, buffer_policy=CountBasedPolicy(2))
        vc.add_template("temp", location_dependent({"service": "temperature"}))
        for _ in range(5):
            vc.handle_notification(temp("r1"))
        assert len(vc.buffer) == 2

    def test_matches_and_bound_filters(self, shadow):
        assert shadow.matches(temp("r1"))
        assert not shadow.matches(Notification({"service": "stock"}))
        assert len(shadow.bound_filters()) == 1
