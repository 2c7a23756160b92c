"""Unit tests for the relocation (handover) protocol pieces."""

import pytest

from repro.core.location import LocationSpace
from repro.core.location_filter import location_dependent
from repro.core.physical_mobility import HandoverReply, HandoverRequest, RelocationManager
from repro.core.virtual_client import VirtualClient
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification

from helpers import FakeHost


@pytest.fixture
def space():
    return LocationSpace({"r1": "B1", "r2": "B2"})


@pytest.fixture
def old_side(space):
    """A virtual client at B1 that was active and then lost its device."""
    host = FakeHost()
    vc = VirtualClient("alice", host, "B1", space)
    vc.add_template("temp", location_dependent({"service": "temperature"}))
    vc.add_plain_filter("stock", Filter([Equals("service", "stock")]))
    vc.activate("r1")
    vc.deactivate()
    return host, vc


def stock(price):
    return Notification({"service": "stock", "price": price})


def temp(room):
    return Notification({"service": "temperature", "location": room})


class TestServeRequest:
    def test_reply_splits_plain_and_location_traffic(self, old_side):
        _host, vc = old_side
        vc.handle_notification(stock(1))
        vc.handle_notification(temp("r1"))
        vc.handle_notification(stock(2))
        manager = RelocationManager("B1", "R@B1")
        request = HandoverRequest(client_id="alice", new_broker="B2", new_replicator="R@B2")
        reply = manager.serve_request(vc, request, now=10.0)
        assert reply.found
        assert [n["price"] for n in reply.buffered_plain] == [1, 2]
        assert [n["location"] for n in reply.buffered_location] == ["r1"]
        assert "stock" in reply.plain_filters

    def test_serving_withdraws_plain_subscriptions(self, old_side):
        host, vc = old_side
        manager = RelocationManager("B1", "R@B1")
        manager.serve_request(vc, HandoverRequest("alice", "B2", "R@B2"), now=0.0)
        assert not any("plain" in sub_id for sub_id in host.subscribed)
        assert vc.plain_filters == {}

    def test_missing_virtual_client_reports_not_found(self):
        manager = RelocationManager("B1", "R@B1")
        reply = manager.serve_request(None, HandoverRequest("ghost", "B2", "R@B2"), now=0.0)
        assert not reply.found


class TestApplyReply:
    def _new_side(self, space):
        host = FakeHost()
        vc = VirtualClient("alice", host, "B2", space)
        vc.add_template("temp", location_dependent({"service": "temperature"}))
        vc.activate("r2")
        return host, vc

    def test_plain_filters_and_traffic_relocated(self, space):
        host, vc = self._new_side(space)
        manager = RelocationManager("B2", "R@B2")
        reply = HandoverReply(
            client_id="alice",
            old_broker="B1",
            plain_filters={"stock": Filter([Equals("service", "stock")])},
            buffered_plain=[stock(1), stock(2)],
            buffered_location=[temp("r1")],
        )
        replay = manager.apply_reply(vc, reply, deliver_location_history=False)
        assert [n["price"] for n in replay] == [1, 2]
        assert "stock" in vc.plain_filters
        assert any("plain-stock" in sub_id for sub_id in host.subscribed)

    def test_exception_mode_salvages_location_history(self, space):
        _host, vc = self._new_side(space)
        manager = RelocationManager("B2", "R@B2")
        reply = HandoverReply(
            client_id="alice",
            old_broker="B1",
            buffered_location=[temp("r1"), temp("r1")],
        )
        replay = manager.apply_reply(vc, reply, deliver_location_history=True)
        assert len(replay) == 2
        assert manager.exception_recoveries == 2

    def test_not_found_reply_is_noop(self, space):
        _host, vc = self._new_side(space)
        manager = RelocationManager("B2", "R@B2")
        reply = HandoverReply(client_id="alice", old_broker="B1", found=False)
        assert manager.apply_reply(vc, reply, deliver_location_history=True) == []

    def test_round_trip_old_to_new(self, space):
        """Full protocol: buffer at the old side, serve, apply at the new side."""
        old_host = FakeHost()
        old_vc = VirtualClient("alice", old_host, "B1", space)
        old_vc.add_plain_filter("stock", Filter([Equals("service", "stock")]))
        old_vc.activate("r1")
        old_vc.deactivate()
        for price in (10, 11, 12):
            old_vc.handle_notification(stock(price))

        old_manager = RelocationManager("B1", "R@B1")
        new_manager = RelocationManager("B2", "R@B2")
        request = new_manager.build_request("alice")
        reply = old_manager.serve_request(old_vc, request, now=5.0)

        new_host, new_vc = self._new_side(space)
        replay = new_manager.apply_reply(new_vc, reply, deliver_location_history=False)
        assert request == HandoverRequest("alice", "B2", "R@B2")
        assert reply.old_broker == "B1"
        assert [n["price"] for n in replay] == [10, 11, 12]
