"""Unit tests for the device-side mobile client (wireless stub)."""

import pytest

from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub
from repro.core.mobile_client import MobileClient
from repro.core.replicator import CLIENT_HELLO, CLIENT_SUBSCRIBE
from repro.net.process import Message, Process
from repro.net.transport import SimTransport
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter


class FakeReplicator(Process):
    """Accepts device-protocol messages and records them."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)

    def kinds(self):
        return [message.kind for message in self.received]


@pytest.fixture
def device_setup():
    client = MobileClient("alice", connect_latency=0.1, transport=SimTransport())
    sim = client.sim
    replicator = FakeReplicator(sim, "R@B1")
    return sim, replicator, client


def test_a_mobile_client_needs_a_transport():
    with pytest.raises(TypeError):
        MobileClient("alice")


class TestHelloProtocol:
    def test_hello_sent_on_attach_with_profile(self, device_setup):
        sim, replicator, client = device_setup
        client.subscribe_location(location_dependent({"service": "temperature"}), "temp")
        client.subscribe(Filter([Equals("service", "stock")]), "stock")
        client.set_location("room-00")
        client.attach(replicator, "B1")
        sim.run_until_idle()
        hello = [m for m in replicator.received if m.kind == CLIENT_HELLO][0].payload
        assert hello.client_id == "alice"
        assert hello.location == "room-00"
        assert "temp" in hello.templates
        assert "stock" in hello.plain_filters
        assert hello.previous_broker is None
        assert hello.reissue

    def test_hello_after_move_carries_previous_broker(self, device_setup):
        sim, replicator, client = device_setup
        other = FakeReplicator(sim, "R@B2")
        client.attach(replicator, "B1")
        sim.run_until_idle()
        client.detach()
        client.attach(other, "B2")
        sim.run_until_idle()
        hello = [m for m in other.received if m.kind == CLIENT_HELLO][0].payload
        assert hello.previous_broker == "B1"

    def test_no_reissue_client_sends_empty_profile_after_first_attach(self, device_setup):
        sim, replicator, client = device_setup
        client.reissue_on_attach = False
        client.subscribe_location(location_dependent({"service": "temperature"}))
        other = FakeReplicator(sim, "R@B2")
        client.attach(replicator, "B1")
        sim.run_until_idle()
        first_hello = [m for m in replicator.received if m.kind == CLIENT_HELLO][0].payload
        assert first_hello.templates  # announced on first attachment
        client.detach()
        client.attach(other, "B2")
        sim.run_until_idle()
        second_hello = [m for m in other.received if m.kind == CLIENT_HELLO][0].payload
        assert second_hello.templates == {}
        assert second_hello.reissue is False


class TestApiWhileConnected:
    def test_subscribe_and_location_updates_forwarded(self, device_setup):
        sim, replicator, client = device_setup
        client.attach(replicator, "B1")
        sim.run_until_idle()
        client.subscribe_location(location_dependent({"service": "menu"}))
        client.set_location("room-01")
        client.subscribe(Filter([Equals("service", "stock")]))
        sim.run_until_idle()
        kinds = replicator.kinds()
        assert kinds.count(CLIENT_SUBSCRIBE) == 2
        assert "location_update" in kinds

    def test_publish_stamps_metadata(self, device_setup):
        sim, replicator, client = device_setup
        client.attach(replicator, "B1")
        sim.run_until_idle()
        stamped = client.publish({"service": "chat"})
        assert stamped.publisher == "alice"
        assert stamped.published_at == sim.now
        sim.run_until_idle()
        assert "publish" in replicator.kinds()

    def test_unsubscribe_forwarded(self, device_setup):
        sim, replicator, client = device_setup
        client.attach(replicator, "B1")
        sim.run_until_idle()
        sub_id = client.subscribe(Filter([Equals("service", "stock")]))
        template_id = client.subscribe_location(location_dependent({"service": "menu"}))
        client.unsubscribe(sub_id)
        client.unsubscribe_location(template_id)
        sim.run_until_idle()
        assert replicator.kinds().count("client_unsubscribe") == 2
        assert client.plain_filters == {}
        assert client.templates == {}

    def test_detach_announces_leaving_and_shutdown_sends_bye(self, device_setup):
        sim, replicator, client = device_setup
        client.attach(replicator, "B1")
        sim.run_until_idle()
        client.detach(announce=True)
        sim.run_until_idle()
        assert "client_leaving" in replicator.kinds()
        client.attach(replicator, "B1")
        sim.run_until_idle()
        client.shutdown_application()
        sim.run_until_idle()
        assert "client_bye" in replicator.kinds()
        assert not client.connected


class TestDeliveryBookkeeping:
    def test_notify_records_delivery_with_replay_flag(self, device_setup):
        sim, replicator, client = device_setup
        client.set_location("room-00")
        client.attach(replicator, "B1")
        sim.run_until_idle()
        from repro.pubsub.notification import Notification

        replicator.send("alice", Message(kind="notify", payload=Notification({"a": 1}), meta={"replayed": True}))
        replicator.send("alice", Message(kind="notify", payload=Notification({"a": 2})))
        sim.run_until_idle()
        assert len(client.deliveries) == 2
        assert len(client.replayed_deliveries()) == 1
        assert len(client.live_deliveries()) == 1
        assert client.deliveries[0].location == "room-00"
        assert client.duplicate_deliveries() == 0

    def test_location_and_broker_traces_recorded(self, device_setup):
        sim, replicator, client = device_setup
        client.set_location("room-00")
        client.attach(replicator, "B1")
        sim.run_until_idle()
        client.set_location("room-01")
        assert [loc for _t, loc in client.location_trace] == ["room-00", "room-01"]
        assert [broker for _t, broker in client.broker_trace] == ["B1"]
