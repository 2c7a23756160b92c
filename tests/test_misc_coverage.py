"""Additional coverage for smaller behaviours across the stack."""

import pytest

from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.net.process import Message
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


class TestBrokerExtras:
    def test_a_repeated_publish_is_routed_again(self):
        # brokers keep no memory of routed notification ids: the chaos
        # replays rely on a replay reaching its subscriber again
        network = line_topology(2)
        sim = network.sim
        subscriber = network.add_client("sub", "B2")
        subscriber.subscribe(Filter([Equals("service", "t")]))
        publisher = network.add_client("pub", "B1")
        sim.run_until_idle()
        notification = Notification({"service": "t"})
        publisher.send("B1", Message(kind="publish", payload=notification))
        publisher.send("B1", Message(kind="publish", payload=notification))
        sim.run_until_idle()
        assert len(subscriber.deliveries) == 2
        snapshot = network.brokers["B1"].metrics_snapshot()
        assert snapshot["counters"]["broker.matches"] == 2
        assert not any("duplicate" in key for part in snapshot.values() for key in part)

    def test_unknown_message_kind_ignored(self):
        network = line_topology(2)
        sim = network.sim
        client = network.add_client("c", "B1")
        client.send("B1", Message(kind="mystery", payload=None))
        sim.run_until_idle()  # must not raise
        assert network.brokers["B1"].messages_received == 1

    def test_broker_network_run_passthrough(self):
        network = line_topology(2)
        sim = network.sim
        sim.schedule(5.0, lambda: None)
        assert network.run(until=2.0) == 2.0


class TestMiddlewareExtras:
    @pytest.fixture
    def system(self):
        space = office_floor_space(n_rooms=4, rooms_per_broker=2)
        network = line_topology(2)
        sim = network.sim
        return sim, space, MobilePubSub(network, space)

    def test_replicator_lookup_by_location_and_broker(self, system):
        _sim, space, system = system
        room = space.locations[0]
        assert system.replicator_for_location(room) is system.replicator_for_broker(space.broker_of(room))

    def test_attach_requires_location_or_broker(self, system):
        _sim, _space, system = system
        client = system.add_mobile_client("alice")
        with pytest.raises(ValueError):
            system.attach(client)

    def test_attach_by_broker_directly(self, system):
        sim, _space, system = system
        client = system.add_mobile_client("alice")
        system.attach(client, broker="B2")
        sim.run_until_idle()
        assert client.current_broker == "B2"

    def test_power_cycle_round_trip(self, system):
        sim, space, system = system
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        system.power_off(client)
        assert not client.connected
        system.power_on(client, space.locations[3])
        sim.run_until_idle()
        assert client.connected
        assert client.current_broker == space.broker_of(space.locations[3])

    def test_unknown_predictor_spec_rejected(self):
        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        with pytest.raises(ValueError):
            MobilePubSub(network, space, config=MobilitySystemConfig(predictor="psychic"))

    def test_predictor_object_passthrough(self):
        from repro.core.uncertainty import NoPredictionPredictor

        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        predictor = NoPredictionPredictor()
        system = MobilePubSub(
            network, space, config=MobilitySystemConfig(predictor=predictor)
        )
        assert system.predictor is predictor

    def test_move_to_same_location_keeps_connection(self, system):
        sim, space, system = system
        client = system.add_mobile_client("alice")
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        attachments_before = len(client.attachments)
        system.move(client, space.locations[1])  # same broker
        sim.run_until_idle()
        assert len(client.attachments) == attachments_before
        assert client.connected


class TestReplicatorEdgeCases:
    def test_location_update_for_unknown_client_is_ignored(self):
        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        system = MobilePubSub(network, space)
        replicator = system.replicators["B1"]
        replicator.deliver(
            Message(kind="location_update", payload={"client_id": "ghost", "location": space.locations[0]})
        )
        assert replicator.virtual_clients == {}

    def test_unsubscribe_for_unknown_client_is_ignored(self):
        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        system = MobilePubSub(network, space)
        replicator = system.replicators["B1"]
        replicator.deliver(
            Message(kind="client_unsubscribe", payload={"client_id": "ghost", "template_id": "x", "sub_id": None})
        )
        assert replicator.virtual_clients == {}

    def test_device_disconnect_for_unknown_client_is_ignored(self):
        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        system = MobilePubSub(network, space)
        system.replicators["B1"].device_disconnected("ghost")  # must not raise

    def test_handover_reply_for_departed_client_is_dropped(self):
        from repro.core.physical_mobility import HandoverReply

        space = office_floor_space(n_rooms=2, rooms_per_broker=1)
        network = line_topology(2)
        system = MobilePubSub(network, space)
        replicator = system.replicators["B1"]
        reply = HandoverReply(client_id="ghost", old_broker="B2")
        replicator.deliver(Message(kind="handover_reply", payload=reply, sender="R@B2"))
        assert replicator.stats.replayed_to_device == 0
