"""Integration tests for the replicator layer through the MobilePubSub facade.

These tests exercise the paper's algorithm end to end on the simulator:
client setup (3.2.1), client operation (3.2.2), client handover (3.2.3),
client removal (3.2.4), the physical-mobility relocation and the exception
mode, asserting the externally observable guarantees (shadow placement,
replay, no loss, garbage collection).
"""

import pytest
from helpers import assert_one_subscription_per_filter

from repro.core.buffering import CountBasedPolicy, TimeBasedPolicy
from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.core.replicator import SHADOW_DELETE, ReplicatorConfig
from repro.core.uncertainty import MarkovPredictor
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter


def build_system(config=None, n_rooms=12, rooms_per_broker=3):
    space = office_floor_space(n_rooms=n_rooms, rooms_per_broker=rooms_per_broker)
    network = line_topology(len(space.brokers()))
    sim = network.sim
    system = MobilePubSub(network, space, config=config)
    return sim, space, system


def deploy_sensors(system, space):
    sensors = {room: system.add_publisher(f"sensor-{room}", room) for room in space.locations}

    def publish_all():
        published = []
        for room, sensor in sensors.items():
            published.append(sensor.publish({"service": "temperature", "location": room, "value": 20}))
        return published

    return publish_all


class TestClientSetup:
    def test_attach_creates_active_vc_and_neighbour_shadows(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()

        assert client.connected
        assert client.current_broker == "B1"
        # nlb(B1) = {B2} on the line, so shadows live at B1 (active) and B2 (shadow)
        assert sorted(system.shadow_map().keys()) == ["B1", "B2"]
        assert system.replicators["B1"].virtual_clients["alice"].is_active
        assert not system.replicators["B2"].virtual_clients["alice"].is_active
        assert system.replicators["B3"].virtual_clients == {}

    def test_welcome_reports_setup_latency(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        latencies = client.setup_latencies()
        assert len(latencies) == 1
        assert latencies[0] > 0

    def test_static_clients_coexist(self):
        sim, space, system = build_system()
        static = system.add_static_client("wall-display", "B1")
        static.subscribe(Filter([Equals("service", "temperature")]))
        publish_all = deploy_sensors(system, space)
        sim.run_until_idle()
        publish_all()
        sim.run_until_idle()
        assert len(static.deliveries) == len(space.locations)


class TestClientOperation:
    def test_live_delivery_only_for_current_location(self):
        sim, space, system = build_system()
        publish_all = deploy_sensors(system, space)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        publish_all()
        sim.run_until_idle()
        live = [d for d in client.deliveries if not d.replayed]
        assert [d.notification["location"] for d in live] == [space.locations[0]]

    def test_publish_passes_through_replicator(self):
        sim, space, system = build_system()
        subscriber = system.add_static_client("listener", "B3")
        subscriber.subscribe(Filter([Equals("service", "chat")]))
        client = system.add_mobile_client("alice")
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        client.publish({"service": "chat", "text": "hello"})
        sim.run_until_idle()
        assert len(subscriber.deliveries) == 1

    def test_publish_while_disconnected_fails_gracefully(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        assert client.publish({"service": "chat"}) is None
        assert client.published == []

    def test_subscribe_after_attach_propagates_to_shadows(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        client.subscribe_location(location_dependent({"service": "restaurant-menu"}))
        sim.run_until_idle()
        shadow = system.replicators["B2"].virtual_clients["alice"]
        assert any(
            template.static_filter.matches({"service": "restaurant-menu"})
            for template in shadow.templates.values()
        )

    def test_unsubscribe_propagates_to_shadows(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        template_id = client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        client.unsubscribe_location(template_id)
        sim.run_until_idle()
        shadow = system.replicators["B2"].virtual_clients["alice"]
        assert shadow.templates == {}

    def test_within_broker_move_is_pure_logical_mobility(self):
        sim, space, system = build_system()
        publish_all = deploy_sensors(system, space)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        control_before = system.control_message_count()
        system.move(client, rooms[1])  # same broker (3 rooms per broker)
        sim.run_until_idle()
        publish_all()
        sim.run_until_idle()
        live_locations = [d.notification["location"] for d in client.deliveries if not d.replayed]
        assert rooms[1] in live_locations
        # no handover, so no new replication control traffic
        assert system.control_message_count() == control_before


class TestClientHandover:
    def test_cross_broker_move_replays_buffered_notifications(self):
        sim, space, system = build_system()
        publish_all = deploy_sensors(system, space)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        publish_all()  # buffered by the shadow at B2 for rooms 3..5
        sim.run_until_idle()
        system.move(client, rooms[3])  # B1 -> B2
        sim.run_until_idle()
        replayed = [d.notification["location"] for d in client.deliveries if d.replayed]
        assert rooms[3] in replayed

    def test_shadow_set_reconfigured_after_handover(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        system.move(client, rooms[3])  # now at B2; nlb(B2) = {B1, B3}
        sim.run_until_idle()
        hosting = sorted(system.shadow_map().keys())
        assert hosting == ["B1", "B2", "B3"]
        assert system.replicators["B2"].virtual_clients["alice"].is_active
        system.move(client, rooms[6])  # now at B3; nlb(B3) = {B2, B4}
        sim.run_until_idle()
        hosting = sorted(system.shadow_map().keys())
        assert hosting == ["B2", "B3", "B4"]
        assert "alice" not in system.replicators["B1"].virtual_clients

    def test_plain_subscription_survives_handover_without_loss(self):
        sim, space, system = build_system()
        ticker = system.add_static_client("ticker", "B1")
        client = system.add_mobile_client("alice")
        client.subscribe(Filter([Equals("service", "stock")]))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        published = [ticker.publish({"service": "stock", "seq": i}) for i in range(3)]
        sim.run_until_idle()
        system.detach(client)
        # quotes published while disconnected are buffered at the old broker
        published += [ticker.publish({"service": "stock", "seq": i}) for i in range(3, 6)]
        sim.run_until_idle()
        system.attach(client, location=rooms[6])  # reconnect two brokers away
        sim.run_until_idle()
        published += [ticker.publish({"service": "stock", "seq": i}) for i in range(6, 9)]
        sim.run_until_idle()
        received = sorted(d.notification["seq"] for d in client.deliveries)
        assert received == list(range(9))
        assert client.duplicate_deliveries() == 0

    def test_handover_records_predictor_observation(self):
        config = MobilitySystemConfig(predictor="markov")
        sim, space, system = build_system(config=config)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        # B1 -> B3 skips B2, so only learning (not the nlb fallback) predicts it
        for _ in range(MarkovPredictor.MIN_OBSERVATIONS):
            system.move(client, rooms[6])
            sim.run_until_idle()
            system.move(client, rooms[0])
            sim.run_until_idle()
        assert system.predictor.predict("B1") == frozenset({"B3"})

    def test_a_gapped_move_superseded_inside_its_gap_never_attaches(self):
        # the move to room-08 starts before the move to room-04 reattaches:
        # the client must not attach at B2 while it stands in room-08
        sim, space, system = build_system(rooms_per_broker=4)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location="room-00")
        sim.schedule_at(1.0, system.move, client, "room-04", 2.0)
        sim.schedule_at(2.0, system.move, client, "room-08", 2.0)
        sim.run_until_idle()
        assert [(a.broker, a.requested_at) for a in client.attachments] == [
            ("B1", 0.0),
            ("B3", 4.0),
        ]
        assert client.current_broker == "B3" and client.connected
        assert system.replicators["B3"].virtual_clients["alice"].is_active
        assert not system.replicators["B2"].virtual_clients["alice"].is_active


class TestShadowDeliveryCount:
    """``notifications_buffered`` counts what shadows accepted, not how long their buffers are."""

    @pytest.mark.parametrize(
        "policy_factory",
        [lambda: CountBasedPolicy(3), lambda: TimeBasedPolicy(0.5)],
        ids=["count-based", "time-based"],
    )
    def test_full_bounded_buffer_keeps_counting(self, policy_factory):
        config = MobilitySystemConfig(
            replicator=ReplicatorConfig(buffer_policy_factory=policy_factory)
        )
        sim, space, system = build_system(config=config)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        sensor = system.add_publisher("sensor", space.locations[3])  # B2 hosts the shadow
        for value in range(10):
            sensor.publish({"service": "temperature", "location": space.locations[3], "value": value})
            sim.run(until=sim.now + 1.0)  # a second apart: the time-based policy evicts each predecessor
        shadow = system.replicators["B2"].virtual_clients["alice"]
        assert shadow.buffered_total == 10
        assert len(shadow.buffer) < 10  # the policy did bound the buffer
        assert system.replicators["B2"].stats.notifications_buffered == 10
        assert system.total_shadow_deliveries() == 10


class TestClientRemoval:
    def test_shutdown_garbage_collects_all_virtual_clients(self):
        sim, space, system = build_system()
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        assert system.total_virtual_clients() == 2
        system.remove_client(client)
        sim.run_until_idle()
        assert system.total_virtual_clients() == 0
        assert not client.connected
        # all routing state is gone: alice was the last client anywhere
        assert_one_subscription_per_filter(system)
        for broker in system.network.brokers.values():
            assert broker.routing_table_size() == 0

    def test_shadow_delete_never_removes_active_client(self):
        sim, space, system = build_system()
        alice = system.add_mobile_client("alice")
        alice.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(alice, location=space.locations[0])
        sim.run_until_idle()
        from repro.net.process import Message

        replicator = system.replicators["B1"]
        replicator.deliver(Message(kind=SHADOW_DELETE, payload={"client_id": "alice"}, sender="R@B2"))
        assert "alice" in replicator.virtual_clients


class TestBaselines:
    def test_reactive_config_creates_no_shadows(self):
        config = MobilitySystemConfig(
            replicator=ReplicatorConfig(pre_subscription=False, physical_relocation=False, exception_mode=False),
            predictor="none",
        )
        sim, space, system = build_system(config=config)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        assert system.total_shadow_count() == 0
        system.move(client, space.locations[3])
        sim.run_until_idle()
        # the stale virtual client at the previous broker is garbage collected
        assert "alice" not in system.replicators["B1"].virtual_clients

    def test_no_reissue_client_loses_interest_after_handover(self):
        config = MobilitySystemConfig(
            replicator=ReplicatorConfig(pre_subscription=False, physical_relocation=False, exception_mode=False),
            predictor="none",
        )
        sim, space, system = build_system(config=config)
        publish_all = deploy_sensors(system, space)
        client = system.add_mobile_client("alice", reissue_on_attach=False)
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = space.locations
        system.attach(client, location=rooms[0])
        sim.run_until_idle()
        publish_all()
        sim.run_until_idle()
        before = len(client.deliveries)
        assert before >= 1  # the first attachment did announce the subscription
        system.move(client, rooms[3])
        sim.run_until_idle()
        publish_all()
        sim.run_until_idle()
        assert len([d for d in client.deliveries if not d.replayed]) == before

    def test_flooding_predictor_places_shadows_everywhere(self):
        config = MobilitySystemConfig(predictor="flooding")
        sim, space, system = build_system(config=config)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        assert system.total_virtual_clients() == len(system.network.broker_names())
