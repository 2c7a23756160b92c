"""Tests for the basic logical-mobility client and the context-awareness extension."""

import pytest

from repro.core.context import ContextAwareClient, ContextMarker, context_dependent
from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.logical_mobility import LocationAwareClient
from repro.pubsub.broker_network import line_topology


@pytest.fixture
def floor():
    space = office_floor_space(n_rooms=6, rooms_per_broker=6)
    network = line_topology(1)
    sim = network.sim
    sensor = network.add_client("sensor", "B1")
    return sim, space, network, sensor


def publish_rooms(sensor, rooms):
    return [
        sensor.publish({"service": "temperature", "location": room, "value": 20}) for room in rooms
    ]


class TestLocationAwareClient:
    def test_subscription_bound_after_location_known(self, floor):
        sim, space, network, sensor = floor
        client = LocationAwareClient(sim, "alice", space)
        network.attach_client(client, "B1")
        template_id = client.subscribe_location(location_dependent({"service": "temperature"}))
        sim.run_until_idle()
        assert client.bound_filters() == []  # no location yet, nothing bound
        client.set_location(space.locations[0])
        sim.run_until_idle()
        assert len(client.bound_filters()) == 1
        assert template_id in client.templates

    def test_only_current_room_delivered(self, floor):
        sim, space, network, sensor = floor
        rooms = space.locations
        client = LocationAwareClient(sim, "alice", space)
        network.attach_client(client, "B1")
        client.set_location(rooms[0])
        client.subscribe_location(location_dependent({"service": "temperature"}))
        sim.run_until_idle()
        publish_rooms(sensor, rooms)
        sim.run_until_idle()
        assert [d.notification["location"] for d in client.deliveries] == [rooms[0]]

    def test_rebinding_follows_movement(self, floor):
        sim, space, network, sensor = floor
        rooms = space.locations
        client = LocationAwareClient(sim, "alice", space)
        network.attach_client(client, "B1")
        client.set_location(rooms[0])
        client.subscribe_location(location_dependent({"service": "temperature"}))
        sim.run_until_idle()
        client.set_location(rooms[2])
        sim.run_until_idle()
        publish_rooms(sensor, rooms)
        sim.run_until_idle()
        assert [d.notification["location"] for d in client.deliveries] == [rooms[2]]
        assert client.rebinds == 2
        assert client.relevant_deliveries() == 1

    def test_setting_same_location_does_not_rebind(self, floor):
        sim, space, network, _sensor = floor
        client = LocationAwareClient(sim, "alice", space)
        network.attach_client(client, "B1")
        client.set_location(space.locations[0])
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rebinds = client.rebinds
        client.set_location(space.locations[0])
        assert client.rebinds == rebinds

    def test_unknown_location_rejected(self, floor):
        sim, space, network, _sensor = floor
        client = LocationAwareClient(sim, "alice", space)
        with pytest.raises(KeyError):
            client.set_location("the-moon")

    def test_unsubscribe_location(self, floor):
        sim, space, network, sensor = floor
        rooms = space.locations
        client = LocationAwareClient(sim, "alice", space)
        network.attach_client(client, "B1")
        client.set_location(rooms[0])
        template_id = client.subscribe_location(location_dependent({"service": "temperature"}))
        sim.run_until_idle()
        client.unsubscribe_location(template_id)
        sim.run_until_idle()
        publish_rooms(sensor, rooms)
        sim.run_until_idle()
        assert client.deliveries == []


class TestContextDependentFilters:
    def test_bind_with_scalar_and_set_values(self):
        template = context_dependent({"service": "reminder"}, {"priority": "min_priority"})
        bound = template.bind({"min_priority": 3})
        assert bound.matches({"service": "reminder", "priority": 3})
        assert not bound.matches({"service": "reminder", "priority": 2})
        bound_set = template.bind({"min_priority": {2, 3}})
        assert bound_set.matches({"service": "reminder", "priority": 2})

    def test_marker_transform(self):
        marker = ContextMarker("battery", transform=lambda b: {3} if b < 30 else {1, 2, 3})
        template = context_dependent({"service": "reminder"}, {"priority": marker})
        low = template.bind({"battery": 10})
        full = template.bind({"battery": 90})
        assert not low.matches({"service": "reminder", "priority": 1})
        assert full.matches({"service": "reminder", "priority": 1})

    def test_missing_context_raises(self):
        template = context_dependent({"service": "reminder"}, {"priority": "min_priority"})
        with pytest.raises(KeyError):
            template.bind({})

    def test_markers_listing(self):
        template = context_dependent({"s": 1}, {"a": "ctx_a", "b": "ctx_b"})
        assert set(template.markers()) == {"ctx_a", "ctx_b"}


class TestContextAwareClient:
    def _system(self):
        network = line_topology(2)
        sim = network.sim
        publisher = network.add_client("publisher", "B1")
        return sim, network, publisher

    def test_rebinds_on_context_change(self):
        sim, network, publisher = self._system()
        client = ContextAwareClient(sim, "device", initial_context={"min_priority": {1, 2, 3}})
        network.attach_client(client, "B2")
        client.subscribe_context(context_dependent({"service": "reminder"}, {"priority": "min_priority"}))
        sim.run_until_idle()
        publisher.publish({"service": "reminder", "priority": 1})
        sim.run_until_idle()
        client.update_context(min_priority={3})
        sim.run_until_idle()
        publisher.publish({"service": "reminder", "priority": 1})
        publisher.publish({"service": "reminder", "priority": 3})
        sim.run_until_idle()
        priorities = [d.notification["priority"] for d in client.deliveries]
        assert priorities == [1, 3]
        assert client.rebinds == 2

    def test_subscription_deferred_until_context_complete(self):
        sim, network, publisher = self._system()
        client = ContextAwareClient(sim, "device")
        network.attach_client(client, "B2")
        client.subscribe_context(context_dependent({"service": "reminder"}, {"priority": "min_priority"}))
        sim.run_until_idle()
        assert client.bound_filters() == []
        client.update_context(min_priority={1, 2, 3})
        sim.run_until_idle()
        assert len(client.bound_filters()) == 1

    def test_irrelevant_context_change_does_not_rebind(self):
        sim, network, _publisher = self._system()
        client = ContextAwareClient(sim, "device", initial_context={"min_priority": {1}})
        network.attach_client(client, "B2")
        client.subscribe_context(context_dependent({"service": "reminder"}, {"priority": "min_priority"}))
        rebinds = client.rebinds
        client.update_context(battery=50)
        assert client.rebinds == rebinds
