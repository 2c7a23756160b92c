"""Randomised-operation test of the replicator state machine.

Hypothesis drives a random sequence of client operations — cross-broker
moves, within-broker moves, power-off/pop-up cycles, subscribe/unsubscribe of
location-dependent templates — of two clients drawing from the same services
(so joins and leaves of a shared filter are generated) against a full system,
and then checks the global invariants that must hold for *any* interleaving:

* each client's virtual clients live exactly at ``{current} ∪ nlb(current)``
  once the system quiesces (provided the client is attached);
* exactly one virtual client per client is active, and it is at the current
  broker;
* every hosted virtual client carries exactly its client's current template
  set;
* every replicator holds exactly one broker subscription per distinct filter
  its virtual clients have bound, and nothing else — so nothing withdrawn
  lingers in a routing table — and once both clients are removed every
  routing table is empty;
* no device ever receives duplicate notifications.
"""

from __future__ import annotations

from helpers import assert_one_subscription_per_filter
from hypothesis import given, settings, strategies as st

from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.pubsub.broker_network import line_topology

N_ROOMS = 12
ROOMS_PER_BROKER = 3

SERVICES = ["temperature", "restaurant-menu", "weather"]
CLIENTS = ["alice", "bob"]

operations = st.lists(
    st.tuples(
        st.integers(0, len(CLIENTS) - 1),
        st.one_of(
            st.tuples(st.just("move"), st.integers(0, N_ROOMS - 1)),
            st.tuples(st.just("popup"), st.integers(0, N_ROOMS - 1)),
            st.tuples(st.just("subscribe"), st.sampled_from(SERVICES)),
            st.tuples(st.just("unsubscribe"), st.integers(0, 3)),
            st.tuples(st.just("publish_round"), st.integers(0, 0)),
        ),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_replicator_invariants_under_random_operations(ops):
    space = office_floor_space(n_rooms=N_ROOMS, rooms_per_broker=ROOMS_PER_BROKER)
    network = line_topology(len(space.brokers()))
    sim = network.sim
    system = MobilePubSub(network, space, config=MobilitySystemConfig())
    rooms = space.locations

    sensors = {room: system.add_publisher(f"sensor-{room}", room) for room in rooms}
    clients = [system.add_mobile_client(name) for name in CLIENTS]
    active_templates = [{} for _ in clients]
    for index, client in enumerate(clients):
        template_id = client.subscribe_location(location_dependent({"service": SERVICES[0]}))
        active_templates[index][template_id] = SERVICES[0]
        system.attach(client, location=rooms[index])
    sim.run_until_idle()

    for who, (kind, value) in ops:
        client, templates = clients[who], active_templates[who]
        if kind == "move":
            system.move(client, rooms[value])
        elif kind == "popup":
            system.power_off(client)
            system.power_on(client, rooms[value])
        elif kind == "subscribe":
            new_id = client.subscribe_location(location_dependent({"service": value}))
            templates[new_id] = value
        elif kind == "unsubscribe":
            if templates:
                victim = sorted(templates)[value % len(templates)]
                client.unsubscribe_location(victim)
                del templates[victim]
        elif kind == "publish_round":
            for room, sensor in sensors.items():
                sensor.publish({"service": SERVICES[0], "location": room, "value": 1})
        sim.run_until_idle()

    sim.run_until_idle()

    # --- invariants -------------------------------------------------------
    for client in clients:
        current = client.current_broker
        assert client.connected and current is not None

        expected_hosting = {current} | set(system.movement_graph.nlb(current))
        hosting = {
            broker
            for broker, replicator in system.replicators.items()
            if client.name in replicator.virtual_clients
        }
        assert hosting == expected_hosting

        active_at = [
            broker
            for broker in hosting
            if system.replicators[broker].virtual_clients[client.name].is_active
        ]
        assert active_at == [current]

        expected_template_ids = set(client.templates.keys())
        for broker in hosting:
            virtual_client = system.replicators[broker].virtual_clients[client.name]
            assert set(virtual_client.templates.keys()) == expected_template_ids

        assert client.duplicate_deliveries() == 0

    # broker tables hold exactly what the hosted virtual clients have bound:
    # one entry per distinct filter, none for a withdrawn subscription
    assert_one_subscription_per_filter(system)

    for client in clients:
        system.remove_client(client)
    sim.run_until_idle()
    assert system.total_virtual_clients() == 0
    assert_one_subscription_per_filter(system)
    for broker in system.network.brokers.values():
        assert broker.routing_table_size() == 0
