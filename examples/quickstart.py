#!/usr/bin/env python3
"""Quickstart: a tiny mobile publish/subscribe deployment.

This example builds the smallest interesting system:

* a line of three border brokers (the acyclic REBECA router network),
* an office floor of six rooms mapped onto those brokers,
* a temperature sensor per room (wired publishers),
* one mobile user with a location-dependent subscription
  ``service == "temperature" AND location in myloc``,

then walks the user across a broker boundary and shows that the replicator
layer keeps delivering the readings for the room the user is currently in —
including the buffered reading that was published at the new location
*before* the user arrived ("subscribed in the past").

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    MobilePubSub,
    MobilitySystemConfig,
    evaluate_mobile_delivery,
    location_dependent,
    office_floor_space,
)
from repro.pubsub import line_topology


def main() -> None:
    # 1. Broker network (Fig. 2 of the paper), on the simulator it owns.
    space = office_floor_space(n_rooms=6, rooms_per_broker=2)  # rooms room-00..room-05 on B1..B3
    network = line_topology(n_brokers=len(space.brokers()))
    sim = network.sim

    # 2. The mobility middleware: one replicator per border broker,
    #    shadows placed on the movement-graph neighbourhood (nlb).
    system = MobilePubSub(network, space, config=MobilitySystemConfig())

    # 3. Wired publishers: a temperature sensor in every room.
    sensors = {room: system.add_publisher(f"sensor-{room}", room) for room in space.locations}

    def publish_round() -> None:
        for room, sensor in sensors.items():
            sensor.publish({"service": "temperature", "location": room, "value": 21.0})

    # 4. A mobile user subscribing to the temperature of wherever they are.
    alice = system.add_mobile_client("alice")
    template = location_dependent({"service": "temperature"})
    alice.subscribe_location(template)

    system.attach(alice, location="room-00")
    sim.run_until_idle()
    print(f"alice attached at broker {alice.current_broker}, connected={alice.connected}")
    print(f"shadow virtual clients: {system.shadow_map()}")

    # 5. Publish while alice is in room-00.
    publish_round()
    sim.run_until_idle()
    print(f"deliveries after first round: {[d.notification['location'] for d in alice.deliveries]}")

    # 6. Publish again, then move alice across the broker boundary to room-02.
    publish_round()
    sim.run_until_idle()
    system.move(alice, "room-02")
    sim.run_until_idle()
    print(f"alice now at broker {alice.current_broker}")
    replayed = [d.notification["location"] for d in alice.deliveries if d.replayed]
    print(f"replayed on arrival (buffered by the shadow before alice got there): {replayed}")

    # 7. One more round at the new location.
    publish_round()
    sim.run_until_idle()

    outcome = evaluate_mobile_delivery(alice, _all_published(sensors), template, space)
    print("\ndelivery outcome:", outcome.as_row())
    print("control messages of the replication layer:", system.control_message_count())


def _all_published(sensors) -> list:
    published = []
    for sensor in sensors.values():
        published.extend(sensor.published)
    return published


if __name__ == "__main__":
    main()
