#!/usr/bin/env python3
"""Logical mobility on an office floor (Fig. 1, right side of the paper).

A facility manager walks along the corridor of an office floor.  Every room
has a temperature sensor; the manager's tablet subscribes to
``(service = "temperature"), (location in myloc)`` so it always shows the
reading of the room she is standing in — never the whole building's sensor
firehose.

The example contrasts the tablet (a location-aware ``myloc`` subscription
that is re-bound on every room change) with a wall display that subscribed to
the entire temperature service, and prints the precision of what each of them
received.  It exercises pure *logical* mobility: the manager stays within one
border broker's range, so no physical handover is involved.

Run with::

    python examples/office_floor_tour.py
"""

from __future__ import annotations

import random

from repro.core import LocationAwareClient, location_dependent, office_floor_space
from repro.net import PeriodicTask
from repro.pubsub import Equals, Filter, line_topology


def main(duration: float = 120.0) -> None:
    rng = random.Random(42)
    space = office_floor_space(n_rooms=10, rooms_per_broker=10)  # one broker covers the floor
    network = line_topology(n_brokers=1)
    sim = network.sim
    broker = space.brokers()[0]
    rooms = space.locations

    # Sensors: one per room, a reading every 2 simulated seconds.
    sensors = {room: network.add_client(f"sensor-{room}", broker) for room in rooms}

    def publish_all() -> None:
        for room, sensor in sensors.items():
            sensor.publish(
                {"service": "temperature", "location": room, "value": round(19 + 4 * rng.random(), 1)}
            )

    PeriodicTask(sim, period=2.0, callback=publish_all, until=duration)

    # The manager's tablet: location-aware myloc subscription.
    manager = LocationAwareClient(sim, "manager-tablet", space)
    network.attach_client(manager, broker)
    manager.set_location(rooms[0])
    manager.subscribe_location(location_dependent({"service": "temperature"}))

    # The lobby wall display: subscribes to every temperature reading.
    wall_display = network.add_client("wall-display", broker)
    wall_display.subscribe(Filter([Equals("service", "temperature")]))

    # Walk the corridor: one room every 6 seconds.
    def walk() -> None:
        index = rooms.index(manager.location)
        next_index = min(index + 1, len(rooms) - 1)
        if next_index != index:
            manager.set_location(rooms[next_index])
            print(f"[t={sim.now:6.1f}s] manager enters {rooms[next_index]}")

    PeriodicTask(sim, period=6.0, callback=walk, start_delay=6.0, until=duration)

    sim.run(until=duration)
    sim.run_until_idle()

    relevant = manager.relevant_deliveries()
    total = len(manager.deliveries)
    print("\n--- results ---")
    print(f"manager tablet:  {total} deliveries, {relevant} for the current room "
          f"(precision {relevant / total:.2f}), {manager.rebinds} myloc re-bindings")
    print(f"wall display:    {len(wall_display.deliveries)} deliveries "
          f"(every sensor in the building, precision {1 / len(rooms):.2f} w.r.t. any single room)")
    latest = manager.deliveries[-1].notification if manager.deliveries else None
    if latest is not None:
        print(f"last reading shown on the tablet: {latest['location']} at {latest['value']} °C")


if __name__ == "__main__":
    main()
