"""E3 — Logical mobility: location-dependent subscriptions (Fig. 1 right).

A user walks between offices on a floor and wants "all temperature readings
referring to his current location (i.e., the particular office)".  The
experiment compares a location-aware client whose ``myloc`` subscription is
re-bound on every move (the mechanism of [5]) against a location-unaware
client that can only subscribe to the whole temperature service.

Measured per client type:

* ``deliveries`` — total notifications received;
* ``relevant_deliveries`` — deliveries matching the room the client was in
  when it received them;
* ``precision`` — the fraction of deliveries that were relevant;
* ``rebinds`` — how many times the subscription had to be adapted.

The location-aware client should reach precision ~1.0 while the unaware one
receives every room's readings (precision ~ 1 / rooms-per-broker-coverage).
"""

from __future__ import annotations

import random
from typing import Dict

from ..core.location import office_floor_space
from ..core.location_filter import location_dependent
from ..core.logical_mobility import LocationAwareClient
from ..net.simulator import PeriodicTask
from ..pubsub.broker_network import line_topology
from ..pubsub.filters import Equals, Filter
from .harness import Table


def run(
    n_rooms: int = 8,
    rooms_per_broker: int = 8,
    publish_period: float = 0.5,
    move_period: float = 4.0,
    duration: float = 60.0,
    seed: int = 3,
) -> Table:
    """Run the logical-mobility precision experiment and return the result table."""
    table = Table(
        "E3: location-dependent vs static subscriptions",
        columns=["client", "deliveries", "relevant_deliveries", "precision", "rebinds"],
        description="Office-floor temperature readings; myloc subscriptions deliver only the current room.",
    )
    results = _run_once(n_rooms, rooms_per_broker, publish_period, move_period, duration, seed)
    for client_name, row in results.items():
        table.add_row(client=client_name, **row)
    return table


def _run_once(
    n_rooms: int,
    rooms_per_broker: int,
    publish_period: float,
    move_period: float,
    duration: float,
    seed: int,
) -> Dict[str, Dict[str, object]]:
    rng = random.Random(seed)
    space = office_floor_space(n_rooms, rooms_per_broker)
    network = line_topology(len(space.brokers()))
    sim = network.sim
    broker = space.brokers()[0]

    # Per-room temperature sensors attached to the covering broker.
    sensors = {}
    for room in space.locations:
        sensor = network.add_client(f"sensor-{room}", space.broker_of(room))
        sensors[room] = sensor

    published = []

    def publish_all() -> None:
        for room, sensor in sensors.items():
            published.append(
                sensor.publish({"service": "temperature", "location": room, "value": 20 + rng.random()})
            )

    PeriodicTask(sim, period=publish_period, callback=publish_all, start_delay=publish_period / 2, until=duration)

    # The location-aware user and the naive (service-wide) user.
    aware = LocationAwareClient(sim, "aware-user", space)
    network.attach_client(aware, broker)
    unaware_deliver_log = []
    unaware = network.add_client("unaware-user", broker)
    unaware.subscribe(Filter([Equals("service", "temperature")]))

    template = location_dependent({"service": "temperature"})
    rooms = space.locations
    aware.set_location(rooms[0])
    aware.subscribe_location(template)

    def move() -> None:
        current = aware.location
        index = rooms.index(current)
        neighbours = [i for i in (index - 1, index + 1) if 0 <= i < len(rooms)]
        aware.set_location(rooms[rng.choice(neighbours)])

    PeriodicTask(sim, period=move_period, callback=move, start_delay=move_period, until=duration)

    sim.run(until=duration)
    sim.run_until_idle()

    aware_relevant = aware.relevant_deliveries()
    aware_total = len(aware.deliveries)

    # For the unaware client, "relevant" means: matches the room the *aware* user's
    # walk would consider current — it has no location, so we measure against the
    # aware client's location trace to keep the comparison meaningful.
    unaware_total = len(unaware.deliveries)
    unaware_relevant = 0
    for delivery in unaware.deliveries:
        location = _location_at(aware.location_trace, delivery.received_at)
        if location is not None and delivery.notification.get("location") in space.myloc(location):
            unaware_relevant += 1

    return {
        "location-aware (myloc)": {
            "deliveries": aware_total,
            "relevant_deliveries": aware_relevant,
            "precision": round(aware_relevant / aware_total, 4) if aware_total else 0.0,
            "rebinds": aware.rebinds,
        },
        "location-unaware (service-wide)": {
            "deliveries": unaware_total,
            "relevant_deliveries": unaware_relevant,
            "precision": round(unaware_relevant / unaware_total, 4) if unaware_total else 0.0,
            "rebinds": 0,
        },
    }


def _location_at(trace, time):
    location = None
    for timestamp, loc in trace:
        if timestamp <= time:
            location = loc
        else:
            break
    return location
