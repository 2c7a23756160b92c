"""E11 — From location-awareness to context-awareness (Sect. 4).

The paper's final research question generalises ``myloc`` to state-dependent
subscriptions: "dynamic filters, which depend on a function of the local
state of the client (not only its current location)".

The experiment models a notification application on a battery-powered device:
reminders carry a ``priority`` (1 = low ... 3 = urgent) and the device only
wants priorities at or above a threshold that depends on its battery level
(full battery: everything; low battery: urgent only).  A context-aware client
re-binds its subscription as the battery drains; a static client keeps the
subscription it started with.  Measured: precision (deliveries that match the
client's state at reception time) and recall (state-relevant notifications
actually delivered).
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..core.context import ContextAwareClient, ContextMarker, context_dependent
from ..net.simulator import PeriodicTask
from ..pubsub.broker_network import line_topology
from ..pubsub.filters import AtLeast, Equals, Filter
from .harness import Table


def _min_priority_for_battery(battery: int) -> frozenset:
    """The priorities the device wants to see at a given battery level."""
    if battery > 60:
        return frozenset({1, 2, 3})
    if battery > 30:
        return frozenset({2, 3})
    return frozenset({3})


def run(
    publish_period: float = 0.5,
    battery_step_period: float = 10.0,
    duration: float = 90.0,
    seed: int = 11,
) -> Table:
    """Run the context-awareness experiment and return the result table."""
    table = Table(
        "E11: context-dependent (state-dependent) subscriptions",
        columns=["client", "deliveries", "state_relevant", "precision", "recall", "rebinds"],
        description="Reminder priorities filtered by battery state; the context-aware client re-binds as the battery drains.",
    )
    rows = _run_once(publish_period, battery_step_period, duration, seed)
    for client_name, row in rows.items():
        table.add_row(client=client_name, **row)
    return table


def _run_once(
    publish_period: float, battery_step_period: float, duration: float, seed: int
) -> Dict[str, Dict[str, object]]:
    rng = random.Random(seed)
    network = line_topology(3)
    sim = network.sim

    publisher = network.add_client("reminder-service", "B1")
    published = []

    def publish() -> None:
        priority = rng.choice([1, 1, 2, 2, 3])
        published.append(
            publisher.publish({"service": "reminder", "priority": priority, "text": f"todo-{len(published)}"})
        )

    PeriodicTask(sim, period=publish_period, callback=publish, until=duration)

    # Context-aware client: wanted priorities depend on the battery level.
    aware = ContextAwareClient(sim, "context-aware", initial_context={"battery": 100})
    network.attach_client(aware, "B3")
    template = context_dependent(
        {"service": "reminder"},
        {"priority": ContextMarker("battery", transform=_min_priority_for_battery)},
    )
    aware.subscribe_context(template)

    # Static client: subscribes once for everything and never adapts.
    static = network.add_client("static", "B3")
    static.subscribe(Filter([Equals("service", "reminder"), AtLeast("priority", 1)]))

    battery_levels: List[tuple] = [(0.0, 100)]

    def drain_battery() -> None:
        current = battery_levels[-1][1]
        new_level = max(5, current - 15)
        battery_levels.append((sim.now, new_level))
        aware.update_context(battery=new_level)

    PeriodicTask(sim, period=battery_step_period, callback=drain_battery, start_delay=battery_step_period, until=duration)

    sim.run(until=duration)
    sim.run_until_idle()

    def battery_at(time: float) -> int:
        level = battery_levels[0][1]
        for timestamp, value in battery_levels:
            if timestamp <= time:
                level = value
            else:
                break
        return level

    def wanted(priority: int, time: float) -> bool:
        return priority in _min_priority_for_battery(battery_at(time))

    state_relevant_ids = {
        n.notification_id for n in published if wanted(n["priority"], n.published_at)
    }

    results = {}
    for client, label in ((aware, "context-aware"), (static, "static (subscribe-everything)")):
        delivered = client.deliveries
        relevant_delivered = sum(
            1 for d in delivered if wanted(d.notification["priority"], d.received_at)
        )
        delivered_ids = {d.notification.notification_id for d in delivered}
        recall = (
            len(delivered_ids & state_relevant_ids) / len(state_relevant_ids)
            if state_relevant_ids
            else 1.0
        )
        results[label] = {
            "deliveries": len(delivered),
            "state_relevant": relevant_delivered,
            "precision": round(relevant_delivered / len(delivered), 4) if delivered else 0.0,
            "recall": round(recall, 4),
            "rebinds": getattr(client, "rebinds", 0),
        }
    return results
