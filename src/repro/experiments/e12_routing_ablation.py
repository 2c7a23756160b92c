"""E12 — Routing-strategy ablation of the substrate (Sect. 2).

The paper assumes simple routing "for the sake of simplicity" while noting
that REBECA also provides covering and merging optimisations.  This ablation
quantifies what that substrate choice costs: for an increasing number of
overlapping subscriptions, it reports routing-table state and control/data
traffic for flooding, simple, identity, covering and merging routing.

Expected shape: identity/covering/merging keep routing tables and
subscription traffic smaller when subscriptions overlap, at identical
delivery; flooding needs no subscription traffic at all but pays with maximal
notification traffic.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from ..pubsub.broker_network import line_topology
from ..pubsub.filters import AtLeast, AtMost, Equals, Filter
from .harness import Table

STRATEGIES = ("flooding", "simple", "identity", "covering", "merging")


def run(
    strategies: Sequence[str] = STRATEGIES,
    n_brokers: int = 8,
    subscriber_counts: Sequence[int] = (8, 24),
    publications: int = 40,
    seed: int = 12,
) -> Table:
    """Run the routing ablation and return the result table."""
    table = Table(
        "E12: routing strategies under overlapping subscriptions",
        columns=[
            "subscribers",
            "strategy",
            "table_size",
            "sub_msgs",
            "publish_msgs",
            "deliveries",
        ],
        description="Line of brokers, overlapping temperature-range subscriptions at one end, publishers at the other.",
    )
    for n_subscribers in subscriber_counts:
        for strategy in strategies:
            row = _run_once(strategy, n_brokers, n_subscribers, publications, seed)
            table.add_row(subscribers=n_subscribers, strategy=strategy, **row)
    return table


def _subscription_filter(index: int, rng: random.Random) -> Filter:
    """Overlapping range subscriptions: every filter covers a band of temperatures."""
    if index % 3 == 0:
        return Filter([Equals("service", "temperature"), AtLeast("value", 10 * (index % 4))])
    if index % 3 == 1:
        return Filter([Equals("service", "temperature"), AtMost("value", 40 + 10 * (index % 3))])
    return Filter([Equals("service", "temperature")])


def _run_once(
    strategy: str, n_brokers: int, n_subscribers: int, publications: int, seed: int
) -> Dict[str, object]:
    rng = random.Random(seed)
    network = line_topology(n_brokers, routing=strategy)
    sim = network.sim
    brokers = network.broker_names()

    subscribers = []
    for index in range(n_subscribers):
        broker = brokers[index % 2]  # cluster subscribers at one end of the line
        client = network.add_client(f"sub-{index}", broker)
        client.subscribe(_subscription_filter(index, rng))
        subscribers.append(client)
    sim.run_until_idle()

    publisher = network.add_client("publisher", brokers[-1])
    sim.run_until_idle()
    for _ in range(publications):
        publisher.publish({"service": "temperature", "value": rng.uniform(0, 80)})
    sim.run_until_idle()

    return {
        "table_size": network.total_routing_table_size(),
        "sub_msgs": network.broker_link_messages("subscribe") + network.broker_link_messages("unsubscribe"),
        "publish_msgs": network.broker_link_messages("publish"),
        "deliveries": sum(len(client.deliveries) for client in subscribers),
    }
