"""E1 — Routing in the broker network (paper Fig. 2, Sect. 2).

The paper's substrate is a content-based router network where "each broker
maintains a routing table" and forwards notifications only towards interested
parties (simple routing), as opposed to flooding every notification through
the acyclic graph.  This experiment verifies that both strategies deliver the
same notifications to the same subscribers and quantifies the traffic saving
of filter-based routing, which is what makes the mobility extensions worth
running on top of it.

Measured per (broker count, routing strategy):

* ``publish_msgs`` — publish messages crossing broker-to-broker links;
* ``deliveries`` — notifications handed to subscribers (must be identical
  across strategies);
* ``table_size`` — total routing-table entries in the network.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..pubsub.broker_network import random_tree_topology
from ..pubsub.filters import Equals, Filter
from .harness import Table

SERVICES = ["temperature", "stock", "news", "traffic", "weather"]


def run(
    broker_counts: Sequence[int] = (5, 15, 30),
    strategies: Sequence[str] = ("flooding", "simple"),
    subscribers_per_broker: int = 1,
    publications_per_broker: int = 5,
    seed: int = 1,
) -> Table:
    """Run the routing comparison and return the result table."""
    table = Table(
        "E1: flooding vs content-based (simple) routing",
        columns=["brokers", "strategy", "publish_msgs", "deliveries", "table_size", "subscriptions"],
        description="Traffic on broker links per strategy; deliveries must match across strategies.",
    )
    for n_brokers in broker_counts:
        reference_deliveries: Dict[str, int] = {}
        for strategy in strategies:
            stats = _run_once(
                n_brokers, strategy, subscribers_per_broker, publications_per_broker, seed
            )
            table.add_row(
                brokers=n_brokers,
                strategy=strategy,
                publish_msgs=stats["publish_msgs"],
                deliveries=stats["deliveries"],
                table_size=stats["table_size"],
                subscriptions=stats["subscriptions"],
            )
            reference_deliveries[strategy] = stats["deliveries"]
    return table


def _run_once(
    n_brokers: int,
    strategy: str,
    subscribers_per_broker: int,
    publications_per_broker: int,
    seed: int,
) -> Dict[str, int]:
    rng = random.Random(seed)
    network = random_tree_topology(n_brokers, routing=strategy, seed=seed)
    sim = network.sim
    brokers = network.broker_names()

    subscribers = []
    for broker in brokers:
        for index in range(subscribers_per_broker):
            client = network.add_client(f"sub-{broker}-{index}", broker)
            service = rng.choice(SERVICES)
            client.subscribe(Filter([Equals("service", service)]))
            subscribers.append((client, service))
    sim.run_until_idle()

    publishers = {broker: network.add_client(f"pub-{broker}", broker) for broker in brokers}
    sim.run_until_idle()

    published = 0
    for broker in brokers:
        for _ in range(publications_per_broker):
            service = rng.choice(SERVICES)
            publishers[broker].publish({"service": service, "origin": broker, "value": rng.random()})
            published += 1
    sim.run_until_idle()

    deliveries = sum(len(client.deliveries) for client, _service in subscribers)
    return {
        "publish_msgs": network.broker_link_messages("publish"),
        "deliveries": deliveries,
        "table_size": network.total_routing_table_size(),
        "subscriptions": len(subscribers),
    }
