"""REBECA-style content-based publish/subscribe substrate.

This package implements the notification service the paper builds on
(Sect. 2): content-based notifications and filters, subscriptions, routing
tables, the routing-strategy family (flooding, simple, identity, covering,
merging), brokers, clients with local brokers, and acyclic broker-network
topologies.

Only the names the examples use are re-exported here; everything else is
imported from its defining module.
"""

from .broker_network import line_topology
from .filters import Equals, Filter

__all__ = ["Equals", "Filter", "line_topology"]
