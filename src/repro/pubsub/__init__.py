"""REBECA-style content-based publish/subscribe substrate.

This package implements the notification service the paper builds on
(Sect. 2): content-based notifications and filters, subscriptions, routing
tables, the routing-strategy family (flooding, simple, identity, covering,
merging), brokers, clients with local brokers, and acyclic broker-network
topologies.
"""

from .broker import Broker
from .broker_network import (
    BrokerNetwork,
    TopologyError,
    balanced_tree_topology,
    grid_border_topology,
    line_topology,
    random_tree_topology,
    star_topology,
)
from .client import Client, Delivery, LocalBroker
from .filters import (
    AtLeast,
    AtMost,
    Constraint,
    Equals,
    Exists,
    Filter,
    GreaterThan,
    InSet,
    LessThan,
    NotEquals,
    Prefix,
    Range,
    conjunction,
    filter_from_dict,
    match_all,
)
from .matching import (
    AttributeIndex,
    AttributeIndexMatcher,
    BruteForceMatcher,
    IntervalBucketIndex,
    cross_check,
    pick_index_key,
    pick_range_constraint,
)
from .notification import Notification, notification
from .routing import (
    STRATEGIES,
    CoveringRouting,
    FloodingRouting,
    IdentityRouting,
    MergingRouting,
    RoutingStrategy,
    SimpleRouting,
    make_strategy,
)
from .routing_table import RouteEntry, RoutingTable
from .subscription import Subscription, next_subscription_id, subscription

__all__ = [
    "AtLeast",
    "AtMost",
    "AttributeIndex",
    "AttributeIndexMatcher",
    "Broker",
    "BrokerNetwork",
    "BruteForceMatcher",
    "Client",
    "Constraint",
    "CoveringRouting",
    "Delivery",
    "Equals",
    "Exists",
    "Filter",
    "FloodingRouting",
    "GreaterThan",
    "IdentityRouting",
    "InSet",
    "IntervalBucketIndex",
    "LessThan",
    "LocalBroker",
    "MergingRouting",
    "NotEquals",
    "Notification",
    "Prefix",
    "Range",
    "RouteEntry",
    "RoutingStrategy",
    "RoutingTable",
    "STRATEGIES",
    "SimpleRouting",
    "Subscription",
    "TopologyError",
    "balanced_tree_topology",
    "conjunction",
    "cross_check",
    "filter_from_dict",
    "grid_border_topology",
    "line_topology",
    "make_strategy",
    "match_all",
    "next_subscription_id",
    "notification",
    "pick_index_key",
    "pick_range_constraint",
    "random_tree_topology",
    "star_topology",
    "subscription",
]
