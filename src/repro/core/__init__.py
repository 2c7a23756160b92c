"""The paper's contribution: mobility support for content-based pub/sub.

This package implements physical mobility (relocation), logical mobility
(location-dependent ``myloc`` subscriptions), and the paper's main
contribution — *extended logical mobility* through a replicator layer that
casts pre-subscriptions (shadow virtual clients with buffers) at the brokers
a client may move to next, as determined by a movement graph (``nlb``) or a
more refined movement predictor.

Only the names the examples use are re-exported here; everything else is
imported from its defining module.
"""

from .location import office_floor_space
from .location_filter import location_dependent
from .logical_mobility import LocationAwareClient
from .metrics import evaluate_mobile_delivery, evaluate_plain_delivery, handover_latencies, mean
from .middleware import MobilePubSub, MobilitySystemConfig
from .movement_graph import from_location_space
from .replicator import ReplicatorConfig
from .uncertainty import MarkovPredictor

__all__ = [
    "LocationAwareClient",
    "MarkovPredictor",
    "MobilePubSub",
    "MobilitySystemConfig",
    "ReplicatorConfig",
    "evaluate_mobile_delivery",
    "evaluate_plain_delivery",
    "from_location_space",
    "handover_latencies",
    "location_dependent",
    "mean",
    "office_floor_space",
]
