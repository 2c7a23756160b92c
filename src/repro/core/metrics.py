"""Quality-of-service metrics for mobile publish/subscribe.

The paper argues qualitatively — "the client may miss important notifications
by a fraction of a second", "a non-negligible overhead", "a very unpleasant
situation" — so the reproduction quantifies exactly those quantities:

* **missed notifications**: location-relevant notifications published while
  the client had no working delivery path for them;
* **first-delivery latency after handover**: how long after arriving at a new
  broker the client receives the first notification relevant to its new
  location (the "listen for a while" semantics);
* **control overhead**: subscription and shadow-management messages crossing
  the network;
* **buffer memory**: bytes held by shadow buffers.

All metrics are computed after the fact from recorded traces (published
notifications, client delivery logs, location traces), so they never perturb
the simulated system.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..pubsub.notification import Notification
from .location import LocationSpace
from .location_filter import LocationDependentFilter
from .mobile_client import MobileClient

LocationAt = Callable[[float], Optional[str]]


def location_at_factory(trace: Sequence[Tuple[float, str]]) -> LocationAt:
    """Build a "where was the client at time t" function from a location trace."""
    times = [timestamp for timestamp, _loc in trace]
    locations = [loc for _timestamp, loc in trace]

    def location_at(time: float) -> Optional[str]:
        index = bisect.bisect_right(times, time) - 1
        if index < 0:
            return None
        return locations[index]

    return location_at


def relevant_notification_ids(
    published: Iterable[Notification],
    location_at: LocationAt,
    template: LocationDependentFilter,
    space: LocationSpace,
) -> Set[int]:
    """Ground truth: which published notifications were relevant to the client when published?

    A notification is *relevant* iff, at its publication time, the client was
    at some location L and the notification matches the template bound to
    ``myloc(L)`` — i.e. a perfectly informed, zero-latency system would have
    delivered it.
    """
    relevant: Set[int] = set()
    for notification in published:
        if notification.published_at is None:
            continue
        location = location_at(notification.published_at)
        if location is None or location not in space:
            continue
        bound = template.bind_for_location(space, location)
        if bound.matches(notification):
            relevant.add(notification.notification_id)
    return relevant


@dataclass
class DeliveryOutcome:
    """Loss/precision summary for one client and one subscription template."""

    relevant: int
    delivered_relevant: int
    missed: int
    duplicates: int
    extraneous: int
    replayed: int
    live: int

    @property
    def miss_rate(self) -> float:
        if self.relevant == 0:
            return 0.0
        return self.missed / self.relevant

    @property
    def delivery_rate(self) -> float:
        if self.relevant == 0:
            return 1.0
        return self.delivered_relevant / self.relevant

    def as_row(self) -> Dict[str, float]:
        return {
            "relevant": self.relevant,
            "delivered": self.delivered_relevant,
            "missed": self.missed,
            "miss_rate": round(self.miss_rate, 4),
            "delivery_rate": round(self.delivery_rate, 4),
            "duplicates": self.duplicates,
            "extraneous": self.extraneous,
            "replayed": self.replayed,
            "live": self.live,
        }


def evaluate_mobile_delivery(
    client: MobileClient,
    published: Iterable[Notification],
    template: LocationDependentFilter,
    space: LocationSpace,
) -> DeliveryOutcome:
    """Compare a mobile client's deliveries against the ground-truth relevant set."""
    location_at = location_at_factory(client.location_trace)
    relevant = relevant_notification_ids(published, location_at, template, space)
    delivered_ids = [d.notification.notification_id for d in client.deliveries]
    delivered_set = set(delivered_ids)
    delivered_relevant = len(relevant & delivered_set)
    missed = len(relevant - delivered_set)
    duplicates = len(delivered_ids) - len(delivered_set)
    extraneous = len(delivered_set - relevant)
    replayed = sum(1 for d in client.deliveries if d.replayed)
    live = sum(1 for d in client.deliveries if not d.replayed)
    return DeliveryOutcome(
        relevant=len(relevant),
        delivered_relevant=delivered_relevant,
        missed=missed,
        duplicates=duplicates,
        extraneous=extraneous,
        replayed=replayed,
        live=live,
    )


def evaluate_plain_delivery(
    deliveries_ids: Sequence[int],
    published: Iterable[Notification],
    filter,
) -> DeliveryOutcome:
    """Loss summary for an ordinary (location-independent) subscription."""
    relevant = {n.notification_id for n in published if filter.matches(n)}
    delivered_set = set(deliveries_ids)
    delivered_relevant = len(relevant & delivered_set)
    return DeliveryOutcome(
        relevant=len(relevant),
        delivered_relevant=delivered_relevant,
        missed=len(relevant - delivered_set),
        duplicates=len(deliveries_ids) - len(delivered_set),
        extraneous=len(delivered_set - relevant),
        replayed=0,
        live=len(deliveries_ids),
    )


@dataclass
class HandoverLatency:
    """First useful delivery after one handover."""

    broker: str
    attached_at: float
    welcomed_at: Optional[float]
    first_delivery_at: Optional[float]

    @property
    def setup_latency(self) -> Optional[float]:
        if self.welcomed_at is None:
            return None
        return self.welcomed_at - self.attached_at

    @property
    def first_delivery_latency(self) -> Optional[float]:
        if self.first_delivery_at is None:
            return None
        return self.first_delivery_at - self.attached_at


def handover_latencies(client: MobileClient) -> List[HandoverLatency]:
    """For every attachment, when did the client receive its first notification afterwards?"""
    results: List[HandoverLatency] = []
    delivery_times = sorted(d.received_at for d in client.deliveries)
    for index, attachment in enumerate(client.attachments):
        window_end = (
            client.attachments[index + 1].requested_at
            if index + 1 < len(client.attachments)
            else float("inf")
        )
        first_delivery = None
        for received_at in delivery_times:
            if attachment.requested_at <= received_at < window_end:
                first_delivery = received_at
                break
        results.append(
            HandoverLatency(
                broker=attachment.broker,
                attached_at=attachment.requested_at,
                welcomed_at=attachment.welcomed_at,
                first_delivery_at=first_delivery,
            )
        )
    return results


def mean(values: Sequence[float]) -> float:
    """Mean of a possibly empty sequence (0.0 when empty)."""
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) using linear interpolation; 0.0 for empty input."""
    values = sorted(v for v in values if v is not None)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    rank = (q / 100.0) * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    fraction = rank - low
    return values[low] * (1 - fraction) + values[high] * fraction
