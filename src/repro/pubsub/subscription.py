"""Subscriptions.

A subscription registers a consumer's interest in notifications matching a
filter.  Subscriptions are first-class objects in this reproduction because
the mobility layers need to distinguish *location-dependent* subscriptions
(which the replicator replicates at neighbouring brokers, Sect. 3.1) from
ordinary ones (which are handled by the physical-mobility relocation
algorithm), and need stable identities for relocation, replication and
garbage collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from .filters import Filter

_subscription_ids = itertools.count(1)


def next_subscription_id(prefix: str = "sub") -> str:
    """Generate a globally unique subscription id."""
    return f"{prefix}-{next(_subscription_ids)}"


@dataclass(frozen=True)
class Subscription:
    """An active registration of interest.

    Attributes
    ----------
    sub_id:
        Unique identity of the subscription.  The same identity is kept when
        a location-dependent subscription is re-bound to a new location or
        replicated to a shadow client, so that covering and garbage
        collection work across the broker network.
    filter:
        The concrete content-based filter that is installed in routing
        tables.  For location-dependent subscriptions this is the *bound*
        filter (``myloc`` already substituted).
    subscriber:
        Name of the (virtual) client that issued the subscription.
    location_dependent:
        True if the subscription was declared with the ``myloc`` marker and
        therefore participates in logical mobility and replication.
    template:
        For location-dependent subscriptions, an opaque reference to the
        unbound template (see :mod:`repro.core.location_filter`), kept so the
        filter can be re-bound when the client's location changes.
    meta:
        Free-form annotations (e.g. the application that owns it).
    """

    sub_id: str
    filter: Filter
    subscriber: str
    location_dependent: bool = False
    template: Optional[Any] = None
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)

    def rebound(self, new_filter: Filter) -> "Subscription":
        """Return a copy with the filter replaced (same id), for re-binding ``myloc``."""
        return replace(self, filter=new_filter)

    def for_subscriber(self, subscriber: str) -> "Subscription":
        """Return a copy owned by a different (virtual) client, keeping id and filter.

        Used when the replicator casts the subscription onto a shadow virtual
        client at a neighbouring broker.
        """
        return replace(self, subscriber=subscriber)

    def matches(self, notification: Any) -> bool:
        """Convenience: evaluate the subscription's filter on a notification."""
        return self.filter.matches(notification)

    def __repr__(self) -> str:
        tag = " [myloc]" if self.location_dependent else ""
        return f"Subscription({self.sub_id}, by={self.subscriber}{tag}, {self.filter!r})"


def subscription(
    filter: Filter,
    subscriber: str,
    sub_id: Optional[str] = None,
    location_dependent: bool = False,
    template: Optional[Any] = None,
) -> Subscription:
    """Create a subscription, generating an id when none is given."""
    return Subscription(
        sub_id=sub_id or next_subscription_id(),
        filter=filter,
        subscriber=subscriber,
        location_dependent=location_dependent,
        template=template,
    )
