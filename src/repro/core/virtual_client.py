"""Virtual clients: the client's representatives inside the middleware.

In mobile REBECA a device that cannot host a local broker connects "to a
virtual counterpart running at the border broker to which it is connected"
(Sect. 2, Fig. 3).  The extended-logical-mobility algorithm replicates this
virtual client at neighbouring brokers:

    "At any time, only at most one of the virtual clients is in fact
    associated with (and connected to) the 'real' client ...  All other
    clients should mimic the behavior of the real client, i.e., they should
    subscribe and unsubscribe to the same location-dependent filters as the
    client.  However, only the virtual client which is in fact connected to
    the mobile device publishes notifications and delivers notifications to
    the mobile device.  Unconnected virtual clients ... buffer all delivered
    notifications according to some application-specific buffering policy."
    (Sect. 3.1)

A :class:`VirtualClient` is hosted by the replicator process of one border
broker.  It is either **active** (connected to the real device, delivering
notifications and holding the device's location-independent subscriptions
too) or **buffering** (a shadow / "information shadow": location-dependent
subscriptions bound to the broker's own coverage area, deliveries buffered).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Protocol

from ..pubsub.filters import Filter
from ..pubsub.notification import Notification, attribute_dict
from ..pubsub.subscription import Subscription
from .buffering import BufferPolicy, NotificationBuffer
from .location import LocationSpace
from .location_filter import LocationDependentFilter


class VirtualClientMode(enum.Enum):
    """Whether the virtual client is connected to the real device or shadowing it."""

    ACTIVE = "active"
    BUFFERING = "buffering"


class VirtualClientHost(Protocol):
    """What a virtual client needs from the replicator hosting it."""

    @property
    def now(self) -> float: ...

    def issue_subscribe(self, subscription: Subscription) -> None: ...

    def issue_unsubscribe(self, subscription: Subscription) -> None: ...

    def deliver_to_device(self, client_id: str, notification: Notification, replayed: bool) -> None: ...


class VirtualClient:
    """One client's representative at one border broker.

    Parameters
    ----------
    client_id:
        Name of the mobile client this virtual client represents.
    host:
        The replicator hosting this virtual client (see :class:`VirtualClientHost`).
    broker_name:
        The border broker this virtual client lives at.
    space:
        The location space used to bind ``myloc``.
    buffer_policy:
        Eviction policy for the shadow buffer.
    """

    def __init__(
        self,
        client_id: str,
        host: VirtualClientHost,
        broker_name: str,
        space: LocationSpace,
        buffer_policy: Optional[BufferPolicy] = None,
    ):
        self.client_id = client_id
        self.host = host
        self.broker_name = broker_name
        self.space = space
        self.mode = VirtualClientMode.BUFFERING
        self.location: Optional[str] = None
        # Subscriptions, by the client-chosen template / subscription id.
        self.templates: Dict[str, LocationDependentFilter] = {}
        self.plain_filters: Dict[str, Filter] = {}
        # What is currently issued at the broker (via the host replicator).
        self._bound: Dict[str, Subscription] = {}
        self._plain_issued: Dict[str, Subscription] = {}
        self.buffer = NotificationBuffer(buffer_policy)
        # Counters used by the experiments.
        self.delivered_live = 0
        self.buffered_total = 0
        self.replayed_total = 0
        self.rebinds = 0

    # --------------------------------------------------------------- identity
    def _sub_id(self, key: str) -> str:
        return f"{self.client_id}:{key}@{self.broker_name}"

    @property
    def is_active(self) -> bool:
        return self.mode is VirtualClientMode.ACTIVE

    # ---------------------------------------------------------- subscriptions

    def add_template(self, template_id: str, template: LocationDependentFilter) -> None:
        """Mimic the client's subscribe call for a location-dependent filter."""
        self.templates[template_id] = template
        self._rebind_template(template_id)

    def remove_template(self, template_id: str) -> None:
        """Mimic the client's unsubscribe call for a location-dependent filter."""
        self.templates.pop(template_id, None)
        issued = self._bound.pop(template_id, None)
        if issued is not None:
            self.host.issue_unsubscribe(issued)

    def add_plain_filter(self, sub_id: str, filter: Filter) -> None:
        """Add a location-independent subscription.

        Shadows do not install plain filters: "the replication strategy need
        not be applied to any subscription which is not location-dependent"
        (Sect. 3.1) — those are handled by physical mobility at the active
        broker only.
        """
        self.plain_filters[sub_id] = filter
        if self.is_active:
            self._issue_plain(sub_id)

    def remove_plain_filter(self, sub_id: str) -> None:
        self.plain_filters.pop(sub_id, None)
        issued = self._plain_issued.pop(sub_id, None)
        if issued is not None:
            self.host.issue_unsubscribe(issued)

    # ------------------------------------------------------------- activation
    def activate(self, location: Optional[str]) -> List[Notification]:
        """Connect the real device to this virtual client.

        Rebinds the location-dependent subscriptions to the client's precise
        ``myloc`` set, installs the location-independent subscriptions, and
        returns the buffered notifications to replay ("once a client actually
        arrives, all buffered messages are delivered as if the client has
        been there some time", Sect. 1).
        """
        self.mode = VirtualClientMode.ACTIVE
        self.location = location
        for template_id in self.templates:
            self._rebind_template(template_id)
        for sub_id in self.plain_filters:
            self._issue_plain(sub_id)
        replay = self.buffer.drain(self.host.now)
        self.replayed_total += len(replay)
        return replay

    def deactivate(self) -> None:
        """Disconnect the device: fall back to shadow behaviour.

        Location-dependent subscriptions are re-bound to the broker's whole
        coverage area; location-independent subscriptions stay installed so
        that physical mobility can buffer for the disconnected client at this
        (old) broker until relocation completes.
        """
        self.mode = VirtualClientMode.BUFFERING
        self.location = None
        for template_id in self.templates:
            self._rebind_template(template_id)

    def update_location(self, location: str) -> None:
        """Within-broker logical mobility: the client moved to another covered location."""
        self.location = location
        if self.is_active:
            for template_id in self.templates:
                self._rebind_template(template_id)

    def withdraw_plain_filters(self) -> None:
        """Remove the location-independent subscriptions from this broker (after relocation)."""
        for sub_id in list(self._plain_issued):
            issued = self._plain_issued.pop(sub_id)
            self.host.issue_unsubscribe(issued)

    # --------------------------------------------------------------- delivery
    def handle_notification(self, notification: Notification) -> bool:
        """Process a notification the replicator matched to this virtual client.

        Returns ``True`` if it was delivered live, ``False`` if it was buffered.
        """
        if not self.matches(notification):
            return False
        if self.is_active:
            self.delivered_live += 1
            self.host.deliver_to_device(self.client_id, notification, replayed=False)
            return True
        self.buffer.add(notification, self.host.now)
        self.buffered_total += 1
        return False

    def matches(self, notification: Notification) -> bool:
        """Does any currently issued filter of this virtual client match?"""
        attributes = attribute_dict(notification)
        for subscription in self._bound.values():
            if subscription.filter.matches(attributes):
                return True
        for subscription in self._plain_issued.values():
            if subscription.filter.matches(attributes):
                return True
        return False

    # ---------------------------------------------------------------- removal
    def teardown(self) -> int:
        """Withdraw every subscription and drop the buffer (garbage collection)."""
        for template_id in list(self._bound):
            issued = self._bound.pop(template_id)
            self.host.issue_unsubscribe(issued)
        self.withdraw_plain_filters()
        dropped = len(self.buffer)
        self.buffer.clear()
        return dropped

    # ---------------------------------------------------------------- binding
    def _desired_binding(self, template: LocationDependentFilter) -> Filter:
        if self.is_active and self.location is not None and self.location in self.space:
            return template.bind_for_location(self.space, self.location)
        return template.bind_for_broker(self.space, self.broker_name)

    def _rebind_template(self, template_id: str) -> None:
        template = self.templates[template_id]
        desired = self._desired_binding(template)
        current = self._bound.get(template_id)
        if current is not None and current.filter == desired:
            return
        if current is not None:
            self.host.issue_unsubscribe(current)
        subscription = Subscription(
            sub_id=self._sub_id(template_id),
            filter=desired,
            subscriber=self.client_id,
            location_dependent=True,
            template=template,
        )
        self._bound[template_id] = subscription
        self.host.issue_subscribe(subscription)
        self.rebinds += 1

    def _issue_plain(self, sub_id: str) -> None:
        if sub_id in self._plain_issued:
            return
        subscription = Subscription(
            sub_id=self._sub_id("plain-" + sub_id),
            filter=self.plain_filters[sub_id],
            subscriber=self.client_id,
            location_dependent=False,
        )
        self._plain_issued[sub_id] = subscription
        self.host.issue_subscribe(subscription)

    # ------------------------------------------------------------------ stats

    def bound_filters(self) -> List[Filter]:
        return [s.filter for s in self._bound.values()] + [s.filter for s in self._plain_issued.values()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualClient({self.client_id}@{self.broker_name}, {self.mode.value}, "
            f"{len(self.templates)} templates, buffer={len(self.buffer)})"
        )
