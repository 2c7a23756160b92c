"""Mobile clients: the device-side half of mobile REBECA.

A mobile device "runs some sort of application that should participate in the
event system, i.e., produce and consume notifications" (Sect. 2).  The device
talks to its *virtual counterpart* at the current border broker over a
wireless link; the :class:`MobileClient` below is that device-side stub: it
keeps the application's subscription set (location-dependent templates and
ordinary filters), announces it to the replicator whenever a connection is
established (``client_hello``), and records every delivered notification with
enough metadata (reception time, replayed-or-live, current location) for the
experiments to compute loss, duplication and latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..net.process import Message, Process
from ..net.wireless import WirelessChannel
from ..pubsub.filters import Filter
from ..pubsub.notification import Notification
from .location_filter import LocationDependentFilter
from .replicator import (
    CLIENT_BYE,
    CLIENT_HELLO,
    CLIENT_LEAVING,
    CLIENT_SUBSCRIBE,
    CLIENT_UNSUBSCRIBE,
    LOCATION_UPDATE,
    WELCOME,
    ClientHello,
)

_template_counter = itertools.count(1)
_plain_counter = itertools.count(1)


@dataclass(slots=True)
class MobileDelivery:
    """A notification as received by the mobile device."""

    notification: Notification
    received_at: float
    replayed: bool
    location: Optional[str]
    broker: Optional[str]

    @property
    def latency(self) -> Optional[float]:
        if self.notification.published_at is None:
            return None
        return self.received_at - self.notification.published_at


@dataclass
class AttachmentRecord:
    """One attachment episode, used for setup-latency metrics."""

    broker: str
    requested_at: float
    welcomed_at: Optional[float] = None
    had_shadow: Optional[bool] = None

    @property
    def setup_latency(self) -> Optional[float]:
        if self.welcomed_at is None:
            return None
        return self.welcomed_at - self.requested_at


class MobileClient(Process):
    """A roaming application running on a mobile device.

    Parameters
    ----------
    name:
        Client identity (also used as the virtual clients' ``client_id``).
    reissue_on_attach:
        If ``False``, the client never announces its subscriptions when it
        reconnects — the "no mobility support" baseline of experiment E2.
    wireless_latency / connect_latency:
        Parameters of the wireless access link (see
        :class:`~repro.net.wireless.WirelessChannel`).
    transport:
        The mobility-capable :class:`~repro.net.transport.Transport` that
        carries each attachment (a simulator link on ``"sim"``, a real TCP
        connection on ``"asyncio"``); the client runs on its clock.
    """

    def __init__(
        self,
        name: str,
        *,
        reissue_on_attach: bool = True,
        wireless_latency: float = 0.002,
        connect_latency: float = 0.05,
        transport,
    ):
        super().__init__(transport.clock, name)
        self.reissue_on_attach = reissue_on_attach
        self.channel = WirelessChannel(
            self, latency=wireless_latency, connect_latency=connect_latency, transport=transport
        )
        self.channel.on_connect(self._on_channel_connect)
        self.templates: Dict[str, LocationDependentFilter] = {}
        self.plain_filters: Dict[str, Filter] = {}
        self.location: Optional[str] = None
        self.current_broker: Optional[str] = None
        self.previous_broker: Optional[str] = None
        self.deliveries: List[MobileDelivery] = []
        self.published: List[Notification] = []
        self.publish_failures = 0
        self.attachments: List[AttachmentRecord] = []
        self.location_trace: List[tuple] = []  # (time, location)
        self.broker_trace: List[tuple] = []  # (time, broker)

    # --------------------------------------------------------------- API: subs
    def subscribe_location(
        self, template: LocationDependentFilter, template_id: Optional[str] = None
    ) -> str:
        """Issue a location-dependent subscription (a ``myloc`` template)."""
        template_id = template_id or f"loc-{next(_template_counter)}"
        self.templates[template_id] = template
        if self.connected:
            self._send_up(
                Message(
                    kind=CLIENT_SUBSCRIBE,
                    payload={"client_id": self.name, "template_id": template_id, "template": template},
                )
            )
        return template_id

    def unsubscribe_location(self, template_id: str) -> None:
        self.templates.pop(template_id, None)
        if self.connected:
            self._send_up(
                Message(
                    kind=CLIENT_UNSUBSCRIBE,
                    payload={"client_id": self.name, "template_id": template_id},
                )
            )

    def subscribe(self, filter: Filter, sub_id: Optional[str] = None) -> str:
        """Issue an ordinary (location-independent) subscription."""
        sub_id = sub_id or f"plain-{next(_plain_counter)}"
        self.plain_filters[sub_id] = filter
        if self.connected:
            self._send_up(
                Message(
                    kind=CLIENT_SUBSCRIBE,
                    payload={"client_id": self.name, "sub_id": sub_id, "filter": filter, "template": None},
                )
            )
        return sub_id

    def unsubscribe(self, sub_id: str) -> None:
        self.plain_filters.pop(sub_id, None)
        if self.connected:
            self._send_up(
                Message(
                    kind=CLIENT_UNSUBSCRIBE,
                    payload={"client_id": self.name, "sub_id": sub_id, "template_id": None},
                )
            )

    # ------------------------------------------------------------ API: publish
    def publish(self, notification: Notification | Mapping[str, Any]) -> Optional[Notification]:
        """Publish a notification through the current access point, if any."""
        if not isinstance(notification, Notification):
            notification = Notification(notification)
        stamped = notification.stamped(published_at=self.sim.now, publisher=self.name)
        if not self.connected:
            self.publish_failures += 1
            return None
        self.published.append(stamped)
        self._send_up(Message(kind="publish", payload=stamped))
        return stamped

    # ----------------------------------------------------------- API: location
    def set_location(self, location: str) -> None:
        """Report a new (logical) location, e.g. after moving to another room."""
        self.location = location
        self.location_trace.append((self.sim.now, location))
        if self.connected:
            self._send_up(
                Message(kind=LOCATION_UPDATE, payload={"client_id": self.name, "location": location})
            )

    # --------------------------------------------------------- API: attachment
    def attach(self, replicator: Process, broker_name: str, immediate: bool = False) -> None:
        """Associate with the replicator serving ``broker_name`` (wireless attach)."""
        self.attachments.append(AttachmentRecord(broker=broker_name, requested_at=self.sim.now))
        self.current_broker = broker_name
        self.broker_trace.append((self.sim.now, broker_name))
        self.channel.attach(replicator, immediate=immediate)

    def detach(self, announce: bool = True) -> None:
        """Leave the current access point (range loss, roaming, power saving)."""
        if self.current_broker is not None:
            self.previous_broker = self.current_broker
        if announce and self.connected:
            self._send_up(Message(kind=CLIENT_LEAVING, payload={"client_id": self.name}))
        self.channel.detach()
        self.current_broker = None

    def shutdown_application(self) -> None:
        """Turn the application off: the system garbage collects all virtual clients (Sect. 3.2.4)."""
        if self.connected:
            self._send_up(Message(kind=CLIENT_BYE, payload={"client_id": self.name}))
        self.channel.detach()
        self.current_broker = None

    @property
    def connected(self) -> bool:
        return self.channel.connected

    # ------------------------------------------------------------ wire plumbing
    def _on_channel_connect(self, access_point_name: str) -> None:
        """The wireless association completed: announce ourselves to the replicator.

        A client with ``reissue_on_attach=False`` (the "no mobility support"
        baseline) still announces its subscriptions on its *first* attachment
        — it simply never re-announces them after moving, which is exactly
        what a mobility-unaware application does.
        """
        announce = self.reissue_on_attach or self.previous_broker is None
        hello = ClientHello(
            client_id=self.name,
            location=self.location,
            templates=dict(self.templates) if announce else {},
            plain_filters=dict(self.plain_filters) if announce else {},
            previous_broker=self.previous_broker,
            reissue=announce,
        )
        self._send_up(Message(kind=CLIENT_HELLO, payload=hello))

    def _send_up(self, message: Message) -> bool:
        return self.channel.send_up(message)

    def on_message(self, message: Message) -> None:
        if message.kind == "notify":
            self.deliveries.append(
                MobileDelivery(
                    notification=message.payload,
                    received_at=self.sim.now,
                    replayed=bool(message.meta.get("replayed", False)),
                    location=self.location,
                    broker=self.current_broker,
                )
            )
            self.on_notify(message.payload, replayed=bool(message.meta.get("replayed", False)))
        elif message.kind == WELCOME:
            if self.attachments and self.attachments[-1].welcomed_at is None:
                self.attachments[-1].welcomed_at = self.sim.now
                self.attachments[-1].had_shadow = bool(message.payload.get("had_shadow", False))

    def on_notify(self, notification: Notification, replayed: bool) -> None:
        """Application hook invoked for every delivery.  Override freely."""

    # ------------------------------------------------------------------- stats
    def received_ids(self) -> List[int]:
        return [delivery.notification.notification_id for delivery in self.deliveries]

    def live_deliveries(self) -> List[MobileDelivery]:
        return [d for d in self.deliveries if not d.replayed]

    def replayed_deliveries(self) -> List[MobileDelivery]:
        return [d for d in self.deliveries if d.replayed]

    def duplicate_deliveries(self) -> int:
        seen: Dict[int, int] = {}
        duplicates = 0
        for delivery in self.deliveries:
            nid = delivery.notification.notification_id
            seen[nid] = seen.get(nid, 0) + 1
            if seen[nid] > 1:
                duplicates += 1
        return duplicates

    def setup_latencies(self) -> List[float]:
        return [a.setup_latency for a in self.attachments if a.setup_latency is not None]
