"""Clients.

"Processes of a system based on pub/sub communication ... can act both as
producers and consumers, they are clients of the underlying notification
service.  The communication interface to the service is rather simple and
consists of pub, sub, unsub, and notify calls only." (Sect. 2)

A :class:`Client` is a simulated process with exactly that interface.  It
also plays the paper's *local broker* — the piece of the middleware library
loaded into the client: it keeps the client's active subscriptions so they
can be re-issued after reconnection (the basis of physical mobility) and
translates the API calls into messages to the current border broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..net.process import Message, Process
from ..net.simulator import Simulator
from .filters import Filter
from .notification import Notification
from .subscription import Subscription, subscription as make_subscription


@dataclass(slots=True)
class Delivery:
    """A notification as received by a client, with reception metadata."""

    notification: Notification
    received_at: float

    @property
    def latency(self) -> Optional[float]:
        if self.notification.published_at is None:
            return None
        return self.received_at - self.notification.published_at


class Client(Process):
    """A producer/consumer attached to the notification service.

    The four paper operations map to :meth:`publish` (pub), :meth:`subscribe`
    (sub), :meth:`unsubscribe` (unsub) and the :meth:`on_notify` hook
    (notify).  Received notifications are additionally recorded in
    :attr:`deliveries` so experiments can compute loss, duplication and
    latency without instrumenting application code.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._subscriptions: Dict[str, Subscription] = {}
        self.border_broker: Optional[str] = None
        self.deliveries: List[Delivery] = []
        self.published: List[Notification] = []

    # ------------------------------------------------------------- connection
    def connect_to(self, border_broker_name: str, reissue: bool = True) -> None:
        """Use the (already wired) link to ``border_broker_name`` as the access point.

        With ``reissue``, every active subscription is sent to it again
        (if the link is up; a disconnected client sends nothing).
        """
        self.border_broker = border_broker_name
        if reissue and self.connected:
            for sub in self._subscriptions.values():
                self.send(border_broker_name, Message(kind="subscribe", payload=sub))

    def disconnect(self, notify_broker: bool = False) -> None:
        """Forget the border broker; optionally tell it to drop our routing entries."""
        if notify_broker and self.border_broker and self.has_link(self.border_broker):
            self.send(self.border_broker, Message(kind="detach"))
        self.border_broker = None

    @property
    def connected(self) -> bool:
        return self.border_broker is not None and self.has_link(self.border_broker)

    # ------------------------------------------------------------ pub/sub API
    def subscribe(
        self,
        filter: Filter,
        sub_id: Optional[str] = None,
        location_dependent: bool = False,
        template: Optional[Any] = None,
    ) -> Subscription:
        """Register interest in notifications matching ``filter``."""
        sub = make_subscription(
            filter,
            subscriber=self.name,
            sub_id=sub_id,
            location_dependent=location_dependent,
            template=template,
        )
        self._subscriptions[sub.sub_id] = sub
        self._call("subscribe", sub)
        return sub

    def unsubscribe(self, sub: Subscription | str) -> Optional[Subscription]:
        """Withdraw a subscription (by object or id)."""
        sub_id = sub if isinstance(sub, str) else sub.sub_id
        withdrawn = self._subscriptions.pop(sub_id, None)
        if withdrawn is not None:
            self._call("unsubscribe", {"sub_id": sub_id, "filter": withdrawn.filter})
        return withdrawn

    def publish(self, notification: Notification | Mapping[str, Any]) -> Notification:
        """Publish a notification (or a plain attribute mapping)."""
        if not isinstance(notification, Notification):
            notification = Notification(notification)
        stamped = notification.stamped(published_at=self.sim.now, publisher=self.name)
        self.published.append(stamped)
        self._call("publish", stamped)
        return stamped

    def _call(self, kind: str, payload: Any) -> None:
        """Send one API call to the border broker; a disconnected client drops it."""
        if not self.connected:
            return
        self.send(self.border_broker, Message(kind=kind, payload=payload))

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    # --------------------------------------------------------------- delivery
    def on_message(self, message: Message) -> None:
        if message.kind == "notify":
            notification: Notification = message.payload
            self.deliveries.append(Delivery(notification=notification, received_at=self.sim.now))
            self.on_notify(notification)
        # Clients ignore every other message kind.

    def on_notify(self, notification: Notification) -> None:
        """Application hook, called for every delivered notification.  Override freely."""

    # ------------------------------------------------------------------ stats

    def duplicate_deliveries(self) -> int:
        """Number of deliveries beyond the first for any notification id."""
        seen: Dict[int, int] = {}
        duplicates = 0
        for delivery in self.deliveries:
            nid = delivery.notification.notification_id
            seen[nid] = seen.get(nid, 0) + 1
            if seen[nid] > 1:
                duplicates += 1
        return duplicates

    def delivery_latencies(self) -> List[float]:
        return [d.latency for d in self.deliveries if d.latency is not None]
