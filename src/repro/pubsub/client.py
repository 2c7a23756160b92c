"""Clients and local brokers.

"Processes of a system based on pub/sub communication ... can act both as
producers and consumers, they are clients of the underlying notification
service.  The communication interface to the service is rather simple and
consists of pub, sub, unsub, and notify calls only." (Sect. 2)

A :class:`Client` is a simulated process with exactly that interface.  The
*local broker* of the paper — the piece of the middleware library loaded into
the client — is modelled by :class:`LocalBroker`, which keeps the client's
active subscriptions so they can be re-issued after reconnection (the basis
of physical mobility) and translates the API calls into messages to the
current border broker.
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
    via: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        if self.notification.published_at is None:
            return None
        return self.received_at - self.notification.published_at


class LocalBroker:
    """The client-side library component: tracks subscriptions, talks to the border broker."""

    def __init__(self, client: "Client"):
        self.client = client
        self.subscriptions: Dict[str, Subscription] = {}
        self.border_broker: Optional[str] = None

    # ------------------------------------------------------------- connection
    def connect(self, border_broker_name: str, reissue: bool = True) -> None:
        """Point the local broker at a border broker and (re-)issue subscriptions."""
        self.border_broker = border_broker_name
        if reissue and self.subscriptions:
            if not self.connected:
                self.client.undeliverable_calls += len(self.subscriptions)
                return
            # one batched link event for the whole burst, not one per entry
            self.client.send_many(
                border_broker_name,
                [Message(kind="subscribe", payload=sub) for sub in self.subscriptions.values()],
            )

    def disconnect(self, notify_broker: bool = False) -> None:
        """Forget the border broker; optionally tell it to drop our routing entries."""
        if notify_broker and self.border_broker and self.client.has_link(self.border_broker):
            self.client.send(self.border_broker, Message(kind="detach"))
        self.border_broker = None

    @property
    def connected(self) -> bool:
        return self.border_broker is not None and self.client.has_link(self.border_broker)

    # ------------------------------------------------------------------ calls
    def sub(self, sub: Subscription) -> None:
        self.subscriptions[sub.sub_id] = sub
        self._send("subscribe", sub)

    def unsub(self, sub_id: str) -> Optional[Subscription]:
        sub = self.subscriptions.pop(sub_id, None)
        if sub is not None:
            self._send("unsubscribe", {"sub_id": sub_id, "filter": sub.filter})
        return sub

    def pub(self, notification: Notification) -> bool:
        return self._send("publish", notification)

    def _send(self, kind: str, payload: Any) -> bool:
        if not self.connected or self.border_broker is None:
            self.client.undeliverable_calls += 1
            return False
        self.client.send(self.border_broker, Message(kind=kind, payload=payload))
        return True


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
        self.local_broker = LocalBroker(self)
        self.deliveries: List[Delivery] = []
        self.published: List[Notification] = []
        self.undeliverable_calls = 0

    # ------------------------------------------------------------- connection
    def connect_to(self, border_broker_name: str, reissue: bool = True) -> None:
        """Use the (already wired) link to ``border_broker_name`` as the access point."""
        self.local_broker.connect(border_broker_name, reissue=reissue)

    def disconnect(self, notify_broker: bool = False) -> None:
        self.local_broker.disconnect(notify_broker=notify_broker)

    @property
    def connected(self) -> bool:
        return self.local_broker.connected

    @property
    def border_broker(self) -> Optional[str]:
        return self.local_broker.border_broker

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
        self.local_broker.sub(sub)
        return sub

    def unsubscribe(self, sub: Subscription | str) -> Optional[Subscription]:
        """Withdraw a subscription (by object or id)."""
        sub_id = sub if isinstance(sub, str) else sub.sub_id
        return self.local_broker.unsub(sub_id)

    def publish(self, notification: Notification | Mapping[str, Any]) -> Notification:
        """Publish a notification (or a plain attribute mapping)."""
        if not isinstance(notification, Notification):
            notification = Notification(notification)
        stamped = notification.stamped(published_at=self.sim.now, publisher=self.name)
        self.published.append(stamped)
        self.local_broker.pub(stamped)
        return stamped

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self.local_broker.subscriptions.values())

    # --------------------------------------------------------------- delivery
    def on_message(self, message: Message) -> None:
        if message.kind == "notify":
            notification: Notification = message.payload
            delivery = Delivery(
                notification=notification, received_at=self.sim.now, via=message.sender
            )
            self.deliveries.append(delivery)
            self.on_notify(notification)
        # Clients ignore every other message kind.

    def on_notify(self, notification: Notification) -> None:
        """Application hook, called for every delivered notification.  Override freely."""

    # ------------------------------------------------------------------ stats

    def received_ids(self) -> List[int]:
        return [delivery.notification.notification_id for delivery in self.deliveries]

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
