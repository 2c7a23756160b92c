"""Brokers: the routing processes of the notification service.

The paper distinguishes three broker roles (Sect. 2):

* *local brokers* are part of the communication library loaded into clients;
  they are not vertices of the broker graph (see :mod:`repro.pubsub.client`);
* *border brokers* form the boundary of the middleware and maintain
  connections to local brokers (i.e. clients, virtual clients, replicators);
* *inner brokers* are only connected to other brokers.

A single :class:`Broker` class implements both border and inner behaviour —
the difference is simply whether any client links are attached.  Brokers
forward ``subscribe``/``unsubscribe``/``publish`` messages according to a
pluggable routing strategy (:mod:`repro.pubsub.routing`) and deliver
``notify`` messages to matching client links.  The routing decision is a
single event in the simulator, which preserves the end-to-end sender-FIFO
characteristic the paper assumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..net.process import Message, Process
from ..net.simulator import Simulator
from ..obs.metrics import DEFAULT_LATENCY_BOUNDS, MetricsRegistry
from .filters import Filter
from .notification import Notification
from .routing import RoutingStrategy, make_strategy
from .routing_table import RoutingTable
from .subscription import Subscription


class Broker(Process):
    """A routing process in the acyclic broker network.

    Parameters
    ----------
    sim:
        The transport backend's clock: the discrete-event
        :class:`~repro.net.simulator.Simulator` on the default ``"sim"``
        backend, or a :class:`~repro.net.transport.WallClock` when the
        broker runs on real sockets.  Brokers only read time and never
        schedule, so the same routing logic runs unchanged on either.
    name:
        Unique broker name (e.g. ``"B1"``).
    routing:
        Name of the routing strategy (``"flooding"``, ``"simple"``,
        ``"identity"``, ``"covering"``, ``"merging"``).  The paper assumes
        simple routing throughout, which is the default here.
    matcher:
        Routing-table matching strategy: ``"indexed"`` (default; one
        attribute index over the whole table pre-selects candidate entries)
        or ``"brute"`` (evaluate every entry).  Both produce identical
        forwarding decisions.
    metrics:
        The live :class:`~repro.obs.metrics.MetricsRegistry` this broker
        reports into (one is created when omitted).  Pass a registry
        constructed with ``enabled=False`` to run without any live
        instrumentation.
    """

    def __init__(
        self,
        sim: "Simulator | object",
        name: str,
        routing: str = "simple",
        matcher: str = "indexed",
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(sim, name)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.routing_table = RoutingTable(matcher=matcher, metrics=self.metrics)
        self._delivery_age = self.metrics.histogram("broker.delivery_age", DEFAULT_LATENCY_BOUNDS)
        self.routing_strategy_name = routing
        self.strategy: RoutingStrategy = make_strategy(routing, self, metrics=self.metrics)
        self._broker_peers: Set[str] = set()
        # metrics
        self.notifications_routed = 0
        self.notifications_forwarded = 0
        self.notifications_delivered_locally = 0
        self.subscriptions_handled = 0
        self.unsubscriptions_handled = 0
        self.resyncs_received = 0
        self.resync_forwards_sent = 0

    # ------------------------------------------------------------------ matcher
    @property
    def matcher(self) -> str:
        """The routing-table matching strategy ("brute" or "indexed")."""
        return self.routing_table.matcher

    # ------------------------------------------------------------------ wiring
    def register_broker_peer(self, peer_name: str) -> None:
        """Declare that the link towards ``peer_name`` leads to another broker."""
        self._broker_peers.add(peer_name)

    def broker_neighbors(self) -> List[str]:
        """Names of neighbouring brokers this broker currently has a link to."""
        return sorted(self._broker_peers.intersection(self.links))

    # --------------------------------------------------------------- messaging
    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == "publish":
            self._handle_publish(message)
        elif kind == "subscribe":
            self._handle_subscribe(message)
        elif kind == "unsubscribe":
            self._handle_unsubscribe(message)
        elif kind == "detach":
            self._handle_detach(message)
        elif kind == "resync":
            self._handle_resync(message)
        else:
            # Unknown kinds (mobility control traffic addressed to co-located
            # replicators, etc.) are ignored by the plain broker.
            pass

    # ----------------------------------------------------------- subscriptions
    def _handle_subscribe(self, message: Message) -> None:
        subscription: Subscription = message.payload
        from_link = message.sender or ""
        self.subscriptions_handled += 1
        self.strategy.handle_subscribe(subscription, from_link)

    def _handle_unsubscribe(self, message: Message) -> None:
        payload = message.payload
        sub_id: str = payload["sub_id"]
        filter: Filter = payload.get("filter") or Filter(())
        from_link = message.sender or ""
        self.unsubscriptions_handled += 1
        self.strategy.handle_unsubscribe(sub_id, filter, from_link)

    def _handle_detach(self, message: Message) -> None:
        """A client link announces it is going away: drop all its routing entries."""
        link = message.sender or ""
        self._drop_link_entries(link)

    def _handle_resync(self, message: Message) -> None:
        """A broker peer lost its state: void everything it advertised to us.

        The peer sends the ``resync`` marker first and re-forwards its
        current routing state right behind it; link FIFO guarantees the
        stale entries are gone before the fresh advertisements land.
        """
        link = message.sender or ""
        self.resyncs_received += 1
        self._drop_link_entries(link)

    def _drop_link_entries(self, link: str) -> None:
        # the whole link leaves the table first; the strategy then propagates
        # one unsubscription per removed entry
        self.strategy.on_entries_removed(self.routing_table.remove_link(link))

    # ----------------------------------------------------------- fault recovery
    def resync_link(self, peer_name: str) -> int:
        """Re-synchronise a broker peer's view of our routing state.

        The recovery path after a crash or severed link: send the ``resync``
        marker (the peer drops every entry it holds for this link), then
        re-forward the current routing table exactly as a fresh boot would.
        Returns the number of re-forwarded subscriptions.
        """
        if not self.has_link(peer_name):
            return 0
        self.send(peer_name, Message(kind="resync"))
        forwards = self.strategy.resync_link(peer_name)
        self.resync_forwards_sent += forwards
        return forwards

    def handle_link_lost(self, peer_name: str) -> None:
        """The transport lost the link to ``peer_name`` (crash or TCP reset).

        The endpoint is detached so routing skips the peer.  A client
        link's routing entries go with it — a re-attaching client re-issues
        its subscriptions; a broker peer's entries stay, because the peer
        re-syncs them on reconnect and keeping them avoids advertisement
        churn during a transient outage (matching the sim backend, where a
        downed link leaves the routing tables untouched).
        """
        self.detach_link(peer_name)
        if peer_name not in self._broker_peers:
            self._drop_link_entries(peer_name)

    # ------------------------------------------------------------ notifications
    def _handle_publish(self, message: Message) -> None:
        notification: Notification = message.payload
        from_link = message.sender or ""
        self.notifications_routed += 1
        destinations = self.strategy.route(notification, from_link)
        broker_peers = self._broker_peers
        links = self.links
        # One Message per kind is shared across every serialising destination
        # endpoint on this hop, so the frame cache encodes it exactly once.
        # In-memory endpoints (shares_fanout False) still get a
        # fresh Message each: the object they carry *is* the delivery.
        shared_publish: Optional[Message] = None
        shared_notify: Optional[Message] = None
        age: Optional[float] = None
        for destination in destinations:
            endpoint = links.get(destination)
            if endpoint is None:
                continue
            if destination in broker_peers:
                self.notifications_forwarded += 1
                if endpoint.shares_fanout:
                    if shared_publish is None:
                        shared_publish = Message(kind="publish", payload=notification)
                    message = shared_publish
                else:
                    message = Message(kind="publish", payload=notification)
            else:
                self.notifications_delivered_locally += 1
                if notification.published_at is not None:
                    if age is None:
                        # transport-clock age at the delivering broker; clamped
                        # at zero because cluster children carry independent
                        # clock origins and skew can go slightly negative
                        age = max(0.0, self.sim.now - notification.published_at)
                    self._delivery_age.observe(age)
                if endpoint.shares_fanout:
                    if shared_notify is None:
                        shared_notify = Message(kind="notify", payload=notification)
                    message = shared_notify
                else:
                    message = Message(kind="notify", payload=notification)
            self.send(destination, message)

    # --------------------------------------------------- strategy callbacks
    def forward_subscribe(self, subscription: Subscription, link: str) -> None:
        """Send a ``subscribe`` control message to a neighbouring broker."""
        if not self.has_link(link):
            return
        self.send(link, Message(kind="subscribe", payload=subscription))

    def forward_unsubscribe(self, sub_id: str, filter: Filter, link: str) -> None:
        """Send an ``unsubscribe`` control message to a neighbouring broker."""
        if not self.has_link(link):
            return
        self.send(link, Message(kind="unsubscribe", payload={"sub_id": sub_id, "filter": filter}))

    # -------------------------------------------------------------------- admin
    def routing_table_size(self) -> int:
        return len(self.routing_table)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The live control-plane view of this broker, as a plain dict.

        Merges the registry-owned instruments (covering-index hits, any
        transport-side counters sharing the registry) with the hot-path
        integer counters and a few point-in-time gauges.  Counter values for
        a deterministic workload are identical across transport backends —
        they count routing decisions, not wire activity.
        """
        snapshot = self.metrics.snapshot()
        counters = dict(snapshot["counters"])
        counters.update(
            {
                "broker.matches": self.notifications_routed,
                "broker.forwards": self.notifications_forwarded,
                "broker.delivered_locally": self.notifications_delivered_locally,
                "broker.subscriptions": self.subscriptions_handled,
                "broker.unsubscriptions": self.unsubscriptions_handled,
                "broker.resyncs_received": self.resyncs_received,
                "broker.resync_forwards_sent": self.resync_forwards_sent,
            }
        )
        return {
            "counters": counters,
            "histograms": snapshot["histograms"],
            "gauges": {
                "broker.routing_table_size": self.routing_table_size(),
                "broker.forwarded_subscriptions": self.strategy.forwarded_count(),
            },
        }
