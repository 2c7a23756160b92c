"""Physical mobility: the relocation protocol for roaming clients.

Physical mobility is "concerned with location transparency (i.e., roaming
clients)" (abstract): a client that disconnects at one border broker and
reconnects at another must keep receiving the notifications matching its
subscriptions without the application noticing the move.  The paper relies on
the relocation algorithm of Zeidler & Fiege [8]: "a complex reconfiguration
algorithm combined with a certain amount of buffering ensures that a
relocated client receives a transparent, uninterrupted flow of notifications
matching his subscriptions" (Sect. 1).

This module implements the replicator-side half of that algorithm as a
:class:`RelocationManager`:

* while the device is disconnected, its virtual client at the *old* border
  broker keeps the location-independent subscriptions installed and buffers
  matching notifications;
* when the device reconnects elsewhere, the new replicator sends a
  *handover request* to the old one; the old side answers with the buffered
  notifications (split into location-independent traffic, which physical
  mobility must not lose, and location-dependent traffic, which only the
  exception mode of Sect. 4 may salvage) and withdraws the now-misplaced
  location-independent subscriptions.

The same request/reply exchange doubles as the paper's *exception mode*: if
the client pops up at a broker where no shadow exists, the new replicator can
still "retrieve buffered notifications from some other virtual client of the
application" (Sect. 4) through exactly this protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..pubsub.filters import Filter
from ..pubsub.notification import Notification
from .virtual_client import VirtualClient

#: Message kinds used by the relocation / handover protocol between replicators.
HANDOVER_REQUEST = "handover_request"
HANDOVER_REPLY = "handover_reply"


@dataclass
class HandoverRequest:
    """Sent by the new replicator to the replicator of the client's previous broker."""

    client_id: str
    new_broker: str
    new_replicator: str


@dataclass
class HandoverReply:
    """The old replicator's answer: subscriptions to relocate and buffered traffic."""

    client_id: str
    old_broker: str
    #: location-independent filters that were installed at the old broker
    plain_filters: Dict[str, Filter] = field(default_factory=dict)
    #: buffered notifications matching the location-independent filters
    buffered_plain: List[Notification] = field(default_factory=list)
    #: buffered location-dependent notifications (old location's traffic)
    buffered_location: List[Notification] = field(default_factory=list)
    #: True if the old side actually had a virtual client for this client
    found: bool = True


class RelocationManager:
    """Implements both sides of the handover/relocation exchange on virtual clients.

    The manager is deliberately transport-agnostic: it builds and interprets
    the payload dataclasses above, while the hosting replicator is responsible
    for actually sending them over replicator-to-replicator links.
    """

    def __init__(self, broker_name: str, replicator_name: str):
        self.broker_name = broker_name
        self.replicator_name = replicator_name
        #: location-dependent notifications the exception mode replayed (E9)
        self.exception_recoveries = 0

    # ------------------------------------------------------------- new side
    def build_request(self, client_id: str) -> HandoverRequest:
        """Build the handover request the new replicator sends to the old one."""
        return HandoverRequest(
            client_id=client_id,
            new_broker=self.broker_name,
            new_replicator=self.replicator_name,
        )

    def apply_reply(
        self,
        virtual_client: VirtualClient,
        reply: HandoverReply,
        deliver_location_history: bool,
    ) -> List[Notification]:
        """Apply a handover reply at the new (now active) virtual client.

        Installs the relocated location-independent subscriptions and returns
        the notifications that must be replayed to the device: always the
        buffered location-independent traffic, plus — when the exception mode
        is enabled — the location-dependent history the old virtual client
        buffered while the device was out of reach.  That history matched the
        client's own (old-location) subscriptions, so it is delivered as-is:
        the "degraded service" of Sect. 4 is stale-but-subscribed information,
        not information filtered by the new location.
        """
        if not reply.found:
            return []
        replay: List[Notification] = []
        for sub_id, filter in reply.plain_filters.items():
            if sub_id not in virtual_client.plain_filters:
                virtual_client.add_plain_filter(sub_id, filter)
        replay.extend(reply.buffered_plain)
        if deliver_location_history:
            replay.extend(reply.buffered_location)
            self.exception_recoveries += len(reply.buffered_location)
        return replay

    # ------------------------------------------------------------- old side
    def serve_request(
        self,
        virtual_client: Optional[VirtualClient],
        request: HandoverRequest,
        now: float,
    ) -> HandoverReply:
        """Serve a handover request at the old broker's replicator.

        Splits the virtual client's buffer into location-independent traffic
        (relocated without loss) and location-dependent traffic (only useful
        to the exception mode), withdraws the location-independent
        subscriptions from the old broker and returns the reply payload.
        The virtual client itself is *not* destroyed here — whether it stays
        as a shadow is decided by the shadow-set reconfiguration of the
        extended-logical-mobility algorithm (Sect. 3.2.3).
        """
        if virtual_client is None:
            return HandoverReply(
                client_id=request.client_id, old_broker=self.broker_name, found=False
            )
        plain_filters = dict(virtual_client.plain_filters)
        buffered = virtual_client.buffer.drain(now)
        buffered_plain: List[Notification] = []
        buffered_location: List[Notification] = []
        for notification in buffered:
            if any(filter.matches(notification) for filter in plain_filters.values()):
                buffered_plain.append(notification)
            else:
                buffered_location.append(notification)
        virtual_client.withdraw_plain_filters()
        virtual_client.plain_filters.clear()
        return HandoverReply(
            client_id=request.client_id,
            old_broker=self.broker_name,
            plain_filters=plain_filters,
            buffered_plain=buffered_plain,
            buffered_location=buffered_location,
            found=True,
        )
