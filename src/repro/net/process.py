"""Simulated processes and messages.

Every active component of the reproduced system — inner brokers, border
brokers, replicators, virtual clients, mobile devices — is a
:class:`Process` registered with a :class:`~repro.net.simulator.Simulator`.
Processes communicate exclusively by sending :class:`Message` objects over
:class:`~repro.net.link.Link` objects, mirroring the paper's model of broker
processes connected by point-to-point FIFO links (Sect. 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .simulator import Simulator

_message_ids = itertools.count(1)
#: an omitted ``msg_id`` / ``meta`` (an explicit ``None`` is kept as given)
_OMITTED: Any = object()


@dataclass(init=False)
class Message:
    """A message exchanged between processes.

    Attributes
    ----------
    kind:
        A short string tag identifying the message type (``"publish"``,
        ``"subscribe"``, ``"shadow_create"``, ...).  Routing of control
        messages dispatches on this tag.
    payload:
        Arbitrary message body (a notification, a filter, a dict of fields).
    sender:
        Name of the originating process; filled in by :meth:`Process.send`,
        or on a socket by the receiving link, which names its peer (a frame
        carries no sender).
    msg_id:
        Unique among the messages one process made (a link frame carries
        none: what a socket delivers draws its own), useful for duplicate
        detection in tests.
    meta:
        Free-form metadata (e.g. the subscription id a publish matched).
    """

    # the defaults are those of ``__init__``
    kind: str
    payload: Any
    sender: Optional[str]
    msg_id: int
    meta: Dict[str, Any]
    # the encoded-frame cache, populated by the wire layer so one message
    # fanned out to many socket links is framed exactly once; a frame holds
    # no sender, so it serves whoever sends the message
    _frame_bin: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        sender: Optional[str] = None,
        msg_id: int = _OMITTED,
        meta: Dict[str, Any] = _OMITTED,
    ):
        # not generated, which calls a factory per omitted field; the keys set
        # are the ones ``wire.decode_message_binary`` builds by hand
        self.kind = kind
        self.payload = payload
        self.sender = sender
        self.msg_id = next(_message_ids) if msg_id is _OMITTED else msg_id
        self.meta = {} if meta is _OMITTED else meta


class Process:
    """Base class for all simulated processes.

    Subclasses override :meth:`on_message` to handle incoming traffic and may
    use :meth:`send` to emit messages over attached links.  Links are attached
    by the network wiring code (see :mod:`repro.pubsub.broker_network`), not
    by the process itself.
    """

    def __init__(self, sim: "Simulator | object", name: str):
        # ``sim`` is the transport backend's clock: the Simulator itself on
        # the default backend, its queue on a WallClock on real sockets.  Both
        # expose now/schedule/schedule_at/call_now/run/run_until_idle.
        self.sim = sim
        self.name = name
        self.links: Dict[str, "LinkEndpoint"] = {}
        self.messages_received = 0
        self.messages_sent = 0
        self.alive = True

    # ----------------------------------------------------------------- wiring
    def attach_link(self, peer_name: str, endpoint: "LinkEndpoint") -> None:
        """Register the local endpoint of a link towards ``peer_name``."""
        self.links[peer_name] = endpoint

    def detach_link(self, peer_name: str) -> None:
        """Remove the link towards ``peer_name`` (e.g. on disconnection)."""
        self.links.pop(peer_name, None)

    def has_link(self, peer_name: str) -> bool:
        return peer_name in self.links

    # -------------------------------------------------------------- messaging
    def send(self, peer_name: str, message: Message) -> None:
        """Send ``message`` to ``peer_name`` over the attached link.

        Raises ``KeyError`` if no link to the peer exists — callers that can
        tolerate missing links (e.g. during handover races) should check
        :meth:`has_link` first.
        """
        endpoint = self.links[peer_name]
        message.sender = self.name
        # counted once the endpoint accepted it: a refused send was not sent
        endpoint.transmit(message)
        self.messages_sent += 1

    def send_many(self, peer_name: str, messages: "list[Message]") -> None:
        """:meth:`send` each of ``messages`` to ``peer_name``, in order.

        The product sends one message at a time; this loop remains for the
        budget benchmark's bare-transport probe, which calls it.
        """
        for message in messages:
            self.send(peer_name, message)

    def deliver(self, message: Message) -> None:
        """Entry point used by links to hand a message to this process."""
        if not self.alive:
            return
        self.messages_received += 1
        self.on_message(message)

    # ------------------------------------------------------------------ hooks
    def on_message(self, message: Message) -> None:
        """Handle an incoming message.  Subclasses override this."""
        raise NotImplementedError(f"{type(self).__name__} does not handle messages")

    def shutdown(self) -> None:
        """Stop accepting messages; used for client removal and fault injection."""
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class LinkEndpoint:
    """One side of a bidirectional link; defined here to avoid an import cycle.

    Concrete behaviour (latency, FIFO queueing, connectivity) lives in
    :mod:`repro.net.link`.
    """

    #: True when this endpoint serialises messages to the wire, so a broker
    #: fanning one notification out to many such endpoints may hand them the
    #: *same* Message object and amortise encoding via its frame cache.
    #: In-memory endpoints keep this False: their Message objects are the
    #: delivered artifacts and must stay distinct per destination.
    shares_fanout = False

    def transmit(self, message: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError
