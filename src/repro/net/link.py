"""Point-to-point FIFO links between simulated processes.

Section 2 of the paper requires that "messages are delivered in FIFO order on
each link" and that the communication links are point-to-point.  A
:class:`Link` models a bidirectional connection between two processes with a
fixed one-way latency; delivery order on each direction is FIFO even if the
latency were to change mid-flight, because each direction tracks the earliest
time the next message may be delivered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .process import LinkEndpoint, Message, Process
from .simulator import Simulator


@dataclass
class LinkStats:
    """Per-direction traffic counters, used by the overhead metrics."""

    messages: int = 0
    dropped: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        self.messages += 1
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1

    def record_drop(self) -> None:
        self.dropped += 1


class _DirectedEndpoint(LinkEndpoint):
    """The sending side of one direction of a link."""

    def __init__(self, link: "Link", source: Process, target: Process):
        self.link = link
        self.source = source
        self.target = target
        self.stats = LinkStats()
        # earliest simulated time at which the next message may arrive,
        # maintained to preserve FIFO order regardless of latency changes.
        self._next_delivery_floor = 0.0

    def transmit(self, message: Message) -> None:
        link = self.link
        if not link.up:
            self.stats.record_drop()
            return
        stats = self.stats  # LinkStats.record, inline: this runs once per hop
        stats.messages += 1
        stats.by_kind[message.kind] = stats.by_kind.get(message.kind, 0) + 1
        sim = link.sim
        arrival = sim._now + link.latency
        if arrival < self._next_delivery_floor:
            arrival = self._next_delivery_floor
        self._next_delivery_floor = arrival
        sim.push_delivery(arrival, self.target, message)


class LinkSurface:
    """What a link whose two ends both live in this process offers its users.

    A subclass sets the end processes ``a`` and ``b``, ``up``, and the two
    directed endpoints ``_a_to_b`` and ``_b_to_a``, each with its
    :class:`LinkStats`; it transmits on its own.
    """

    # ------------------------------------------------------------------ state
    def set_up(self, up: bool) -> None:
        """Bring the link up or down (fault injection / disconnection)."""
        self.up = up

    def disconnect(self) -> None:
        """Tear the link down and detach both endpoints."""
        self.up = False
        self.a.detach_link(self.b.name)
        self.b.detach_link(self.a.name)

    def reconnect(self) -> None:
        """Re-attach both endpoints and bring the link up."""
        self.up = True
        self.a.attach_link(self.b.name, self._a_to_b)
        self.b.attach_link(self.a.name, self._b_to_a)

    # ------------------------------------------------------------------ stats
    @property
    def stats_a_to_b(self) -> LinkStats:
        return self._a_to_b.stats

    @property
    def stats_b_to_a(self) -> LinkStats:
        return self._b_to_a.stats

    def total_messages(self) -> int:
        """Total messages transmitted in either direction."""
        return self._a_to_b.stats.messages + self._b_to_a.stats.messages

    def messages_of_kind(self, kind: str) -> int:
        return self._a_to_b.stats.by_kind.get(kind, 0) + self._b_to_a.stats.by_kind.get(kind, 0)


class Link(LinkSurface):
    """A bidirectional point-to-point FIFO link between two processes.

    Parameters
    ----------
    sim:
        The simulator carrying delivery events.
    a, b:
        The two endpoint processes.  Both get an endpoint attached under the
        other's name, so ``a.send(b.name, msg)`` works immediately.
    latency:
        One-way delivery latency in simulated seconds.

    A message already in flight when the link goes down is still delivered
    (it models a buffered TCP segment); only a send on a down link drops.
    """

    def __init__(self, sim: Simulator, a: Process, b: Process, latency: float = 0.001):
        if not 0 <= latency < math.inf:  # a NaN fails both comparisons
            raise ValueError(f"latency must be finite and non-negative, not {latency!r}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.up = True
        self._a_to_b = _DirectedEndpoint(self, a, b)
        self._b_to_a = _DirectedEndpoint(self, b, a)
        a.attach_link(b.name, self._a_to_b)
        b.attach_link(a.name, self._b_to_a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Link({self.a.name}<->{self.b.name}, latency={self.latency}, {state})"
