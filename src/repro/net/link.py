"""Point-to-point FIFO links between simulated processes.

Section 2 of the paper requires that "messages are delivered in FIFO order on
each link" and that the communication links are point-to-point.  A
:class:`Link` models a bidirectional connection between two processes with a
fixed one-way latency; delivery order on each direction is FIFO even if the
latency were to change mid-flight, because each direction tracks the earliest
time the next message may be delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .process import LinkEndpoint, Message, Process
from .simulator import Simulator


@dataclass
class LinkStats:
    """Per-direction traffic counters, used by the bandwidth/overhead metrics."""

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        self.messages += 1
        self.bytes += message.size()
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
            link.on_drop(message, self.source, self.target)
            return
        self.stats.record(message)
        sim = link.sim
        arrival = sim.now + link.latency
        if arrival < self._next_delivery_floor:
            arrival = self._next_delivery_floor
        self._next_delivery_floor = arrival
        sim.push_uncancellable(arrival, self._deliver, (message,))

    def transmit_many(self, messages: list[Message]) -> None:
        """Transmit a burst of messages as ONE scheduled delivery event.

        FIFO order within the burst (and relative to earlier traffic) is
        preserved: all messages share the same arrival time, which also
        becomes the delivery floor for later traffic.
        """
        link = self.link
        if not link.up:
            for message in messages:
                self.stats.record_drop()
                link.on_drop(message, self.source, self.target)
            return
        for message in messages:
            self.stats.record(message)
        sim = link.sim
        arrival = sim.now + link.latency
        if arrival < self._next_delivery_floor:
            arrival = self._next_delivery_floor
        self._next_delivery_floor = arrival
        sim.push_uncancellable(arrival, self._deliver_many, (tuple(messages),))

    def _deliver(self, message: Message) -> None:
        if not self.link.up and not self.link.deliver_in_flight_on_down:
            self.stats.record_drop()
            self.link.on_drop(message, self.source, self.target)
            return
        self.target.deliver(message)

    def _deliver_many(self, messages: tuple[Message, ...]) -> None:
        for message in messages:
            self._deliver(message)


class Link:
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
    deliver_in_flight_on_down:
        If ``True`` (default), messages already in flight when the link goes
        down are still delivered (models buffered TCP segments); if ``False``
        they are dropped.
    """

    def __init__(
        self,
        sim: Simulator,
        a: Process,
        b: Process,
        latency: float = 0.001,
        deliver_in_flight_on_down: bool = True,
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.up = True
        self.deliver_in_flight_on_down = deliver_in_flight_on_down
        self._a_to_b = _DirectedEndpoint(self, a, b)
        self._b_to_a = _DirectedEndpoint(self, b, a)
        a.attach_link(b.name, self._a_to_b)
        b.attach_link(a.name, self._b_to_a)

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

    def abandon(self) -> None:
        """Tear down a link that lost an attachment race.

        Unlike :meth:`disconnect`, which detaches whatever endpoint is
        registered under the peer names, this removes only entries this
        link actually owns — a rival link established concurrently between
        the same processes may have re-registered those names, and its
        attachment must survive.
        """
        self.up = False
        for owner, peer_name, endpoint in (
            (self.a, self.b.name, self._a_to_b),
            (self.b, self.a.name, self._b_to_a),
        ):
            if owner.links.get(peer_name) is endpoint:
                owner.detach_link(peer_name)

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

    def total_bytes(self) -> int:
        """Total abstract bytes transmitted in either direction."""
        return self._a_to_b.stats.bytes + self._b_to_a.stats.bytes

    def messages_of_kind(self, kind: str) -> int:
        return self._a_to_b.stats.by_kind.get(kind, 0) + self._b_to_a.stats.by_kind.get(kind, 0)

    # ------------------------------------------------------------------ hooks
    def on_drop(self, message: Message, source: Process, target: Process) -> None:
        """Hook invoked when a message is dropped; overridden in tests if needed."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Link({self.a.name}<->{self.b.name}, latency={self.latency}, {state})"


class Network:
    """A registry of processes and the links between them.

    This is a convenience container used by topology builders and by the
    metric collectors (which need to iterate over all links to sum up
    control-message overhead).

    Links are created through the network's :class:`~repro.net.transport.
    Transport` backend, so the same registry works on the deterministic
    simulator (the default — pass a :class:`Simulator` as before) or on real
    asyncio sockets (``transport="asyncio"``).
    """

    def __init__(self, sim: Optional[Simulator] = None, transport: str = "sim"):
        from .transport import make_transport  # local: transport imports Link

        self.transport = make_transport(transport, sim=sim)
        self.processes: Dict[str, Process] = {}
        self.links: list = []

    @property
    def sim(self):
        """The backend's clock — the actual :class:`Simulator` on the sim backend."""
        return self.transport.clock

    def add_process(self, process: Process) -> Process:
        if process.name in self.processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self.processes[process.name] = process
        return process

    def get(self, name: str) -> Process:
        return self.processes[name]

    def connect(self, a: str, b: str, latency: float = 0.001):
        """Create (and register) a link between two already-added processes."""
        link = self.transport.make_link(self.processes[a], self.processes[b], latency=latency)
        self.links.append(link)
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        for link in self.links:
            names = {link.a.name, link.b.name}
            if names == {a, b}:
                return link
        return None

    def total_messages(self, kind: Optional[str] = None) -> int:
        """Total messages across all links, optionally restricted to one kind."""
        if kind is None:
            return sum(link.total_messages() for link in self.links)
        return sum(link.messages_of_kind(kind) for link in self.links)

    def total_bytes(self) -> int:
        return sum(link.total_bytes() for link in self.links)
