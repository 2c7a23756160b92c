"""Pluggable transport backends: deterministic simulator or real sockets.

A :class:`Transport` owns link construction, message movement and time, so
the algorithm (brokers, routing, mobility) is independent of the substrate:
everything above (``Process.send``, link FIFO semantics, connect/disconnect
events, latency, message and kind counts) goes through it.

Three interchangeable backends:

* :class:`SimTransport` (default) — the deterministic discrete-event
  simulator, pinned byte-identical by the golden-trace cross-check in
  ``tests/test_transport.py``.
* :class:`AsyncioTransport` (``transport="asyncio"``) — a link is one duplex
  localhost TCP connection carrying length-prefixed binary wire frames
  (:mod:`repro.net.wire`) both ways; the transport owns both ends and pairs
  them itself, so the link is open when ``make_link`` returns.  Per-direction
  FIFO comes from TCP; time is monotonic wall time.  Runs are *not*
  deterministic — that is the point: this is the deployment shape of the
  paper's REBECA testbed (broker processes talking over sockets).
* :class:`~repro.net.cluster.ClusterTransport` (``transport="cluster"``) —
  every *broker* runs in its own spawned OS process, serving on a listening
  socket the parent bound before spawning it and holds; same wire frames,
  one duplex TCP connection per link, real multi-core scale-out.

Every backend exposes the same clock surface (``now``/``schedule``/
``schedule_at``/``call_now``/``run``/``run_until_idle``) over the same event
queue, so processes keep their ``self.sim`` attribute and the pubsub layer
runs unchanged on any substrate.

Both socket backends are one runtime, :class:`SocketNode`: a selector, the
simulator's queue on a :class:`WallClock`, and one step that fires what is
due, else selects until the next due time, and dispatches readiness to the
one connection class, :class:`_Connection`.  ``AsyncioTransport`` is "N
processes on one node", a cluster broker child "one broker plus a control
connection", the cluster parent "the clients plus the control connections,
dial-only"; their policy lives in their endpoint classes.

What each backend guarantees:

===========================  ==========================  ====================
property                     SimTransport                AsyncioTransport
===========================  ==========================  ====================
determinism                  bit-exact, seedable         no (real scheduler)
per-link FIFO                yes (delivery floors)       yes (TCP streams)
latency model                exact simulated seconds     none: a frame is
                                                         delivered at arrival;
                                                         timers fire when
                                                         due (µs waits)
real concurrency / sockets   no                          yes (localhost TCP)
serialization                none (object references)    binary wire frames,
                                                         batched per hop
mobility layer support       full                        full (a wireless link
                                                         is a real TCP conn,
                                                         opened in the attach
                                                         as on the simulator)
===========================  ==========================  ====================

(The cluster backend supports the plain pub/sub layer only; its broker
topology freezes at boot, so it cannot host the dynamically attaching
wireless links the mobility layer needs.)
"""

from __future__ import annotations

import select
import selectors
import socket
from abc import ABC, abstractmethod
from heapq import heappop
from selectors import EVENT_READ, EVENT_WRITE
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from . import wire
from .link import Link, LinkStats, LinkSurface
from .process import LinkEndpoint, Message, Process, _message_ids
from .simulator import EventHandle, SimulationError, Simulator

#: the names accepted by ``SystemConfig.transport``
TRANSPORT_NAMES = ("sim", "asyncio", "cluster")

#: the fault primitives accepted by :meth:`Transport.inject_fault`
FAULT_ACTIONS = ("crash", "restart", "link_down", "link_up")


class TransportError(RuntimeError):
    """Raised when a transport is used incorrectly or fails to settle."""


class Transport(ABC):
    """A substrate that moves messages between processes over links.

    The contract every backend honours:

    * :meth:`make_link` wires a bidirectional FIFO link between two
      processes and attaches an endpoint on each side (``a.send(b.name, m)``
      works immediately afterwards);
    * the returned link exposes the :class:`~repro.net.link.Link` surface —
      ``up``/``set_up`` (and ``disconnect``/``reconnect`` on a backend that
      :attr:`supports_mobility`), per-direction
      :class:`~repro.net.link.LinkStats` and ``total_messages``/
      ``messages_of_kind``;
    * :attr:`clock` is a Simulator-compatible scheduling surface (``now``,
      ``schedule``, ``schedule_at``, ``call_now``, ``run``,
      ``run_until_idle``) that processes receive as their ``sim``.
    """

    #: backend name, matching the ``SystemConfig.transport`` value that builds it
    name: str = "abstract"

    #: whether the mobility layer (wireless channels, replicators) can run on
    #: this backend.  Requires dynamic link support: links that
    #: :meth:`make_link` opens and :meth:`close_dynamic_link` tears down
    #: *while the substrate is running* (a wireless attach), not just wired
    #: up at build time.  Backends opt in explicitly.
    supports_mobility: bool = False

    #: this substrate's own live instruments (socket backends keep the wire
    #: counters here; the simulator has none)
    metrics = None

    def __init__(self, config=None):
        if config is None:
            from ..config import SystemConfig  # lazy: config imports this module

            config = SystemConfig(transport=self.name)
        #: the :class:`~repro.config.SystemConfig` this substrate was built
        #: with; :meth:`build_broker` reads every broker knob off it
        self.system_config = config
        #: brokers built on this transport, by name (the control-plane roster)
        self.brokers: Dict[str, Any] = {}

    @property
    @abstractmethod
    def clock(self):
        """The scheduling surface handed to processes as their ``sim``."""

    @abstractmethod
    def make_link(self, a: Process, b: Process, latency: float = 0.001):
        """Create, attach and return a bidirectional FIFO link between ``a`` and ``b``.

        Build-time wiring and a wireless attach alike: it may be called from
        inside a running substrate (a scheduled attach completion), and the
        link carries traffic the moment it returns, on every backend.
        ``latency`` is simulated seconds: only the simulator applies it.  A
        socket link delivers each frame at arrival (the wire sets the time)
        and reports ``latency == 0.0``.  Whatever is in flight when a link
        goes down is still delivered, on every backend.
        """

    @abstractmethod
    def run(self, until: Optional[float] = None) -> float:
        """Advance the substrate (to ``until`` when given); returns the clock's time."""

    @abstractmethod
    def run_until_idle(self) -> float:
        """Run until no traffic or scheduled work remains; returns the clock's time."""

    # ------------------------------------------------------------ fault plane
    def inject_fault(self, action: str, process: Optional[Process] = None, link=None) -> None:
        """Apply one fault primitive to a process or link of this substrate.

        The transport-agnostic seam used by
        :class:`~repro.net.faults.FaultInjector`: ``"crash"``/``"restart"``
        act on ``process``, ``"link_down"``/``"link_up"`` on ``link`` (see
        :data:`FAULT_ACTIONS`).  The in-process backends flip the exact same
        switches operational tooling would (``Process.alive``,
        ``Link.set_up``), preserving byte-identical scheduling on the
        simulator; the cluster backend overrides this with real
        SIGKILL/respawn and TCP-level link severing.
        """
        if action == "crash":
            self._fault_target(process, "process").alive = False
        elif action == "restart":
            self._fault_target(process, "process").alive = True
        elif action == "link_down":
            self._fault_target(link, "link").set_up(False)
        elif action == "link_up":
            self._fault_target(link, "link").set_up(True)
        else:
            raise TransportError(
                f"unknown fault action {action!r}; available: {FAULT_ACTIONS}"
            )

    @staticmethod
    def _fault_target(target, role: str):
        if target is None:
            raise TransportError(f"this fault action requires a {role} target")
        return target

    # ------------------------------------------------------------ dynamic links
    def open_dynamic_link(self, a: Process, b: Process, latency: float = 0.001):
        """:meth:`make_link` by its former name, which the cost ledger's
        ``net.transport.link_open_ms`` probe still calls."""
        return self.make_link(a, b, latency=latency)

    def close_dynamic_link(self, link) -> None:
        """Release substrate resources of a dynamically opened link.

        Called after the link has been logically disconnected (a wireless
        detach).  A no-op on the simulator; socket backends close the TCP
        connection the link held so handover churn does not leak sockets.
        """

    def resource_sizes(self) -> Dict[str, int]:
        """Sizes of the substrate resources this transport currently holds.

        The observability half of the fault plane: after a fault/recovery
        cycle has fully quiesced, every size reported here must be back at
        its pre-fault baseline — the non-growth invariant gated by the chaos
        fuzzer and soak harness (:mod:`repro.pubsub.invariants`).  Backends
        report whatever they actually allocate (links, listeners, timers,
        writers, control connections); the base transport holds nothing.
        """
        return {}

    # ----------------------------------------------------------- control plane
    def transport_metrics(self) -> Dict[str, Any]:
        """This substrate's own live instruments plus point-in-time gauges."""
        instruments = {"counters": {}, "histograms": {}}
        if self.metrics is not None:
            instruments = self.metrics.snapshot()
        return {**instruments, "gauges": self.resource_sizes()}

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The full control-plane view: transport instruments + every broker.

        A plain (JSON-safe) dict.  In-process backends read their brokers
        directly; the cluster backend overrides this to gather the same
        shape over its control connections.
        """
        return {
            "transport": self.transport_metrics(),
            "brokers": {
                name: broker.metrics_snapshot() for name, broker in sorted(self.brokers.items())
            },
        }

    def build_broker(self, name: str, routing: str = "simple"):
        """Construct a broker process for this substrate.

        In-process backends return a real :class:`~repro.pubsub.broker.Broker`
        running on this transport's clock; the multi-process cluster backend
        overrides this to return a :class:`~repro.net.cluster.RemoteBroker`
        proxy whose actual broker lives in a spawned child process.  The
        broker's ``metrics`` switch comes from :attr:`system_config`, read
        once, here.
        """
        from ..pubsub.broker import Broker  # lazy: net/ stays importable alone

        config = self.system_config
        broker = Broker(
            self.clock,
            name,
            routing=routing,
            metrics=MetricsRegistry(enabled=config.metrics),
        )
        self.brokers[name] = broker
        return broker

    def close(self) -> None:
        """Release substrate resources (sockets, selectors, child processes).  Idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


# ------------------------------------------------------------------ simulator


class SimTransport(Transport):
    """The deterministic discrete-event backend (the default).

    A thin shell around :class:`~repro.net.simulator.Simulator` +
    :class:`~repro.net.link.Link`: link construction, FIFO delivery floors,
    latency accounting and connect/disconnect all behave exactly as they did
    before the transport refactor — the golden-trace cross-check test pins
    the delivered byte sequence to the pre-refactor recording.
    """

    name = "sim"
    supports_mobility = True

    def __init__(self, *, config=None):
        super().__init__(config)
        self.sim = Simulator()

    @property
    def clock(self) -> Simulator:
        return self.sim

    def make_link(self, a: Process, b: Process, latency: float = 0.001) -> Link:
        return Link(self.sim, a, b, latency=latency)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until_idle(self) -> float:
        return self.sim.run_until_idle()

    def resource_sizes(self) -> Dict[str, int]:
        # the simulator holds no sockets; pending events are its only
        # resource, and a quiesced simulator must have drained them all
        return {"pending_events": self.sim.pending}


# ------------------------------------------------------------- socket runtime


class WallClock(Simulator):
    """The simulator's event queue on a wall clock: a :class:`SocketNode`'s clock.

    ``now`` is monotonic seconds since the node started, so latencies
    measured against it are real.  Events fire only while the node steps
    (:meth:`SocketNode._step`), each as one of its callbacks; ``run`` and
    ``run_until_idle`` drive the node.
    """

    def __init__(self, node: "SocketNode"):
        super().__init__()
        self._node = node
        self._t0 = monotonic()

    @property
    def now(self) -> float:
        return monotonic() - self._t0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return Simulator.schedule_at(self, self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, which is before now={now:.6f}"
            )
        return Simulator.schedule_at(self, time, callback, *args)

    @property
    def next_due(self) -> Optional[float]:
        """When the earliest queued event is due (None: the queue is empty)."""
        return self._times[0] if self._times else None

    def fire_due(self, run: Callable[..., None]) -> None:
        """Run every event due by now, each as ``run(callback, *args)``."""
        times, buckets, now = self._times, self._buckets, self.now
        while times and times[0] <= now:
            time = times[0]
            bucket = buckets[time]
            while bucket:
                callback, args, handle = bucket.popleft()
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    self._discarded += 1
                    continue
                self.events_processed += 1
                handle.executed = True
                run(callback, *args)
            if buckets.get(time) is bucket:  # else a nested step got there first
                heappop(times)
                del buckets[time]

    def run(self, until: Optional[float] = None) -> float:
        return self._node.run(until=until)

    def run_until_idle(self, max_events: int = 0) -> float:
        return self._node.run_until_idle()


class _ExactEpollSelector(selectors.EpollSelector):
    """An epoll selector whose timed waits are not rounded up to a millisecond.

    The stock one rounds a positive timeout *up* to a whole millisecond (a
    timer due in 0.3 ms fires after 1 ms).  ``select()`` takes microseconds
    and an epoll fd is readable exactly when it has events: wait on the epoll
    fd (I/O still ends the wait at once), then collect without blocking.
    The kernel still wakes a timed wait some 70-150 us late;
    :meth:`SocketNode._step` sleeps short of a timer and polls the rest.
    """

    def select(self, timeout: Optional[float] = None):
        if timeout is not None and timeout > 0:
            select.select((self.fileno(),), (), (), timeout)
            timeout = 0
        return super().select(timeout)


def _new_selector() -> selectors.BaseSelector:
    """A selector with exact timed waits, or the default where that cannot be had:
    the default selector is not epoll (kqueue already has the resolution) or
    the epoll fd is >= ``FD_SETSIZE``, which ``select()`` refuses with ValueError.
    """
    if selectors.DefaultSelector is selectors.EpollSelector:
        selector = _ExactEpollSelector()
        try:
            select.select((selector.fileno(),), (), (), 0)
        except ValueError:
            selector.close()
        else:
            return selector
    return selectors.DefaultSelector()


def handshake_frame(source: str, target: str, kind=None, resync=False) -> bytes:
    """The control frame that opens a cluster connection, and the one that answers it.

    ``source``/``target`` name the two ends and the wire fields let each
    check the other's revision.  Optional: ``kind`` (a broker or a client
    dials a cluster broker), ``resync`` (the acceptor is to re-advertise from
    scratch).
    """
    handshake = {"source": source, "target": target, **wire.handshake_fields()}
    optional = {"kind": kind, "resync": resync}
    handshake.update((key, value) for key, value in optional.items() if value)
    return wire.frame(wire.encode_control(handshake))


class SocketEndpoint(LinkEndpoint):
    """One direction of a link carried by a socket: frame, buffer, one write per burst.

    ``transmit`` serializes to length-prefixed binary wire frames for the
    node's send path; a :class:`_Connection` hands what arrives to :meth:`receive`,
    sent by ``peer``: a frame names no sender, the link does.
    Per-direction FIFO is TCP's.  Serialising endpoints share fan-out
    messages, so a broker hop reuses one pre-encoded frame across every
    destination link.  A node that reads this direction itself (asyncio's
    endpoint) also holds each immutable payload's body in its memo as it
    frames it.  Runtime policy: :meth:`_admit`, :meth:`receive`,
    :meth:`lost`.
    """

    shares_fanout = True

    def __init__(self, node: "SocketNode", peer: str, stats: Optional[LinkStats] = None):
        self.node = node
        #: the process at the other end: the sender of all that arrives here
        self.peer = peer
        self.stats = stats if stats is not None else LinkStats()
        #: the connection this direction is written on (None until open, and
        #: once either end of it died)
        self._writer: Optional[_Connection] = None
        #: frames framed but not yet written to the socket (hop-level write
        #: batching)
        self._buffer = bytearray()

    @property
    def is_open(self) -> bool:
        """Whether a frame written now still has a socket to go out on."""
        return self._writer is not None and not self._writer.closing

    def transmit(self, message: Message) -> None:
        if self._admit():
            self.stats.record(message)
            self.node._send_frame(self, wire.frame_message_binary(message))

    def _admit(self) -> bool:
        """Whether a message can be sent now (else: dropped and counted, or raise)."""
        raise NotImplementedError

    def receive(self, message: Message) -> None:
        """Hand over a message that arrived on the direction coming back."""
        raise NotImplementedError

    def lost(self) -> None:
        """The connection died and everything read from it has been handed over."""


class _Connection:
    """One end of a connection, selected and driven by its node's step.

    Every socket role is one of these: both ends of an
    :class:`AsyncioTransport` link and of a cluster control connection (born
    connected: bound to the endpoint that takes what arrives, they read no
    handshake), a cluster dial (``answered`` learns how its handshake
    fared) and a cluster accept (the handshake binds ``inbound``).

    Reading is one ``recv_into`` the node's one ``_inbox`` per readiness
    (a fresh 256 KiB ``bytes`` per read made glibc grow and trim the heap
    top — a page fault per read — or not, by heap layout); :meth:`_read`
    splits and decodes its frames and hands each to ``inbound`` in the same
    callback: a socket delivers at arrival.  The peer ``inbound`` names is
    each message's sender, and each draws its own ``msg_id``.  A body that
    the node decoded already (an earlier hop or delivery) or framed itself
    (an immutable payload sent on an asyncio link) comes out of the node's
    :class:`~repro.net.wire.NotificationMemo`, unparsed.
    :meth:`write` sends at once without blocking and keeps only what the
    kernel refused, in ``unsent``, for when the socket is writable again.
    The peer's EOF, an ``OSError`` or :meth:`close` end in :meth:`_closed`.
    """

    def __init__(
        self,
        node: "SocketNode",
        sock: socket.socket,
        name: str,
        inbound: Optional[SocketEndpoint] = None,
        answered: Optional[Callable[[Optional[BaseException]], None]] = None,
    ):
        self.node = node
        self.sock = sock
        #: the process at this end; a handshake must be addressed to it
        self.name = name
        self.inbound = inbound
        #: a cluster dialler's: called once, with None when the acceptor's
        #: handshake arrives or with the error if the connection closes first
        self.answered = answered
        self.decoder = wire.FrameDecoder()
        #: bound and waiting for no answer: the connection was born connected
        self.saw_handshake = inbound is not None and answered is None
        #: bytes written but refused by the kernel, sent once it takes more
        self.unsent = bytearray()
        #: no longer read, and written only to finish ``unsent``
        self.closing = False
        self._eof = False
        self._fd = sock.fileno()
        #: what the node's selector watches this socket for
        self._events = 0
        #: :meth:`_read` is handing a batch over (a handler may wait in turn)
        self._reading = False
        sock.setblocking(False)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Nagle plus a delayed ACK would hold each drain's last small
            # write back ~25 ms
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        node._connections.add(self)
        self._select(EVENT_READ)

    def _select(self, events: int) -> None:
        """Have the node's selector watch the socket for ``events`` (0: not at all)."""
        if events == self._events:
            return
        selector = self.node._selector
        if not self._events:
            selector.register(self._fd, events, self._on_ready)
        elif not events:
            selector.unregister(self._fd)
        else:
            selector.modify(self._fd, events, self._on_ready)
        self._events = events

    def _on_ready(self, mask: int) -> None:
        if mask & EVENT_READ and not self.closing:
            if self._reading:
                # a wait nested in a handler of this connection's own read:
                # reading on would hand later frames over before the batch's
                # rest, so the socket is not watched until the batch is done
                self._select(self._events & ~EVENT_READ)
            else:
                self._on_readable()
        if mask & EVENT_WRITE and self.unsent:
            self._on_writable()

    # ----------------------------------------------------------------- reading
    def _on_readable(self) -> None:
        node = self.node
        try:
            nbytes = self.sock.recv_into(node._inbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._fail(exc)
            return
        if nbytes:
            # the decoder copies what it keeps, and each body it returns:
            # one buffer per node is safe
            self._read(node._inbox[:nbytes])
        else:
            self.close()  # the peer's EOF: what is unsent still goes out

    def _read(self, data: memoryview) -> None:
        decode_message = wire.decode_message_binary
        memo = self.node._memo
        self._reading = True
        try:
            bodies = self.decoder.feed(data)
            if not self.saw_handshake and bodies:
                self._handshake(bodies.pop(0))
            if bodies:
                receive, peer = self.inbound.receive, self.inbound.peer
                for body in bodies:
                    message = decode_message(body, memo)
                    message.sender = peer
                    message.msg_id = next(_message_ids)
                    receive(message)
        except BaseException as exc:
            self.close()
            if self.saw_handshake:
                raise
            self.node._handshake_refused(exc)
        finally:
            self._reading = False
            if not self._events & EVENT_READ and not self.closing:
                self._select(self._events | EVENT_READ)

    def _handshake(self, body: bytes) -> None:
        node = self.node
        handshake = wire.decode_control(body)
        source, target = handshake.get("source"), handshake.get("target")
        if target != self.name or not isinstance(source, str):
            raise wire.WireError(
                f"handshake from {source!r} for {target!r} arrived at {self.name!r}"
            )
        wire.check_handshake_codec(handshake)
        if self.answered is not None:
            self.saw_handshake = True
            self.answered(None)
            return
        # accepted: the way back is this same socket; answering tells the
        # dialler so and lets it check this end's wire revision in turn
        self.inbound = node._accept(self.name, handshake, self)
        self.write(handshake_frame(self.name, source))
        node._accepted(self.inbound, handshake)
        self.saw_handshake = True

    # ----------------------------------------------------------------- writing
    def write(self, data) -> None:
        """Send ``data`` now; what the kernel refuses goes out when it is writable.

        Dropped once the connection is closing or half-closed: nothing reads
        it there.
        """
        if self.closing or self._eof:
            return
        if self.unsent:
            self.unsent += data
            return
        try:
            sent = self.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self._fail(exc)
            return
        if sent < len(data):
            self.unsent += memoryview(data)[sent:]
            self._select(self._events | EVENT_WRITE)

    def _on_writable(self) -> None:
        try:
            sent = self.sock.send(self.unsent)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._fail(exc)
            return
        del self.unsent[:sent]
        if self.unsent:
            return
        self._select(self._events & ~EVENT_WRITE)
        if self.closing:
            self._lose(None)
        elif self._eof:
            self._shutdown_write()

    def write_eof(self) -> None:
        """Half-close: EOF follows what is unsent, and reading goes on."""
        if self.closing or self._eof:
            return
        self._eof = True
        if not self.unsent:
            self._shutdown_write()

    def _shutdown_write(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            self._fail(exc)

    # ----------------------------------------------------------------- closing
    def close(self) -> None:
        """Stop reading now; the socket closes once what is unsent went out."""
        if self.closing:
            return
        self.closing = True
        self._select(self._events & ~EVENT_READ)
        if not self.unsent:
            self.node._losses.append((self, None))

    def _fail(self, exc: OSError) -> None:
        """The socket failed: what is unsent is lost with it."""
        self._drop()
        self.node._losses.append((self, exc))

    def _lose(self, exc: Optional[BaseException]) -> None:
        if self in self.node._connections:  # else the node closed it already
            self._discard()
            self._closed(exc)

    def _discard(self) -> None:
        """Close the socket at once, leaving what is unread and unsent."""
        self._drop()
        self.sock.close()
        self.node._connections.discard(self)

    def _drop(self) -> None:
        """Stop reading, and forget what is unsent."""
        self.closing = True
        self.unsent.clear()
        self._select(0)

    def _closed(self, exc: Optional[BaseException]) -> None:
        # frames read before the close were delivered as they arrived (a
        # detach's farewell); the direction that arrived here is dead at
        # once, so later transmits are refused, not written into the void
        if self.answered is not None and not self.saw_handshake:
            self.answered(
                exc or ConnectionError(f"{self.name!r}: link closed before its handshake")
            )
        if self.inbound is not None:
            self.inbound._writer = None
            self.inbound.lost()


class SocketNode:
    """One process's socket runtime; every socket backend is an instance of it.

    A node owns a selector whose timed waits are not rounded to the
    millisecond, a :class:`WallClock` whose events fire when due (a wait for
    one sleeps to :attr:`WAKE_MARGIN` short of it and polls the rest), four
    wire instruments, a memo of the link bodies it decoded or framed, and
    the one path a link's frames take: out through
    :meth:`_send_frame` (written when the callback that sent them ends, or
    at the next step after a send from outside one), in through the
    :class:`_Connection` at either end of every socket it holds.  It is
    driven by one :meth:`_step` and waits in one way, :meth:`_wait`.  A
    cross-process connection is opened by :meth:`_dial` and a handshake the
    acceptor answers so each end checks the other's wire revision; a node
    that owns both ends of a connection needs neither, and wraps both the
    moment the sockets exist.  What its callbacks raise is kept for whoever
    drives it.  What a node *hosts* is its subclass's business.
    """

    #: flush threshold for hop-level write batching: a buffered burst is
    #: written out as soon as it reaches this many bytes, so batching never
    #: holds more than one socket write's worth of frames (individual frames
    #: are still bounded by ``wire.MAX_FRAME_SIZE``)
    FLUSH_CAP = 64 * 1024

    #: how long before a clock event a wait stops sleeping and starts
    #: polling: a timed sleep wakes 70-150 us late on Linux, and the event
    #: is due to fire on time
    WAKE_MARGIN = 0.0002

    #: cap on each blocking step of opening a connection (a connect, the
    #: accept that pairs an in-process link), which runs on the node's
    #: thread: it completes from a listener's backlog at once
    PAIR_TIMEOUT = 2.0

    def __init__(self, metrics: MetricsRegistry):
        self._selector = _new_selector()
        self._clock = WallClock(self)
        #: every connection end still open (closed with the node)
        self._connections: "set[_Connection]" = set()
        #: connections that closed or failed, with the error, lost at the next step
        self._losses: List[Tuple[_Connection, Optional[BaseException]]] = []
        #: where every socket read lands (one per node, not per connection:
        #: each attach opens connections and would zero-fill one apiece)
        self._inbox = memoryview(bytearray(256 * 1024))
        #: endpoints holding buffered frames, flushed when the running
        #: callback ends or, after a send from outside one, by the next step
        self._dirty: "set[SocketEndpoint]" = set()
        self._pending_error: Optional[BaseException] = None
        self._closed = False
        self.metrics = metrics
        # instrument references cached so the send path pays no dict probes
        self._frames_sent = metrics.counter("transport.frames_sent")
        self._bytes_sent = metrics.counter("transport.bytes_sent")
        self._write_bytes = metrics.histogram("transport.socket_write_bytes")
        #: the link bodies carrying an immutable record this node decoded or
        #: framed, each parsed at most once; the counter counts every parse skipped
        self._memo = wire.NotificationMemo(metrics.counter("transport.notifications_reused"))

    @property
    def clock(self) -> WallClock:
        return self._clock

    # --------------------------------------------------------------- callbacks
    def _run_callback(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run one of this node's callbacks: a fired timer, a readiness, a loss.

        What the callback raised is recorded and the frames it sent are
        written out now, not a step later.
        """
        try:
            callback(*args)
        except BaseException as exc:
            self._record_error(exc)
        finally:
            self._flush_dirty()

    def _record_error(self, exc: BaseException) -> None:
        """Keep the first error for the driver to raise, as on the simulator."""
        if self._pending_error is None:
            self._pending_error = exc

    def _handshake_refused(self, exc: BaseException) -> None:
        """A connection was aborted before it was bound to a link."""
        self._record_error(exc)

    def _raise_pending_error(self) -> None:
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            raise error

    def _require_open(self) -> None:
        if self._closed:
            raise TransportError("transport is closed")

    # ------------------------------------------------------------- connections
    def _dial(
        self,
        address: Tuple[str, int],
        inbound: SocketEndpoint,
        source: str,
        target: str,
        answered: Callable[[Optional[BaseException]], None],
        **fields,
    ) -> _Connection:
        """Connect to ``address`` and open a link from ``source`` to ``target``.

        The connect blocks, up to :attr:`PAIR_TIMEOUT`: every address dialled
        is a listener the cluster parent holds, so it completes from the
        backlog.  Returns the connection once the handshake (``fields``: see
        :func:`handshake_frame`) is written: it is the way out, and
        ``answered`` learns how the acceptor answered.
        """
        host, port = address
        sock = socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET)
        try:
            sock.settimeout(self.PAIR_TIMEOUT)
            sock.connect((host, port))
        except BaseException:
            sock.close()
            raise
        connection = _Connection(self, sock, source, inbound, answered)
        connection.write(handshake_frame(source, target, **fields))
        return connection

    def _accept(self, name: str, handshake: Dict[str, Any], connection) -> SocketEndpoint:
        """Bind a connection addressed to ``name``: the endpoint that takes what
        arrives on it.  Raising refuses it — closed without an answer."""
        raise NotImplementedError

    def _accepted(self, inbound: SocketEndpoint, handshake: Dict[str, Any]) -> None:
        """The acceptance was answered; the way back may be used from here on."""

    def _close_connections(self) -> None:
        """Close every connection this node still holds, at once: it is closing."""
        for connection in list(self._connections):
            connection._discard()

    def _unsent_bytes(self) -> int:
        """What the kernel refused so far and the connections still hold."""
        return sum(len(connection.unsent) for connection in self._connections)

    # ----------------------------------------------------------------- sending
    def _send_frame(self, endpoint: SocketEndpoint, frame: bytes) -> None:
        self._frames_sent.inc()
        self._bytes_sent.inc(len(frame))
        # hop-level batching: coalesce the dispatch burst into one socket write
        buffer = endpoint._buffer
        buffer += frame
        if len(buffer) >= self.FLUSH_CAP:
            self._flush_endpoint(endpoint)
            return
        self._dirty.add(endpoint)

    def _flush_endpoint(self, endpoint: SocketEndpoint) -> None:
        """Write an endpoint's buffered frames out in a single socket write."""
        buffer = endpoint._buffer
        if buffer:
            if endpoint._writer is not None:
                # what was buffered for a connection that died meanwhile just drops
                endpoint._writer.write(buffer)
                self._write_bytes.observe(len(buffer))
            buffer.clear()
        self._dirty.discard(endpoint)

    def _flush_dirty(self) -> None:
        """Flush every buffering endpoint."""
        dirty = self._dirty
        if dirty:
            self._dirty = set()
            for endpoint in dirty:
                self._flush_endpoint(endpoint)

    # ----------------------------------------------------------------- driving
    def _step(self, deadline: Optional[float] = None) -> None:
        """One turn: write what was sent from outside a callback, wait for
        I/O, dispatch every readiness, fire all that is due by now, and lose
        the connections that closed.

        The wait does not block when something is lost.  When it ends at
        ``deadline`` (or at nothing) it is one select.  When it ends at the
        clock's next event, it sleeps to :attr:`WAKE_MARGIN` short of it and
        polls from there, so the event fires when due and what arrives
        meanwhile is served at once.
        """
        self._flush_dirty()
        clock, select = self._clock, self._selector.select
        due = clock.next_due
        if self._losses:
            events = select(0.0)
        elif due is None or (deadline is not None and deadline < due):
            events = select(None if deadline is None else max(0.0, deadline - clock.now))
        else:
            events = select(max(0.0, due - self.WAKE_MARGIN - clock.now))
            while not events and clock.now < due:
                events = select(0.0)
        for key, mask in events:
            self._run_callback(key.data, mask)
        clock.fire_due(self._run_callback)
        while self._losses:
            losses, self._losses = self._losses, []
            for connection, exc in losses:
                self._run_callback(connection._lose, exc)

    def _wait(self, done: Callable[[], bool], deadline: Optional[float] = None) -> bool:
        """Step until ``done()`` holds or the clock reaches ``deadline``; whether it holds.

        The one way a node waits (for quiescence, a reply, a dial's answer, a
        child's readiness, or time).  The first step waits for nothing, so
        what is ready is served even if ``done()`` holds.  A callback may
        wait in turn (an attach from a timer): the steps nest.
        """
        clock = self._clock
        self._step(clock.now)
        while not done():
            if deadline is not None and clock.now >= deadline:
                return False
            self._step(deadline)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Step; with ``until``, up to that (absolute) clock time or an error.

        Driving by time is how connections from outside peers get served:
        their bytes are not work :meth:`run_until_idle` counts.
        """
        self._require_open()
        if until is None:
            return self.run_until_idle()
        self._wait(lambda: self._pending_error is not None, until)
        self._raise_pending_error()
        return self._clock.now


# -------------------------------------------------------------------- asyncio


class _AsyncioDirectedEndpoint(SocketEndpoint):
    """One direction of an :class:`AsyncioLink`; both of its ends live on this node.

    A link that is down drops and counts the drop, a dead connection
    refuses loudly, and every frame counts as in flight from the send until
    the target handled it.  The node that frames a body here is the node
    that reads it, so a payload of an immutable record type (``Notification``,
    ``Subscription``) goes into its memo as it is framed: the reading end
    hands the sender's object over unparsed, as the simulator does.  Any
    other payload (a dict, a ``ClientHello``, a handover record) is mutable
    and parsed, so each receiver gets its own.
    """

    def __init__(self, link: "AsyncioLink", source: Process, target: Process):
        super().__init__(link.transport, source.name)
        self.link = link
        self.source = source
        self.target = target
        #: frames written but not yet handed to the target process; lets the
        #: transport reconcile its in-flight counter if the connection dies
        self.undelivered = 0

    def transmit(self, message: Message) -> None:
        if self._admit():
            self.stats.record(message)
            framed = wire.frame_message_binary(message)
            payload = message.payload
            record = wire._BY_CLASS.get(payload.__class__)  # loaded: the payload was framed
            # an immutable record, not a subclass (which the reader decodes as its base)
            if record is not None and record.cached and record.cls is payload.__class__:
                body, memo = framed[4:], self.node._memo
                if body not in memo:
                    memo.hold(body, message.kind, payload, message.meta)
            self.node._send_frame(self, framed)

    def _admit(self) -> bool:
        if not self.link.up:
            self.stats.record_drop()
            return False
        if self._writer is None:  # refused before any accounting: it was never sent
            raise TransportError("link endpoint is not connected")
        return True

    def receive(self, message: Message) -> None:
        try:
            self.target.deliver(message)
        finally:
            self.node._inflight -= 1
            self.undelivered -= 1

    def lost(self) -> None:
        """Forget frames counted towards the dead connection: they will never
        arrive, and a later drain must not wait out its timeout on a ghost."""
        self.node._inflight -= self.undelivered
        self.undelivered = 0


class AsyncioLink(LinkSurface):
    """A bidirectional link carried by one duplex localhost TCP connection.

    The transport pairs the connection's two sockets, one for ``a`` and one
    for ``b``; each end writes its direction on the socket it reads the other
    on.  A frame is delivered when it arrives: the wire sets the time, so the
    link applies no latency of its own.  ``disconnect`` tears the link down
    logically; the TCP connection stays for ``reconnect``.
    """

    #: simulated seconds this link adds (none: see ``Transport.make_link``)
    latency = 0.0

    def __init__(self, transport: "AsyncioTransport", a: Process, b: Process):
        self.transport = transport
        self.a = a
        self.b = b
        self.up = True
        self._a_to_b = _AsyncioDirectedEndpoint(self, a, b)
        self._b_to_a = _AsyncioDirectedEndpoint(self, b, a)

    def _close_writers(self) -> None:
        """The hard kill: both ends stop reading at once (see ``close_dynamic_link``)."""
        for endpoint in (self._a_to_b, self._b_to_a):
            if endpoint._writer is not None:
                endpoint._writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"AsyncioLink({self.a.name}<->{self.b.name}, {state})"


class AsyncioTransport(SocketNode, Transport):
    """Real TCP sockets on localhost: N processes on one :class:`SocketNode`.

    (It keeps the name ``"asyncio"`` that configs and the cost ledger select
    it by.)  A link is one duplex TCP connection carrying one
    length-prefixed wire frame per message.  The transport owns both of its
    ends, so a link is born connected: one blocking loopback connect to the
    transport's own listening socket, and the accept that returns it, pair
    the two sockets (:meth:`_pair`); no process has a server and no
    handshake is exchanged.  :meth:`make_link` wraps both ends and attaches
    them before it returns, from inside a callback (a wireless attach
    completing in a scheduled one) as from outside one.

    The stack above stays synchronous: sends buffer onto the socket and the
    node only steps while the transport is *driven*
    (:meth:`run`/:meth:`run_until_idle`), which keeps the programming model
    identical to the simulator — build, publish, then run to quiescence.
    Quiescence is exact, not heuristic: because both ends of every link live
    here, every frame written increments an in-flight counter that is only
    decremented after the receiving process finished handling the message,
    and every clock event is counted until it has run.
    :meth:`run_until_idle` steps until both read zero, so a drain costs
    what the traffic costs and an idle transport returns at once.
    """

    name = "asyncio"
    supports_mobility = True

    #: default cap on run_until_idle, so a routing bug cannot hang a test run
    DEFAULT_IDLE_TIMEOUT = 30.0

    def __init__(self, host: str = "127.0.0.1", config=None):
        Transport.__init__(self, config)
        SocketNode.__init__(self, MetricsRegistry(enabled=self.system_config.metrics))
        self.host = host
        self._processes: Dict[str, Process] = {}
        #: where every link's connection is accepted (opened with the first link)
        self._listener: Optional[socket.socket] = None
        self._inflight = 0
        self.links: List[AsyncioLink] = []

    # ------------------------------------------------------------------ wiring
    def make_link(self, a: Process, b: Process, latency: float = 0.001) -> AsyncioLink:
        self._require_open()
        self._register(a)
        self._register(b)
        dialled, accepted = self._pair()
        link = AsyncioLink(self, a, b)
        link._a_to_b._writer = _Connection(self, dialled, a.name, link._b_to_a)
        link._b_to_a._writer = _Connection(self, accepted, b.name, link._a_to_b)
        a.attach_link(b.name, link._a_to_b)
        b.attach_link(a.name, link._b_to_a)
        self.links.append(link)
        return link

    def close_dynamic_link(self, link: AsyncioLink) -> None:
        """Close the TCP connection of a torn-down wireless link.

        Graceful, by half-close: each end flushes what it wrote (a
        ``client_leaving`` farewell) and sends EOF, but keeps *reading* until
        the peer's EOF arrives, at which the socket closes itself — ``close()``
        here would discard what the other end has just sent.  The link is
        also dropped from the transport's registry so a long roaming run
        (thousands of attach/detach cycles) does not accumulate dead links;
        connections already serving the link hold their own reference.
        """
        for endpoint in (link._a_to_b, link._b_to_a):
            self._flush_endpoint(endpoint)
            if endpoint._writer is not None:
                endpoint._writer.write_eof()
        try:
            self.links.remove(link)
        except ValueError:
            pass

    def _register(self, process: Process) -> None:
        known = self._processes.setdefault(process.name, process)
        if known is not process:
            raise TransportError(f"duplicate process name {process.name!r} on this transport")

    def _pair(self) -> Tuple[socket.socket, socket.socket]:
        """The two ends of a new connection: dialled end first, accepted end second.

        The only accept in this transport, and the one place that checks a
        peer: a connection whose address is not the dialler's own was made
        by a stranger, and is closed unread.  The connect goes straight to
        the listener's address, with no name lookup.

        A step that times out means strangers fill the accept queue (and may
        have hung up there, where no accept drains them, since only a pairing
        whose connect succeeded accepts): the listener is replaced by a fresh
        one, whose address no stranger holds, and the pairing is tried once
        more.
        """
        listener = self._listener
        if listener is None:
            listener = self._listen()
        try:
            return self._connect_and_accept(listener)
        except TimeoutError:
            listener.close()
            self._listener = None
            return self._connect_and_accept(self._listen())

    def _listen(self) -> socket.socket:
        """Open the transport's one listener (with the first link, or anew)."""
        listener = socket.socket(socket.AF_INET6 if ":" in self.host else socket.AF_INET)
        listener.settimeout(self.PAIR_TIMEOUT)
        listener.bind((self.host, 0))
        listener.listen()
        self._listener = listener
        return listener

    def _connect_and_accept(
        self, listener: socket.socket
    ) -> Tuple[socket.socket, socket.socket]:
        dialled = socket.socket(listener.family)
        try:
            dialled.settimeout(self.PAIR_TIMEOUT)
            dialled.connect(listener.getsockname())
            own = dialled.getsockname()
            while True:
                accepted, peer = listener.accept()
                if peer == own:
                    return dialled, accepted
                accepted.close()
        except BaseException:
            dialled.close()
            raise

    # ----------------------------------------------------------------- sending
    def _send_frame(self, endpoint: SocketEndpoint, frame: bytes) -> None:
        # in-flight accounting happens at buffer time, so run_until_idle
        # cannot declare the system idle before the flush
        self._inflight += 1
        endpoint.undelivered += 1
        super()._send_frame(endpoint, frame)

    # ----------------------------------------------------------------- driving
    def run_until_idle(self, timeout: Optional[float] = None) -> float:
        """Step until no in-flight frames or pending clock events remain.

        Returns at once when that already holds.  Bytes arriving on a
        connection the transport did not open are not counted work — drive
        by time (``run(until=...)``) to serve outside peers.
        """
        self._require_open()
        timeout = timeout if timeout is not None else self.DEFAULT_IDLE_TIMEOUT
        if not self._wait(self._is_idle, self._clock.now + timeout):
            raise TransportError(
                f"run_until_idle timed out after {timeout}s "
                f"({self._inflight} frames in flight, "
                f"{self._clock.pending} timers pending)"
            )
        self._raise_pending_error()
        return self._clock.now

    def _is_idle(self) -> bool:
        """Nothing counted remains — or an error is waiting to be raised."""
        return self._pending_error is not None or (
            self._inflight == 0 and self._clock.pending == 0
        )

    def resource_sizes(self) -> Dict[str, int]:
        """Live socket resources; handover/fault churn must not grow them.

        ``open_writers`` counts the directed endpoints whose end of the
        link's connection is still open: two per link, one socket each
        (``links`` counts the connections).  ``buffered_bytes`` is what
        waits for the end of a dispatch burst, ``unsent_bytes`` what the
        kernel refused so far and the connections hold.
        """
        endpoints = [e for link in self.links for e in (link._a_to_b, link._b_to_a)]
        return {
            "links": len(self.links),
            "listeners": int(self._listener is not None),
            "pending_timers": self._clock.pending,
            "open_writers": sum(e.is_open for e in endpoints),
            "inflight_frames": self._inflight,
            "buffered_bytes": sum(len(e._buffer) for e in endpoints),
            "unsent_bytes": self._unsent_bytes(),
        }

    # ----------------------------------------------------------------- closing
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_connections()
        self._selector.close()
        if self._listener is not None:
            self._listener.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._processes)} processes"
        return f"AsyncioTransport({state})"


# -------------------------------------------------------------------- factory

def make_transport(config) -> Transport:
    """Build the backend ``config.transport`` names, configured by ``config``.

    Every backend owns its clock: the ``"sim"`` backend a fresh
    :class:`~repro.net.simulator.Simulator`, the socket backends a
    :class:`WallClock`.
    """
    if config.transport == "sim":
        return SimTransport(config=config)
    if config.transport == "asyncio":
        return AsyncioTransport(config=config)
    from .cluster import ClusterTransport  # lazy: avoid a subprocess import cycle

    return ClusterTransport(config=config)
