"""Pluggable transport backends: deterministic simulator or real sockets.

PRs 1–2 ran the whole pub/sub stack on a single deterministic discrete-event
simulator.  That was the right substrate for reproducing the paper's
algorithms, but it hard-wired the *algorithm* (brokers, routing, mobility) to
the *substrate* (the simulator's event queue).  This module separates the
two: a :class:`Transport` owns link construction, message movement and time,
and everything above (``Process.send``, link FIFO semantics,
connect/disconnect events, latency, message and kind counts) goes through it.

Three interchangeable backends:

* :class:`SimTransport` (default) — the existing simulator, behaviour
  byte-identical to the pre-refactor substrate (enforced by the golden-trace
  cross-check in ``tests/test_transport.py``, the way the ``matcher``
  choices and the scan advertising oracle are cross-checked).
* :class:`AsyncioTransport` — a link is one duplex localhost TCP connection
  carrying length-prefixed binary wire frames (:mod:`repro.net.wire`) both
  ways; the transport owns both ends, so it pairs them itself with one
  loopback connect to its own listener.  Per-direction FIFO comes from TCP
  itself; time is the event loop's monotonic clock.  Runs are *not*
  deterministic — that is the point: this is the deployment shape of the
  paper's original REBECA testbed (broker processes talking over sockets).
* :class:`~repro.net.cluster.ClusterTransport` (``transport="cluster"``) —
  every *broker* runs in its own spawned OS process, serving on a listening
  socket the parent bound before spawning it and holds, so every address is
  known before any child runs; same wire frames, one duplex TCP connection
  per link, real multi-core scale-out past the single-process GIL ceiling.

Every backend exposes the same clock surface (``now``/``schedule``/``run``/
``run_until_idle``), so processes keep their ``self.sim`` attribute and the
pubsub layer runs unchanged on any substrate.

The two socket backends are one runtime, :class:`SocketNode`:
``AsyncioTransport`` is "N processes on one node", a cluster broker child
"one broker plus a control connection", the cluster parent "the clients
plus the control connections, dial-only".  What differs is policy, kept in
their own endpoint classes, and how a connection comes to exist: cluster
links cross OS processes, so their ends meet by a dial and a handshake that
checks the peer's wire revision; an ``AsyncioTransport`` link, like a
cluster control connection, is born connected.

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
                                                         is a real TCP conn
                                                         opened per attach)
===========================  ==========================  ====================

(The cluster backend supports the plain pub/sub layer only; its broker
topology freezes at boot, so it cannot host the dynamically attaching
wireless links the mobility layer needs.)
"""

from __future__ import annotations

import asyncio
import select
import selectors
import socket
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from . import wire
from .link import Link, LinkStats
from .process import LinkEndpoint, Message, Process
from .simulator import SimulationError, Simulator

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
    #: this backend.  Requires dynamic link support: links that can be opened
    #: and torn down *while the substrate is running* (a wireless attach),
    #: not just wired up at build time.  Backends opt in explicitly.
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
    def open_dynamic_link(
        self,
        a: Process,
        b: Process,
        latency: float = 0.001,
        ready: Optional[Callable[[Any], None]] = None,
    ):
        """Create a link *at runtime* — the substrate half of a wireless attach.

        Unlike :meth:`make_link` (build-time wiring), this may be called from
        inside a running substrate (a scheduled attach completion), so
        backends with asynchronous connection setup establish the link in the
        background.  ``ready(link)`` fires exactly once, after both endpoints
        are attached and traffic can flow; until then the link must not be
        used.  The returned link is the same object ``ready`` receives.

        The default implementation is synchronous (correct for the
        simulator): create the link and call ``ready`` immediately.
        """
        link = self.make_link(a, b, latency=latency)
        if ready is not None:
            ready(link)
        return link

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
        broker's ``matcher`` and ``metrics`` come from :attr:`system_config`,
        read once, here.
        """
        from ..pubsub.broker import Broker  # lazy: net/ stays importable alone

        config = self.system_config
        broker = Broker(
            self.clock,
            name,
            routing=routing,
            matcher=config.matcher,
            metrics=MetricsRegistry(enabled=config.metrics),
        )
        self.brokers[name] = broker
        return broker

    def close(self) -> None:
        """Release substrate resources (sockets, event loops).  Idempotent."""

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


class _ClockHandle:
    """Cancellation handle for :meth:`AsyncioClock.schedule` (EventHandle-shaped)."""

    __slots__ = ("cancelled", "executed", "_timer", "_clock")

    def __init__(self, clock: "AsyncioClock"):
        self.cancelled = False
        self.executed = False
        self._timer: Optional[asyncio.TimerHandle] = None
        self._clock = clock

    def cancel(self) -> None:
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self._timer is not None:
            self._timer.cancel()
        self._clock.pending_timers -= 1


class AsyncioClock:
    """Simulator-compatible scheduling surface over a :class:`SocketNode`'s loop.

    ``now`` is monotonic wall time since the node started, so delivery
    latencies measured against it are real end-to-end latencies.  Scheduled
    callbacks only fire while the node is being driven (``run`` /
    ``run_until_idle``), mirroring how simulator events only fire inside
    ``Simulator.run``; a due callback runs as one of the node's own loop
    callbacks (:meth:`SocketNode._run_callback`).
    """

    def __init__(self, node: "SocketNode"):
        self._node = node
        self._loop = node._loop
        self._t0 = self._loop.time()
        #: scheduled-but-not-yet-fired callbacks; part of the idle condition
        self.pending_timers = 0

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> _ClockHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        handle = _ClockHandle(self)
        self.pending_timers += 1

        def fire() -> None:
            handle.executed = True
            self.pending_timers -= 1
            self._node._run_callback(callback, *args)

        handle._timer = self._loop.call_later(delay, fire)
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> _ClockHandle:
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, which is before now={now:.6f}"
            )
        return self.schedule(time - now, callback, *args)

    def call_now(self, callback: Callable[..., Any], *args: Any) -> _ClockHandle:
        return self.schedule(0.0, callback, *args)

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        return self._node.run(until=until)

    def run_until_idle(self, max_events: int = 0) -> float:
        return self._node.run_until_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncioClock(now={self.now:.3f}, pending_timers={self.pending_timers})"


class _ExactEpollSelector(selectors.EpollSelector):
    """An epoll selector whose timed waits end when they are due.

    The stock one rounds a positive timeout *up* to a whole millisecond (a
    timer due in 0.3 ms fires after 1 ms).  ``select()`` takes microseconds
    and an epoll fd is readable exactly when it has events: wait on the epoll
    fd (I/O still ends the wait at once), then collect without blocking.
    """

    def select(self, timeout: Optional[float] = None):
        if timeout is not None and timeout > 0:
            select.select((self.fileno(),), (), (), timeout)
            timeout = 0
        return super().select(timeout)


def _new_event_loop() -> asyncio.AbstractEventLoop:
    """A loop with exact timer waits, or the stock loop where that cannot be had:
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
            return asyncio.SelectorEventLoop(selector)
    return asyncio.new_event_loop()


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
    node's send path; a :class:`_Receiver` hands what arrives to :meth:`receive`.
    Per-direction FIFO is TCP's.  Serialising endpoints share fan-out
    messages, so a broker hop reuses one pre-encoded frame across every
    destination link.  Runtime policy: :meth:`_admit`, :meth:`receive`,
    :meth:`lost`.
    """

    shares_fanout = True

    def __init__(self, node: "SocketNode", stats: Optional[LinkStats] = None):
        self.node = node
        self.stats = stats if stats is not None else LinkStats()
        #: the socket this direction is written on (None until open, and once
        #: either end of its connection died)
        self._writer: Optional[asyncio.WriteTransport] = None
        #: frames framed but not yet written to the socket (hop-level write
        #: batching)
        self._buffer = bytearray()

    @property
    def is_open(self) -> bool:
        """Whether a frame written now still has a socket to go out on."""
        return self._writer is not None and not self._writer.is_closing()

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


class _Receiver(asyncio.BufferedProtocol):
    """The reading side of one end of a link's connection.

    A cluster server creates one per accepted connection (the handshake
    binds ``inbound``, the endpoint that takes what arrives); a cluster
    dialler passes one, already bound, as its own protocol (``acked`` is its
    future for the acceptor's answer); an :class:`AsyncioTransport` wraps
    each end of a link it paired (the cluster, each end of a control
    connection) in one already bound and waiting for nothing, which reads
    no handshake.  One loop callback per read: the
    socket reads into the node's one ``_inbox`` (a fresh 256 KiB ``bytes``
    per read made glibc grow and trim the heap top — a page fault per read —
    or not, by heap layout); ``buffer_updated`` splits and decodes its
    frames and hands each to ``inbound`` at once: a socket delivers at
    arrival.
    """

    def __init__(
        self,
        node: "SocketNode",
        name: str,
        inbound: Optional[SocketEndpoint] = None,
        acked: Optional[asyncio.Future] = None,
    ):
        self.node = node
        #: the process at this end; a handshake must be addressed to it
        self.name = name
        self.inbound = inbound
        #: a cluster dialler's wait for the acceptor's handshake (None otherwise)
        self.acked = acked
        self.decoder = wire.FrameDecoder()
        #: bound and waiting for no answer: the link was born connected
        self.saw_handshake = inbound is not None and acked is None
        self.sock: Optional[asyncio.BaseTransport] = None

    def connection_made(self, sock: asyncio.BaseTransport) -> None:
        self.sock = sock
        self.node._receivers.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.node._inbox

    def buffer_updated(self, nbytes: int) -> None:
        # the decoder copies what it keeps, and get_buffer -> recv_into -> here
        # is one synchronous loop callback: one buffer per node is safe
        self.node._run_callback(self._read, self.node._inbox[:nbytes])

    def _read(self, data: memoryview) -> None:
        decode_message = wire.decode_message_binary
        try:
            bodies = self.decoder.feed(data)
            if not self.saw_handshake and bodies:
                self._handshake(bodies.pop(0))
            if bodies:
                receive = self.inbound.receive
                for body in bodies:
                    receive(decode_message(body))
        except BaseException as exc:
            self._abort()
            if self.saw_handshake:
                raise
            self.node._handshake_refused(exc)

    def _handshake(self, body: bytes) -> None:
        node = self.node
        handshake = wire.decode_control(body)
        source, target = handshake.get("source"), handshake.get("target")
        if target != self.name or not isinstance(source, str):
            raise wire.WireError(
                f"handshake from {source!r} for {target!r} arrived at {self.name!r}"
            )
        wire.check_handshake_codec(handshake)
        if self.acked is not None:
            self.acked.set_result(None)
        else:
            # accepted: the way back is this same socket; answering tells the
            # dialler so and lets it check this end's wire revision in turn
            self.inbound = node._accept(self.name, handshake, self.sock)
            self.sock.write(handshake_frame(self.name, source))
            node._accepted(self.inbound, handshake)
        self.saw_handshake = True

    def _abort(self) -> None:
        """End the connection now (a refused handshake, a decode or handler
        failure, or the node closing)."""
        self.sock.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.node._run_callback(self._closed, exc)

    def _closed(self, exc: Optional[BaseException]) -> None:
        # frames read before the close were delivered as they arrived (a
        # detach's farewell); the direction that arrived here is dead at
        # once, so later transmits are refused, not written into the void
        self.node._receivers.discard(self)
        if self.acked is not None and not self.acked.done():
            self.acked.set_exception(
                exc or ConnectionError(f"{self.name!r}: link closed before its handshake")
            )
        if self.inbound is not None:
            self.inbound._writer = None
            self.inbound.lost()


class SocketNode:
    """One process's socket runtime; every socket backend is an instance of it.

    A node owns a loop whose timers fire when due, an :class:`AsyncioClock`
    on it, three wire instruments, and the one path a link's frames take:
    out through :meth:`_send_frame` (written when the loop callback that
    sent them ends, or one loop turn after a send from outside one), in
    through a :class:`_Receiver` per connection.  A cross-process connection
    is opened by :meth:`_dial` and a handshake the acceptor answers so each
    end checks the other's wire revision; a node that owns both ends of a
    connection needs neither.  What its callbacks raise is kept for whoever
    drives it.  What a node *hosts* is its subclass's business.
    """

    #: flush threshold for hop-level write batching: a buffered burst is
    #: written out as soon as it reaches this many bytes, so batching never
    #: holds more than one socket write's worth of frames (individual frames
    #: are still bounded by ``wire.MAX_FRAME_SIZE``)
    FLUSH_CAP = 64 * 1024

    def __init__(self, metrics: MetricsRegistry):
        self._loop = _new_event_loop()
        self._clock = AsyncioClock(self)
        #: the reading side of every connection still open (aborted on close)
        self._receivers: "set[_Receiver]" = set()
        #: where every socket read lands (one per node, not per connection:
        #: each attach opens connections and would zero-fill one apiece)
        self._inbox = memoryview(bytearray(256 * 1024))
        #: endpoints holding buffered frames, flushed in one scheduled pass
        self._dirty: "set[SocketEndpoint]" = set()
        #: a flush is already coming: one handed to ``call_soon`` by a send
        #: from outside the loop, or the end of the running :meth:`_run_callback`
        self._flush_scheduled = False
        self._pending_error: Optional[BaseException] = None
        self._closed = False
        self.metrics = metrics
        # instrument references cached so the send path pays no dict probes
        self._frames_sent = metrics.counter("transport.frames_sent")
        self._bytes_sent = metrics.counter("transport.bytes_sent")
        self._write_bytes = metrics.histogram("transport.socket_write_bytes")

    @property
    def clock(self) -> AsyncioClock:
        return self._clock

    # --------------------------------------------------------------- callbacks
    def _run_callback(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run the body of one of this node's own loop callbacks.

        A read, a fired timer and a closed connection all
        end the same way: what the body raised is recorded, the frames it
        sent are written out now (not a loop turn later) and a parked drain
        is released if idle.
        """
        self._flush_scheduled = True
        try:
            callback(*args)
        except BaseException as exc:
            self._record_error(exc)
        finally:
            self._flush_dirty()
            self._wake_if_idle()

    def _record_error(self, exc: BaseException) -> None:
        """Keep the first error for the driver to raise, as on the simulator."""
        if self._pending_error is None:
            self._pending_error = exc

    def _handshake_refused(self, exc: BaseException) -> None:
        """A connection was aborted before it was bound to a link."""
        self._record_error(exc)

    def _wake_if_idle(self) -> None:
        """A callback ended (the asyncio backend's drain waits on that)."""

    def _raise_pending_error(self) -> None:
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            raise error

    def _require_open(self) -> None:
        if self._closed:
            raise TransportError("transport is closed")

    # ------------------------------------------------------------- connections
    async def _dial(
        self, address: Tuple[str, int], inbound: SocketEndpoint, source: str, target: str, **fields
    ) -> _Receiver:
        """Connect to ``address`` and open a link from ``source`` to ``target``.

        Returns the receiver once the handshake (``fields``: see
        :func:`handshake_frame`) is written: ``sock`` is the way out, ``acked``
        resolves with the acceptor's answer or fails if the connection dies.
        """
        receiver = _Receiver(self, source, inbound, acked=self._loop.create_future())
        sock, _ = await self._loop.create_connection(lambda: receiver, *address)
        sock.write(handshake_frame(source, target, **fields))
        return receiver

    def _accept(self, name: str, handshake: Dict[str, Any], sock) -> SocketEndpoint:
        """Bind a connection addressed to ``name``: the endpoint that takes what
        arrives on it.  Raising refuses it — closed without an answer."""
        raise NotImplementedError

    def _accepted(self, inbound: SocketEndpoint, handshake: Dict[str, Any]) -> None:
        """The acceptance was answered; the way back may be used from here on."""

    def _close_connections(self) -> None:
        """Abort every connection this node still holds."""
        for receiver in list(self._receivers):
            receiver._abort()

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
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_dirty)

    def _flush_endpoint(self, endpoint: SocketEndpoint) -> None:
        """Write an endpoint's buffered frames out in a single socket write."""
        buffer = endpoint._buffer
        if buffer:
            if endpoint._writer is not None:
                # what was buffered for a connection that died meanwhile just drops
                endpoint._writer.write(bytes(buffer))
                self._write_bytes.observe(len(buffer))
            buffer.clear()
        self._dirty.discard(endpoint)

    def _flush_dirty(self) -> None:
        """Flush every buffering endpoint: as a callback of the node ends,
        or one loop turn after a send from outside them."""
        self._flush_scheduled = False
        dirty = self._dirty
        if dirty:
            self._dirty = set()
            for endpoint in dirty:
                self._flush_endpoint(endpoint)

    # ----------------------------------------------------------------- driving
    def run(self, until: Optional[float] = None) -> float:
        """Spin the event loop; with ``until``, up to that (absolute) clock time.

        Driving by time is how connections from outside peers get served:
        their bytes are not work :meth:`run_until_idle` counts.
        """
        self._require_open()
        if until is None:
            return self.run_until_idle()
        delay = until - self._clock.now
        if delay > 0:
            self._loop.run_until_complete(asyncio.sleep(delay))
        self._raise_pending_error()
        return self._clock.now


# -------------------------------------------------------------------- asyncio


class _AsyncioDirectedEndpoint(SocketEndpoint):
    """One direction of an :class:`AsyncioLink`; both of its ends live on this node.

    A link that is down drops and counts the drop, a dead connection
    refuses loudly, and every frame counts as in flight from the send until
    the target handled it.
    """

    def __init__(self, link: "AsyncioLink", source: Process, target: Process):
        super().__init__(link.transport)
        self.link = link
        self.source = source
        self.target = target
        #: frames written but not yet handed to the target process; lets the
        #: transport reconcile its in-flight counter if the connection dies
        self.undelivered = 0

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


class AsyncioLink:
    """A bidirectional link carried by one duplex localhost TCP connection.

    The transport pairs the connection's two sockets, one for ``a`` and one
    for ``b``; each end writes its direction on the socket it reads the other
    on.  Mirrors the :class:`~repro.net.link.Link` surface.  A frame is
    delivered when it arrives: the wire sets the time, so the link applies
    no latency of its own.
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

    # ------------------------------------------------------------------ state
    def set_up(self, up: bool) -> None:
        self.up = up

    def disconnect(self) -> None:
        """Tear the link down logically; the TCP connection stays for ``reconnect``."""
        self.up = False
        self.a.detach_link(self.b.name)
        self.b.detach_link(self.a.name)

    def reconnect(self) -> None:
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
        return self._a_to_b.stats.messages + self._b_to_a.stats.messages

    def messages_of_kind(self, kind: str) -> int:
        return self._a_to_b.stats.by_kind.get(kind, 0) + self._b_to_a.stats.by_kind.get(kind, 0)

    def _close_writers(self) -> None:
        """The hard kill: both ends stop reading at once (see ``close_dynamic_link``)."""
        for endpoint in (self._a_to_b, self._b_to_a):
            if endpoint._writer is not None:
                endpoint._writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"AsyncioLink({self.a.name}<->{self.b.name}, {state})"


class AsyncioTransport(SocketNode, Transport):
    """Real asyncio TCP sockets on localhost: N processes on one :class:`SocketNode`.

    A link is one duplex TCP connection carrying one length-prefixed wire
    frame per message.  The transport owns both of its ends, so a link is
    born connected: one blocking loopback connect to the transport's own
    listening socket, and the accept that returns it, pair the two sockets
    (:meth:`_pair`); no process has a server and no handshake is exchanged.

    The stack above stays synchronous: sends buffer onto the socket and the
    event loop only spins while the transport is *driven*
    (:meth:`run`/:meth:`run_until_idle`), which keeps the programming model
    identical to the simulator — build, publish, then run to quiescence.
    Quiescence is exact, not heuristic: because both ends of every link live
    here, every frame written increments an in-flight counter that is only
    decremented after the receiving process finished handling the message,
    and every clock timer and dynamic link being established is counted until
    it has run.  :meth:`run_until_idle` neither polls nor waits out a
    confirmation window: it parks on one future that the code paths lowering
    those counters (or recording an error) resolve the moment both read
    zero, so a drain costs what the traffic costs and an idle transport
    returns at once.
    """

    name = "asyncio"
    supports_mobility = True

    #: default cap on run_until_idle, so a routing bug cannot hang a test run
    DEFAULT_IDLE_TIMEOUT = 30.0

    #: cap on each blocking step of :meth:`_pair`, which runs on the loop's
    #: thread: a listener backlog full of strangers costs one open this long
    #: and a fresh listener, not the loop
    PAIR_TIMEOUT = 2.0

    def __init__(self, host: str = "127.0.0.1", config=None):
        Transport.__init__(self, config)
        SocketNode.__init__(self, MetricsRegistry(enabled=self.system_config.metrics))
        self.host = host
        self._processes: Dict[str, Process] = {}
        #: where every link's connection is accepted (opened with the first link)
        self._listener: Optional[socket.socket] = None
        self._inflight = 0
        #: the future a parked run_until_idle waits on (None when not driven)
        self._idle_waiter: Optional[asyncio.Future] = None
        self.links: List[AsyncioLink] = []

    # ------------------------------------------------------------------ wiring
    def make_link(self, a: Process, b: Process, latency: float = 0.001) -> AsyncioLink:
        # build-time wiring is a dynamic link established before anything runs
        link = self.open_dynamic_link(a, b, latency)
        self._raise_pending_error()
        return link

    def open_dynamic_link(
        self,
        a: Process,
        b: Process,
        latency: float = 0.001,
        ready: Optional[Callable[[Any], None]] = None,
    ) -> AsyncioLink:
        """Establish a link while the event loop may already be running.

        A wireless attach completes inside a scheduled callback, i.e. inside
        the running loop, where :meth:`make_link`'s ``run_until_complete``
        would deadlock.  The connection setup (pairing the two sockets,
        then handing each to the loop) therefore runs as a task; it is
        counted as pending work so ``run_until_idle`` cannot declare the
        system idle while an attachment is still being established.
        ``ready(link)`` fires from inside the loop once traffic can flow.
        """
        self._require_open()
        link = AsyncioLink(self, a, b)
        self.links.append(link)

        async def establish() -> None:
            try:
                self._register(a)
                self._register(b)
                dialled, accepted = self._pair()
                wrap = self._loop.connect_accepted_socket
                try:
                    link._a_to_b._writer, _ = await wrap(
                        lambda: _Receiver(self, a.name, link._b_to_a), dialled
                    )
                except BaseException:
                    accepted.close()  # never handed to the loop
                    raise
                link._b_to_a._writer, _ = await wrap(
                    lambda: _Receiver(self, b.name, link._a_to_b), accepted
                )
                a.attach_link(b.name, link._a_to_b)
                b.attach_link(a.name, link._b_to_a)
                if ready is not None:
                    self._run_callback(ready, link)
            except BaseException as exc:
                # a link that never came up holds no registry slot or socket
                self.close_dynamic_link(link)
                self._record_error(exc)
            finally:
                self._clock.pending_timers -= 1
                self._wake_if_idle()

        self._clock.pending_timers += 1
        if self._loop.is_running():
            self._loop.create_task(establish())
        else:
            self._loop.run_until_complete(establish())
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
        by a stranger, and is closed unread.  Both ends send every write at
        once (``TCP_NODELAY``: asyncio sets it only on sockets created with
        ``proto=IPPROTO_TCP``, and Nagle plus a delayed ACK would hold each
        drain's last small write back ~25 ms).

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
            dialled, accepted = self._connect_and_accept(listener)
        except TimeoutError:
            listener.close()
            self._listener = None
            dialled, accepted = self._connect_and_accept(self._listen())
        for sock in (dialled, accepted):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return dialled, accepted

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
        dialled = socket.create_connection(listener.getsockname()[:2], self.PAIR_TIMEOUT)
        try:
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
        """Drive the loop until no in-flight frames or pending timers remain.

        *Idle* means: no frame this transport sent is undelivered, no clock
        timer is pending and no dynamic link is being established.  Returns
        at once when that already holds; otherwise parks on a future that
        :meth:`_wake_if_idle` resolves.  Bytes arriving on a connection the
        transport did not open are not counted work — drive by time
        (``run(until=...)``) to serve outside peers.
        """
        self._require_open()
        timeout = timeout if timeout is not None else self.DEFAULT_IDLE_TIMEOUT

        async def drain() -> None:
            deadline = self._loop.time() + timeout
            while not self._is_idle():
                self._idle_waiter = self._loop.create_future()
                try:
                    await asyncio.wait_for(self._idle_waiter, deadline - self._loop.time())
                except asyncio.TimeoutError:
                    raise TransportError(
                        f"run_until_idle timed out after {timeout}s "
                        f"({self._inflight} frames in flight, "
                        f"{self._clock.pending_timers} timers pending)"
                    ) from None
                finally:
                    self._idle_waiter = None

        self._loop.run_until_complete(drain())
        self._raise_pending_error()
        return self._clock.now

    def _is_idle(self) -> bool:
        """Nothing counted remains — or an error is waiting to be raised."""
        return self._pending_error is not None or (
            self._inflight == 0 and self._clock.pending_timers == 0
        )

    def _wake_if_idle(self) -> None:
        """Release a parked :meth:`run_until_idle` once nothing counted remains.

        Called at the end of every loop callback that can lower a counter or
        record an error: a read batch, a fired timer and
        the teardown of a connection (all through :meth:`_run_callback`) and
        a dynamic link's ``establish``.  Handlers, ``cancel()`` and
        ``ready`` only ever run inside one of those, so none of them checks.
        """
        waiter = self._idle_waiter
        if waiter is not None and not waiter.done() and self._is_idle():
            waiter.set_result(None)

    def resource_sizes(self) -> Dict[str, int]:
        """Live socket resources; handover/fault churn must not grow them.

        ``open_writers`` counts the directed endpoints whose end of the
        link's connection is still open: two per link, one socket each
        (``links`` counts the connections).
        """
        endpoints = [e for link in self.links for e in (link._a_to_b, link._b_to_a)]
        return {
            "links": len(self.links),
            "listeners": int(self._listener is not None),
            "pending_timers": self._clock.pending_timers,
            "open_writers": sum(e.is_open for e in endpoints),
            "inflight_frames": self._inflight,
            "buffered_bytes": sum(len(e._buffer) for e in endpoints),
        }

    # ----------------------------------------------------------------- closing
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        async def shutdown() -> None:
            self._close_connections()
            current = asyncio.current_task()
            tasks = [t for t in asyncio.all_tasks() if t is not current and not t.done()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        self._loop.run_until_complete(shutdown())
        self._loop.close()
        if self._listener is not None:
            self._listener.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._processes)} processes"
        return f"AsyncioTransport({state})"


# -------------------------------------------------------------------- factory

def make_transport(config) -> Transport:
    """Build the backend ``config.transport`` names, configured by ``config``.

    Every backend owns its clock: the ``"sim"`` backend a fresh
    :class:`~repro.net.simulator.Simulator`, the socket backends their event
    loop's.
    """
    if config.transport == "sim":
        return SimTransport(config=config)
    if config.transport == "asyncio":
        return AsyncioTransport(config=config)
    from .cluster import ClusterTransport  # lazy: avoid a subprocess import cycle

    return ClusterTransport(config=config)
