"""Multi-process cluster runner: one OS process per broker.

This module shards the broker graph across *spawned OS processes*, the
deployment shape of the paper's original REBECA testbed (Java broker
processes on separate hosts):

* each broker runs in its own child process (``python -m
  repro.net.cluster_node '<json spec>'``); links between brokers are duplex
  TCP connections carrying the same length-prefixed wire frames
  (:mod:`repro.net.wire`) as the in-process asyncio backend;
* the parent binds and listens on one TCP socket per broker before it
  spawns any child, hands it to the child (``pass_fds``) and holds it for
  the transport's whole life: a broker's address is fixed before it runs
  and survives a kill and restart, every spec carries every broker's
  address, and a dial never meets a port that is not listening;
* the parent keeps one control connection per child, one end of a
  ``socketpair``: the child's first frame on it reports ready (the boot
  barrier), its later frames answer the parent's requests (counter polls,
  link faults, shutdown), and its EOF means the child died;
* clients live in the parent and dial the address of their broker.

Both kinds of process run on the socket runtime every socket backend
shares (:class:`~repro.net.transport.SocketNode`): a broker child is "one
broker plus a control connection", the parent "the clients plus the control
connections, dial-only".  The cluster's own is policy: a send onto a closing
connection is dropped and counted (:class:`ClusterEndpoint`), a lost link is
reported to the broker, a restarted node asks for a resync.  Control frames
(:class:`ControlEndpoint`) go straight to their socket, so they count in no
broker counter, no ``transport.*`` instrument and no idle-detector total.

Topology on the parent side is declared exactly like on the other backends —
``BrokerNetwork`` or any topology builder with
``config=SystemConfig(transport="cluster")`` — except that
:meth:`ClusterTransport.build_broker` returns a :class:`RemoteBroker` proxy
instead of an in-process
:class:`~repro.pubsub.broker.Broker`.  The first client attachment (or an
explicit :meth:`ClusterTransport.boot`) freezes the broker topology, spawns
the children and waits for the readiness barrier.

Failure semantics: a broker child that hits an internal error exits with a
non-zero code; its control connection closes, and the parent raises
:class:`ClusterError` naming the dead broker and its exit code — at once
during boot, on the next poll round of ``run_until_idle`` mid-run.  A
connection refused at the handshake (skewed wire revision or wrong target)
is closed unanswered and costs the broker nothing else.  A child whose
control connection closes (the parent died) shuts itself down, so no orphan
broker processes are left behind.

Quiescence: the parent cannot observe in-flight frames inside other
processes, so ``run_until_idle`` polls the message counters of every broker
child (over the control connections) together with the local clients'
counters, and declares the cluster idle once two consecutive poll rounds
return *identical* counter vectors whose global sent and received totals
are *equal*.  This is exact, not heuristic: every transmitted message is
counted by its sender before it leaves and by exactly one receiver when it
has been fully handled, so a message in flight (socket buffer, starved
reader) keeps ``sent > received``; and because counters are monotone, a
send missed by one poll round would change the next round's vector.  Rounds
are :attr:`ClusterTransport.POLL_INTERVAL` apart, so a drain costs at least
two rounds and one interval on top of the traffic.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import subprocess
import sys
from pathlib import Path
from selectors import EVENT_READ
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs.metrics import MetricsRegistry
from . import wire
from .link import LinkStats
from .process import Message, Process
from .transport import (
    FAULT_ACTIONS,
    SocketEndpoint,
    SocketNode,
    Transport,
    TransportError,
    _Connection,
)


class ClusterError(TransportError):
    """Raised on cluster boot failures, broker crashes, or protocol misuse."""


# ---------------------------------------------------------------- endpoints


class ClusterEndpoint(SocketEndpoint):
    """This process's end of a cross-process link (one duplex TCP connection).

    Used on both sides — broker children towards their peers and clients,
    the parent's clients towards their border broker.  A send onto a
    connection that is closing or gone is dropped and counted, never an
    error: the peer crashed or was severed, the fault being studied.
    """

    def __init__(
        self,
        node: SocketNode,
        peer: str,
        receive: Callable[[Message], None],
        lost: Optional[Callable[["ClusterEndpoint"], None]] = None,
        stats: Optional[LinkStats] = None,
    ):
        super().__init__(node, peer, stats)
        self.receive = receive
        self._on_lost = lost

    def _admit(self) -> bool:
        if not self.is_open:
            self.stats.record_drop()
            return False
        return True

    def lost(self) -> None:
        if self._on_lost is not None:
            self._on_lost(self)


class ControlEndpoint(SocketEndpoint):
    """One end of the control connection between the parent and a broker child.

    A link of the node's own runtime whose frames are not traffic: each is
    written straight to the socket, so it counts in no broker counter, no
    ``transport.*`` instrument and no idle-detector total.  On the parent's
    end, ``ready`` turns true with the child's first frame, and ``replies``
    maps the ``rid`` of each request still awaited to its answer (None
    until its frame arrives).  A lost connection means the child died.
    """

    def __init__(
        self,
        node: SocketNode,
        peer: str,
        on_frame: Callable[["ControlEndpoint", Message], None],
        on_lost: Optional[Callable[["ControlEndpoint"], None]] = None,
    ):
        super().__init__(node, peer)
        self._on_frame = on_frame
        self._on_lost = on_lost
        self.ready = False
        self.replies: Dict[int, Optional[Dict[str, Any]]] = {}

    def transmit(self, message: Message) -> None:
        if self.is_open:
            self._writer.write(wire.frame_message_binary(message))

    def receive(self, message: Message) -> None:
        self._on_frame(self, message)

    def lost(self) -> None:
        if self._on_lost is not None:
            self._on_lost(self)


def _control_message(kind: str, **fields: Any) -> Message:
    return Message(kind, fields)


def _stats_payload(stats: LinkStats) -> Dict[str, Any]:
    return {
        "messages": stats.messages,
        "dropped": stats.dropped,
        "by_kind": dict(stats.by_kind),
    }


# ------------------------------------------------------------- child process


class _BrokerNode(SocketNode):
    """One broker, hosted in its own OS process: a node plus a control connection.

    Lifecycle: serve on the listener the parent bound -> dial the peers this
    node initiates -> send ``ready`` on the control connection -> answer
    control requests until told to stop or the parent disappears.  All of
    it runs as callbacks of the node's own steps.  Nobody drives this node
    from outside, so an error recorded by one of its callbacks stops it and
    becomes its exit.
    """

    def __init__(self, spec: Dict[str, Any]):
        from ..config import SystemConfig  # lazy: config imports net/
        from ..pubsub.broker import Broker  # lazy: net/ stays importable alone

        self.spec = spec
        self.name: str = spec["name"]
        #: a restarted node re-synchronises routing state over every link it
        #: (re-)establishes, instead of assuming the peers' tables are fresh
        self.resync_on_connect: bool = bool(spec.get("resync", False))
        # every broker knob comes from the parent's SystemConfig, read once
        config = SystemConfig.from_dict(spec["config"])
        # the wire instruments live in the broker's metrics registry and
        # travel with its ``metrics`` reply
        super().__init__(MetricsRegistry(enabled=config.metrics))
        self.broker = Broker(
            self._clock,
            self.name,
            routing=spec.get("routing", "simple"),
            metrics=self.metrics,
        )
        self.stopping = False

    def _stop(self, *_: Any) -> None:
        self.stopping = True

    def _record_error(self, exc: BaseException) -> None:
        """Routing and wire bugs must fail the node, loudly."""
        super()._record_error(exc)
        self._stop()

    def _handshake_refused(self, exc: BaseException) -> None:
        """One misconfigured dialler must not take the broker down."""
        print(f"{self.name}: refused a connection: {exc}", file=sys.stderr)

    # ------------------------------------------------------------ link traffic
    def _endpoint(self, peer: str) -> ClusterEndpoint:
        return ClusterEndpoint(self, peer, self.broker.deliver, self._link_lost)

    def _link_lost(self, endpoint: ClusterEndpoint) -> None:
        """React to a link dying under us (peer crashed or was severed)."""
        if self.stopping:
            return  # orderly shutdown closes every link; nothing to recover
        if self.broker.links.get(endpoint.peer) is not endpoint:
            return  # a reconnect already replaced this link; stale EOF
        # dropping a client link's entries may forward unsubscribes
        self.broker.handle_link_lost(endpoint.peer)

    def _accept(self, name: str, handshake: Dict[str, Any], connection) -> ClusterEndpoint:
        """Accept an inbound link: the handshake names the peer and its kind."""
        peer = handshake["source"]
        endpoint = self._endpoint(peer)
        endpoint._writer = connection
        self.broker.attach_link(peer, endpoint)
        if handshake.get("kind") == "broker":
            self.broker.register_broker_peer(peer)
        return endpoint

    def _accepted(self, inbound: ClusterEndpoint, handshake: Dict[str, Any]) -> None:
        if handshake.get("resync"):
            # the dialer lost (or restarted without) its routing state:
            # void what it advertised before and send ours from scratch
            self.broker.resync_link(inbound.peer)

    def _dial_peer(
        self, peer: str, resync: bool, answered: Callable[[Optional[BaseException]], None]
    ) -> None:
        """Open the link of an edge this node dials, at the address the parent holds.

        ``answered`` learns when the acceptor has answered, so it has
        attached the link: when every dialler is ready, every edge is up at
        both ends.
        """
        endpoint = self._endpoint(peer)
        address = self.spec["addresses"][peer]
        connection = self._dial(
            address, endpoint, self.name, peer, answered, kind="broker", resync=resync
        )
        # the acceptor reads the handshake first, so the link is usable at
        # once; its answer only confirms that it speaks this node's wire revision
        endpoint._writer = connection
        self.broker.attach_link(peer, endpoint)
        self.broker.register_broker_peer(peer)
        if resync:
            self.broker.resync_link(peer)

    def _sever_link(self, peer: str) -> None:
        """Tear the TCP link to ``peer`` down for real (fault injection).

        Idempotent: the peer's own severing (or its crash) may already have
        taken the link away by the time the control request arrives.
        """
        endpoint = self.broker.links.get(peer)
        if endpoint is not None and endpoint.is_open:
            endpoint._writer.close()
        if self.broker.has_link(peer):
            self.broker.handle_link_lost(peer)

    # ---------------------------------------------------------------- control
    def _stats(self) -> Dict[str, Any]:
        links = {
            peer: _stats_payload(endpoint.stats) for peer, endpoint in self.broker.links.items()
        }
        return {
            "received": self.broker.messages_received,
            "sent": self.broker.messages_sent,
            "table_size": self.broker.routing_table_size(),
            "links": links,
        }

    def _on_request(self, control: ControlEndpoint, request: Message) -> None:
        """Answer one request of the parent; a ``link_up`` once its dial is answered."""
        op, rid = request.kind, request.payload["rid"]
        reply: Dict[str, Any] = {}
        if op == "stats":
            reply = self._stats()
        elif op == "metrics":
            reply = {"metrics": self.broker.metrics_snapshot()}
        elif op == "link_down":
            self._sever_link(request.payload["peer"])
        elif op == "link_up":
            self._link_up(control, rid, request.payload["peer"])
            return
        elif op == "shutdown":
            self._stop()
        else:
            raise ClusterError(f"{self.name}: unknown control op {op!r}")
        control.transmit(_control_message("reply", re=rid, ok=True, **reply))

    def _link_up(self, control: ControlEndpoint, rid: int, peer: str) -> None:
        def answer(exc: Optional[BaseException]) -> None:
            fields = {"ok": True} if exc is None else {"ok": False, "error": str(exc)}
            control.transmit(_control_message("reply", re=rid, **fields))

        try:
            self._dial_peer(peer, resync=True, answered=answer)
        except OSError as exc:
            answer(exc)

    def _boot(self, control: ControlEndpoint) -> None:
        """Dial every peer this node initiates; ``ready`` once each has answered."""
        peers, answers = self.spec["dial"], []

        def answered(exc: Optional[BaseException]) -> None:
            if exc is not None:
                raise exc
            answers.append(exc)
            if len(answers) == len(peers):
                control.transmit(_control_message("ready"))

        for peer in peers:
            self._dial_peer(peer, self.resync_on_connect, answered)
        if not peers:
            control.transmit(_control_message("ready"))

    def _on_acceptable(self, mask: int) -> None:
        """A dialler is waiting: its connection reads the handshake first."""
        try:
            sock, _ = self._listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        except OSError as exc:
            self._record_error(exc)
            return
        _Connection(self, sock, self.name)

    # -------------------------------------------------------------------- run
    def serve(self) -> int:
        """The node's whole life; returns its exit code, or raises what failed it."""
        listener = self._listener = socket.socket(fileno=self.spec["listen_fd"])
        listener.setblocking(False)
        self._selector.register(listener, EVENT_READ, self._on_acceptable)
        # the parent's end closing means it is gone: shut down, no orphan
        control = ControlEndpoint(self, "parent", self._on_request, self._stop)
        control._writer = _Connection(
            self, socket.socket(fileno=self.spec["control_fd"]), self.name, control
        )
        self._clock.call_now(self._boot, control)
        try:
            self._wait(lambda: self.stopping)
        finally:
            self._selector.unregister(listener)
            listener.close()
            self._close_connections()
        self._raise_pending_error()
        return 0


def node_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of a spawned broker process (see :mod:`repro.net.cluster_node`)."""
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.net.cluster_node '<json node spec>'", file=sys.stderr)
        return 2
    try:
        spec = json.loads(argv[0])
    except json.JSONDecodeError as exc:
        print(f"invalid node spec: {exc}", file=sys.stderr)
        return 2
    try:
        node = _BrokerNode(spec)
        try:
            return node.serve()
        finally:
            node._selector.close()
    except Exception:  # a child must die loudly, with a traceback on stderr
        import traceback

        traceback.print_exc()
        return 1


# ------------------------------------------------------------- parent: links


class ClusterLink:
    """Parent-side view of one cluster link, mirroring the Link stats surface.

    For client attachments the parent records both directions itself; for
    broker-to-broker edges the counters live inside the two children and are
    refreshed from the most recent stats poll (exact at quiescence, because
    the poll that declares the cluster idle is also the freshest snapshot).
    """

    #: simulated seconds this link adds (none: see ``Transport.make_link``)
    latency = 0.0

    def __init__(self, transport: "ClusterTransport", a: Process, b: Process):
        self.transport = transport
        self.a = a
        self.b = b
        self.up = True
        self._local_out = LinkStats()  # a -> b as recorded locally (client links)
        self._local_in = LinkStats()  # b -> a as recorded locally (client links)

    @property
    def is_broker_edge(self) -> bool:
        return isinstance(self.a, RemoteBroker) and isinstance(self.b, RemoteBroker)

    # ------------------------------------------------------------------ state
    def set_up(self, up: bool) -> None:
        """Sever (``False``) or restore (``True``) this broker edge for real.

        Severing closes the TCP connection on both children; restoring makes
        the edge's original dialer reconnect and re-synchronise routing state
        in both directions.  Only broker-to-broker edges can be severed — a
        client link is torn down by killing (or detaching) the client.
        """
        if up:
            self.transport._restore_link(self)
        else:
            self.transport._sever_link(self)

    # ------------------------------------------------------------------ stats
    def _polled(self, owner: str, towards: str) -> Dict[str, Any]:
        stats = self.transport.polled_stats.get(owner, {})
        return stats.get("links", {}).get(towards, {})

    @property
    def stats_a_to_b(self) -> LinkStats:
        if self.is_broker_edge:
            return self._remote_stats(self.a.name, self.b.name)
        return self._local_out

    @property
    def stats_b_to_a(self) -> LinkStats:
        if self.is_broker_edge:
            return self._remote_stats(self.b.name, self.a.name)
        return self._local_in

    def _remote_stats(self, owner: str, towards: str) -> LinkStats:
        polled = self._polled(owner, towards)
        stats = LinkStats()
        stats.messages = polled.get("messages", 0)
        stats.dropped = polled.get("dropped", 0)
        stats.by_kind = dict(polled.get("by_kind", {}))
        return stats

    def total_messages(self) -> int:
        return self.stats_a_to_b.messages + self.stats_b_to_a.messages

    def messages_of_kind(self, kind: str) -> int:
        return self.stats_a_to_b.by_kind.get(kind, 0) + self.stats_b_to_a.by_kind.get(kind, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavour = "edge" if self.is_broker_edge else "client"
        return f"ClusterLink({self.a.name}<->{self.b.name}, {flavour})"


class RemoteBroker(Process):
    """Parent-side proxy for a broker that lives in a child process.

    Carries the broker's topology until boot and its last polled routing
    table size afterwards (its knobs travel in the node spec; its counters
    are read through :meth:`ClusterTransport.metrics_snapshot`).  It never
    routes anything itself — messages to a remote broker go over the TCP
    attachment, not through ``deliver``.
    """

    def __init__(self, transport: "ClusterTransport", clock, name: str, routing: str):
        super().__init__(clock, name)
        self.transport = transport
        self.routing_strategy_name = routing

    def register_broker_peer(self, peer_name: str) -> None:
        """Nothing to record here: the child learns its broker peers from
        the handshakes of its links (``BrokerNetwork`` calls this on every
        broker it connects)."""

    def routing_table_size(self) -> int:
        """The table size the transport's last stats poll reported."""
        return int(self.transport.polled_stats.get(self.name, {}).get("table_size", 0))

    def on_message(self, message: Message) -> None:  # pragma: no cover - guard
        raise ClusterError(
            f"RemoteBroker {self.name!r} received a local message; remote brokers "
            "only exist as proxies in the parent process"
        )


# --------------------------------------------------------- parent: transport


class ClusterTransport(SocketNode, Transport):
    """Run each broker of the graph in its own spawned OS process.

    The parent process hosts the clients, every broker's listening socket,
    one control connection per child and this transport — a dial-only
    :class:`~repro.net.transport.SocketNode`; each declared broker becomes a
    child process connected to its peers by duplex TCP links.  Booting
    happens lazily on the first client attachment (or explicitly via
    :meth:`boot`); the broker topology is frozen from that point on.

    ``run_until_idle`` uses counter-stability quiescence (see the module
    docstring) and doubles as the crash detector: a child that exited is
    reported with its exit code as a :class:`ClusterError`.
    """

    name = "cluster"
    # the broker topology freezes at boot, so the dynamically attaching
    # wireless links of the mobility layer cannot be hosted here
    supports_mobility = False

    #: cap on a boot's (or a restart's) readiness barrier, a link restore
    #: and a client attach
    BOOT_TIMEOUT = 60.0
    #: default cap on run_until_idle
    DEFAULT_IDLE_TIMEOUT = 120.0
    #: once a fault has dropped frames, sent==received never holds again;
    #: quiescence then requires this many consecutive identical poll rounds
    LOSSY_STABLE_ROUNDS = 5
    #: pause between two counter-poll rounds of :meth:`run_until_idle`
    POLL_INTERVAL = 0.005

    def __init__(self, host: str = "127.0.0.1", config=None):
        Transport.__init__(self, config)
        SocketNode.__init__(self, MetricsRegistry(enabled=self.system_config.metrics))
        self.host = host
        self._specs: Dict[str, Dict[str, Any]] = {}
        self._children: Dict[str, subprocess.Popen] = {}
        #: broker name -> the socket its child serves on, bound at boot and
        #: held until close, so the broker's address never changes
        self._listeners: Dict[str, socket.socket] = {}
        #: broker name -> its listener's (host, port), where peers and clients dial it
        self.addresses: Dict[str, Tuple[str, int]] = {}
        #: broker name -> the parent's end of its child's control connection
        self._controls: Dict[str, ControlEndpoint] = {}
        self._rids = itertools.count(1)
        self._local: Dict[str, Process] = {}
        self._client_peers: Dict[str, Set[str]] = {}
        self.links: List[ClusterLink] = []
        #: freshest per-broker stats payloads, refreshed by every idle poll
        self.polled_stats: Dict[str, Dict[str, Any]] = {}
        #: broker name -> exit code, filled in by :meth:`close`
        self.exit_codes: Dict[str, int] = {}
        #: brokers deliberately killed and not yet restarted
        self._down: Set[str] = set()
        #: set once any fault dropped frames; switches the idle detector to
        #: counter-stability (conservation cannot hold after a loss)
        self._lossy = False
        #: fault/recovery action counters, for the chaos harness and benches
        self.recovery: Dict[str, int] = {
            "kills": 0,
            "restarts": 0,
            "link_severs": 0,
            "link_restores": 0,
            "client_resubscribes": 0,
        }
        self._booted = False

    @property
    def booted(self) -> bool:
        return self._booted

    @property
    def failures(self) -> Dict[str, int]:
        """Broker name -> non-zero exit code, for every child that failed."""
        return {name: code for name, code in self.exit_codes.items() if code != 0}

    # ---------------------------------------------------------------- topology
    def build_broker(self, name: str, routing: str = "simple") -> RemoteBroker:
        """Declare a broker to run in its own process; returns its proxy.

        The child reads every broker knob from the spec's ``config``, this
        transport's :attr:`~repro.net.transport.Transport.system_config`.
        """
        self._require_open()
        if self._booted:
            raise ClusterError("the broker topology is frozen once the cluster has booted")
        if name in self._specs:
            raise ClusterError(f"duplicate broker name {name!r}")
        self._specs[name] = {
            "name": name,
            "routing": routing,
            "config": self.system_config.to_dict(),
            "dial": [],
        }
        proxy = RemoteBroker(self, self._clock, name, routing)
        self.brokers[name] = proxy
        return proxy

    def make_link(self, a: Process, b: Process, latency: float = 0.001) -> ClusterLink:
        self._require_open()
        remote_a, remote_b = isinstance(a, RemoteBroker), isinstance(b, RemoteBroker)
        link = ClusterLink(self, a, b)
        if remote_a and remote_b:
            if self._booted:
                raise ClusterError("cannot add broker edges after the cluster has booted")
            # the edge's first broker dials, the second accepts
            self._specs[a.name]["dial"].append(b.name)
        elif remote_a or remote_b:
            client, broker = (b, a) if remote_a else (a, b)
            self.boot()
            self._require_up(f"attach {client.name} to {broker.name}", broker.name)
            self._local[client.name] = client
            self._client_peers.setdefault(broker.name, set()).add(client.name)
            self._attach_client(client, broker.name, link)
        else:
            raise ClusterError(
                "cluster links connect clients to brokers or brokers to brokers; "
                f"neither {a.name!r} nor {b.name!r} is a declared broker"
            )
        self.links.append(link)
        return link

    # -------------------------------------------------------------------- boot
    def boot(self) -> None:
        """Bind every broker's listener, spawn one OS process per broker, await readiness."""
        self._require_open()
        if self._booted:
            return
        if not self._specs:
            raise ClusterError("no brokers declared; add brokers before attaching clients")
        self._booted = True
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        try:
            for name in self._specs:
                listener = socket.create_server((self.host, 0), family=family)
                self._listeners[name] = listener
                self.addresses[name] = listener.getsockname()[:2]
            for name, spec in self._specs.items():
                self._start(name, spec)
            self._await_ready(list(self._specs))
        except Exception:
            # a failed boot must not leak half a cluster
            self.close()
            raise

    def _start(self, name: str, spec: Dict[str, Any]) -> None:
        """Spawn ``name``'s child on its held listener and open its control connection."""
        ours, theirs = socket.socketpair()
        spec = {
            **spec,
            "addresses": self.addresses,
            "listen_fd": self._listeners[name].fileno(),
            "control_fd": theirs.fileno(),
        }
        try:
            self._children[name] = self._spawn(spec)
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()  # the child holds its own copy: EOF on ours means it died
        control = ControlEndpoint(self, name, self._on_control)
        control._writer = _Connection(self, ours, name, control)
        self._controls[name] = control

    def _spawn(self, spec: Dict[str, Any]) -> subprocess.Popen:
        src_dir = Path(__file__).resolve().parents[2]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.net.cluster_node", json.dumps(spec)],
            env=env,
            pass_fds=(spec["listen_fd"], spec["control_fd"]),
        )

    def _await_ready(self, names: List[str]) -> None:
        """The readiness barrier: every child in ``names`` sent its ``ready`` frame.

        A control connection that closes before its ``ready`` means the
        child died, reported with its exit code.
        """
        controls = [self._controls[name] for name in names]

        def dead() -> List[str]:
            return [c.peer for c in controls if not c.ready and not c.is_open]

        deadline = self._clock.now + self.BOOT_TIMEOUT
        self._wait(lambda: all(control.ready for control in controls) or dead(), deadline)
        for name in dead():
            raise self._died(name)
        waiting = [control.peer for control in controls if not control.ready]
        if waiting:
            raise ClusterError(f"brokers never became ready within {self.BOOT_TIMEOUT}s: {waiting}")

    def _died(self, name: str) -> ClusterError:
        """The error for a child whose control connection closed under it."""
        return ClusterError(
            f"broker process {name!r} exited with code {self._reap(name)} "
            "(see its traceback on stderr)"
        )

    def _reap(self, name: str) -> int:
        """Wait for ``name``'s child to exit (killing it if it hangs); its exit code."""
        child = self._children[name]
        try:
            return child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            child.kill()
            return child.wait()

    def _attach_client(self, client: Process, broker_name: str, link: ClusterLink) -> None:
        """Dial ``broker_name`` for ``client``; :meth:`_died` if its child is dead.

        The parent holds every broker's listener, so a dial to a dead child
        still connects and its handshake is never answered: the answer races
        the loss of the child's control connection.
        """

        def receive(message: Message) -> None:
            link._local_in.record(message)
            client.deliver(message)

        # the link owns the counters of both directions
        endpoint = ClusterEndpoint(self, broker_name, receive, stats=link._local_out)
        address = self.addresses[broker_name]
        control = self._controls[broker_name]
        answers: List[Optional[BaseException]] = []
        connection = self._dial(
            address, endpoint, client.name, broker_name, answers.append, kind="client"
        )
        endpoint._writer = connection
        self._wait(lambda: answers or not control.is_open, self._clock.now + self.BOOT_TIMEOUT)
        if not answers:
            connection.close()
            if control.is_open:
                raise ClusterError(
                    f"broker {broker_name!r} did not answer the attach of {client.name!r} "
                    f"within {self.BOOT_TIMEOUT}s"
                )
            raise self._died(broker_name)
        if answers[0] is not None:
            raise answers[0]
        client.attach_link(broker_name, endpoint)

    # ----------------------------------------------------------- control plane
    def _on_control(self, control: ControlEndpoint, message: Message) -> None:
        if message.kind == "ready":
            control.ready = True
            return
        rid = message.payload["re"]
        if rid in control.replies:  # else its request gave up waiting
            control.replies[rid] = message.payload

    def _call(
        self, names: List[str], op: str, timeout: float = 10.0, **fields: Any
    ) -> Dict[str, Dict[str, Any]]:
        """One control round trip with every broker in ``names`` at once: their
        ``ok`` replies, or :class:`ClusterError` (connection closed, no answer
        in time, rejected).  One round costs one RTT, not one per broker."""
        asked = {name: (self._controls[name], next(self._rids)) for name in names}
        try:
            for name, (control, rid) in asked.items():
                if not control.is_open:
                    raise ClusterError(f"control connection to {name!r} closed")
                control.replies[rid] = None
                control.transmit(_control_message(op, rid=rid, **fields))
            self._wait(
                lambda: all(c.replies[r] is not None or not c.is_open for c, r in asked.values()),
                self._clock.now + timeout,
            )
        finally:
            replies = {name: c.replies.pop(r, None) for name, (c, r) in asked.items()}
        for name, reply in replies.items():
            if reply is None:
                if not asked[name][0].is_open:
                    raise ClusterError(f"control connection to {name!r} closed")
                raise ClusterError(f"broker {name!r} did not answer {op!r} in {timeout}s")
            if not reply["ok"]:
                raise ClusterError(f"broker {name!r} rejected {op!r}: {reply['error']}")
        return replies

    def _request(self, name: str, op: str, timeout: float = 10.0, **fields: Any) -> Dict[str, Any]:
        """One control round trip with broker ``name``."""
        return self._call([name], op, timeout=timeout, **fields)[name]

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Gather every live child's metrics over its control connection."""
        self._require_open()
        live = [name for name in self._specs if self._booted and name not in self._down]
        replies = self._call(live, "metrics")
        brokers = {name: replies[name]["metrics"] for name in live}
        return {"transport": self.transport_metrics(), "brokers": brokers}

    # ------------------------------------------------------------- fault plane
    def inject_fault(self, action: str, process=None, link=None) -> None:
        """Real faults: SIGKILL/respawn for processes, TCP severing for links."""
        if action == "crash":
            self.kill_broker(self._fault_target(process, "process").name)
        elif action == "restart":
            self.restart_broker(self._fault_target(process, "process").name)
        elif action == "link_down":
            self._sever_link(self._fault_target(link, "link"))
        elif action == "link_up":
            self._restore_link(self._fault_target(link, "link"))
        else:
            raise TransportError(
                f"unknown fault action {action!r}; available: {FAULT_ACTIONS}"
            )

    def _require_up(self, what: str, *names: str) -> None:
        for name in names:
            if name in self._down:
                raise ClusterError(f"cannot {what}: {name} is down; restart it first")

    def kill_broker(self, name: str) -> None:
        """``kill -9`` a broker child mid-run (chaos testing).

        Liveness checks stop treating the death as a crash, and nothing
        dials the broker until it is restarted on the same listener.
        Frames in flight towards the dead broker are lost — exactly what the
        real fault would lose.
        """
        self._require_open()
        if name not in self._children:
            raise ClusterError(f"unknown broker {name!r} (is the cluster booted?)")
        if name in self._down:
            raise ClusterError(f"broker {name!r} is already down")
        child = self._children[name]
        if child.poll() is None:
            child.kill()
        child.wait()
        self._down.add(name)
        self._lossy = True
        self.recovery["kills"] += 1
        # half-open client sockets towards the corpse would buffer silently;
        # closing them makes client-side sends count as drops immediately
        for client_name in sorted(self._client_peers.get(name, ())):
            endpoint = self._local[client_name].links.get(name)
            if endpoint is not None and endpoint.is_open:
                endpoint._writer.close()

    def restart_broker(self, name: str) -> None:
        """Supervised restart of a killed broker: respawn, re-link, re-sync.

        The respawned child serves on the broker's old listener, dials every
        neighbour that is up with the resync flag (both sides re-advertise
        their routing state from scratch; a neighbour that is down dials it
        back when it restarts), and the parent re-attaches the broker's
        clients, whose local brokers re-issue their subscriptions — after
        the next drain the delivery sets converge back to the sim baseline.
        """
        self._require_open()
        if name not in self._down:
            raise ClusterError(f"broker {name!r} is not down; kill it before restarting")
        spec = {**self._specs[name], "dial": self._neighbors_of(name), "resync": True}
        self._start(name, spec)
        self._down.discard(name)
        self._await_ready([name])
        self.recovery["restarts"] += 1
        for client_name in sorted(self._client_peers.get(name, ())):
            client = self._local[client_name]
            link = self._client_link(client_name, name)
            self._attach_client(client, name, link)
            if hasattr(client, "connect_to"):
                client.connect_to(name, reissue=True)
                self.recovery["client_resubscribes"] += len(client.subscriptions)

    def _neighbors_of(self, name: str) -> List[str]:
        """Broker peers that are up, over edges that are up (for re-dialling)."""
        peers: Set[str] = set()
        for link in self.links:
            if link.is_broker_edge and link.up and name in (link.a.name, link.b.name):
                peers.add(link.b.name if link.a.name == name else link.a.name)
        return sorted(peers - self._down)

    def _client_link(self, client_name: str, broker_name: str) -> ClusterLink:
        for link in self.links:
            if not link.is_broker_edge and {link.a.name, link.b.name} == {
                client_name,
                broker_name,
            }:
                return link
        raise ClusterError(f"no client link between {client_name!r} and {broker_name!r}")

    def _sever_link(self, link: ClusterLink) -> None:
        """Close a broker edge's TCP connection on both children."""
        self._require_open()
        if not isinstance(link, ClusterLink) or not link.is_broker_edge:
            raise ClusterError("only broker-to-broker cluster links can be severed")
        if not link.up:
            return
        for owner, peer in ((link.a.name, link.b.name), (link.b.name, link.a.name)):
            if owner not in self._down:
                self._request(owner, "link_down", peer=peer)
        link.up = False
        self._lossy = True
        self.recovery["link_severs"] += 1

    def _restore_link(self, link: ClusterLink) -> None:
        """Re-establish a severed broker edge (original dialer reconnects)."""
        self._require_open()
        if not isinstance(link, ClusterLink) or not link.is_broker_edge:
            raise ClusterError("only broker-to-broker cluster links can be restored")
        if link.up:
            return
        dialer, acceptor = link.a.name, link.b.name
        self._require_up(f"restore {dialer}<->{acceptor}", dialer, acceptor)
        try:
            self._request(dialer, "link_up", peer=acceptor, timeout=self.BOOT_TIMEOUT)
        except ClusterError as exc:
            raise ClusterError(f"link restore {dialer}->{acceptor} failed: {exc}") from exc
        link.up = True
        self.recovery["link_restores"] += 1

    # ----------------------------------------------------------------- driving
    def run_until_idle(self, timeout: Optional[float] = None) -> float:
        """Drive until the cluster is provably quiescent.

        Idle iff two consecutive poll rounds see identical counter vectors
        *and* the global sent total equals the global received total (see
        the module docstring for why this is exact).
        """
        self._require_open()
        if not self._booted:
            return self._clock.now
        timeout = timeout if timeout is not None else self.DEFAULT_IDLE_TIMEOUT

        deadline = self._clock.now + timeout
        previous: Optional[Dict[str, Tuple[int, int]]] = None
        stable_rounds = 0
        while self._pending_error is None:
            snapshot = self._poll_counters()
            stable_rounds = stable_rounds + 1 if snapshot == previous else 0
            received_total = sum(received for received, _ in snapshot.values())
            sent_total = sum(sent for _, sent in snapshot.values())
            if self._lossy:
                # a fault dropped frames, so conservation is broken for
                # good; require several consecutive identical rounds
                idle = stable_rounds >= self.LOSSY_STABLE_ROUNDS
            else:
                idle = sent_total == received_total and stable_rounds >= 1
            # parity with the asyncio backend: a scheduled-but-unfired
            # parent-side clock event also keeps the cluster busy
            if idle and self._clock.pending == 0:
                break
            previous = snapshot
            if self._clock.now > deadline:
                raise ClusterError(
                    f"cluster did not reach quiescence within {timeout}s "
                    f"(last snapshot: {snapshot})"
                )
            self._wait(
                lambda: self._pending_error is not None, self._clock.now + self.POLL_INTERVAL
            )
        self._raise_pending_error()
        return self._clock.now

    def _poll_counters(self) -> Dict[str, Tuple[int, int]]:
        names = [name for name in self._specs if name not in self._down]
        try:
            replies = self._call(names, "stats", timeout=5.0)
        except ClusterError:
            for name in names:
                if not self._controls[name].is_open:
                    raise self._died(name) from None
            raise
        snapshot: Dict[str, Tuple[int, int]] = {}
        for name, reply in replies.items():
            self.polled_stats[name] = reply
            snapshot[name] = (reply["received"], reply["sent"])
        for name, process in self._local.items():
            snapshot[name] = (process.messages_received, process.messages_sent)
        return snapshot

    def resource_sizes(self) -> Dict[str, int]:
        """Parent-side resource sizes; kill/restart cycles must not grow them.

        ``receivers`` counts the connections the parent reads (its clients'
        and the control connections), ``open_writers`` the client endpoints
        that can still send, ``listeners`` the brokers' held listening
        sockets, ``control_connections`` the open control connections and
        ``unsent_bytes`` what the kernel refused so far and the parent's
        connections hold; a quiesced snapshot after a recovery cycle is
        directly comparable to the pre-fault baseline — the soak harness's
        non-growth gate.
        """
        endpoints = [e for process in self._local.values() for e in process.links.values()]
        return {
            "links": len(self.links),
            "receivers": len(self._connections),
            "open_writers": sum(e.is_open for e in endpoints),
            "listeners": len(self._listeners),
            "control_connections": sum(c.is_open for c in self._controls.values()),
            "live_children": sum(1 for child in self._children.values() if child.poll() is None),
            "pending_timers": self._clock.pending,
            "unsent_bytes": self._unsent_bytes(),
        }

    # ----------------------------------------------------------------- closing
    def close(self) -> None:
        """Orderly shutdown: ask every child to exit, then reap them.

        Never raises for a crashed child — inspect :attr:`failures` (or the
        :attr:`exit_codes` map) afterwards; ``run_until_idle`` is the place
        where crashes surface as exceptions mid-run.
        """
        if self._closed:
            return
        self._closed = True
        live = [name for name, control in self._controls.items() if control.is_open]
        try:
            self._call(live, "shutdown", timeout=5.0)
        except ClusterError:
            pass  # a child that cannot answer is reaped (or killed) all the same
        self._close_connections()
        for name in self._children:
            self.exit_codes[name] = self._reap(name)
        for listener in self._listeners.values():
            listener.close()
        self._selector.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("booted" if self._booted else "declared")
        return f"ClusterTransport({len(self._specs)} brokers, {state})"
