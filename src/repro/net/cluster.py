"""Multi-process cluster runner: one OS process per broker.

PR 3 proved the wire seam works — the whole pub/sub stack runs over real
localhost TCP sockets — but every broker still shared one Python process and
one GIL.  This module shards the broker graph across *spawned OS processes*,
the deployment shape of the paper's original REBECA testbed (Java broker
processes on separate hosts):

* each broker runs in its own child process (``python -m
  repro.net.cluster_node '<json spec>'``) hosting a TCP server; links
  between brokers are duplex TCP connections carrying the same
  length-prefixed wire frames
  (:mod:`repro.net.wire`) as the in-process asyncio backend;
* the parent process runs a :class:`~repro.net.registry.RegistryServer` for
  broker discovery (name -> host:port), the boot readiness barrier, counter
  polling and orderly shutdown;
* client processes attach *by name*: the parent resolves a broker through
  the registry and dials it, so publishers/subscribers never hardcode
  addresses.

Both kinds of process run on the asyncio backend's runtime
(:class:`~repro.net.transport.SocketNode`): a broker child is "one broker
plus a control channel", the parent "the clients, dial-only".  The cluster's
own is policy: a send onto a closing connection is dropped and counted
(:class:`ClusterEndpoint`), a lost link is reported to the broker, dials
retry with jitter, a restarted node asks for a resync, links deliver at
arrival (no latency floor).  The registry channel stays a plain stream.

Topology on the parent side is declared exactly like on the other backends —
``BrokerNetwork`` or any topology builder with
``config=SystemConfig(transport="cluster")`` — except that
:meth:`ClusterTransport.build_broker` returns a :class:`RemoteBroker` proxy
instead of an in-process
:class:`~repro.pubsub.broker.Broker`.  The first client attachment (or an
explicit :meth:`ClusterTransport.boot`) freezes the broker topology, spawns
the children and waits for the readiness barrier.

Failure semantics: a broker child that hits an internal error exits with a
non-zero code; the parent polls child liveness during boot and on every
``run_until_idle`` tick and raises :class:`ClusterError` naming the dead
broker and its exit code.  A connection refused at the handshake (skewed
wire revision or wrong target) is closed unanswered and costs the broker
nothing else.  A child whose registry control channel hits EOF (the parent
died) shuts itself down, so no orphan broker processes are left behind.

Quiescence: the parent cannot observe in-flight frames inside other
processes, so ``run_until_idle`` polls the message counters of every broker
child (over the registry control channels) together with the local clients'
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

import asyncio
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs.metrics import MetricsRegistry
from .link import LinkStats
from .process import Message, Process
from .registry import (
    FrameChannel,
    RegistryError,
    RegistryServer,
    lookup,
    register_node,
    report_ready,
)
from .transport import (
    FAULT_ACTIONS,
    SocketEndpoint,
    SocketNode,
    Transport,
    TransportError,
    _Receiver,
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
        super().__init__(node, stats)
        self.peer = peer
        self.receive = receive
        self._on_lost = lost

    def _admit(self, messages) -> bool:
        if not self.is_open:
            for _ in messages:
                self.stats.record_drop()
            return False
        return True

    def lost(self) -> None:
        if self._on_lost is not None:
            self._on_lost(self)


def _stats_payload(stats: LinkStats) -> Dict[str, Any]:
    return {
        "messages": stats.messages,
        "bytes": stats.bytes,
        "dropped": stats.dropped,
        "by_kind": dict(stats.by_kind),
    }


# ------------------------------------------------------------- child process


class _BrokerNode(SocketNode):
    """One broker, hosted in its own OS process: a node plus a control channel.

    Lifecycle: start the TCP server -> register with the registry -> dial
    the peers this node initiates -> wait for the peers that dial us ->
    report ready -> answer control requests (stats/shutdown) until told to
    stop or the parent disappears.  Nobody drives this node from outside, so
    an error recorded by one of its callbacks stops it and becomes its exit.
    """

    LINK_SETUP_TIMEOUT = 30.0
    #: first retry pause when dialling a peer that is not accepting yet
    DIAL_RETRY_BASE = 0.05
    #: upper bound on the exponential backoff between dial retries
    DIAL_RETRY_CAP = 2.0

    def __init__(self, spec: Dict[str, Any]):
        from ..config import SystemConfig  # lazy: config imports net/
        from ..pubsub.broker import Broker  # lazy: net/ stays importable alone

        self.spec = spec
        self.name: str = spec["name"]
        self.host: str = spec.get("host", "127.0.0.1")
        self.registry_address: Tuple[str, int] = tuple(spec["registry"])
        #: a restarted node re-synchronises routing state over every link it
        #: (re-)establishes, instead of assuming the peers' tables are fresh
        self.resync_on_connect: bool = bool(spec.get("resync", False))
        # every broker knob comes from the parent's SystemConfig, read once
        config = SystemConfig.from_dict(spec["config"])
        # the wire instruments live in the broker's registry and travel with
        # its ``metrics`` reply
        super().__init__(MetricsRegistry(enabled=config.metrics))
        self.broker = Broker(
            self._clock,
            self.name,
            routing=spec.get("routing", "simple"),
            matcher=config.matcher,
            metrics=self.metrics,
        )
        self.stop = asyncio.Event()
        #: peers expected to dial in before this node is ready
        self._accept_pending: Set[str] = set(spec.get("accept", ()))
        self._accepts_done = asyncio.Event()
        # dial-retry jitter comes from a private, name-seeded RNG: broker
        # children must never mutate the module-level ``random`` state (the
        # chaos fuzzer's seeded schedules rely on nobody sharing that dice)
        self._rng = random.Random(f"dial-jitter:{self.name}")

    def _record_error(self, exc: BaseException) -> None:
        """Routing and wire bugs must fail the node, loudly."""
        super()._record_error(exc)
        self.stop.set()

    def _handshake_refused(self, exc: BaseException) -> None:
        """One misconfigured dialler must not take the broker down."""
        print(f"{self.name}: refused a connection: {exc}", file=sys.stderr)

    # ------------------------------------------------------------ link traffic
    def _endpoint(self, peer: str) -> ClusterEndpoint:
        return ClusterEndpoint(self, peer, self.broker.deliver, self._link_lost)

    def _link_lost(self, endpoint: ClusterEndpoint) -> None:
        """React to a link dying under us (peer crashed or was severed)."""
        if self.stop.is_set():
            return  # orderly shutdown closes every link; nothing to recover
        if self.broker.links.get(endpoint.peer) is not endpoint:
            return  # a reconnect already replaced this link; stale EOF
        # dropping a client link's entries may forward unsubscribes
        self.broker.handle_link_lost(endpoint.peer)

    def _accept(self, name: str, handshake: Dict[str, Any], sock) -> ClusterEndpoint:
        """Accept an inbound link: the handshake names the peer and its kind."""
        peer = handshake["source"]
        endpoint = self._endpoint(peer)
        endpoint._writer = sock
        self.broker.attach_link(peer, endpoint)
        if handshake.get("kind") == "broker":
            self.broker.register_broker_peer(peer)
        self._accept_pending.discard(peer)
        if not self._accept_pending:
            self._accepts_done.set()
        return endpoint

    def _accepted(self, inbound: ClusterEndpoint, handshake: Dict[str, Any]) -> None:
        if handshake.get("resync"):
            # the dialer lost (or restarted without) its routing state:
            # void what it advertised before and send ours from scratch
            self.broker.resync_link(inbound.peer)

    async def _dial_peer(self, peer: str, resync: bool = False) -> None:
        """Initiate the link for an edge this node is the dialer of.

        Connection attempts are retried with bounded exponential backoff and
        jitter until :data:`LINK_SETUP_TIMEOUT` runs out: during recovery the
        peer may be mid-restart, registered but not yet accepting, and a
        thundering herd of reconnecting neighbours must not synchronise.
        """
        loop = self._loop
        deadline = loop.time() + self.LINK_SETUP_TIMEOUT
        pause = self.DIAL_RETRY_BASE
        endpoint = self._endpoint(peer)
        while True:
            address = await lookup(self.registry_address, peer, timeout=self.LINK_SETUP_TIMEOUT)
            try:
                receiver = await self._dial(
                    address, endpoint, self.name, peer, kind="broker", resync=resync
                )
                break
            except OSError as exc:
                if loop.time() + pause > deadline:
                    raise ClusterError(
                        f"{self.name}: could not connect to {peer!r} at {address} "
                        f"within {self.LINK_SETUP_TIMEOUT}s: {exc}"
                    )
                await asyncio.sleep(pause + self._rng.uniform(0.0, pause / 4))
                pause = min(pause * 2, self.DIAL_RETRY_CAP)
        # the acceptor reads the handshake first, so the link is usable at
        # once; its answer only confirms that it speaks this node's wire revision
        endpoint._writer = receiver.sock
        self.broker.attach_link(peer, endpoint)
        self.broker.register_broker_peer(peer)
        if resync:
            self.broker.resync_link(peer)
        await receiver.acked

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

    async def _wait_for_accepts(self) -> None:
        if self._accept_pending:
            try:
                await asyncio.wait_for(self._accepts_done.wait(), self.LINK_SETUP_TIMEOUT)
            except asyncio.TimeoutError:
                raise ClusterError(
                    f"{self.name}: peers never dialled in: {sorted(self._accept_pending)}"
                ) from None

    # ---------------------------------------------------------------- control
    def _stats(self) -> Dict[str, Any]:
        links = {
            peer: _stats_payload(endpoint.stats) for peer, endpoint in self.broker.links.items()
        }
        return {
            "received": self.broker.messages_received,
            "sent": self.broker.messages_sent,
            "broker": self.broker.stats(),
            "links": links,
        }

    async def _control_loop(self, channel: FrameChannel) -> None:
        try:
            while True:
                request = await channel.recv()
                if request is None:
                    # parent (and its registry) are gone: shut down, no orphan
                    self.stop.set()
                    return
                rid = request.get("rid")
                op = request.get("op")
                if op == "stats":
                    channel.send({"re": rid, "ok": True, **self._stats()})
                elif op == "metrics":
                    channel.send({"re": rid, "ok": True, "metrics": self.broker.metrics_snapshot()})
                elif op == "link_down":
                    self._sever_link(request.get("peer"))
                    channel.send({"re": rid, "ok": True})
                elif op == "link_up":
                    try:
                        await self._dial_peer(request.get("peer"), resync=True)
                    except (ClusterError, RegistryError, OSError) as exc:
                        channel.send({"re": rid, "ok": False, "error": str(exc)})
                    else:
                        channel.send({"re": rid, "ok": True})
                elif op == "shutdown":
                    channel.send({"re": rid, "ok": True})
                    await channel.drain()
                    self.stop.set()
                    return
                else:
                    channel.send({"re": rid, "ok": False, "error": f"unknown op {op!r}"})
                await channel.drain()
        except (ConnectionResetError, asyncio.CancelledError):
            self.stop.set()
        except BaseException as exc:
            self._record_error(exc)

    # -------------------------------------------------------------------- run
    async def serve(self) -> int:
        """The node's whole life; returns its exit code, or raises what failed it."""
        server = await self._loop.create_server(
            lambda: _Receiver(self, self.name), host=self.host, port=0
        )
        port = server.sockets[0].getsockname()[1]
        channel = await register_node(self.registry_address, self.name, self.host, port)
        control: Optional[asyncio.Future] = None
        try:
            for peer in self.spec.get("dial", ()):
                await self._dial_peer(peer, resync=self.resync_on_connect)
            await self._wait_for_accepts()
            await report_ready(channel, self.name)
            control = asyncio.ensure_future(self._control_loop(channel))
            await self.stop.wait()
        finally:
            server.close()
            self._close_connections()
            channel.close()
            if control is not None:
                control.cancel()
                await asyncio.gather(control, return_exceptions=True)
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
        return node._loop.run_until_complete(node.serve())
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

    def __init__(self, transport: "ClusterTransport", a: Process, b: Process, latency: float):
        self.transport = transport
        self.a = a
        self.b = b
        self.latency = latency
        self.up = True
        self.deliver_in_flight_on_down = True
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

    def disconnect(self) -> None:
        self.set_up(False)

    def reconnect(self) -> None:
        self.set_up(True)

    def on_drop(self, message: Message, source: Process, target: Process) -> None:
        """Drop hook for interface parity; cluster links never drop by policy."""

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
        stats.bytes = polled.get("bytes", 0)
        stats.dropped = polled.get("dropped", 0)
        stats.by_kind = dict(polled.get("by_kind", {}))
        return stats

    def total_messages(self) -> int:
        return self.stats_a_to_b.messages + self.stats_b_to_a.messages

    def total_bytes(self) -> int:
        return self.stats_a_to_b.bytes + self.stats_b_to_a.bytes

    def messages_of_kind(self, kind: str) -> int:
        return self.stats_a_to_b.by_kind.get(kind, 0) + self.stats_b_to_a.by_kind.get(kind, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavour = "edge" if self.is_broker_edge else "client"
        return f"ClusterLink({self.a.name}<->{self.b.name}, {flavour})"


class RemoteBroker(Process):
    """Parent-side proxy for a broker that lives in a child process.

    Carries the broker's topology until boot and its last polled counters
    afterwards (its knobs travel in the node spec).  It never routes
    anything itself — messages to a remote broker go over the TCP
    attachment, not through ``deliver``.
    """

    def __init__(self, transport: "ClusterTransport", clock, name: str, routing: str):
        super().__init__(clock, name)
        self.transport = transport
        self.routing_strategy_name = routing
        self._broker_peers: Set[str] = set()

    # topology bookkeeping (mirrors Broker's surface used by BrokerNetwork)
    def register_broker_peer(self, peer_name: str) -> None:
        self._broker_peers.add(peer_name)

    def unregister_broker_peer(self, peer_name: str) -> None:
        self._broker_peers.discard(peer_name)

    def broker_neighbors(self) -> List[str]:
        return sorted(self._broker_peers)

    def client_links(self) -> List[str]:
        return sorted(self.transport.clients_of(self.name))

    @property
    def is_border(self) -> bool:
        return bool(self.transport.clients_of(self.name))

    # remote state, refreshed by the transport's stats polls
    @property
    def last_stats(self) -> Dict[str, Any]:
        return self.transport.polled_stats.get(self.name, {})

    def stats(self) -> Dict[str, int]:
        return dict(self.last_stats.get("broker", {}))

    def routing_table_size(self) -> int:
        return int(self.last_stats.get("broker", {}).get("table_size", 0))

    def on_message(self, message: Message) -> None:  # pragma: no cover - guard
        raise ClusterError(
            f"RemoteBroker {self.name!r} received a local message; remote brokers "
            "only exist as proxies in the parent process"
        )


# --------------------------------------------------------- parent: transport


class ClusterTransport(SocketNode, Transport):
    """Run each broker of the graph in its own spawned OS process.

    The parent process hosts the registry, the clients and this transport —
    a dial-only :class:`~repro.net.transport.SocketNode`; each declared
    broker becomes a child process connected to its peers by duplex TCP
    links.  Booting happens lazily on the first client attachment (or
    explicitly via :meth:`boot`); the broker topology is frozen from that
    point on.

    ``run_until_idle`` uses counter-stability quiescence (see the module
    docstring) and doubles as the crash detector: a child that exited is
    reported with its exit code as a :class:`ClusterError`.
    """

    name = "cluster"
    # the broker topology freezes at boot, so the dynamically attaching
    # wireless links of the mobility layer cannot be hosted here
    supports_mobility = False
    # faults are real here: SIGKILL + supervised respawn, TCP-level severing
    supports_fault_injection = True

    DEFAULT_BOOT_TIMEOUT = 60.0
    DEFAULT_IDLE_TIMEOUT = 120.0
    #: once a fault has dropped frames, sent==received never holds again;
    #: quiescence then requires this many consecutive identical poll rounds
    LOSSY_STABLE_ROUNDS = 5
    #: pause between two counter-poll rounds of :meth:`run_until_idle`
    POLL_INTERVAL = 0.005

    def __init__(
        self,
        host: str = "127.0.0.1",
        registry_port: Optional[int] = None,
        boot_timeout: float = DEFAULT_BOOT_TIMEOUT,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    ):
        super().__init__()
        self.host = host
        self.boot_timeout = boot_timeout
        self.idle_timeout = idle_timeout
        self.registry = RegistryServer(host, port=registry_port)
        self._specs: Dict[str, Dict[str, Any]] = {}
        self._brokers: Dict[str, RemoteBroker] = {}
        self._children: Dict[str, subprocess.Popen] = {}
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

    def clients_of(self, broker_name: str) -> Set[str]:
        return self._client_peers.get(broker_name, set())

    @property
    def booted(self) -> bool:
        return self._booted

    @property
    def failures(self) -> Dict[str, int]:
        """Broker name -> non-zero exit code, for every child that failed."""
        return {name: code for name, code in self.exit_codes.items() if code != 0}

    @property
    def broker_pids(self) -> Dict[str, int]:
        """Broker name -> OS pid of its spawned process (empty before boot)."""
        return {name: child.pid for name, child in self._children.items()}

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
            "host": self.host,
            "routing": routing,
            "config": self.system_config.to_dict(),
            "dial": [],
            "accept": [],
        }
        proxy = RemoteBroker(self, self._clock, name, routing)
        self._brokers[name] = proxy
        return proxy

    def make_link(
        self,
        a: Process,
        b: Process,
        latency: float = 0.001,
        deliver_in_flight_on_down: bool = True,
    ) -> ClusterLink:
        self._require_open()
        remote_a, remote_b = isinstance(a, RemoteBroker), isinstance(b, RemoteBroker)
        link = ClusterLink(self, a, b, latency)
        if remote_a and remote_b:
            if self._booted:
                raise ClusterError("cannot add broker edges after the cluster has booted")
            # the edge's first broker dials, the second accepts
            self._specs[a.name]["dial"].append(b.name)
            self._specs[b.name]["accept"].append(a.name)
        elif remote_a or remote_b:
            client, broker = (b, a) if remote_a else (a, b)
            self.boot()
            self._local[client.name] = client
            self._client_peers.setdefault(broker.name, set()).add(client.name)
            self._loop.run_until_complete(self._attach_client(client, broker.name, link))
        else:
            raise ClusterError(
                "cluster links connect clients to brokers or brokers to brokers; "
                f"neither {a.name!r} nor {b.name!r} is a declared broker"
            )
        self.links.append(link)
        return link

    # -------------------------------------------------------------------- boot
    def boot(self) -> None:
        """Spawn one OS process per declared broker and wait for readiness."""
        self._require_open()
        if self._booted:
            return
        if not self._specs:
            raise ClusterError("no brokers declared; add brokers before attaching clients")
        self._booted = True
        self._loop.run_until_complete(self.registry.start())
        for name, spec in self._specs.items():
            spec["registry"] = list(self.registry.address)
            self._children[name] = self._spawn(spec)
        barrier = self.registry.wait_ready(
            self._specs, self.boot_timeout, liveness=self._check_children
        )
        try:
            self._loop.run_until_complete(barrier)
        except Exception:
            # a failed boot must not leak half a cluster
            self.close()
            raise

    def _spawn(self, spec: Dict[str, Any]) -> subprocess.Popen:
        src_dir = Path(__file__).resolve().parents[2]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.net.cluster_node", json.dumps(spec)],
            env=env,
        )

    def _check_children(self) -> None:
        """Raise if any broker child exited; called on every liveness tick."""
        if self._closed:
            return
        for name, child in self._children.items():
            if name in self._down:
                continue  # deliberately killed; not a surprise crash
            code = child.poll()
            if code is not None:
                raise ClusterError(
                    f"broker process {name!r} exited with code {code} "
                    "(see its traceback on stderr)"
                )

    async def _attach_client(self, client: Process, broker_name: str, link: ClusterLink) -> None:
        def receive(message: Message) -> None:
            link._local_in.record(message)
            client.deliver(message)

        # the link owns the counters of both directions
        endpoint = ClusterEndpoint(self, broker_name, receive, stats=link._local_out)
        address = self.registry.registered[broker_name]
        receiver = await self._dial(address, endpoint, client.name, broker_name, kind="client")
        endpoint._writer = receiver.sock
        await receiver.acked
        client.attach_link(broker_name, endpoint)

    # ----------------------------------------------------------- control plane
    def _request(self, name: str, op: str, timeout: float = 10.0, **fields: Any) -> Dict[str, Any]:
        """One control round-trip with broker ``name``, driven to completion."""
        return self._loop.run_until_complete(
            self.registry.request(name, op, timeout=timeout, **fields)
        )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Gather every live child's metrics over the registry control channel."""
        self._require_open()
        live = [name for name in self._specs if self._booted and name not in self._down]
        brokers = {name: self._request(name, "metrics")["metrics"] for name in live}
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

    def kill_broker(self, name: str) -> None:
        """``kill -9`` a broker child mid-run (chaos testing).

        The registry forgets the node so its stale address cannot satisfy a
        lookup, and liveness checks stop treating the death as a crash.
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
        self.registry.forget(name)
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

        The respawned child re-registers under its old name, dials every
        surviving neighbour with the resync flag (both sides re-advertise
        their routing state from scratch), and the parent re-attaches the
        broker's clients, whose local brokers re-issue their subscriptions —
        after the next drain the delivery sets converge back to the sim
        baseline.
        """
        self._require_open()
        if name not in self._down:
            raise ClusterError(f"broker {name!r} is not down; kill it before restarting")
        spec = dict(self._specs[name])
        spec["dial"] = self._neighbors_of(name)
        spec["accept"] = []
        spec["resync"] = True
        self._children[name] = self._spawn(spec)
        self._down.discard(name)
        barrier = self.registry.wait_ready([name], self.boot_timeout, liveness=self._check_children)
        self._loop.run_until_complete(barrier)
        self.recovery["restarts"] += 1
        for client_name in sorted(self._client_peers.get(name, ())):
            client = self._local[client_name]
            link = self._client_link(client_name, name)
            self._loop.run_until_complete(self._attach_client(client, name, link))
            if hasattr(client, "connect_to"):
                client.connect_to(name, reissue=True)
                self.recovery["client_resubscribes"] += len(client.subscriptions)

    def _neighbors_of(self, name: str) -> List[str]:
        """Broker peers reachable over currently-up edges (for re-dialling)."""
        peers: Set[str] = set()
        for link in self.links:
            if not link.is_broker_edge or not link.up:
                continue
            if link.a.name == name:
                peers.add(link.b.name)
            elif link.b.name == name:
                peers.add(link.a.name)
        return sorted(peers)

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
        if dialer in self._down or acceptor in self._down:
            raise ClusterError(
                f"cannot restore {dialer}<->{acceptor}: one side is down; restart it first"
            )
        try:
            self._request(dialer, "link_up", peer=acceptor, timeout=self.boot_timeout)
        except RegistryError as exc:
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
        timeout = timeout if timeout is not None else self.idle_timeout

        async def drain() -> None:
            deadline = self._loop.time() + timeout
            previous: Optional[Dict[str, Tuple[int, int]]] = None
            stable_rounds = 0
            while True:
                if self._pending_error is not None:
                    return
                self._check_children()
                snapshot = await self._poll_counters()
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
                # parent-side clock callback also keeps the cluster busy
                if idle and self._clock.pending_timers == 0:
                    return
                previous = snapshot
                if self._loop.time() > deadline:
                    raise ClusterError(
                        f"cluster did not reach quiescence within {timeout}s "
                        f"(last snapshot: {snapshot})"
                    )
                await asyncio.sleep(self.POLL_INTERVAL)

        self._loop.run_until_complete(drain())
        self._raise_pending_error()
        return self._clock.now

    async def _poll_counters(self) -> Dict[str, Tuple[int, int]]:
        # every broker has its own control channel, so the stats calls are
        # independent: one concurrent round costs one RTT, not n_brokers RTTs
        names = [name for name in self._specs if name not in self._down]
        calls = [self.registry.call(name, {"op": "stats"}, timeout=5.0) for name in names]
        replies = await asyncio.gather(*calls, return_exceptions=True)
        snapshot: Dict[str, Tuple[int, int]] = {}
        for name, reply in zip(names, replies):
            if isinstance(reply, BaseException):
                if not isinstance(reply, RegistryError):
                    raise reply
                self._check_children()  # a dead child explains it better
                raise ClusterError(f"lost contact with broker {name!r}: {reply}") from reply
            self.polled_stats[name] = reply
            snapshot[name] = (reply.get("received", 0), reply.get("sent", 0))
        for name, process in self._local.items():
            snapshot[name] = (process.messages_received, process.messages_sent)
        return snapshot

    def resource_sizes(self) -> Dict[str, int]:
        """Parent-side resource sizes; kill/restart cycles must not grow them.

        ``receivers`` counts the client connections still open,
        ``open_writers`` the client endpoints that can still send; a quiesced
        snapshot after a recovery cycle is directly comparable to the
        pre-fault baseline — the soak harness's non-growth gate.
        """
        endpoints = [e for process in self._local.values() for e in process.links.values()]
        return {
            "links": len(self.links),
            "receivers": len(self._receivers),
            "open_writers": sum(e.is_open for e in endpoints),
            "registry_entries": len(self.registry.registered),
            "registry_disconnected": len(self.registry.disconnected),
            "live_children": sum(1 for child in self._children.values() if child.poll() is None),
            "pending_timers": self._clock.pending_timers,
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
        if self._booted:
            for name, child in self._children.items():
                if child.poll() is None:
                    try:
                        self._request(name, "shutdown", timeout=5.0)
                    except (RegistryError, ConnectionError):
                        pass
            self._close_connections()
            self._loop.run_until_complete(self.registry.close())
            for name, child in self._children.items():
                try:
                    self.exit_codes[name] = child.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    child.kill()
                    self.exit_codes[name] = child.wait()
        self._loop.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("booted" if self._booted else "declared")
        return f"ClusterTransport({len(self._specs)} brokers, {state})"
