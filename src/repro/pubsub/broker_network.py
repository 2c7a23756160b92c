"""Broker network topologies.

"The communication topology of the pub/sub system is given by a graph, which
is assumed to be acyclic and connected." (Sect. 2, Fig. 2)

:class:`BrokerNetwork` wires :class:`~repro.pubsub.broker.Broker` processes
together over FIFO links, registers the broker-to-broker peer relationships
(so brokers can distinguish broker links from client links), keeps the
registry of every process and link (which the metric collectors and the
fault injector iterate over) and validates the acyclic/connected
assumption.  The module also provides the standard topology
builders used by the experiments: line, balanced tree (a star is a tree of
depth 1) and random tree.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..net.link import Link
from ..net.process import Process
from ..net.transport import make_transport
from .broker import Broker
from .client import Client


class TopologyError(ValueError):
    """Raised when the broker graph violates the acyclic/connected assumption."""


class BrokerNetwork:
    """A set of brokers connected in an acyclic graph, plus attached clients.

    The substrate and every fabric knob come from one
    :class:`~repro.config.SystemConfig` passed as ``config=`` (the defaults
    when omitted): transport backend, matcher and the metrics switch.  A
    typo like ``SystemConfig(matcher="indxed")`` fails when the config is
    built, with the allowed names in the message.

    The transport backends: ``"sim"`` (default) is the deterministic
    discrete-event simulator; ``"asyncio"`` runs every broker and client on
    real localhost TCP sockets with binary wire-serialized messages;
    ``"cluster"`` shards the broker graph across spawned OS processes, each
    serving on a listener the parent holds (:mod:`repro.net.cluster`) — the
    cluster boots lazily when the first client attaches, freezing the broker
    topology.  The pub/sub behaviour is identical on all backends; see
    :mod:`repro.net.transport` for the guarantees each one makes.  The
    transport owns the clock, and :attr:`sim` is that clock: the
    :class:`~repro.net.simulator.Simulator` on ``"sim"``, a
    :class:`~repro.net.transport.WallClock` on the socket backends.
    """

    def __init__(
        self,
        *,
        routing: str = "simple",
        link_latency: float = 0.001,
        config=None,
    ):
        from ..config import SystemConfig  # lazy: config imports this package

        if config is None:
            config = SystemConfig()
        elif not isinstance(config, SystemConfig):
            raise TypeError(f"config must be a SystemConfig, got {type(config).__name__}")
        self.config = config
        self.routing = routing
        self.link_latency = link_latency
        self.transport = make_transport(config)
        self.sim = self.transport.clock
        #: every registered process (brokers, clients, replicators), by name
        self.processes: Dict[str, Process] = {}
        #: every link, in the order it was made
        self.links: list = []
        self.brokers: Dict[str, Broker] = {}
        self.clients: Dict[str, Client] = {}
        self._broker_edges: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ build
    def add_broker(self, name: str) -> Broker:
        """Create and register a broker process.

        The transport decides what a "broker process" is: the in-process
        backends return a real :class:`~repro.pubsub.broker.Broker`, the
        ``"cluster"`` backend a :class:`~repro.net.cluster.RemoteBroker`
        proxy whose broker runs in its own spawned OS process.  Either way
        the broker's knobs are read from :attr:`config`, which the transport
        was built with.
        """
        broker = self.transport.build_broker(name, routing=self.routing)
        self.add_process(broker)
        self.brokers[name] = broker
        return broker

    def connect_brokers(self, a: str, b: str) -> Link:
        """Create a broker-to-broker link and register the peer relation on both ends."""
        if a not in self.brokers or b not in self.brokers:
            raise KeyError(f"both {a!r} and {b!r} must be brokers in this network")
        link = self.connect_processes(a, b)
        self.brokers[a].register_broker_peer(b)
        self.brokers[b].register_broker_peer(a)
        self._broker_edges.append((a, b))
        return link

    def add_client(self, name: str, broker_name: str, latency: Optional[float] = None) -> Client:
        """Create a client process and attach it to a border broker."""
        client = Client(self.sim, name)
        self.add_process(client)
        self.clients[name] = client
        self.attach_client(client, broker_name, latency=latency)
        return client

    def attach_client(
        self, client: Client, broker_name: str, latency: Optional[float] = None
    ) -> Link:
        """Attach an existing client process to ``broker_name`` and connect its local broker."""
        if broker_name not in self.brokers:
            raise KeyError(f"{broker_name!r} is not a broker in this network")
        if client.name not in self.processes:
            self.add_process(client)
            self.clients[client.name] = client
        link = self.connect_processes(client.name, broker_name, latency)
        client.connect_to(broker_name)
        return link

    def add_process(self, process: Process) -> Process:
        """Register a process (broker, client, replicator) under its unique name."""
        if process.name in self.processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self.processes[process.name] = process
        return process

    def connect_processes(self, a: str, b: str, latency: Optional[float] = None) -> Link:
        """Create (and register) a link between two registered processes."""
        link = self.transport.make_link(
            self.processes[a],
            self.processes[b],
            latency=latency if latency is not None else self.link_latency,
        )
        self.links.append(link)
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The link joining ``a`` and ``b``, or ``None``."""
        for link in self.links:
            if {link.a.name, link.b.name} == {a, b}:
                return link
        return None

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise :class:`TopologyError` unless the broker graph is acyclic and connected."""
        names = list(self.brokers.keys())
        if not names:
            return
        edges = self._broker_edges
        if len(edges) != len(names) - 1:
            raise TopologyError(
                f"an acyclic connected graph over {len(names)} brokers needs exactly "
                f"{len(names) - 1} edges, found {len(edges)}"
            )
        adjacency: Dict[str, List[str]] = {name: [] for name in names}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = set()
        stack = [names[0]]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(peer for peer in adjacency[node] if peer not in seen)
        if seen != set(names):
            missing = sorted(set(names) - seen)
            raise TopologyError(f"broker graph is not connected; unreachable: {missing}")

    # ------------------------------------------------------------------ views
    def broker_edges(self) -> List[Tuple[str, str]]:
        return list(self._broker_edges)

    def broker_names(self) -> List[str]:
        return sorted(self.brokers.keys())

    # ------------------------------------------------------------------ stats
    def total_messages(self, kind: Optional[str] = None) -> int:
        """Total messages across all links, optionally restricted to one kind."""
        if kind is None:
            return sum(link.total_messages() for link in self.links)
        return sum(link.messages_of_kind(kind) for link in self.links)

    def broker_link_messages(self, kind: Optional[str] = None) -> int:
        """Messages that crossed broker-to-broker links only (network load metric)."""
        total = 0
        for a, b in self._broker_edges:
            link = self.link_between(a, b)
            if link is None:
                continue
            total += link.total_messages() if kind is None else link.messages_of_kind(kind)
        return total

    def total_routing_table_size(self) -> int:
        return sum(broker.routing_table_size() for broker in self.brokers.values())

    def run(self, until: Optional[float] = None) -> float:
        """Convenience passthrough to the transport's clock."""
        return self.sim.run(until=until)

    def run_until_idle(self) -> float:
        """Drive the substrate until no traffic or scheduled work remains."""
        return self.transport.run_until_idle()

    def close(self) -> None:
        """Release substrate resources (a no-op on the simulator backend)."""
        self.transport.close()


# ----------------------------------------------------------------- topologies


def line_topology(
    n_brokers: int = 2,
    *,
    routing: str = "simple",
    link_latency: float = 0.001,
    config=None,
) -> BrokerNetwork:
    """Brokers connected in a chain: B1 - B2 - ... - Bn."""
    net = BrokerNetwork(routing=routing, link_latency=link_latency, config=config)
    names = [f"B{i + 1}" for i in range(n_brokers)]
    for name in names:
        net.add_broker(name)
    for left, right in zip(names, names[1:]):
        net.connect_brokers(left, right)
    net.validate()
    return net


def balanced_tree_topology(
    branching: int = 2,
    depth: int = 1,
    *,
    routing: str = "simple",
    link_latency: float = 0.001,
    config=None,
) -> BrokerNetwork:
    """A balanced tree of brokers with the given branching factor and depth."""
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    net = BrokerNetwork(routing=routing, link_latency=link_latency, config=config)
    counter = 0

    def make(depth_left: int, parent: Optional[str]) -> None:
        nonlocal counter
        counter += 1
        name = f"B{counter}"
        net.add_broker(name)
        if parent is not None:
            net.connect_brokers(parent, name)
        if depth_left > 0:
            for _ in range(branching):
                make(depth_left - 1, name)

    make(depth, None)
    net.validate()
    return net


def random_tree_topology(
    n_brokers: int = 2,
    *,
    routing: str = "simple",
    link_latency: float = 0.001,
    seed: int = 0,
    config=None,
) -> BrokerNetwork:
    """A uniformly random tree over ``n_brokers`` brokers (random attachment)."""
    rng = random.Random(seed)
    net = BrokerNetwork(routing=routing, link_latency=link_latency, config=config)
    names = [f"B{i + 1}" for i in range(n_brokers)]
    for name in names:
        net.add_broker(name)
    for i in range(1, n_brokers):
        parent = names[rng.randrange(i)]
        net.connect_brokers(parent, names[i])
    net.validate()
    return net


def grid_border_topology(
    rows: int = 1,
    cols: int = 2,
    *,
    routing: str = "simple",
    link_latency: float = 0.001,
    config=None,
) -> Tuple[BrokerNetwork, Dict[Tuple[int, int], str]]:
    """A broker per grid cell as a spanning tree (row backbones joined by the first column).

    Returns the network and a mapping from ``(row, col)`` cells to broker
    names.  The physical adjacency of the grid (4-neighbourhood) is what
    movement graphs are typically built from, while the broker *network*
    stays an acyclic tree as the paper requires.
    """
    net = BrokerNetwork(routing=routing, link_latency=link_latency, config=config)
    cells: Dict[Tuple[int, int], str] = {}
    for r in range(rows):
        for c in range(cols):
            name = f"B_{r}_{c}"
            net.add_broker(name)
            cells[(r, c)] = name
    for r in range(rows):
        for c in range(1, cols):
            net.connect_brokers(cells[(r, c - 1)], cells[(r, c)])
    for r in range(1, rows):
        net.connect_brokers(cells[(r - 1, 0)], cells[(r, 0)])
    net.validate()
    return net, cells
