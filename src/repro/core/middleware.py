"""The mobility-enabled middleware facade.

:class:`MobilePubSub` assembles the whole system of Fig. 4: an acyclic broker
network, one replicator per border broker (linked to its broker and to the
other replicators), a shared movement predictor implementing the ``nlb``
function, and mobile clients connected through wireless channels.  It is the
top-level public API the examples and experiments use; everything it does can
also be done by wiring the lower-level pieces manually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.simulator import EventHandle
from ..pubsub.broker_network import BrokerNetwork
from ..pubsub.client import Client
from .location import LocationSpace
from .mobile_client import MobileClient
from .movement_graph import MovementGraph, from_broker_network, from_location_space
from .replicator import (
    REPLICATION_CONTROL_KINDS,
    Replicator,
    ReplicatorConfig,
)
from .uncertainty import (
    FloodingPredictor,
    MarkovPredictor,
    MovementPredictor,
    NeighbourhoodPredictor,
    NoPredictionPredictor,
)


#: the simulator's one-way latencies of the links :class:`MobilePubSub`
#: builds: a wired publisher or subscriber to its broker, a replicator to
#: its broker and to every other replicator, a mobile client's wireless hop
STATIC_CLIENT_LATENCY = 0.001
REPLICATOR_LINK_LATENCY = 0.0005
WIRELESS_LATENCY = 0.002


@dataclass
class MobilitySystemConfig:
    """What a deployment chooses for the mobility layer of a :class:`MobilePubSub`.

    The broker fabric underneath (routing, transport, metrics)
    is configured once, on the
    :class:`~repro.pubsub.broker_network.BrokerNetwork` the deployment
    rides on (``network.config``); this object holds only what the
    replicator layer adds.  Link latencies are no choice; see
    :class:`MobilePubSub`.
    """

    #: feature switches of the replicator layer
    replicator: ReplicatorConfig = field(default_factory=ReplicatorConfig)
    #: shadow-placement policy: "nlb", "nlb-<k>", "flooding", "none", "markov", or a predictor object
    predictor: str | MovementPredictor = "nlb"
    #: time for a device to associate with an access point
    connect_latency: float = 0.05


class MobilePubSub:
    """A complete mobile publish/subscribe deployment.

    Runs on any transport backend with dynamic link support: the
    deterministic simulator (the default, and the substrate the experiments
    use) or real asyncio sockets (networks built with
    ``config=SystemConfig(transport="asyncio")``), where
    every wireless attach opens an actual TCP connection and the whole
    replicated-handover protocol crosses the wire as encoded frames.

    Simulated latency stays on the simulator: every backend builds the
    publisher, replicator and wireless links with the constants above, and
    only the simulator applies them (a socket link delivers at arrival).

    Parameters
    ----------
    network:
        The (already built, validated) acyclic broker network.  Everything
        runs on its clock (``network.sim``): the discrete-event simulator on
        the default backend, the transport's clock otherwise.
    space:
        The location space mapping logical locations to border brokers.  The
        movement restriction is derived from its adjacency (falling back to
        the broker network's own edges when the space has no adjacency
        information).
    config:
        Mobility-layer parameters; see :class:`MobilitySystemConfig`.  The
        fabric knobs are the network's own ``network.config``.
    """

    def __init__(
        self,
        network: BrokerNetwork,
        space: LocationSpace,
        *,
        config: Optional[MobilitySystemConfig] = None,
    ):
        self.sim = network.sim
        self.network = network
        self.space = space
        self.config = config or MobilitySystemConfig()
        self._check_transport()
        self.movement_graph = self._default_movement_graph()
        self.predictor = self._build_predictor(self.config.predictor)
        self.replicators: Dict[str, Replicator] = {}
        self.mobile_clients: Dict[str, MobileClient] = {}
        # the attach a gapped move scheduled, per client name: a later attach
        # or detach cancels it, so a superseded move never reattaches
        self._pending_attach: Dict[str, EventHandle] = {}
        self._build_replicators()

    # ------------------------------------------------------------------ build
    def _check_transport(self) -> None:
        """Reject a network whose backend lacks *dynamic links*.

        Wireless channels open and tear down links while the substrate runs
        (``Transport.supports_mobility``), which the simulator and asyncio
        backends provide but the frozen-topology cluster backend does not.
        """
        backend = self.network.transport
        if not backend.supports_mobility:
            raise NotImplementedError(
                "the mobility layer (replicators, wireless channels) needs dynamic "
                f"link support, which the {backend.name!r} backend does not provide; run "
                f"plain pub/sub workloads on {backend.name!r} through BrokerNetwork directly"
            )

    def _default_movement_graph(self) -> MovementGraph:
        graph = from_location_space(self.space)
        if len(graph.edges()) == 0:
            graph = from_broker_network(self.network)
        # make sure every broker of the network is present, even uncovered ones
        for broker in self.network.broker_names():
            graph.add_broker(broker)
        return graph

    def _build_predictor(self, spec: str | MovementPredictor) -> MovementPredictor:
        if isinstance(spec, MovementPredictor):
            return spec
        if spec == "nlb":
            return NeighbourhoodPredictor(self.movement_graph, hops=1)
        if spec.startswith("nlb-"):
            hops = int(spec.split("-", 1)[1])
            return NeighbourhoodPredictor(self.movement_graph, hops=hops)
        if spec == "flooding":
            return FloodingPredictor(self.network.broker_names())
        if spec == "none":
            return NoPredictionPredictor()
        if spec == "markov":
            return MarkovPredictor(self.movement_graph)
        raise ValueError(f"unknown predictor spec {spec!r}")

    def _build_replicators(self) -> None:
        registry: Dict[str, str] = {}
        for broker_name in self.network.broker_names():
            replicator = Replicator(
                self.sim,
                name=f"R@{broker_name}",
                broker_name=broker_name,
                space=self.space,
                predictor=self.predictor,
                config=self.config.replicator,
            )
            self.replicators[broker_name] = replicator
            self.network.add_process(replicator)
            self.network.connect_processes(
                replicator.name, broker_name, latency=REPLICATOR_LINK_LATENCY
            )
            registry[broker_name] = replicator.name
        replicator_names = sorted(registry.values())
        for i, name_a in enumerate(replicator_names):
            for name_b in replicator_names[i + 1 :]:
                self.network.connect_processes(name_a, name_b, latency=REPLICATOR_LINK_LATENCY)
        for replicator in self.replicators.values():
            replicator.set_replicator_registry(registry)

    # ---------------------------------------------------------------- clients
    def add_mobile_client(self, name: str, reissue_on_attach: bool = True) -> MobileClient:
        """Create a mobile (wireless, roaming) client."""
        client = MobileClient(
            name,
            reissue_on_attach=reissue_on_attach,
            wireless_latency=WIRELESS_LATENCY,
            connect_latency=self.config.connect_latency,
            transport=self.network.transport,
        )
        self.mobile_clients[name] = client
        self.network.add_process(client)
        return client

    def add_static_client(self, name: str, broker_name: str) -> Client:
        """Create an ordinary wired client attached directly to a border broker."""
        return self.network.add_client(name, broker_name, latency=STATIC_CLIENT_LATENCY)

    def add_publisher(self, name: str, location: str) -> Client:
        """Create a wired publisher attached to the broker covering ``location``."""
        return self.add_static_client(name, self.space.broker_of(location))

    # ------------------------------------------------------------- attachment
    def replicator_for_broker(self, broker_name: str) -> Replicator:
        return self.replicators[broker_name]

    def replicator_for_location(self, location: str) -> Replicator:
        return self.replicators[self.space.broker_of(location)]

    def attach(
        self,
        client: MobileClient,
        location: Optional[str] = None,
        broker: Optional[str] = None,
    ) -> str:
        """Attach a mobile client at a location (or directly at a broker).  Returns the broker name."""
        self._cancel_pending_attach(client)
        if location is not None:
            client.set_location(location)
            broker = self.space.broker_of(location)
        if broker is None:
            raise ValueError("attach needs either a location or a broker")
        replicator = self.replicators[broker]
        client.attach(replicator, broker)
        return broker

    def detach(self, client: MobileClient) -> Optional[str]:
        """Detach a mobile client from its current access point (connection-aware)."""
        self._cancel_pending_attach(client)
        broker = client.current_broker
        client.detach(announce=False)
        if broker is not None and broker in self.replicators:
            self.replicators[broker].device_disconnected(client.name)
        return broker

    def move(self, client: MobileClient, new_location: str, gap: float = 0.0) -> str:
        """Move a client to ``new_location``.

        Movement within the current broker's coverage is pure logical
        mobility (a ``location_update``); crossing a broker boundary performs
        the full handover: detach, optional out-of-coverage ``gap``, attach
        at the new broker, which triggers the replicator's handover handling.
        Returns the broker covering the new location.
        """
        new_broker = self.space.broker_of(new_location)
        if client.connected and client.current_broker == new_broker:
            client.set_location(new_location)
            return new_broker
        self.detach(client)
        client.set_location(new_location)
        replicator = self.replicators[new_broker]
        if gap > 0:
            self._pending_attach[client.name] = self.sim.schedule(
                gap, client.attach, replicator, new_broker
            )
        else:
            client.attach(replicator, new_broker)
        return new_broker

    def _cancel_pending_attach(self, client: MobileClient) -> None:
        # cancelling a handle that already ran is a no-op on every clock
        handle = self._pending_attach.pop(client.name, None)
        if handle is not None:
            handle.cancel()

    def power_off(self, client: MobileClient) -> None:
        """Power-saving disconnect: the client disappears without telling anyone where to."""
        self.detach(client)

    def power_on(self, client: MobileClient, location: str) -> str:
        """Reconnect after a power-off, possibly far away from the last known broker."""
        return self.attach(client, location=location)

    def remove_client(self, client: MobileClient) -> None:
        """Application shutdown: garbage collect the client's virtual clients everywhere.

        A gapped move's attach still pending is cancelled first, so the
        removed client never reattaches.
        """
        self._cancel_pending_attach(client)
        client.shutdown_application()

    # ------------------------------------------------------------------ stats
    def control_message_count(self) -> int:
        """Messages of the extended-logical-mobility control protocol sent so far."""
        return sum(self.network.total_messages(kind) for kind in REPLICATION_CONTROL_KINDS)

    def subscription_message_count(self) -> int:
        return self.network.total_messages("subscribe") + self.network.total_messages("unsubscribe")

    def total_shadow_count(self) -> int:
        """Number of buffering (shadow) virtual clients currently alive in the system."""
        return sum(len(r.shadow_brokers_hosting()) for r in self.replicators.values())

    def total_virtual_clients(self) -> int:
        return sum(len(r.virtual_clients) for r in self.replicators.values())

    def total_buffer_memory(self) -> int:
        return sum(r.total_buffer_memory() for r in self.replicators.values())

    def total_shadow_deliveries(self) -> int:
        """Notifications that ended up in shadow buffers (the bandwidth cost of pre-subscriptions)."""
        return sum(r.stats.notifications_buffered for r in self.replicators.values())

    def shadow_map(self) -> Dict[str, List[str]]:
        """Mapping broker -> client ids with a virtual client hosted there."""
        return {
            broker: replicator.hosted_client_ids()
            for broker, replicator in self.replicators.items()
            if replicator.virtual_clients
        }

    def run_until_idle(self) -> float:
        return self.sim.run_until_idle()

    def close(self) -> None:
        """Release the substrate's resources (sockets on real backends).  Idempotent."""
        self.network.close()
