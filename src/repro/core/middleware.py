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
from typing import Dict, List, Mapping, Optional, Sequence

from ..net.simulator import Simulator
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


@dataclass
class MobilitySystemConfig:
    """Tunable parameters of a :class:`MobilePubSub` deployment."""

    #: routing strategy used by all brokers ("simple" is the paper's assumption)
    routing: str = "simple"
    #: routing-table matching strategy: "indexed" (per-link attribute index,
    #: the fast path) or "brute" (evaluate every entry); results are identical.
    #: ``None`` (default) keeps whatever the brokers were built with, so an
    #: explicitly chosen matcher on the network is never silently overridden.
    matcher: Optional[str] = None
    #: subscription-control implementation: "incremental" (maintained
    #: forwarded-filter index, the fast path) or "scan" (rebuild per query);
    #: forwarding decisions are identical.  ``None`` (default) keeps whatever
    #: the brokers were built with.
    advertising: Optional[str] = None
    #: transport backend the deployment expects: "sim" (deterministic
    #: simulator), "asyncio" (real localhost sockets) or "cluster" (one OS
    #: process per broker).  ``None`` (default) accepts whatever the broker
    #: network was built with.  The mobility layer runs on any backend with
    #: dynamic (wireless) link support — the simulator and asyncio both
    #: qualify; "cluster" freezes its broker topology at boot and is
    #: rejected loudly (run plain pub/sub workloads there via
    #: :class:`~repro.pubsub.broker_network.BrokerNetwork` directly).
    transport: Optional[str] = None
    #: feature switches of the replicator layer
    replicator: ReplicatorConfig = field(default_factory=ReplicatorConfig)
    #: shadow-placement policy: "nlb", "nlb-<k>", "flooding", "none", "markov", or a predictor object
    predictor: str | MovementPredictor = "nlb"
    #: latency of broker-to-broker and client-to-broker links
    broker_link_latency: float = 0.001
    #: latency of replicator-to-broker and replicator-to-replicator links
    replicator_link_latency: float = 0.0005
    #: one-way latency of the wireless hop
    wireless_latency: float = 0.002
    #: time for a device to associate with an access point
    connect_latency: float = 0.05
    #: the fabric-level :class:`~repro.config.SystemConfig` this deployment
    #: rides on.  When given, it fills in any ``matcher``/``advertising``/
    #: ``transport`` field left ``None`` above; a field set on *both* objects
    #: must agree, so one deployment can never carry two contradicting
    #: sources of truth.
    system: Optional[object] = None

    def __post_init__(self) -> None:
        if self.system is None:
            return
        from ..config import SystemConfig  # lazy: config imports the pubsub layer

        if not isinstance(self.system, SystemConfig):
            raise TypeError(f"system must be a SystemConfig, got {type(self.system).__name__}")
        for knob in ("matcher", "advertising", "transport"):
            mine = getattr(self, knob)
            fabric = getattr(self.system, knob)
            if mine is None:
                setattr(self, knob, fabric)
            elif mine != fabric:
                raise ValueError(
                    f"MobilitySystemConfig.{knob}={mine!r} contradicts "
                    f"system.{knob}={fabric!r}; set the knob in one place"
                )


class MobilePubSub:
    """A complete mobile publish/subscribe deployment.

    Runs on any transport backend with dynamic link support: the
    deterministic simulator (the default, and the substrate the experiments
    use) or real asyncio sockets (``transport="asyncio"`` networks), where
    every wireless attach opens an actual TCP connection and the whole
    replicated-handover protocol crosses the wire as encoded frames.

    Parameters
    ----------
    sim:
        The clock everything runs on — the discrete-event simulator on the
        default backend, the transport's clock otherwise.  Pass ``None`` to
        use the network's own clock (``network.sim``).
    network:
        The (already built, validated) acyclic broker network.
    space:
        The location space mapping logical locations to border brokers.
    movement_graph:
        The movement restriction; when omitted it is derived from the
        location space's adjacency (falling back to the broker network's own
        edges when the space has no adjacency information).
    config:
        System parameters; see :class:`MobilitySystemConfig`.
    """

    def __init__(
        self,
        sim: Optional[Simulator],
        network: BrokerNetwork,
        space: LocationSpace,
        movement_graph: Optional[MovementGraph] = None,
        config: Optional[MobilitySystemConfig] = None,
    ):
        self.sim = sim if sim is not None else network.sim
        self.network = network
        self.space = space
        self.config = config or MobilitySystemConfig()
        self._check_transport()
        self.movement_graph = movement_graph or self._default_movement_graph()
        self.predictor = self._build_predictor(self.config.predictor)
        self.replicators: Dict[str, Replicator] = {}
        self.mobile_clients: Dict[str, MobileClient] = {}
        # the network is built by the caller; only override its brokers'
        # matching strategy when the config explicitly asks for one
        if self.config.matcher is not None:
            for broker in self.network.brokers.values():
                broker.set_matcher(self.config.matcher)
        if self.config.advertising is not None:
            for broker in self.network.brokers.values():
                broker.set_advertising(self.config.advertising)
        self._build_replicators()

    # ------------------------------------------------------------------ build
    def _check_transport(self) -> None:
        """Validate the transport knob against the network's actual backend.

        The knob exists so deployments state their expectation explicitly
        and fail loudly on a mismatch.  Beyond the name check, the backend
        must support *dynamic links* (``Transport.supports_mobility``):
        wireless channels open and tear down links while the substrate runs,
        which the simulator and asyncio backends provide but the
        frozen-topology cluster backend does not.
        """
        backend = getattr(self.network, "transport", None)
        actual = backend.name if backend is not None else "sim"
        expected = self.config.transport
        if expected is not None and expected != actual:
            raise ValueError(
                f"config.transport={expected!r} but the broker network runs on {actual!r}"
            )
        if backend is not None and not getattr(backend, "supports_mobility", False):
            raise NotImplementedError(
                "the mobility layer (replicators, wireless channels) needs dynamic "
                f"link support, which the {actual!r} backend does not provide; run "
                f"plain pub/sub workloads on {actual!r} through BrokerNetwork directly"
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
                replicator.name, broker_name, latency=self.config.replicator_link_latency
            )
            registry[broker_name] = replicator.name
        replicator_names = sorted(registry.values())
        for i, name_a in enumerate(replicator_names):
            for name_b in replicator_names[i + 1 :]:
                self.network.connect_processes(
                    name_a, name_b, latency=self.config.replicator_link_latency
                )
        for replicator in self.replicators.values():
            replicator.set_replicator_registry(registry)

    # ---------------------------------------------------------------- clients
    def add_mobile_client(self, name: str, reissue_on_attach: bool = True) -> MobileClient:
        """Create a mobile (wireless, roaming) client."""
        client = MobileClient(
            self.sim,
            name,
            reissue_on_attach=reissue_on_attach,
            wireless_latency=self.config.wireless_latency,
            connect_latency=self.config.connect_latency,
            transport=getattr(self.network, "transport", None),
        )
        self.mobile_clients[name] = client
        self.network.add_process(client)
        return client

    def add_static_client(self, name: str, broker_name: str) -> Client:
        """Create an ordinary wired client attached directly to a border broker."""
        return self.network.add_client(name, broker_name, latency=self.config.broker_link_latency)

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
        immediate: bool = False,
    ) -> str:
        """Attach a mobile client at a location (or directly at a broker).  Returns the broker name."""
        if location is not None:
            client.set_location(location)
            broker = self.space.broker_of(location)
        if broker is None:
            raise ValueError("attach needs either a location or a broker")
        replicator = self.replicators[broker]
        client.attach(replicator, broker, immediate=immediate)
        return broker

    def detach(self, client: MobileClient) -> Optional[str]:
        """Detach a mobile client from its current access point (connection-aware)."""
        broker = client.current_broker
        client.detach(announce=False)
        if broker is not None and broker in self.replicators:
            self.replicators[broker].device_disconnected(client.name)
        return broker

    def move(
        self,
        client: MobileClient,
        new_location: str,
        gap: float = 0.0,
        immediate: bool = False,
    ) -> str:
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
            self.sim.schedule(gap, client.attach, replicator, new_broker, immediate)
        else:
            client.attach(replicator, new_broker, immediate=immediate)
        return new_broker

    def power_off(self, client: MobileClient) -> None:
        """Power-saving disconnect: the client disappears without telling anyone where to."""
        self.detach(client)

    def power_on(self, client: MobileClient, location: str, immediate: bool = False) -> str:
        """Reconnect after a power-off, possibly far away from the last known broker."""
        return self.attach(client, location=location, immediate=immediate)

    def remove_client(self, client: MobileClient) -> None:
        """Application shutdown: garbage collect the client's virtual clients everywhere."""
        client.shutdown_application()

    # ------------------------------------------------------------------ stats
    def control_message_count(self, kinds: Sequence[str] = REPLICATION_CONTROL_KINDS) -> int:
        """Messages of the extended-logical-mobility control protocol sent so far."""
        return sum(self.network.total_messages(kind) for kind in kinds)

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

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until_idle(self) -> float:
        return self.sim.run_until_idle()

    def close(self) -> None:
        """Release the substrate's resources (sockets on real backends).  Idempotent."""
        self.network.close()
