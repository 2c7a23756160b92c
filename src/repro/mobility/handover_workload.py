"""A deterministic roaming workload runnable on any mobility-capable backend.

The cross-check strategy of the transport layer (``tests/test_transport.py``)
extended to the mobility stack: one fixed handover scenario — attach, walk
across the broker line, power off, reappear far away — is executed on both
the deterministic simulator and the asyncio socket backend, and the delivered
``(notification_id, replayed)`` multisets per mobile client must be
*identical*.  Every phase is driven to exact quiescence before the next one
starts, so the only thing allowed to differ between backends is the physical
interleaving of traffic, never the outcome.

The same workload is the substance of ``repro demo handover`` and of the
cost ledger's ``handover_tcp`` workload; its delivery and protocol counts
are pinned in ``tests/test_mobility_transport.py``.

Scenario shape (``brokers`` = N, locations ``l1..lN`` on a broker line with
chain adjacency, so the NLB movement graph is the line itself):

* ``m-walk`` subscribes a location-dependent ``news`` template plus a plain
  (location-independent) ``alerts`` filter, attaches at ``l1`` and walks
  ``l1 → l2 → … → lN``; at the end it powers off, misses a publish phase,
  and powers back on at ``l1`` — a non-neighbouring broker, exercising the
  paper's Sect. 4 exception mode through the handover request/reply protocol.
* ``m-commute`` subscribes the ``news`` template only and commutes between
  ``l2`` and ``l1`` (the home/office pattern), so some broker always hosts
  both an active virtual client and a buffering shadow.
* after every movement step each location's wired publisher emits
  ``publishes_per_phase`` pinned-id ``news`` notifications and one global
  ``alerts`` notification is published from the last broker.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.location import line_space
from ..core.location_filter import MYLOC, location_dependent
from ..core.middleware import MobilePubSub, MobilitySystemConfig
from ..core.mobile_client import MobileClient
from ..pubsub.broker_network import line_topology
from ..pubsub.filters import Equals, Filter
from ..pubsub.notification import Notification


@dataclass(frozen=True)
class WorkloadSpec:
    """The scenario family the fixed handover workload generalises into.

    The legacy storyline is the all-defaults member: one walker, one
    commuter, deterministic walk order, no churn, no spikes — and with
    ``seed=None`` the RNG is *never constructed*, so the default spec is
    byte-identical to the historical fixed workload (its pinned delivery
    multisets and protocol counts are regression-locked by the mobility
    tests).  A non-``None`` seed turns every knob into a draw:
    walk order becomes a random walk over the location adjacency (randomized
    handover interleavings), extra walkers/commuters roam concurrently,
    ``churn_rate`` toggles the walkers' location-independent ``alerts``
    subscription between phases (covering churn across handovers), and
    ``spike_rate``/``spike_factor`` multiply publish phases.  Everything is
    a pure function of the seed, so any cross-backend divergence found in CI
    is replayable from the seed alone.
    """

    brokers: int = 3
    publishes_per_phase: int = 4
    predictor: str = "nlb"
    connect_latency: float = 0.01
    walkers: int = 1
    commuters: int = 1
    churn_rate: float = 0.0
    spike_rate: float = 0.0
    spike_factor: int = 3
    seed: Optional[int] = None

    @property
    def randomized(self) -> bool:
        return self.seed is not None

    @classmethod
    def draw(cls, seed: int) -> "WorkloadSpec":
        """Draw a spec from ``seed`` — deterministically, any machine."""
        rng = random.Random(seed)
        return cls(
            brokers=rng.randint(3, 5),
            publishes_per_phase=rng.randint(2, 4),
            predictor=rng.choice(("nlb", "nlb-2", "flooding")),
            walkers=rng.randint(1, 2),
            commuters=rng.randint(1, 2),
            churn_rate=rng.choice((0.0, 0.25, 0.5)),
            spike_rate=rng.choice((0.0, 0.25)),
            spike_factor=rng.randint(2, 3),
            seed=seed,
        )


@dataclass
class MobileOutcome:
    """What one mobile client experienced during the workload."""

    name: str
    #: sorted ``(notification_id, replayed)`` pairs, one per delivery —
    #: the multiset compared across backends
    deliveries: List[Tuple[int, bool]]
    live: int
    replayed: int
    duplicates: int
    #: per-attachment setup latency (attach request -> welcome), in the
    #: backend's clock seconds — real seconds on asyncio
    handover_latencies_sec: List[float]


@dataclass
class HandoverWorkloadResult:
    """Outcome of one backend run of the shared handover workload."""

    backend: str
    brokers: int
    publishes_per_phase: int
    clients: List[MobileOutcome] = field(default_factory=list)
    wall_sec: float = 0.0
    published: int = 0
    handovers: int = 0
    exception_activations: int = 0
    shadows_created: int = 0
    control_messages: int = 0
    #: the spec seed this run replayed (None = the legacy fixed scenario)
    seed: Optional[int] = None

    def delivered_map(self) -> Dict[str, List[Tuple[int, bool]]]:
        """Per-client delivered multisets, the cross-backend invariant."""
        return {outcome.name: outcome.deliveries for outcome in self.clients}

    def all_handover_latencies(self) -> List[float]:
        return sorted(
            latency for outcome in self.clients for latency in outcome.handover_latencies_sec
        )

    def delivered_total(self) -> int:
        return sum(len(outcome.deliveries) for outcome in self.clients)


def run_handover_workload(
    backend: str = "sim",
    spec: WorkloadSpec = WorkloadSpec(),
    config: Optional[SystemConfig] = None,
) -> HandoverWorkloadResult:
    """Run one member of the handover scenario family on one backend.

    The default :class:`WorkloadSpec` is the historical fixed scenario,
    operation for operation.  A ``spec`` with a seed replays the drawn member deterministically: every notification id
    is pinned, every phase runs to exact quiescence, and every mutation of
    the subscription state happens between phases — which is what makes the
    delivered multisets backend-invariant for *any* member of the family.

    ``config`` is the :class:`~repro.config.SystemConfig` carrying the
    fabric knobs (metrics; the defaults when omitted); its
    ``transport`` field is overridden by ``backend``.
    """
    brokers, publishes_per_phase = spec.brokers, spec.publishes_per_phase
    if brokers < 3:
        raise ValueError("the handover workload needs at least 3 brokers")
    # the RNG only exists for randomized specs: the legacy default must not
    # consult it anywhere, so its pinned multisets stay byte-identical
    rng = random.Random(spec.seed) if spec.randomized else None
    locations = [f"l{i + 1}" for i in range(brokers)]
    net = line_topology(
        n_brokers=brokers, config=(config or SystemConfig()).replace(transport=backend)
    )
    mobility_config = MobilitySystemConfig(
        predictor=spec.predictor, connect_latency=spec.connect_latency
    )
    space = line_space(locations, 1, "location")
    started = time.perf_counter()
    try:
        system = MobilePubSub(net, space, config=mobility_config)
    except NotImplementedError:  # a backend without dynamic links
        net.close()
        raise
    result = HandoverWorkloadResult(
        backend=backend,
        brokers=brokers,
        publishes_per_phase=publishes_per_phase,
        seed=spec.seed,
    )
    try:
        walkers: List[MobileClient] = []
        alerts_state: Dict[str, Tuple[bool, int]] = {}  # name -> (subscribed, serial)
        for index in range(spec.walkers):
            suffix = "" if index == 0 else str(index + 1)
            walker = system.add_mobile_client(f"m-walk{suffix}")
            walker.subscribe_location(
                location_dependent({"service": "news", "location": MYLOC}),
                template_id=f"t-walk{suffix}",
            )
            walker.subscribe(
                Filter([Equals("service", "alerts")]), sub_id=f"p-alerts{suffix}-0"
            )
            alerts_state[walker.name] = (True, 0)
            walkers.append(walker)
        commuters: List[MobileClient] = []
        for index in range(spec.commuters):
            suffix = "" if index == 0 else str(index + 1)
            commuter = system.add_mobile_client(f"m-commute{suffix}")
            commuter.subscribe_location(
                location_dependent({"service": "news", "location": MYLOC}),
                template_id=f"t-commute{suffix}",
            )
            commuters.append(commuter)
        publishers = {
            location: system.add_publisher(f"pub-{location}", location) for location in locations
        }
        alert_publisher = publishers[locations[-1]]

        next_id = [10_000]

        def publish_phase() -> None:
            count = publishes_per_phase
            if rng is not None and rng.random() < spec.spike_rate:
                count *= spec.spike_factor
            for location in locations:
                for seq in range(count):
                    next_id[0] += 1
                    publishers[location].publish(
                        Notification(
                            {"service": "news", "location": location, "seq": seq},
                            notification_id=next_id[0],
                        )
                    )
            next_id[0] += 1
            alert_publisher.publish(
                Notification({"service": "alerts", "level": 1}, notification_id=next_id[0])
            )
            result.published += brokers * count + 1
            system.run_until_idle()

        def churn_alerts(walker: MobileClient) -> None:
            subscribed, serial = alerts_state[walker.name]
            suffix = "" if walker is walkers[0] else str(walkers.index(walker) + 1)
            if subscribed:
                walker.unsubscribe(f"p-alerts{suffix}-{serial}")
            else:
                serial += 1
                walker.subscribe(
                    Filter([Equals("service", "alerts")]), sub_id=f"p-alerts{suffix}-{serial}"
                )
            alerts_state[walker.name] = (not subscribed, serial)

        walker_at: Dict[str, str] = {}
        for walker in walkers:
            system.attach(walker, location=locations[0])
            walker_at[walker.name] = locations[0]
        commuter_homes: Dict[str, List[str]] = {}
        for index, commuter in enumerate(commuters):
            homes = [locations[(index + 1) % brokers], locations[index % brokers]]
            system.attach(commuter, location=homes[0])
            commuter_homes[commuter.name] = homes
        system.run_until_idle()
        publish_phase()

        # the walk: one handover per line segment — in fixed order for the
        # legacy scenario, a seeded random walk over the location adjacency
        # for drawn specs — with every commuter toggling between its two
        # home locations on every step
        for step in range(brokers - 1):
            for walker in walkers:
                if rng is None:
                    target = locations[step + 1]
                else:
                    target = rng.choice(sorted(space.neighbours_of(walker_at[walker.name])))
                system.move(walker, target)
                walker_at[walker.name] = target
            for commuter in commuters:
                homes = commuter_homes[commuter.name]
                system.move(commuter, homes[(step + 1) % 2])
            if rng is not None:
                for walker in walkers:
                    if rng.random() < spec.churn_rate:
                        churn_alerts(walker)
            system.run_until_idle()
            publish_phase()

        # power off at the end of the walk, miss a phase, reappear at l1 —
        # for the legacy walker a non-neighbouring broker, so this goes
        # through the Sect. 4 exception mode (handover request/reply
        # salvages the buffered past)
        system.power_off(walkers[0])
        system.run_until_idle()
        publish_phase()
        system.power_on(walkers[0], locations[0])
        system.run_until_idle()
        publish_phase()

        result.wall_sec = time.perf_counter() - started
        for client in walkers + commuters:
            result.clients.append(_outcome_of(client))
        result.handovers = sum(r.stats.handovers for r in system.replicators.values())
        result.exception_activations = sum(
            r.stats.exception_activations for r in system.replicators.values()
        )
        result.shadows_created = sum(r.stats.shadows_created for r in system.replicators.values())
        result.control_messages = system.control_message_count()
        return result
    finally:
        system.close()


def _outcome_of(client: MobileClient) -> MobileOutcome:
    deliveries = sorted(
        (delivery.notification.notification_id, delivery.replayed)
        for delivery in client.deliveries
    )
    return MobileOutcome(
        name=client.name,
        deliveries=deliveries,
        live=len(client.live_deliveries()),
        replayed=len(client.replayed_deliveries()),
        duplicates=client.duplicate_deliveries(),
        handover_latencies_sec=client.setup_latencies(),
    )


def cross_check_backends(
    backends: Tuple[str, ...] = ("sim", "asyncio"),
    spec: WorkloadSpec = WorkloadSpec(),
    config: Optional[SystemConfig] = None,
) -> Tuple[Dict[str, HandoverWorkloadResult], List[str]]:
    """Run one family member on every backend and diff the delivered multisets.

    Returns the per-backend results and a (hopefully empty) list of
    mismatch descriptions; the first backend is the reference.  ``spec``
    picks the member (the legacy fixed scenario by default, or a drawn
    :class:`WorkloadSpec`), ``config`` the
    :class:`~repro.config.SystemConfig` fabric knobs (each backend run
    overrides its ``transport`` field).
    """
    results = {
        backend: run_handover_workload(backend, spec=spec, config=config) for backend in backends
    }
    reference_name = backends[0]
    reference = results[reference_name].delivered_map()
    mismatches: List[str] = []
    for backend in backends[1:]:
        candidate = results[backend].delivered_map()
        for client_name in sorted(set(reference) | set(candidate)):
            expected = reference.get(client_name, [])
            actual = candidate.get(client_name, [])
            if expected != actual:
                missing = [pair for pair in expected if pair not in actual]
                extra = [pair for pair in actual if pair not in expected]
                mismatches.append(
                    f"{client_name}: {backend} delivered {len(actual)} vs "
                    f"{reference_name} {len(expected)} "
                    f"(missing {missing[:5]}, extra {extra[:5]})"
                )
    return results, mismatches
