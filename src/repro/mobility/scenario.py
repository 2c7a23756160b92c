"""Scenario composition: topology + location space + middleware + workload + movement.

Experiments and examples repeatedly need the same glue: build a broker
topology matching a location space, stand up the mobility middleware with a
given configuration, deploy publishers, create roaming subscribers driven by
a mobility model, run for a while and evaluate.  :class:`Scenario` bundles
those pieces; the ``build_*_scenario`` functions construct the three settings
the paper's examples describe (office floor, car route, cellular grid).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.location import LocationSpace, cell_grid_space, office_floor_space, route_space
from ..core.location_filter import LocationDependentFilter
from ..core.metrics import DeliveryOutcome, evaluate_mobile_delivery
from ..core.middleware import MobilePubSub, MobilitySystemConfig
from ..core.mobile_client import MobileClient
from ..pubsub.broker_network import BrokerNetwork, grid_border_topology, line_topology
from .models import MobilityDriver, MobilityModel
from .workload import WorkloadRecorder


@dataclass
class RoamingSubscriber:
    """A mobile client together with its movement driver and subscription template."""

    client: MobileClient
    driver: MobilityDriver
    template: LocationDependentFilter
    template_id: str


@dataclass
class Scenario:
    """A fully wired simulation ready to run, on ``network.sim``."""

    network: BrokerNetwork
    space: LocationSpace
    system: MobilePubSub
    recorder: WorkloadRecorder = field(default_factory=WorkloadRecorder)
    subscribers: List[RoamingSubscriber] = field(default_factory=list)

    # ------------------------------------------------------------------ build
    def add_roaming_subscriber(
        self,
        name: str,
        template: LocationDependentFilter,
        model: MobilityModel,
        duration: float,
        seed: int = 0,
        reissue_on_attach: bool = True,
        handover_gap: float = 0.0,
    ) -> RoamingSubscriber:
        """Create a mobile client subscribing to ``template`` and moving per ``model``."""
        client = self.system.add_mobile_client(name, reissue_on_attach=reissue_on_attach)
        template_id = client.subscribe_location(template)
        driver = MobilityDriver(
            self.system,
            client,
            model,
            duration=duration,
            rng=random.Random(seed),
            handover_gap=handover_gap,
        )
        driver.start()
        subscriber = RoamingSubscriber(
            client=client, driver=driver, template=template, template_id=template_id
        )
        self.subscribers.append(subscriber)
        return subscriber

    # -------------------------------------------------------------------- run
    def run(self, duration: float) -> None:
        """Advance the simulation to ``duration`` and then drain remaining events."""
        sim = self.network.sim
        sim.run(until=duration)
        sim.run_until_idle()

    # --------------------------------------------------------------- evaluate
    def evaluate(self, subscriber: RoamingSubscriber) -> DeliveryOutcome:
        """Loss/precision outcome of one roaming subscriber against the recorded workload."""
        return evaluate_mobile_delivery(
            subscriber.client, self.recorder.published, subscriber.template, self.space
        )


# ------------------------------------------------------------------ builders


def build_office_scenario(
    n_rooms: int = 12,
    rooms_per_broker: int = 4,
    config: Optional[MobilitySystemConfig] = None,
    myloc_scope: str = "location",
) -> Scenario:
    """The office floor of Fig. 1: a corridor of rooms over a line of border brokers."""
    space = office_floor_space(n_rooms, rooms_per_broker, myloc_scope=myloc_scope)
    n_brokers = len(space.brokers())
    network = line_topology(n_brokers)
    system = MobilePubSub(network, space, config=config)
    return Scenario(network=network, space=space, system=system)


def build_route_scenario(
    n_segments: int = 18,
    segments_per_broker: int = 3,
    config: Optional[MobilitySystemConfig] = None,
    myloc_scope: str = "neighbourhood",
) -> Scenario:
    """The car-on-a-route scenario: road segments over a chain of roadside brokers."""
    space = route_space(n_segments, segments_per_broker, myloc_scope=myloc_scope)
    n_brokers = len(space.brokers())
    network = line_topology(n_brokers)
    system = MobilePubSub(network, space, config=config)
    return Scenario(network=network, space=space, system=system)


def build_grid_scenario(
    rows: int = 4,
    cols: int = 4,
    config: Optional[MobilitySystemConfig] = None,
    region_rows: int = 2,
    myloc_scope: str = "location",
) -> Scenario:
    """A GSM-style cellular grid: one border broker per cell, grid movement graph."""
    network, cells = grid_border_topology(rows, cols)
    broker_for_cell = {(r, c): cells[(r, c)] for r in range(rows) for c in range(cols)}
    space = cell_grid_space(
        rows, cols, broker_for_cell=broker_for_cell, region_rows=region_rows, myloc_scope=myloc_scope
    )
    system = MobilePubSub(network, space, config=config)
    return Scenario(network=network, space=space, system=system)
