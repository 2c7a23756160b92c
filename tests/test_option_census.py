"""Options nothing sets stay constants, and deleted definitions stay deleted.

Every entry is a parameter that no experiment, example, CLI command or
benchmark set, so its default became the code, or a definition no product
path reached.  A name coming back, as a parameter of its callable or as an
attribute of its module or class, fails here.
"""

import inspect

import pytest

from repro.core import location, location_filter
from repro.core.context import ContextAwareClient
from repro.core.middleware import MobilePubSub
from repro.core.mobile_client import MobileClient
from repro.core.movement_graph import MovementGraph
from repro.core.uncertainty import MarkovPredictor, coverage_and_cost
from repro.mobility import models
from repro.mobility.handover_workload import cross_check_backends, run_handover_workload
from repro.mobility.models import RandomWalkMobility, RoutePathMobility, TeleportMobility
from repro.mobility.scenario import Scenario, build_office_scenario, build_route_scenario
from repro.mobility.workload import GlobalServicePublisher, LocationServicePublishers
from repro.net.faults import FaultInjector
from repro.net.link import _DirectedEndpoint
from repro.net.process import LinkEndpoint
from repro.net.simulator import PeriodicTask, Simulator
from repro.net.transport import SocketEndpoint
from repro.net.wireless import WirelessChannel, WirelessStats
from repro.pubsub import chaosgen, client
from repro.pubsub.broker_network import (
    BrokerNetwork,
    balanced_tree_topology,
    grid_border_topology,
    line_topology,
    random_tree_topology,
)
from repro.pubsub.chaosgen import run_soak
from repro.pubsub.invariants import check_convergence, check_exactly_once

#: parameters whose default became the code
OPTIONS = [
    (location.office_floor_space, "broker_prefix"),
    (location.office_floor_space, "room_prefix"),
    (location.office_floor_space, "myloc_scope"),
    (location.route_space, "broker_prefix"),
    (location.route_space, "segment_prefix"),
    (location.route_space, "myloc_scope"),
    (MovementGraph, "edges"),
    (MarkovPredictor, "min_observations"),
    (MarkovPredictor, "max_candidates"),
    (coverage_and_cost, "learn"),
    (MobilePubSub, "movement_graph"),
    (MobilePubSub.control_message_count, "kinds"),
    (MobilePubSub.attach, "immediate"),
    (MobilePubSub.move, "immediate"),
    (MobilePubSub.power_on, "immediate"),
    (MobileClient.attach, "immediate"),
    (WirelessChannel.attach, "immediate"),
    (ContextAwareClient.subscribe_context, "template_id"),
    (RandomWalkMobility, "start_time"),
    (RandomWalkMobility, "stay_probability"),
    (RoutePathMobility, "start_time"),
    (TeleportMobility, "start_time"),
    (Scenario.add_roaming_subscriber, "reissue_on_attach"),
    (build_office_scenario, "myloc_scope"),
    (build_route_scenario, "myloc_scope"),
    (LocationServicePublishers, "locations"),
    (LocationServicePublishers, "rng"),
    (LocationServicePublishers, "phase_spread"),
    (GlobalServicePublisher, "broker_name"),
    (GlobalServicePublisher, "value_function"),
    (GlobalServicePublisher, "symbol"),
    (run_handover_workload, "brokers"),
    (run_handover_workload, "publishes_per_phase"),
    (run_handover_workload, "predictor"),
    (run_handover_workload, "connect_latency"),
    (cross_check_backends, "brokers"),
    (cross_check_backends, "publishes_per_phase"),
    (cross_check_backends, "predictor"),
    (Simulator, "start_time"),
    (PeriodicTask, "jitter"),
    (FaultInjector, "seed"),
    (line_topology, "prefix"),
    (balanced_tree_topology, "prefix"),
    (random_tree_topology, "prefix"),
    (grid_border_topology, "prefix"),
    (BrokerNetwork.connect_brokers, "latency"),
    (run_soak, "max_iterations"),
    (run_soak, "mobility_every"),
    (check_convergence, "reference_name"),
    (check_exactly_once, "context"),
]

#: definitions no product path reached
DEFINITIONS = [
    (location, "Location"),
    (location_filter, "LocationSpaceLike"),
    (models, "MarkovMobility"),
    (chaosgen, "sweep"),
    (FaultInjector, "snapshot"),
    (FaultInjector, "restore"),
    (client, "LocalBroker"),
    (WirelessChannel, "handover"),
    (WirelessStats, "handovers"),
    (WirelessStats, "messages_up"),
    (WirelessStats, "messages_down"),
    (LinkEndpoint, "transmit_many"),
    (_DirectedEndpoint, "transmit_many"),
    (_DirectedEndpoint, "deliver"),
    (SocketEndpoint, "transmit_many"),
]

CASES = [(owner, name, True) for owner, name in OPTIONS] + [
    (owner, name, False) for owner, name in DEFINITIONS
]


@pytest.mark.parametrize(
    "owner, name, is_option",
    CASES,
    ids=[f"{getattr(owner, '__qualname__', owner.__name__)}.{name}" for owner, name, _ in CASES],
)
def test_a_removed_option_or_definition_stays_gone(owner, name, is_option):
    if is_option:
        assert name not in inspect.signature(owner).parameters
    else:
        assert not hasattr(owner, name)
