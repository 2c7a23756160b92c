"""Options nothing sets stay constants, and deleted definitions stay deleted.

Every entry is a parameter that no experiment, example, CLI command or
benchmark set, so its default became the code, a definition no product
path reached, or a record no code outside the tests read (or a second copy
of a fact another record keeps).  A name coming back, as a parameter of its
callable, as an attribute of its module or class, as a dataclass field or
as an attribute of a built instance, fails here.
"""

import dataclasses
import importlib.util
import inspect

import pytest
from helpers import FakeHost

from repro.core import location, location_filter, metrics, physical_mobility
from repro.core.context import ContextAwareClient
from repro.core.location import LocationSpace
from repro.core.logical_mobility import LocationAwareClient
from repro.core.middleware import MobilePubSub
from repro.core.mobile_client import MobileClient, MobileDelivery
from repro.core.physical_mobility import RelocationManager
from repro.core.virtual_client import VirtualClient
from repro.experiments import e03_logical, e11_context
from repro.core.movement_graph import MovementGraph
from repro.core.uncertainty import MarkovPredictor, coverage_and_cost
from repro.mobility import models
from repro.mobility.handover_workload import (
    HandoverWorkloadResult,
    cross_check_backends,
    run_handover_workload,
)
from repro.mobility.models import RandomWalkMobility, RoutePathMobility, TeleportMobility
from repro.mobility.scenario import (
    RoamingSubscriber,
    Scenario,
    build_office_scenario,
    build_route_scenario,
)
from repro.mobility.workload import GlobalServicePublisher, LocationServicePublishers
from repro.net.faults import FaultInjector
from repro.net.link import _DirectedEndpoint
from repro.net.process import LinkEndpoint
from repro.net.simulator import PeriodicTask, Simulator
from repro.net.transport import SimTransport, SocketEndpoint
from repro.net.wireless import WirelessChannel, WirelessStats
from repro.config import SystemConfig
from repro.pubsub import chaosgen, client, matching
from repro.pubsub.broker import Broker
from repro.pubsub.broker_network import (
    BrokerNetwork,
    balanced_tree_topology,
    grid_border_topology,
    line_topology,
    random_tree_topology,
)
from repro.pubsub.chaosgen import run_soak
from repro.pubsub.matching import AttributeIndexMatcher
from repro.pubsub.routing_table import RoutingTable
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
    # a roaming client's broker trace is the broker of each of its
    # ``attachments``, or ``MobilityModel.broker_trace`` of its schedule
    (models.MobilityDriver, "broker_trace"),
    # the one (time, value) lookup is ``metrics.value_at_factory``
    (metrics, "location_at_factory"),
    (LocationAwareClient, "_location_at"),
    (e03_logical, "_location_at"),
    # read only by the tests; E9's exception recoveries are a plain attribute
    # of the relocation manager
    (physical_mobility, "RelocationStats"),
    # test oracles, in ``repro.pubsub.testing``
    (matching, "BruteForceMatcher"),
    (matching, "cross_check"),
    (client.Client, "received_ids"),
]

#: modules whose every record had a second home
MODULES = ["repro.mobility.trace"]

#: dataclass fields no code outside the tests read, or a copy of another record
FIELDS = [
    (client.Delivery, "via"),
    (MobileDelivery, "broker"),
    (WirelessStats, "attachment_history"),
    (RoamingSubscriber, "driver"),
    (RoamingSubscriber, "template_id"),
    (HandoverWorkloadResult, "subscription_messages"),
    # the one matcher is the class constant ``SystemConfig.matcher``
    (SystemConfig, "matcher"),
]


def _mobility_driver():
    scenario = build_office_scenario(n_rooms=2, rooms_per_broker=1)
    device = scenario.system.add_mobile_client("alice")
    return models.MobilityDriver(
        scenario.system, device, RoutePathMobility(scenario.space.locations), duration=10.0
    )


#: attributes of a built instance no code outside the tests read, or a copy
#: of another record (``MobileClient.broker_trace`` repeats ``attachments``)
INSTANCE_ATTRIBUTES = [
    ("Client", lambda: client.Client(Simulator(), "c"), "undeliverable_calls"),
    ("MobileClient", lambda: MobileClient("m", transport=SimTransport()), "publish_failures"),
    ("MobileClient", lambda: MobileClient("m", transport=SimTransport()), "broker_trace"),
    ("PeriodicTask", lambda: PeriodicTask(Simulator(), 1.0, lambda: None), "fired"),
    ("Broker", lambda: Broker(Simulator(), "B1"), "resyncs_sent"),
    (
        "VirtualClient",
        lambda: VirtualClient("a", FakeHost(), "B1", LocationSpace({"r1": "B1"})),
        "rebinds",
    ),
    ("MobilityDriver", _mobility_driver, "moves_executed"),
    # the model, duration and generator are spent on ``waypoints``
    ("MobilityDriver", _mobility_driver, "model"),
    ("MobilityDriver", _mobility_driver, "duration"),
    ("MobilityDriver", _mobility_driver, "rng"),
    ("RelocationManager", lambda: RelocationManager("B1", "R@B1"), "stats"),
    ("Broker", lambda: Broker(Simulator(), "B1"), "matcher"),
    ("RoutingTable", RoutingTable, "matcher"),
    ("RoutingTable", RoutingTable, "_indexed"),
    ("AttributeIndexMatcher", AttributeIndexMatcher, "full_evaluations"),
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


@pytest.mark.parametrize("module", MODULES)
def test_a_removed_module_stays_gone(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "record, name", FIELDS, ids=[f"{record.__qualname__}.{name}" for record, name in FIELDS]
)
def test_a_removed_field_stays_gone(record, name):
    assert name not in {field.name for field in dataclasses.fields(record)}


@pytest.mark.parametrize(
    "build, name",
    [(build, name) for _label, build, name in INSTANCE_ATTRIBUTES],
    ids=[f"{label}.{name}" for label, _build, name in INSTANCE_ATTRIBUTES],
)
def test_a_removed_instance_attribute_stays_gone(build, name):
    assert not hasattr(build(), name)


def test_e11_looks_up_the_battery_level_with_the_one_lookup():
    nested = {
        const.co_name
        for const in e11_context._run_once.__code__.co_consts
        if inspect.iscode(const)
    }
    assert "battery_at" not in nested
