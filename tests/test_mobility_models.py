"""Unit tests for mobility models, traces and the movement driver."""

import random

import pytest

from repro.core.location import cell_grid_space, cell_name
from repro.core.location_filter import location_dependent
from repro.mobility.models import (
    MarkovMobility,
    MobilityDriver,
    RandomWalkMobility,
    RoutePathMobility,
    TeleportMobility,
)
from repro.mobility.scenario import build_office_scenario
from repro.mobility.trace import MovementTrace, trace_from_model


@pytest.fixture
def grid_space():
    return cell_grid_space(3, 3)


class TestModels:
    def test_random_walk_respects_adjacency(self, grid_space):
        model = RandomWalkMobility(grid_space, start=cell_name(0, 0), dwell_time=5.0)
        waypoints = model.waypoints(500.0, random.Random(1))
        assert waypoints[0].location == cell_name(0, 0)
        for previous, current in zip(waypoints, waypoints[1:]):
            if previous.location != current.location:
                assert current.location in grid_space.neighbours_of(previous.location)

    def test_random_walk_deterministic_for_seed(self, grid_space):
        model = RandomWalkMobility(grid_space, start=cell_name(0, 0), dwell_time=5.0)
        a = model.waypoints(200.0, random.Random(7))
        b = model.waypoints(200.0, random.Random(7))
        assert [w.location for w in a] == [w.location for w in b]

    def test_random_walk_rejects_bad_dwell(self, grid_space):
        with pytest.raises(ValueError):
            RandomWalkMobility(grid_space, start=cell_name(0, 0), dwell_time=0)

    def test_route_path_follows_path_then_stops(self):
        model = RoutePathMobility(["a", "b", "c"], dwell_time=5.0)
        waypoints = model.waypoints(100.0, random.Random(0))
        assert [w.location for w in waypoints] == ["a", "b", "c"]

    def test_route_path_loops(self):
        model = RoutePathMobility(["a", "b"], dwell_time=5.0, loop=True)
        waypoints = model.waypoints(22.0, random.Random(0))
        assert [w.location for w in waypoints] == ["a", "b", "a", "b", "a"]

    def test_route_path_validation(self):
        with pytest.raises(ValueError):
            RoutePathMobility([])
        with pytest.raises(ValueError):
            RoutePathMobility(["a"], dwell_time=0)

    def test_markov_mobility_follows_transition_matrix(self):
        transitions = {"home": {"office": 1.0}, "office": {"home": 1.0}}
        model = MarkovMobility(transitions, start="home", dwell_time=10.0)
        waypoints = model.waypoints(100.0, random.Random(3))
        locations = [w.location for w in waypoints]
        # strictly alternates because both transitions are certain
        for previous, current in zip(locations, locations[1:]):
            assert previous != current

    def test_markov_mobility_stays_put_with_missing_mass(self):
        model = MarkovMobility({"home": {}}, start="home", dwell_time=10.0)
        waypoints = model.waypoints(100.0, random.Random(3))
        assert all(w.location == "home" for w in waypoints)

    def test_teleport_marks_power_off(self, grid_space):
        model = TeleportMobility(grid_space, start=cell_name(0, 0), on_time=10.0, off_time=5.0)
        waypoints = model.waypoints(100.0, random.Random(5))
        assert not waypoints[0].after_power_off
        assert all(w.after_power_off for w in waypoints[1:])
        assert all(w.offline_before == 5.0 for w in waypoints[1:])

    def test_broker_trace_helper(self, grid_space):
        model = RandomWalkMobility(grid_space, start=cell_name(0, 0), dwell_time=5.0)
        trace = model.broker_trace(grid_space, 100.0, random.Random(1))
        assert all(broker.startswith("B_") for broker in trace)


class TestMovementTrace:
    def test_from_waypoints_and_handovers(self, grid_space):
        model = RoutePathMobility([cell_name(0, 0), cell_name(0, 1), cell_name(0, 1)], dwell_time=5.0)
        trace = MovementTrace.from_waypoints(model.waypoints(100.0, random.Random(0)), grid_space)
        assert trace.brokers() == ["B_0_0", "B_0_1", "B_0_1"]
        assert trace.handovers() == [("B_0_0", "B_0_1")]
        assert trace.handover_count() == 1

    def test_trace_from_model(self, grid_space):
        model = RandomWalkMobility(grid_space, start=cell_name(1, 1), dwell_time=10.0)
        trace = trace_from_model(model, grid_space, duration=200.0, seed=2)
        assert len(trace) >= 2


class TestMobilityDriver:
    def test_driver_executes_waypoints(self):
        scenario = build_office_scenario(n_rooms=6, rooms_per_broker=2)
        client = scenario.system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        rooms = scenario.space.locations
        model = RoutePathMobility(rooms, dwell_time=5.0)
        driver = MobilityDriver(scenario.system, client, model, duration=40.0)
        driver.start()
        scenario.run(40.0)
        assert driver.moves_executed == len(driver.waypoints)
        assert client.current_broker == scenario.space.broker_of(rooms[-1])
        assert len(client.attachments) == len(scenario.space.brokers())

    def test_driver_power_off_periods_disconnect_the_client(self):
        scenario = build_office_scenario(n_rooms=4, rooms_per_broker=2)
        client = scenario.system.add_mobile_client("alice")
        space = scenario.space
        model = TeleportMobility(space, start=space.locations[0], on_time=10.0, off_time=5.0)
        driver = MobilityDriver(scenario.system, client, model, duration=16.0)
        driver.start()
        # at t=12 the client should be inside its first off period (10..15)
        scenario.network.sim.run(until=12.0)
        assert not client.connected
        scenario.run(20.0)
        assert client.connected

    def test_broker_trace_matches_waypoints(self):
        scenario = build_office_scenario(n_rooms=6, rooms_per_broker=2)
        client = scenario.system.add_mobile_client("alice")
        model = RoutePathMobility(scenario.space.locations, dwell_time=5.0)
        driver = MobilityDriver(scenario.system, client, model, duration=40.0)
        assert driver.broker_trace() == [
            scenario.space.broker_of(w.location) for w in driver.waypoints
        ]
