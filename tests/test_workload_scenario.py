"""Tests for workload generators and scenario composition."""

from repro.core.location_filter import location_dependent
from repro.mobility.models import RoutePathMobility
from repro.mobility.scenario import (
    build_grid_scenario,
    build_office_scenario,
    build_route_scenario,
)
from repro.mobility.workload import (
    GlobalServicePublisher,
    restaurant_workload,
    stock_workload,
    temperature_workload,
    weather_workload,
)


class TestScenarioBuilders:
    def test_office_scenario_dimensions(self):
        scenario = build_office_scenario(n_rooms=9, rooms_per_broker=3)
        assert len(scenario.space) == 9
        assert len(scenario.network.broker_names()) == 3
        assert len(scenario.system.replicators) == 3

    def test_route_scenario_uses_neighbourhood_scope(self):
        scenario = build_route_scenario(n_segments=9, segments_per_broker=3)
        assert scenario.space.myloc_scope == "neighbourhood"

    def test_grid_scenario_brokers_match_cells(self):
        scenario = build_grid_scenario(rows=2, cols=3)
        assert len(scenario.network.broker_names()) == 6
        assert len(scenario.space) == 6

    def test_add_roaming_subscriber_and_evaluate(self):
        scenario = build_office_scenario(n_rooms=6, rooms_per_broker=2)
        publishers, recorder = temperature_workload(
            scenario.system, period=1.0, recorder=scenario.recorder, until=10.0
        )
        template = location_dependent({"service": "temperature"})
        subscriber = scenario.add_roaming_subscriber(
            "alice", template, RoutePathMobility([scenario.space.locations[0]]), duration=10.0
        )
        scenario.run(10.0)
        outcome = scenario.evaluate(subscriber)
        assert outcome.relevant > 0
        assert outcome.missed <= 1  # at most the reading racing the attach
        assert [s.client.name for s in scenario.subscribers] == ["alice"]


class TestWorkloads:
    def test_location_publishers_one_per_location(self):
        scenario = build_office_scenario(n_rooms=5, rooms_per_broker=5)
        publishers, _recorder = temperature_workload(
            scenario.system, period=1.0, recorder=scenario.recorder, until=3.0
        )
        assert len(publishers) == 5

    def test_publishers_respect_until_bound(self):
        scenario = build_office_scenario(n_rooms=2, rooms_per_broker=2)
        publishers, recorder = temperature_workload(
            scenario.system, period=1.0, recorder=scenario.recorder, until=5.0
        )
        scenario.network.sim.run_until_idle()
        assert scenario.network.sim.now <= 6.0
        assert all(n.published_at <= 5.0 for n in recorder.published)

    def test_stop_halts_publication(self):
        scenario = build_office_scenario(n_rooms=2, rooms_per_broker=2)
        publishers, recorder = temperature_workload(
            scenario.system, period=1.0, recorder=scenario.recorder, until=100.0
        )
        scenario.network.sim.run(until=3.0)
        count = len(recorder)
        publishers.stop()
        scenario.network.sim.run_until_idle()
        assert len(recorder) == count

    def test_restaurant_and_weather_payloads(self):
        scenario = build_route_scenario(n_segments=3, segments_per_broker=3)
        menus, recorder = restaurant_workload(scenario.system, period=1.0, until=2.0)
        forecasts, recorder2 = weather_workload(scenario.system, period=1.0, until=2.0)
        scenario.run(2.0)
        assert any("restaurant" in n for n in recorder.published)
        assert any("forecast" in n for n in recorder2.published)

    def test_stock_workload_is_location_free(self):
        scenario = build_office_scenario(n_rooms=2, rooms_per_broker=2)
        publisher, recorder = stock_workload(scenario.system, period=0.5, until=3.0)
        scenario.run(3.0)
        assert len(recorder) >= 5
        assert all("location" not in n for n in recorder.published)
        assert isinstance(publisher, GlobalServicePublisher)
