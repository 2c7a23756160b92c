"""End-to-end invariants of the full system under randomised movement.

These tests run complete scenarios (workload + movement + replication) and
assert the system-wide guarantees the paper's algorithm promises:

* **shadow-set consistency** — after the system quiesces, the brokers hosting
  a client's virtual clients are exactly the current broker plus its ``nlb``
  neighbourhood (Sect. 3.2.1/3.2.3);
* **no duplicate deliveries** — replays and live deliveries never hand the
  same notification to the device twice;
* **replay ordering** — replayed notifications arrive in publication order;
* **myloc precision** — live deliveries always match the location the client
  reported at the time.
"""

import pytest
from helpers import assert_one_subscription_per_filter

from repro.core.location_filter import location_dependent
from repro.core.metrics import evaluate_mobile_delivery
from repro.core.middleware import MobilitySystemConfig
from repro.mobility.models import RandomWalkMobility
from repro.mobility.scenario import build_grid_scenario, build_office_scenario
from repro.mobility.workload import temperature_workload


def run_random_walk_scenario(seed, duration=60.0, rows=3, cols=3, dwell=5.0):
    scenario = build_grid_scenario(rows=rows, cols=cols, config=MobilitySystemConfig())
    publishers, recorder = temperature_workload(
        scenario.system, period=2.0, recorder=scenario.recorder, until=duration
    )
    template = location_dependent({"service": "temperature"})
    start = scenario.space.locations[seed % len(scenario.space.locations)]
    model = RandomWalkMobility(scenario.space, start=start, dwell_time=dwell)
    subscriber = scenario.add_roaming_subscriber(
        "walker", template, model, duration=duration, seed=seed
    )
    scenario.run(duration)
    publishers.stop()
    scenario.network.sim.run_until_idle()
    return scenario, subscriber


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestSystemInvariants:
    def test_shadow_set_matches_nlb_of_current_broker(self, seed):
        scenario, subscriber = run_random_walk_scenario(seed)
        client = subscriber.client
        current = client.current_broker
        assert current is not None
        expected = {current} | set(scenario.system.movement_graph.nlb(current))
        hosting = {
            broker
            for broker, replicator in scenario.system.replicators.items()
            if client.name in replicator.virtual_clients
        }
        assert hosting == expected
        # exactly one of them is active
        active = [
            broker
            for broker in hosting
            if scenario.system.replicators[broker].virtual_clients[client.name].is_active
        ]
        assert active == [current]

    def test_no_duplicate_deliveries(self, seed):
        _scenario, subscriber = run_random_walk_scenario(seed)
        assert subscriber.client.duplicate_deliveries() == 0

    def test_live_deliveries_match_reported_location(self, seed):
        scenario, subscriber = run_random_walk_scenario(seed)
        for delivery in subscriber.client.live_deliveries():
            assert delivery.location is not None
            myloc = scenario.space.myloc(delivery.location)
            assert delivery.notification["location"] in myloc

    def test_replay_preserves_publication_order(self, seed):
        _scenario, subscriber = run_random_walk_scenario(seed)
        deliveries = subscriber.client.deliveries
        # within each attachment's replay burst, publication times must be non-decreasing
        index = 0
        while index < len(deliveries):
            if not deliveries[index].replayed:
                index += 1
                continue
            burst = []
            while index < len(deliveries) and deliveries[index].replayed:
                burst.append(deliveries[index])
                index += 1
            times = [d.notification.published_at for d in burst if d.notification.published_at is not None]
            assert times == sorted(times)

    def test_delivery_rate_is_high_with_full_support(self, seed):
        scenario, subscriber = run_random_walk_scenario(seed)
        outcome = evaluate_mobile_delivery(
            subscriber.client, scenario.recorder.published, subscriber.template, scenario.space
        )
        assert outcome.relevant > 0
        assert outcome.delivery_rate >= 0.9


class TestMultiClientScenario:
    def test_clients_do_not_interfere(self):
        duration = 40.0
        scenario = build_office_scenario(n_rooms=9, rooms_per_broker=3)
        publishers, recorder = temperature_workload(
            scenario.system, period=2.0, recorder=scenario.recorder, until=duration
        )
        template = location_dependent({"service": "temperature"})
        subscribers = []
        for index in range(4):
            start = scenario.space.locations[index * 2]
            model = RandomWalkMobility(scenario.space, start=start, dwell_time=6.0)
            subscribers.append(
                scenario.add_roaming_subscriber(f"c{index}", template, model, duration=duration, seed=index)
            )
        scenario.run(duration)
        publishers.stop()
        scenario.network.sim.run_until_idle()

        for subscriber in subscribers:
            outcome = scenario.evaluate(subscriber)
            assert outcome.delivery_rate >= 0.85
            assert subscriber.client.duplicate_deliveries() == 0

        # every replicator hosts at most one virtual client per mobile client
        for replicator in scenario.system.replicators.values():
            assert len(replicator.virtual_clients) == len(set(replicator.virtual_clients))
        assert_one_subscription_per_filter(scenario.system)

    def test_client_removal_leaves_no_state_behind(self):
        scenario = build_office_scenario(n_rooms=6, rooms_per_broker=2)
        template = location_dependent({"service": "temperature"})
        client = scenario.system.add_mobile_client("ephemeral")
        client.subscribe_location(template)
        scenario.system.attach(client, location=scenario.space.locations[0])
        scenario.network.sim.run_until_idle()
        scenario.system.move(client, scenario.space.locations[3])
        scenario.network.sim.run_until_idle()
        scenario.system.remove_client(client)
        scenario.network.sim.run_until_idle()
        assert scenario.system.total_virtual_clients() == 0
        assert_one_subscription_per_filter(scenario.system)
        for broker in scenario.network.brokers.values():
            assert broker.routing_table_size() == 0
