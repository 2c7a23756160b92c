"""Tests for fault injection and the system's behaviour under faults."""

import pytest

from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.core.location import office_floor_space
from repro.net.faults import FaultInjector
from repro.net.process import Message, Process
from repro.pubsub.broker_network import BrokerNetwork, line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


def outage(sim, injector, a, b, start, duration):
    """Take the ``a``-``b`` link down at ``start`` and up again ``duration`` later."""
    sim.schedule_at(start, injector.link_down_now, a, b)
    sim.schedule_at(start + duration, injector.link_up_now, a, b)


def crash_for(injector, name, start, duration):
    """Crash process ``name`` at ``start`` and restart it ``duration`` later."""
    injector.crash_process(name, start)
    injector.restart_process(name, start + duration)


def downtime_events(injector):
    """``(link_down, process_down)`` events in the injector's log."""
    return len(injector.log.of_kind("link_down")), len(injector.log.of_kind("process_down"))


class Echo(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def small_network():
    network = BrokerNetwork()
    sim = network.sim
    a = network.add_process(Echo(sim, "a"))
    b = network.add_process(Echo(sim, "b"))
    c = network.add_process(Echo(sim, "c"))
    network.connect_processes("a", "b")
    network.connect_processes("b", "c")
    return sim, network, a, b, c


class TestFaultInjector:
    def test_link_outage_drops_then_recovers(self, small_network):
        sim, network, a, b, _c = small_network
        injector = FaultInjector(network)
        outage(sim, injector, "a", "b", start=1.0, duration=2.0)
        sim.schedule_at(1.5, lambda: a.send("b", Message("during-outage")))
        sim.schedule_at(4.0, lambda: a.send("b", Message("after-repair")))
        sim.run_until_idle()
        kinds = [message.kind for message in b.received]
        assert kinds == ["after-repair"]
        assert downtime_events(injector) == (1, 0)
        assert len(injector.log.of_kind("link_up")) == 1

    def test_unknown_link_or_process_rejected(self, small_network):
        sim, network, _a, _b, _c = small_network
        injector = FaultInjector(network)
        with pytest.raises(KeyError):
            injector.link_down_now("a", "zzz")
        with pytest.raises(KeyError):
            injector.crash_process("zzz", at=1.0)

    def test_crash_and_restart_process(self, small_network):
        sim, network, a, b, _c = small_network
        injector = FaultInjector(network)
        crash_for(injector, "b", start=1.0, duration=2.0)
        sim.schedule_at(1.5, lambda: a.send("b", Message("while-down")))
        sim.schedule_at(4.0, lambda: a.send("b", Message("while-up")))
        sim.run_until_idle()
        assert [message.kind for message in b.received] == ["while-up"]
        assert downtime_events(injector) == (0, 1)

    def test_partition_disables_all_crossing_links(self, small_network):
        sim, network, a, _b, c = small_network
        injector = FaultInjector(network)
        affected = injector.partition(["a"], ["b", "c"], start=1.0, duration=1.0)
        assert affected == 1
        sim.schedule_at(1.5, lambda: a.send("b", Message("blocked")))
        sim.run_until_idle()
        assert len(injector.log) == 2  # down + up


class TestFaultLog:
    def test_log_is_chronological_even_when_scheduled_out_of_order(self, small_network):
        sim, network, _a, _b, _c = small_network
        injector = FaultInjector(network)
        # scheduled in reverse order; the log must record execution order
        crash_for(injector, "b", start=3.0, duration=1.0)
        outage(sim, injector, "a", "b", start=1.0, duration=0.5)
        sim.run_until_idle()
        assert [e.kind for e in injector.log] == [
            "link_down",
            "link_up",
            "process_down",
            "process_up",
        ]
        times = [e.time for e in injector.log]
        assert times == sorted(times)
        assert len(injector.log) == 4

    def test_of_kind_filters_without_reordering(self, small_network):
        sim, network, _a, _b, _c = small_network
        injector = FaultInjector(network)
        outage(sim, injector, "a", "b", start=1.0, duration=0.5)
        outage(sim, injector, "b", "c", start=2.0, duration=0.5)
        crash_for(injector, "b", start=1.5, duration=0.2)
        sim.run_until_idle()
        downs = injector.log.of_kind("link_down")
        assert [e.target for e in downs] == ["a<->b", "b<->c"]
        assert [e.target for e in injector.log.of_kind("process_down")] == ["b"]
        assert injector.log.of_kind("meteor-strike") == []

    def test_immediate_fault_helpers_record_and_recover(self, small_network):
        sim, network, a, b, _c = small_network
        injector = FaultInjector(network)
        injector.crash_now("b")
        injector.link_down_now("a", "b")
        assert [e.kind for e in injector.log] == ["process_down", "link_down"]
        injector.link_up_now("a", "b")
        injector.restart_now("b")
        a.send("b", Message("ping"))
        sim.run_until_idle()
        assert [m.kind for m in b.received] == ["ping"]
        assert downtime_events(injector) == (1, 1)


class TestPartitionValidation:
    def test_partition_rejects_empty_sides(self, small_network):
        sim, network, _a, _b, _c = small_network
        injector = FaultInjector(network)
        with pytest.raises(ValueError, match="non-empty"):
            injector.partition([], ["a"], start=1.0, duration=1.0)
        with pytest.raises(ValueError, match="non-empty"):
            injector.partition(["a"], [], start=1.0, duration=1.0)
        assert len(injector.log) == 0  # nothing was scheduled

    def test_partition_rejects_overlapping_sides(self, small_network):
        sim, network, _a, _b, _c = small_network
        injector = FaultInjector(network)
        with pytest.raises(ValueError, match="disjoint; both contain"):
            injector.partition(["a", "b"], ["b", "c"], start=1.0, duration=1.0)
        sim.run_until_idle()
        assert len(injector.log) == 0


class TestSystemUnderFaults:
    def test_broker_link_outage_loses_only_the_outage_window(self):
        network = line_topology(3)
        sim = network.sim
        publisher = network.add_client("pub", "B1")
        subscriber = network.add_client("sub", "B3")
        subscriber.subscribe(Filter([Equals("service", "t")]))
        sim.run_until_idle()
        injector = FaultInjector(network)
        outage(sim, injector, "B2", "B3", start=5.0, duration=5.0)
        for second in range(15):
            sim.schedule_at(second + 0.01, lambda s=second: publisher.publish({"service": "t", "seq": s}))
        sim.run_until_idle()
        received = sorted(d.notification["seq"] for d in subscriber.deliveries)
        lost = set(range(15)) - set(received)
        assert lost  # the outage did lose something
        assert lost <= set(range(4, 11))  # ...but only within/around the outage window

    def test_mobile_client_rides_out_replicator_link_outage(self):
        space = office_floor_space(n_rooms=6, rooms_per_broker=2)
        network = line_topology(3)
        sim = network.sim
        system = MobilePubSub(network, space, config=MobilitySystemConfig())
        sensor = system.add_publisher("sensor", space.locations[0])
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=space.locations[0])
        sim.run_until_idle()

        injector = FaultInjector(system.network)
        outage(sim, injector, "R@B1", "B1", start=2.0, duration=1.0)
        sim.schedule_at(1.0, lambda: sensor.publish({"service": "temperature", "location": space.locations[0], "value": 1}))
        sim.schedule_at(4.0, lambda: sensor.publish({"service": "temperature", "location": space.locations[0], "value": 2}))
        sim.run_until_idle()
        values = [d.notification["value"] for d in client.deliveries]
        assert values == [1, 2]  # publications outside the outage window still flow

    @staticmethod
    def _mobility_system():
        space = office_floor_space(n_rooms=6, rooms_per_broker=2)
        network = line_topology(3)
        sim = network.sim
        system = MobilePubSub(network, space, config=MobilitySystemConfig())
        loc_b1 = next(l for l in space.locations if space.broker_of(l) == "B1")
        loc_b2 = next(l for l in space.locations if space.broker_of(l) == "B2")
        return sim, space, system, loc_b1, loc_b2

    def test_handover_enters_exception_mode_when_outage_ate_the_shadow(self):
        """A link outage interleaved with attach: the lost SHADOW_CREATE
        forces the next handover into exception (reactive) mode."""
        sim, space, system, loc_b1, loc_b2 = self._mobility_system()
        sensor = system.add_publisher("sensor", loc_b2)
        client = system.add_mobile_client("alice")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        injector = FaultInjector(system.network)
        # the replicator-to-replicator control link is down across the attach,
        # so R@B1's pre-subscription SHADOW_CREATE for B2 is silently lost
        outage(sim, injector, "R@B1", "R@B2", start=0.5, duration=5.0)
        sim.schedule_at(1.0, lambda: system.attach(client, location=loc_b1))
        sim.run_until_idle()

        r2 = system.replicator_for_broker("B2")
        assert r2.stats.exception_activations == 0
        system.move(client, loc_b2)  # handover into the broker with no shadow
        sim.run_until_idle()
        assert r2.stats.exception_activations == 1
        # exception mode is a slow path, not a dead end: deliveries resume
        sensor.publish({"service": "temperature", "location": loc_b2, "value": 7})
        sim.run_until_idle()
        assert [d.notification["value"] for d in client.deliveries] == [7]

    def test_handover_enters_exception_mode_when_replicator_was_crashed(self):
        """A crash interleaved with attach: a dead target replicator
        drops the SHADOW_CREATE, with the same exception-mode consequence."""
        sim, space, system, loc_b1, loc_b2 = self._mobility_system()
        sensor = system.add_publisher("sensor", loc_b2)
        client = system.add_mobile_client("bob")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        injector = FaultInjector(system.network)
        crash_for(injector, "R@B2", start=0.5, duration=5.0)
        sim.schedule_at(1.0, lambda: system.attach(client, location=loc_b1))
        sim.run_until_idle()

        r2 = system.replicator_for_broker("B2")
        system.move(client, loc_b2)
        sim.run_until_idle()
        assert r2.stats.exception_activations == 1
        sensor.publish({"service": "temperature", "location": loc_b2, "value": 9})
        sim.run_until_idle()
        assert [d.notification["value"] for d in client.deliveries] == [9]

    def test_handover_without_faults_uses_the_shadow(self):
        """Control run: with no fault the shadow is in place and the same
        walk never touches exception mode."""
        sim, space, system, loc_b1, loc_b2 = self._mobility_system()
        client = system.add_mobile_client("carol")
        client.subscribe_location(location_dependent({"service": "temperature"}))
        system.attach(client, location=loc_b1)
        sim.run_until_idle()
        system.move(client, loc_b2)
        sim.run_until_idle()
        assert system.replicator_for_broker("B2").stats.exception_activations == 0


class TestFaultInjectorDeterminism:
    """Identical seeds must give bit-identical fault logs and deliveries."""

    @staticmethod
    def _run_once(seed: int):
        import random

        rng = random.Random(seed)
        network = line_topology(4)
        sim = network.sim
        clients = []
        for i, broker in enumerate(network.broker_names()):
            client = network.add_client(f"c{i}", broker)
            client.subscribe(Filter([Equals("service", "s")]), sub_id=f"d{i}")
            clients.append(client)
        sim.run_until_idle()

        injector = FaultInjector(network)
        edges = network.broker_edges()
        for _ in range(5):
            a, b = edges[rng.randrange(len(edges))]
            start = round(rng.uniform(1.0, 20.0), 3)
            outage(sim, injector, a, b, start=start, duration=round(rng.uniform(0.5, 3.0), 3))
        crash_target = network.broker_names()[rng.randrange(len(network.broker_names()))]
        crash_for(
            injector,
            crash_target,
            start=round(rng.uniform(1.0, 15.0), 3),
            duration=round(rng.uniform(0.5, 2.0), 3),
        )

        publisher = network.add_client("pub", "B2")
        for i in range(40):
            at = round(rng.uniform(0.5, 25.0), 3)
            sim.schedule_at(
                at,
                lambda i=i: publisher.publish(
                    Notification({"service": "s", "seq": i}, notification_id=5000 + i)
                ),
            )
        sim.run_until_idle()

        fault_log = tuple((e.time, e.kind, e.target) for e in injector.log)
        deliveries = tuple(
            (client.name, round(d.received_at, 9), d.notification.notification_id)
            for client in clients
            for d in client.deliveries
        )
        return fault_log, deliveries

    def test_same_seed_reproduces_faults_and_deliveries(self):
        assert self._run_once(42) == self._run_once(42)

    def test_different_seed_changes_the_schedule(self):
        log_a, _ = self._run_once(42)
        log_b, _ = self._run_once(43)
        assert log_a != log_b

    def test_log_survives_partition_bookkeeping(self):
        network = line_topology(4)
        sim = network.sim
        injector = FaultInjector(network)
        affected = injector.partition(["B1", "B2"], ["B3", "B4"], start=1.0, duration=2.0)
        assert affected == 1  # the single tree edge between the two sides
        sim.run_until_idle()
        assert downtime_events(injector) == (1, 0)
