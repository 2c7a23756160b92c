"""Tests for the multi-process cluster runner and its registry.

Three groups:

* **backend equivalence** — the cluster backend (one OS process per broker)
  must deliver exactly the notification sets the deterministic simulator
  delivers for the same scenario, on a covering 3-broker topology;
* **registry edge cases** — duplicate broker names, lookups of unknown
  brokers, port collision retry;
* **failure semantics** — a broker process dying mid-run is detected and
  reported by the parent; the broker topology freezes once booted.
"""

import asyncio
import socket

import pytest

from repro.config import SystemConfig
from repro.net.cluster import ClusterError, ClusterTransport
from repro.net.process import Process
from repro.net.registry import (
    RegistryError,
    RegistryServer,
    lookup,
    register_node,
    report_ready,
)
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter, Prefix, Range
from repro.pubsub.notification import Notification
from repro.pubsub.testing import run_line_workload


# ------------------------------------------------------------- equivalence


def covering_scenario(backend: str):
    """Subscribe/publish churn on a 3-broker covering line; returns delivered sets.

    Everything that would consult a process-global counter (notification
    ids, subscription ids) is pinned, so the delivered sets are comparable
    across backends and across OS processes.
    """
    net = line_topology(n_brokers=3, routing="covering", config=SystemConfig(transport=backend))
    try:
        c1 = net.add_client("c1", "B1")
        c2 = net.add_client("c2", "B3")
        c3 = net.add_client("c3", "B2")
        publisher = net.add_client("pub", "B3")

        # c1's broad filter covers c2's narrow one, so covering routing
        # suppresses part of the narrow advertisement across the line
        c1.subscribe(Filter([Equals("service", "temp")]), sub_id="g1")
        c2.subscribe(Filter([Equals("service", "temp"), Range("value", 10, 30)]), sub_id="g2")
        c3.subscribe(Filter([Prefix("room", "r")]), sub_id="g3")
        net.run_until_idle()

        for i in range(8):
            publisher.publish(
                Notification(
                    {"service": "temp", "value": 5 * i, "room": f"r{i % 3}"},
                    notification_id=7000 + i,
                )
            )
        net.run_until_idle()

        # churn: the covering subscription leaves, the narrow one must take over
        c1.unsubscribe("g1")
        net.run_until_idle()
        for i in range(8, 12):
            publisher.publish(
                Notification(
                    {"service": "temp", "value": 5 * i, "room": f"r{i % 3}"},
                    notification_id=7000 + i,
                )
            )
        net.run_until_idle()

        delivered = {
            name: sorted(d.notification.notification_id for d in client.deliveries)
            for name, client in net.clients.items()
        }
        duplicates = {name: client.duplicate_deliveries() for name, client in net.clients.items()}
        return delivered, duplicates
    finally:
        net.close()


def test_cluster_delivers_identical_sets_to_simulator():
    """A 3-broker covering topology delivers the same sets sim vs cluster."""
    sim_delivered, sim_duplicates = covering_scenario("sim")
    cluster_delivered, cluster_duplicates = covering_scenario("cluster")
    assert cluster_delivered == sim_delivered
    assert cluster_duplicates == sim_duplicates
    # the scenario is only meaningful if somebody actually got something
    assert sum(len(ids) for ids in sim_delivered.values()) > 0


def test_cluster_line_workload_delivers_exactly():
    """The canonical line workload verifies end-to-end on broker processes."""
    result = run_line_workload("cluster", 3, 24)
    assert result.mismatches == 0
    assert result.delivered == result.expected > 0
    assert all(latency >= 0 for latency in result.all_latencies())


def test_cluster_polls_remote_broker_and_link_stats():
    """After quiescence, remote broker/link counters are visible in the parent."""
    net = line_topology(n_brokers=3, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        subscriber = net.add_client("sub", "B3")
        subscriber.subscribe(Filter([Equals("topic", "t")]), sub_id="s1")
        net.run_until_idle()
        publisher = net.add_client("pub", "B1")
        for value in range(5):
            publisher.publish(Notification({"topic": "t", "value": value}))
        net.run_until_idle()

        assert len(subscriber.deliveries) == 5
        # per-broker counters gathered over the registry control channels
        snapshot = net.transport.metrics_snapshot()
        assert snapshot["brokers"]["B2"]["counters"]["broker.matches"] == 5
        # the table size comes from the freshest idle poll
        assert net.brokers["B2"].routing_table_size() >= 1
        # broker-to-broker edge stats come from the freshest poll
        assert net.broker_link_messages(kind="publish") >= 10  # 2 edges x 5 publishes
        assert net.total_messages() > 0
    finally:
        net.close()


# ----------------------------------------------------------------- registry


def test_run_until_idle_waits_for_scheduled_parent_callbacks():
    """A scheduled-but-unfired clock callback keeps the cluster busy.

    Regression: the conservation check alone would declare idleness before
    a parent-side ``sim.schedule`` callback fires (the asyncio backend's
    idle condition also counts pending timers; the cluster must match).
    """
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        subscriber = net.add_client("sub", "B2")
        subscriber.subscribe(Filter([Equals("topic", "t")]), sub_id="s1")
        net.run_until_idle()
        publisher = net.add_client("pub", "B1")
        net.sim.schedule(0.15, lambda: publisher.publish(Notification({"topic": "t", "value": 1})))
        net.run_until_idle()
        assert len(subscriber.deliveries) == 1
    finally:
        net.close()


def test_registry_rejects_duplicate_broker_name():
    async def scenario():
        registry = RegistryServer()
        await registry.start()
        try:
            first = await register_node(registry.address, "B1", "127.0.0.1", 1111)
            try:
                with pytest.raises(RegistryError, match="duplicate broker name 'B1'"):
                    await register_node(registry.address, "B1", "127.0.0.1", 2222)
            finally:
                first.close()
        finally:
            await registry.close()

    asyncio.run(scenario())


def test_registry_lookup_unknown_broker_times_out():
    async def scenario():
        registry = RegistryServer()
        await registry.start()
        try:
            with pytest.raises(RegistryError, match="unknown broker 'nope'"):
                await lookup(registry.address, "nope", timeout=0.2)
        finally:
            await registry.close()

    asyncio.run(scenario())


def test_registry_lookup_waits_for_late_registration():
    async def scenario():
        registry = RegistryServer()
        await registry.start()
        try:
            async def register_later():
                await asyncio.sleep(0.1)
                return await register_node(registry.address, "late", "127.0.0.1", 4242)

            register_task = asyncio.ensure_future(register_later())
            address = await lookup(registry.address, "late", timeout=5.0)
            assert address == ("127.0.0.1", 4242)
            (await register_task).close()
        finally:
            await registry.close()

    asyncio.run(scenario())


def test_registry_port_collision_retries_next_port():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    taken = blocker.getsockname()[1]

    async def scenario():
        registry = RegistryServer(port=taken, port_retries=4)
        bound = await registry.start()
        try:
            assert taken < bound[1] <= taken + 4
        finally:
            await registry.close()

        # with retries disabled the collision is fatal
        stubborn = RegistryServer(port=taken, port_retries=0)
        with pytest.raises(RegistryError, match="could not bind"):
            await stubborn.start()

    try:
        asyncio.run(scenario())
    finally:
        blocker.close()


def test_registry_ready_barrier():
    async def scenario():
        registry = RegistryServer()
        await registry.start()
        try:
            channel = await register_node(registry.address, "B1", "127.0.0.1", 9999)
            with pytest.raises(RegistryError, match="never became ready"):
                await registry.wait_ready(["B1"], timeout=0.2)
            await report_ready(channel, "B1")
            await registry.wait_ready(["B1"], timeout=1.0)
            channel.close()
        finally:
            await registry.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------- failures


def test_parent_detects_broker_process_death_mid_run():
    net = line_topology(n_brokers=3, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        subscriber = net.add_client("sub", "B3")
        subscriber.subscribe(Filter([Equals("topic", "t")]), sub_id="s1")
        net.run_until_idle()

        net.transport._children["B2"].kill()
        publisher = net.add_client("pub", "B1")
        publisher.publish(Notification({"topic": "t", "value": 1}))
        with pytest.raises(ClusterError, match="(B2.*exited|lost contact)"):
            net.run_until_idle()
    finally:
        net.close()
    # close() records the killed child's exit code as a failure
    assert "B2" in net.transport.failures


def test_topology_frozen_after_boot():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c", "B1")  # first attachment boots the cluster
        with pytest.raises(ClusterError, match="frozen|after the cluster has booted"):
            net.add_broker("B9")
    finally:
        net.close()


def test_local_to_local_links_rejected():
    transport = ClusterTransport()
    try:
        transport.build_broker("B1")
        a, b = Process(transport.clock, "a"), Process(transport.clock, "b")
        with pytest.raises(ClusterError, match="clients to brokers"):
            transport.make_link(a, b)
    finally:
        transport.close()
