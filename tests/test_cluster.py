"""Tests for the multi-process cluster runner.

Three groups:

* **backend equivalence** — the cluster backend (one OS process per broker)
  must deliver exactly the notification sets the deterministic simulator
  delivers for the same scenario, on a covering 3-broker topology;
* **bootstrap** — the parent binds every broker's listener before it spawns
  the broker and holds it until close; a dial to a child that is not
  serving yet waits in that listener; the boot barrier waits for each
  child's ready frame;
* **failure semantics** — a broker process dying mid-run is detected and
  reported by the parent; a broker child closes its event loop as it
  exits; the broker topology freezes once booted.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import SystemConfig
from repro.net.cluster import ClusterError, ClusterTransport
from repro.net.process import Process
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
        # per-broker counters gathered over the control connections
        snapshot = net.transport.metrics_snapshot()
        assert snapshot["brokers"]["B2"]["counters"]["broker.matches"] == 5
        # the table size comes from the freshest idle poll
        assert net.brokers["B2"].routing_table_size() >= 1
        # broker-to-broker edge stats come from the freshest poll
        assert net.broker_link_messages(kind="publish") >= 10  # 2 edges x 5 publishes
        assert net.total_messages() > 0
    finally:
        net.close()


# ---------------------------------------------------------------- bootstrap


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


def test_a_client_attaches_inline_from_a_clock_callback():
    """A roaming client's attach completes inside a scheduled callback (the
    physical mobility of the paper's testbed).  On a booted cluster the
    attach dials, is answered and attaches within that callback, and the
    client's subscribe/publish round trip is delivered after the drain."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        home = net.add_client("home", "B1")
        home.subscribe(Filter([Equals("topic", "from-roamer")]), sub_id="h")
        net.run_until_idle()
        attached = []

        def attach():
            roamer = net.add_client("roamer", "B2")
            attached.append((roamer, "B2" in roamer.links))

        net.sim.schedule(0.01, attach)
        net.run_until_idle()
        [(roamer, linked)] = attached
        assert linked
        roamer.subscribe(Filter([Equals("topic", "to-roamer")]), sub_id="r")
        net.run_until_idle()
        home.publish(Notification({"topic": "to-roamer", "value": 1}))
        roamer.publish(Notification({"topic": "from-roamer", "value": 2}))
        net.run_until_idle()
        assert [d.notification["value"] for d in roamer.deliveries] == [1]
        assert [d.notification["value"] for d in home.deliveries] == [2]
    finally:
        net.close()
    assert net.transport.failures == {}


def test_an_attach_from_a_callback_to_a_dead_child_names_the_broker():
    """The same inline attach towards a child that died behind the parent's
    back fails with the dead broker's name and exit code, raised by the
    ``run`` that fired the callback."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.transport.boot()
        child = net.transport._children["B2"]
        child.kill()
        child.wait()
        net.sim.schedule(0.0, net.add_client, "late", "B2")
        with pytest.raises(ClusterError, match="'B2' exited with code"):
            net.run(until=net.sim.now + 0.5)
    finally:
        net.close()


def test_a_wait_nested_in_a_read_keeps_the_link_in_order():
    """A handler that waits in turn (here: attaches a client) runs inside the
    read that handed its message over.  The nested steps must not read more
    of that connection, or frames read there would be handed over before the
    rest of the outer batch: the stream must arrive in order."""
    count = 3000
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        sub = net.add_client("sub", "B2")
        sub.subscribe(Filter([Equals("topic", "t")]))
        pub = net.add_client("pub", "B1")
        net.run_until_idle()
        deliver = sub.deliver

        def deliver_then_attach(message):
            deliver(message)
            value = message.payload["value"]
            if value % 100 == 50:
                net.add_client(f"late{value}", "B1")

        sub.deliver = deliver_then_attach
        for value in range(count):
            pub.publish(Notification({"topic": "t", "value": value}))
        net.run_until_idle()
        assert [d.notification["value"] for d in sub.deliveries] == list(range(count))
    finally:
        net.close()
    assert net.transport.failures == {}


def test_each_broker_listens_at_its_own_address_until_close():
    """The parent binds one listener per broker at boot and holds it: every
    address is distinct and accepts a connection, and close releases them."""
    net = line_topology(n_brokers=3, config=SystemConfig(transport="cluster"))
    transport = net.transport
    assert transport.addresses == {}  # nothing is bound before boot
    try:
        transport.boot()
        addresses = transport.addresses
        assert sorted(addresses) == ["B1", "B2", "B3"]
        assert len(set(addresses.values())) == 3
        for address in addresses.values():
            socket.create_connection(address, timeout=2.0).close()
        assert transport.resource_sizes()["listeners"] == 3
    finally:
        net.close()
    for address in addresses.values():
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=2.0)


def _late_spawn(transport, late, delay):
    """``transport._spawn`` with broker ``late``'s child starting ``delay`` s late."""
    real_spawn = transport._spawn

    def spawn(spec):
        if spec["name"] != late:
            return real_spawn(spec)
        code = (
            f"import sys, time; time.sleep({delay}); "
            "from repro.net.cluster import node_main; sys.exit(node_main())"
        )
        return subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(spec)],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            pass_fds=(spec["listen_fd"], spec["control_fd"]),
        )

    return spawn


def test_a_dial_waits_in_the_held_listener_for_a_late_child(monkeypatch):
    """B1 dials B2 before B2's child serves: the connection waits in the
    listener the parent holds, with no lookup and no retry, and the edge
    carries traffic once B2 accepts it."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    try:
        monkeypatch.setattr(net.transport, "_spawn", _late_spawn(net.transport, "B2", 0.5))
        sub = net.add_client("sub", "B1")
        sub.subscribe(Filter([Equals("topic", "t")]))
        net.run_until_idle()
        net.add_client("pub", "B2").publish(Notification({"topic": "t"}))
        net.run_until_idle()
        assert len(sub.deliveries) == 1
    finally:
        net.close()
    assert net.transport.failures == {}


def test_boot_barrier_waits_for_a_ready_frame(monkeypatch):
    """A child that lives but never sends its ready frame holds the barrier
    until it times out; the failed boot leaves nothing behind."""
    transport = ClusterTransport()
    monkeypatch.setattr(transport, "BOOT_TIMEOUT", 0.5)
    real_spawn = transport._spawn

    def mute_spawn(spec):
        if spec["name"] != "B2":
            return real_spawn(spec)
        # holds its control connection and exits when anything arrives on it
        code = "import socket, sys; socket.socket(fileno=int(sys.argv[1])).recv(1)"
        fd = spec["control_fd"]
        return subprocess.Popen([sys.executable, "-c", code, str(fd)], pass_fds=(fd,))

    monkeypatch.setattr(transport, "_spawn", mute_spawn)
    try:
        b1 = transport.build_broker("B1")
        transport.make_link(transport.build_broker("B2"), b1)  # the mute child dials nobody
        with pytest.raises(ClusterError, match=r"never became ready within 0.5s: \['B2'\]"):
            transport.boot()
        assert "closed" in repr(transport)
    finally:
        transport.close()
    assert transport.exit_codes == {"B1": 0, "B2": 0}


def test_control_frames_count_in_no_counter():
    """Ready frames, counter polls and metrics requests cross the control
    connections only: no broker counter, ``transport.*`` instrument or idle
    total sees them."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    try:
        transport = net.transport
        transport.boot()
        for _ in range(3):
            net.run_until_idle()
        transport.metrics_snapshot()
        snapshot = transport.metrics_snapshot()
        owners = [snapshot["transport"], *snapshot["brokers"].values()]
        for metrics in owners:
            assert metrics["counters"]["transport.frames_sent"] == 0
            assert metrics["counters"]["transport.bytes_sent"] == 0
            assert metrics["histograms"]["transport.socket_write_bytes"]["count"] == 0
        for name, polled in transport.polled_stats.items():
            assert (polled["received"], polled["sent"]) == (0, 0), name
            assert snapshot["brokers"][name]["counters"]["broker.matches"] == 0
    finally:
        net.close()


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


def test_a_broker_child_closes_its_selector_and_sockets():
    """Development mode reports a socket (or an event loop) collected
    unclosed on stderr; every broker child closes its selector, its
    listener and its connections before it exits."""
    command = "demo line --backend cluster --brokers 2 --publishes 2".split()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *command],
        env={
            **os.environ,
            "PYTHONDEVMODE": "1",
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "unclosed" not in completed.stderr


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
