"""Chaos tests: fault injection and recovery on the multi-process cluster.

Three groups:

* **convergence** — ``kill -9`` of a mid-workload broker followed by a
  supervised restart (and a TCP link sever/restore) must converge back to
  the exact delivery sets the deterministic simulator produces for the same
  plan (``chaosgen.STORYLINE``) — the acceptance criterion of the
  fault-tolerance work;
* **fault-plane surface** — misuse of the injection API (unknown actions,
  missing targets, double kills) fails loudly instead of corrupting state;
* **supervision** — a child dying during boot fails fast with its exit code,
  a restarted broker serves on its old address, a broker restarted beside a
  neighbour that is down dials only the neighbours that are up, a control
  call to a dead child fails at once, an attach to a stopped child gives up
  after the boot timeout, and a child whose control connection closes exits
  on its own.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import SystemConfig
from repro.net.cluster import ClusterError, ClusterTransport
from repro.net.transport import Transport, TransportError
from repro.pubsub.broker_network import line_topology
from repro.pubsub.chaosgen import STORYLINE, ChaosPlan, execute_plan
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


# ------------------------------------------------------------- convergence


def _judged(plan, backend):
    """Execute ``plan`` on ``backend``; its invariants must hold."""
    result = execute_plan(plan, backend)
    assert result.ok, [str(v) for v in result.violations]
    assert result.events_skipped == 0
    return result


def test_kill9_and_restart_converge_to_sim_baseline():
    """The tentpole guarantee: chaos on real processes == the sim baseline.

    The storyline SIGKILLs broker B2 mid-workload, restarts it under
    supervision (cold start: serve on its old listener, re-dial, re-sync
    routing state, re-attach clients), then severs and restores the B2-B3
    TCP link — and the post-recovery delivered sets must equal what the
    simulator's warm-crash model delivers for the identical plan.
    """
    baseline = _judged(STORYLINE, "sim")
    chaotic = _judged(STORYLINE, "cluster")
    assert chaotic.delivered == baseline.delivered
    assert sum(len(ids) for ids in baseline.delivered.values()) == 77
    assert chaotic.published == baseline.published == 86
    assert chaotic.lost == baseline.lost == 12
    assert chaotic.replayed == baseline.replayed == 12
    assert chaotic.events_applied == baseline.events_applied == 5
    # every fault primitive fired exactly once, and B2's two clients re-attached
    assert chaotic.recovery == {
        "kills": 1,
        "restarts": 1,
        "link_severs": 1,
        "link_restores": 1,
        "client_resubscribes": 2,
    }
    # each re-established link re-syncs in both directions: the restarted
    # B2 re-links to two neighbours (4 markers), the restored edge adds 2
    assert chaotic.resync_markers == 6
    # the simulator models a warm crash (state retained), so it never resyncs
    assert baseline.resync_markers == 0


def test_sever_restore_only_matches_sim():
    plan = ChaosPlan(
        params=STORYLINE.params,
        events=tuple(e for e in STORYLINE.events if e.action not in ("crash", "restart")),
    )
    baseline = _judged(plan, "sim")
    chaotic = _judged(plan, "cluster")
    assert chaotic.delivered == baseline.delivered
    assert chaotic.lost == chaotic.replayed == 4
    assert chaotic.resync_markers == 2
    assert chaotic.recovery["kills"] == 0
    assert chaotic.recovery["link_severs"] == 1


def test_asyncio_backend_matches_sim():
    """The loop-safe in-process fault path converges too (warm crashes)."""
    baseline = _judged(STORYLINE, "sim")
    asyncio_run = _judged(STORYLINE, "asyncio")
    assert asyncio_run.delivered == baseline.delivered
    assert asyncio_run.resync_markers == 0


# ------------------------------------------------------- fault-plane surface


def test_fault_injection_surface_rejects_misuse():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c", "B1")  # first attachment boots the cluster
        transport = net.transport
        # the cluster's faults are real (SIGKILL, TCP severing), not the
        # in-process backends' switches
        assert type(transport).inject_fault is not Transport.inject_fault
        with pytest.raises(ClusterError, match="unknown broker 'ZZ'"):
            transport.kill_broker("ZZ")
        with pytest.raises(TransportError, match="unknown fault action 'explode'"):
            transport.inject_fault("explode")
        with pytest.raises(TransportError, match="requires a process target"):
            transport.inject_fault("crash")
        with pytest.raises(TransportError, match="requires a link target"):
            transport.inject_fault("link_down")
        client_link = transport._client_link("c", "B1")
        with pytest.raises(ClusterError, match="broker-to-broker"):
            client_link.set_up(False)
        with pytest.raises(ClusterError, match="not down"):
            transport.restart_broker("B2")
        transport.kill_broker("B2")
        with pytest.raises(ClusterError, match="already down"):
            transport.kill_broker("B2")
        transport.restart_broker("B2")
        net.run_until_idle()  # the recovered cluster still quiesces cleanly
        assert transport.recovery["kills"] == 1
        assert transport.recovery["restarts"] == 1
    finally:
        net.close()


def test_deliberate_kill_is_not_reported_as_a_crash():
    """``kill_broker`` must not trip the surprise-crash detector."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        subscriber = net.add_client("sub", "B1")
        net.run_until_idle()
        net.transport.kill_broker("B2")
        net.run_until_idle()  # lossy quiescence, no ClusterError
        assert net.transport.recovery["kills"] == 1
    finally:
        net.close()


# ---------------------------------------------------------------- supervision


def test_child_death_during_boot_fails_fast_with_exit_code(monkeypatch):
    transport = ClusterTransport()
    try:
        a = transport.build_broker("B1")
        b = transport.build_broker("B2")
        transport.make_link(a, b)
        real_spawn = transport._spawn

        def crashy_spawn(spec):
            if spec["name"] == "B2":
                return subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(7)"])
            return real_spawn(spec)

        monkeypatch.setattr(transport, "_spawn", crashy_spawn)
        with pytest.raises(ClusterError, match="'B2' exited with code 7"):
            transport.boot()
        # a failed boot must not leak half a cluster
        assert "closed" in repr(transport)
    finally:
        transport.close()


def test_a_restarted_broker_keeps_its_address():
    """The respawned child serves on the listener its predecessor served on,
    and the dead child's control connection closing leaves the new one be."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        transport = net.transport
        pub, sub = net.add_client("pub", "B1"), net.add_client("sub", "B2")
        sub.subscribe(Filter([Equals("topic", "t")]))
        net.run_until_idle()
        addresses = dict(transport.addresses)
        transport.kill_broker("B2")
        transport.restart_broker("B2")
        net.run_until_idle()
        assert transport.addresses == addresses
        sizes = transport.resource_sizes()
        assert (sizes["listeners"], sizes["control_connections"]) == (2, 2)
        assert sorted(transport.metrics_snapshot()["brokers"]) == ["B1", "B2"]
        pub.publish(Notification({"topic": "t"}))
        net.run_until_idle()
        assert len(sub.deliveries) == 1
    finally:
        net.close()


def test_attaching_a_client_to_a_killed_broker_fails_before_any_dial():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c1", "B1")
        transport = net.transport
        transport.kill_broker("B2")
        net.run_until_idle()
        before = transport.resource_sizes()
        with pytest.raises(ClusterError, match="cannot attach c2 to B2: B2 is down; restart"):
            net.add_client("c2", "B2")
        assert transport.resource_sizes() == before
        assert "c2" not in transport._local
    finally:
        net.close()


def test_attaching_a_client_to_a_dead_child_fails_with_its_exit_code():
    """A child that died behind the parent's back (no ``kill_broker``) fails
    the attach with its exit code instead of hanging: the parent holds the
    child's listener, so the dial connects and its handshake is never
    answered; only the control connection's loss tells."""

    def hung(signum, frame):
        raise TimeoutError("the attach to a dead child hung")

    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        net.transport.boot()
        child = net.transport._children["B2"]
        child.kill()
        child.wait()
        with pytest.raises(ClusterError, match=f"'B2' exited with code {-signal.SIGKILL}"):
            net.add_client("c", "B2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        net.close()


def test_attaching_a_client_to_a_stopped_child_fails_within_the_timeout(monkeypatch):
    """A child that is alive but stopped never answers the attach's
    handshake and keeps its control connection open: the attach gives up
    after ``BOOT_TIMEOUT`` and names the broker, instead of waiting forever."""

    def hung(signum, frame):
        raise TimeoutError("the attach to a stopped child hung")

    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        net.transport.boot()
        monkeypatch.setattr(net.transport, "BOOT_TIMEOUT", 0.5)
        child = net.transport._children["B2"]
        os.kill(child.pid, signal.SIGSTOP)
        start = time.perf_counter()
        with pytest.raises(ClusterError, match="'B2' did not answer the attach of 'c'"):
            net.add_client("c", "B2")
        assert time.perf_counter() - start < 2.0
        child.kill()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        net.close()


def test_restarting_a_broker_beside_a_down_neighbour_converges():
    """Kill B2 and B3, then restart them in turn: B2 dials only B1 (B3 is
    down), B3 dials B2 back, and every subscriber gets every later
    notification exactly once."""
    net = line_topology(n_brokers=3, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        pub = net.add_client("pub", "B1")
        subs = [net.add_client(f"sub{i}", f"B{i}") for i in (2, 3)]
        for sub in subs:
            sub.subscribe(Filter([Equals("topic", "t")]))
        net.run_until_idle()
        start = time.perf_counter()
        for name in ("B2", "B3"):
            net.transport.kill_broker(name)
        for name in ("B2", "B3"):
            net.transport.restart_broker(name)
        net.run_until_idle()
        for i in range(5):
            pub.publish(Notification({"topic": "t"}, notification_id=9000 + i))
        net.run_until_idle()
        assert time.perf_counter() - start < 10.0
        for sub in subs:
            ids = sorted(d.notification.notification_id for d in sub.deliveries)
            assert ids == list(range(9000, 9005))
    finally:
        net.close()


def test_a_control_call_to_a_killed_child_fails_fast():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c", "B1")
        net.transport.kill_broker("B2")
        start = time.perf_counter()
        with pytest.raises(ClusterError, match="control connection to 'B2' closed"):
            net.transport._request("B2", "stats", timeout=5.0)
        assert time.perf_counter() - start < 1.0
    finally:
        net.close()


def test_a_child_dying_under_a_request_fails_it_at_once():
    """A stopped child cannot answer; killing it fails the outstanding
    request as its control connection closes, not when the timeout ends."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c", "B1")
        transport = net.transport
        child = transport._children["B2"]
        os.kill(child.pid, signal.SIGSTOP)
        transport.clock.schedule(0.2, child.kill)
        start = time.perf_counter()
        with pytest.raises(ClusterError, match="control connection to 'B2' closed"):
            transport._request("B2", "stats", timeout=5.0)
        assert time.perf_counter() - start < 2.0
        assert not transport._controls["B2"].replies
    finally:
        net.close()
    assert net.transport.failures == {"B2": -signal.SIGKILL}


def test_a_child_exits_when_its_control_connection_closes():
    """The parent going away closes every control connection; each child
    then shuts itself down, cleanly, so no orphan is left behind."""
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        transport = net.transport
        transport.boot()
        transport._controls["B1"]._writer.close()
        transport.run(until=transport.clock.now + 0.05)  # the close reaches the socket
        assert transport._children["B1"].wait(timeout=5.0) == 0
        assert transport._children["B2"].poll() is None
    finally:
        net.close()
    assert net.transport.failures == {}
