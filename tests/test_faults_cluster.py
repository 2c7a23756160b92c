"""Chaos tests: fault injection and recovery on the multi-process cluster.

Three groups:

* **convergence** — ``kill -9`` of a mid-workload broker followed by a
  supervised restart (and a TCP link sever/restore) must converge back to
  the exact delivery sets the deterministic simulator produces for the same
  scenario — the acceptance criterion of the fault-tolerance work;
* **fault-plane surface** — misuse of the injection API (unknown actions,
  missing targets, double kills) fails loudly instead of corrupting state;
* **supervision** — a child dying during boot fails fast with its exit code,
  and the registry supports re-registration after a deliberate kill while
  still rejecting genuinely duplicate live names.
"""

import asyncio
import subprocess
import sys

import pytest

from repro.config import SystemConfig
from repro.net.cluster import ClusterError, ClusterTransport
from repro.net.registry import RegistryError, RegistryServer, register_node
from repro.net.transport import TransportError
from repro.pubsub.broker_network import line_topology
from repro.pubsub.chaos import run_chaos_scenario


# ------------------------------------------------------------- convergence


def test_kill9_and_restart_converge_to_sim_baseline():
    """The tentpole guarantee: chaos on real processes == the sim baseline.

    The scenario SIGKILLs broker B2 mid-workload, restarts it under
    supervision (cold start: re-register, re-dial with backoff, re-sync
    routing state, re-attach clients), then severs and restores the B2-B3
    TCP link — and the post-recovery delivered sets must equal what the
    simulator's warm-crash model delivers for the identical storyline.
    """
    baseline = run_chaos_scenario("sim")
    chaotic = run_chaos_scenario("cluster")
    assert chaotic.delivered == baseline.delivered
    assert chaotic.duplicates == 0
    assert chaotic.lost == baseline.lost == 8
    assert chaotic.replayed == baseline.replayed == 8
    # every fault primitive fired exactly once, and B2's one client re-attached
    assert chaotic.recovery == {
        "kills": 1,
        "restarts": 1,
        "link_severs": 1,
        "link_restores": 1,
        "client_resubscribes": 1,
    }
    # each re-established link re-syncs in both directions: the restarted
    # B2 re-links to two neighbours (4 markers), the restored edge adds 2
    assert chaotic.resync_markers == 6
    # the simulator models a warm crash (state retained), so it never resyncs
    assert baseline.resync_markers == 0


def test_sever_restore_only_matches_sim():
    baseline = run_chaos_scenario("sim", kill=False)
    chaotic = run_chaos_scenario("cluster", kill=False)
    assert chaotic.delivered == baseline.delivered
    assert chaotic.resync_markers == 2
    assert chaotic.recovery["kills"] == 0
    assert chaotic.recovery["link_severs"] == 1


def test_asyncio_backend_matches_sim():
    """The loop-safe in-process fault path converges too (warm crashes)."""
    baseline = run_chaos_scenario("sim")
    asyncio_run = run_chaos_scenario("asyncio")
    assert asyncio_run.delivered == baseline.delivered
    assert asyncio_run.duplicates == 0


# ------------------------------------------------------- fault-plane surface


def test_fault_injection_surface_rejects_misuse():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        net.add_client("c", "B1")  # first attachment boots the cluster
        transport = net.transport
        assert transport.supports_fault_injection
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
    transport = ClusterTransport(boot_timeout=30.0)
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


def test_registry_allows_reregistration_after_forget():
    async def scenario():
        registry = RegistryServer()
        await registry.start()
        try:
            first = await register_node(registry.address, "B1", "127.0.0.1", 1111)
            # a live holder of the name is still a genuine duplicate
            with pytest.raises(RegistryError, match="duplicate broker name 'B1'"):
                await register_node(registry.address, "B1", "127.0.0.1", 2222)
            registry.forget("B1")
            assert "B1" not in registry.registered
            # ...but after a deliberate kill the name is free again
            second = await register_node(registry.address, "B1", "127.0.0.1", 3333)
            assert registry.registered["B1"] == ("127.0.0.1", 3333)
            assert "B1" not in registry.disconnected
            # the stale first channel's EOF must not clobber the fresh one
            first.close()
            await asyncio.sleep(0.05)
            assert "B1" in registry.registered
            assert "B1" not in registry.disconnected
            second.close()
        finally:
            await registry.close()

    asyncio.run(scenario())
