"""Mobility layer on real sockets: cross-checks against the simulator.

The contract mirrors the transport layer's own cross-check suite: the same
fixed handover scenario (attach → walk across the broker line → power off →
exception-mode reappearance, under the NLB predictor) must deliver the
*identical* ``(notification_id, replayed)`` multiset per mobile client on
the deterministic simulator and on the asyncio TCP backend.  Phase-exact
quiescence is what makes that equality well-defined; any divergence means
either the wire codec, the socket-backed wireless channel or the replicator
protocol changed observable behaviour on one substrate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.location import LocationSpace
from repro.core.middleware import MobilePubSub, MobilitySystemConfig
from repro.mobility.handover_workload import (
    WorkloadSpec,
    cross_check_backends,
    run_handover_workload,
)
from repro.net.process import Message, Process
from repro.net.wireless import WirelessChannel
from repro.pubsub.broker_network import line_topology


# ------------------------------------------------------------- backend parity


class TestHandoverCrossCheck:
    def test_asyncio_handover_delivers_identical_sets_to_simulator(self):
        """The acceptance gate: 3-broker walk + exception mode, sim == asyncio."""
        results, mismatches = cross_check_backends(backends=("sim", "asyncio"))
        assert mismatches == []
        reference = results["sim"]
        # the scenario must actually exercise the machinery it claims to
        assert reference.delivered_total() > 0
        assert reference.handovers >= 3, "the walk must hand the client over"
        assert reference.exception_activations >= 1, "power-on far away must hit exception mode"
        assert any(outcome.replayed for outcome in reference.clients), (
            "shadow buffers must replay something, or the scenario lost its point"
        )
        # both backends agree on the protocol-level counters too (every phase
        # is quiesced, so these are deterministic, not just the deliveries)
        candidate = results["asyncio"]
        assert candidate.handovers == reference.handovers
        assert candidate.exception_activations == reference.exception_activations
        assert candidate.control_messages == reference.control_messages

    def test_cross_check_holds_without_prediction(self):
        """The reactive baseline (no shadows) must also be substrate-invariant."""
        results, mismatches = cross_check_backends(
            backends=("sim", "asyncio"),
            spec=WorkloadSpec(publishes_per_phase=2, predictor="none"),
        )
        assert mismatches == []
        assert results["sim"].shadows_created == 0

    def test_shared_template_handover_is_substrate_and_hash_seed_invariant(self):
        """Two walkers on one template walk together, so every replicator on
        their way shares one broker subscription between them: the delivered
        multisets must not depend on the backend nor on set iteration order."""
        script = (
            "import json;"
            "from repro.mobility.handover_workload import WorkloadSpec, cross_check_backends;"
            "results, mismatches = cross_check_backends(spec=WorkloadSpec(walkers=2, commuters=0));"
            "print(json.dumps([mismatches, results['sim'].delivered_map()]))"
        )
        root = Path(__file__).resolve().parents[1]
        outputs = {}
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                cwd=str(root),
                capture_output=True,
                text=True,
                check=True,
            )
            outputs[seed] = json.loads(output.stdout)
        mismatches, delivered = outputs["0"]
        assert mismatches == []
        assert outputs["1"] == outputs["0"]
        for walker in ("m-walk", "m-walk2"):
            assert any(replayed for _, replayed in delivered[walker])
            assert not all(replayed for _, replayed in delivered[walker])

    def test_asyncio_handover_latencies_are_real(self):
        result = run_handover_workload("asyncio", spec=WorkloadSpec(publishes_per_phase=1))
        latencies = result.all_handover_latencies()
        assert latencies, "every attach must be welcomed"
        # the connect_latency floor (10ms) is honoured by the real clock
        assert min(latencies) >= 0.01


# ------------------------------------------------------ facade backend checks


def test_mobility_layer_accepts_asyncio_backend():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="asyncio"))
    space = LocationSpace({"l1": "B1", "l2": "B2"}, adjacency={"l1": ["l2"], "l2": ["l1"]})
    system = MobilePubSub(net, space, config=MobilitySystemConfig())
    try:
        client = system.add_mobile_client("m1")
        system.attach(client, location="l1")
        system.run_until_idle()
        assert client.connected
        assert client.setup_latencies(), "the replicator must welcome the client over TCP"
    finally:
        system.close()


@pytest.mark.parametrize(
    "backend, expected",
    [
        # publisher, replicator<->broker, replicator<->replicator, wireless
        ("sim", (0.001, 0.0005, 0.0005, 0.002)),
        ("asyncio", (0.0, 0.0, 0.0, 0.0)),
    ],
)
def test_simulated_latency_stays_on_the_simulator(backend, expected):
    """MobilePubSub passes its simulated latencies to every backend: the
    simulator applies them, a socket delivers at arrival and its links
    report 0."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport=backend))
    space = LocationSpace({"l1": "B1", "l2": "B2"}, adjacency={"l1": ["l2"], "l2": ["l1"]})
    system = MobilePubSub(net, space)
    try:
        system.add_publisher("pub-l1", "l1")
        client = system.add_mobile_client("m1")
        system.attach(client, location="l1")
        system.run_until_idle()
        assert client.connected
        built = (
            net.link_between("pub-l1", "B1").latency,
            net.link_between("R@B1", "B1").latency,
            net.link_between("R@B1", "R@B2").latency,
            client.channel._link.latency,
        )
        assert built == expected
    finally:
        system.close()


@pytest.mark.parametrize(
    "knob", ["broker_link_latency", "replicator_link_latency", "wireless_latency"]
)
def test_link_latency_is_no_mobility_config_knob(knob):
    with pytest.raises(TypeError):
        MobilitySystemConfig(**{knob: 0.0})


def test_mobility_layer_rejects_cluster_backend():
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    try:
        space = LocationSpace({"l1": "B1"})
        with pytest.raises(NotImplementedError):
            MobilePubSub(net, space)
    finally:
        net.close()


# --------------------------------------------------- wireless channel on TCP


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def asyncio_channel():
    from repro.net.transport import AsyncioTransport

    transport = AsyncioTransport()
    device = Recorder(transport.clock, "device")
    ap1 = Recorder(transport.clock, "ap1")
    ap2 = Recorder(transport.clock, "ap2")
    channel = WirelessChannel(device, latency=0.0, connect_latency=0.005, transport=transport)
    yield transport, channel, device, ap1, ap2
    transport.close()


class TestWirelessChannelOnAsyncio:
    def test_attach_opens_real_link_and_fires_callbacks(self, asyncio_channel):
        transport, channel, device, ap1, _ap2 = asyncio_channel
        events = []
        channel.on_connect(lambda name: events.append(("connect", name)))
        channel.attach(ap1)
        assert not channel.connected, "attachment must not complete synchronously"
        transport.run_until_idle()
        assert channel.connected and channel.access_point_name == "ap1"
        assert events == [("connect", "ap1")]
        assert channel.send_up(Message("ping", payload=1))
        transport.run_until_idle()
        assert [m.payload for m in ap1.received] == [1]
        assert ap1.received[0].sender == "device"

    def test_handover_switches_access_points(self, asyncio_channel):
        transport, channel, device, ap1, ap2 = asyncio_channel
        channel.attach(ap1)
        transport.run_until_idle()
        channel.detach()
        channel.attach(ap2)
        transport.run_until_idle()
        assert channel.access_point_name == "ap2"
        channel.send_up(Message("ping", payload=2))
        transport.run_until_idle()
        assert [m.payload for m in ap2.received] == [2]
        assert ap1.received == []
        assert channel.stats.connects == 2

    def test_detach_drops_uplink_traffic(self, asyncio_channel):
        transport, channel, _device, ap1, _ap2 = asyncio_channel
        channel.attach(ap1)
        transport.run_until_idle()
        channel.detach()
        assert not channel.connected
        assert not channel.send_up(Message("ping", payload=3))
        assert channel.stats.dropped_while_disconnected == 1
        transport.run_until_idle()
        assert [m.payload for m in ap1.received] == []

    def test_concurrent_attach_latest_instruction_wins(self, asyncio_channel):
        # the superseded establishment is discarded, the newest attach wins
        transport, channel, _device, ap1, ap2 = asyncio_channel
        channel.attach(ap1)
        channel.attach(ap2)
        transport.run_until_idle()
        assert channel.connected
        assert channel.access_point_name == "ap2"
        assert channel.stats.connects == 1, "only one attachment may win"

    def test_detach_cancels_pending_attach(self, asyncio_channel):
        # regression: a powered-off device must not end up connected because
        # an older attach completed after the detach
        transport, channel, _device, ap1, _ap2 = asyncio_channel
        channel.attach(ap1)
        channel.detach()
        transport.run_until_idle()
        assert not channel.connected
        assert channel.stats.connects == 0

    def test_double_attach_to_same_access_point_keeps_a_working_link(self, asyncio_channel):
        # regression: the discarded duplicate establishment used to clobber
        # the winner's routing entries, leaving connected=True but send_up
        # raising KeyError
        transport, channel, device, ap1, _ap2 = asyncio_channel
        channel.attach(ap1)
        channel.attach(ap1)
        transport.run_until_idle()
        assert channel.connected and channel.access_point_name == "ap1"
        assert device.has_link("ap1") and ap1.has_link("device")
        assert channel.send_up(Message("ping", payload=7))
        transport.run_until_idle()
        assert [m.payload for m in ap1.received] == [7]

    @pytest.mark.parametrize("second", ["ap1", "ap2"])
    def test_a_link_ready_after_a_later_attach_is_torn_down(
        self, asyncio_channel, second, monkeypatch
    ):
        # the device moves on (to the same or the other access point) while
        # its first link is still being paired: the first link becomes ready
        # stale, and must leave neither a second attachment nor a socket
        transport, _channel, device, ap1, ap2 = asyncio_channel
        channel = WirelessChannel(device, latency=0.0, connect_latency=0.0, transport=transport)
        winner, loser = (ap1, ap2) if second == "ap1" else (ap2, ap1)
        probe = WirelessChannel(
            Recorder(transport.clock, "probe"), latency=0.0, connect_latency=0.0, transport=transport
        )
        probe.attach(ap2)
        transport.run_until_idle()
        one_link = transport.resource_sizes()
        probe.detach()
        transport.run_until_idle()
        no_link = transport.resource_sizes()
        assert (one_link["links"], one_link["open_writers"]) == (1, 2)
        assert (no_link["links"], no_link["open_writers"]) == (0, 0)

        discarded = []
        discard = channel._discard_stale_link
        monkeypatch.setattr(
            channel, "_discard_stale_link", lambda link: (discarded.append(link), discard(link))
        )
        channel.attach(ap1)
        transport.clock.schedule(0.0, channel.attach, winner)
        transport.run_until_idle()
        assert len(discarded) == 1, "the first link must become ready stale"
        assert channel.stats.connects == 1
        assert channel.access_point_name == second
        assert transport.resource_sizes() == one_link

        assert channel.send_up(Message("ping", payload=5))
        transport.run_until_idle()
        assert [m.payload for m in winner.received] == [5]
        assert loser.received == []

        channel.detach()
        transport.run_until_idle()
        assert transport.resource_sizes() == no_link

    def test_a_link_ready_after_a_power_off_is_torn_down(self, asyncio_channel):
        # the device powers off while its link is being paired: the link
        # becomes ready stale and must not connect it, nor stay open
        transport, _channel, device, ap1, _ap2 = asyncio_channel
        channel = WirelessChannel(device, latency=0.0, connect_latency=0.0, transport=transport)
        channel.attach(ap1)
        transport.clock.schedule(0.0, channel.detach)
        transport.run_until_idle()
        assert not channel.connected
        assert channel.stats.connects == 0
        assert not device.has_link("ap1") and not ap1.has_link("device")
        sizes = transport.resource_sizes()
        assert (sizes["links"], sizes["open_writers"]) == (0, 0)

    def test_open_dynamic_link_from_inside_the_running_loop(self):
        from repro.net.transport import AsyncioTransport

        transport = AsyncioTransport()
        try:
            a = Recorder(transport.clock, "a")
            b = Recorder(transport.clock, "b")
            opened = []

            def open_late():
                transport.open_dynamic_link(a, b, latency=0.0, ready=opened.append)

            transport.clock.schedule(0.005, open_late)
            transport.run_until_idle()
            assert len(opened) == 1
            a.send("b", Message("x", payload=42))
            transport.run_until_idle()
            assert [m.payload for m in b.received] == [42]
        finally:
            transport.close()


def test_sim_transport_dynamic_link_is_synchronous():
    from repro.net.transport import SimTransport

    transport = SimTransport()
    a = Recorder(transport.clock, "a")
    b = Recorder(transport.clock, "b")
    opened = []
    link = transport.open_dynamic_link(a, b, latency=0.0, ready=opened.append)
    assert opened == [link], "the simulator attaches dynamic links immediately"
    a.send("b", Message("x", payload=1))
    transport.run_until_idle()
    assert [m.payload for m in b.received] == [1]
