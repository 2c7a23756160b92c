"""Unit tests for the wireless channel (connection awareness)."""

import pytest

from repro.net.process import Message, Process
from repro.net.simulator import Simulator
from repro.net.transport import SimTransport
from repro.net.wireless import WirelessChannel


class Device(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


class AccessPoint(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def setup():
    transport = SimTransport()
    sim = transport.sim
    device = Device(sim, "device")
    ap1 = AccessPoint(sim, "ap1")
    ap2 = AccessPoint(sim, "ap2")
    channel = WirelessChannel(device, latency=0.01, connect_latency=0.1, transport=transport)
    return sim, device, ap1, ap2, channel


class TestAttachment:
    def test_initially_disconnected(self, setup):
        _sim, _device, _ap1, _ap2, channel = setup
        assert not channel.connected
        assert channel.access_point_name is None

    def test_attach_completes_after_connect_latency(self, setup):
        sim, _device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        assert not channel.connected  # not yet
        sim.run_until_idle()
        assert channel.connected
        assert channel.access_point_name == "ap1"
        assert sim.now == pytest.approx(0.1)

    def test_connect_callbacks_fire(self, setup):
        sim, _device, ap1, _ap2, channel = setup
        events = []
        channel.on_connect(lambda ap: events.append(("connect", ap)))
        channel.attach(ap1)
        sim.run_until_idle()
        assert events == [("connect", "ap1")]
        channel.detach()
        assert events == [("connect", "ap1")]
        assert not channel.connected
        assert channel.stats.disconnects == 1

    def test_handover_switches_access_point(self, setup):
        sim, _device, ap1, ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        channel.detach()
        sim.schedule(1.0, channel.attach, ap2)
        assert not channel.connected
        sim.run_until_idle()
        assert channel.access_point_name == "ap2"
        assert channel.stats.connects == 2
        assert channel.stats.disconnects == 1

    def test_detach_cancels_pending_attach(self, setup):
        # a powered-off device must not end up connected because an older
        # attach completed after the detach
        sim, _device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        channel.detach()
        sim.run_until_idle()
        assert not channel.connected
        assert channel.stats.connects == 0

    def test_latest_of_overlapping_attaches_wins(self, setup):
        sim, _device, ap1, ap2, channel = setup
        channel.attach(ap1)
        channel.attach(ap2)
        sim.run_until_idle()
        assert channel.access_point_name == "ap2"
        assert channel.stats.connects == 1

    @pytest.mark.parametrize("second", ["ap1", "ap2"])
    def test_a_simulated_link_is_never_ready_stale(self, setup, second):
        # a move at the instant of an attach: the first link is open inside
        # its attach, so the second attach hands over from it and no link is
        # ever left to tear down as stale
        sim, device, ap1, ap2, channel = setup
        channel = WirelessChannel(
            device, latency=0.01, connect_latency=0.0, transport=channel.transport
        )
        winner, loser = (ap1, ap2) if second == "ap1" else (ap2, ap1)
        channel.attach(ap1)
        sim.schedule(0.0, channel.attach, winner)
        sim.run_until_idle()
        assert (channel.stats.connects, channel.stats.disconnects) == (2, 1)
        assert channel.access_point_name == second
        assert list(device.links) == [second]
        assert channel.send_up(Message("ping", payload=5))
        sim.run_until_idle()
        assert [m.payload for m in winner.received] == [5]
        assert loser.received == []
        channel.detach()
        assert device.links == {}
        assert not winner.has_link("device")

    def test_a_channel_needs_a_transport(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            WirelessChannel(Device(sim, "device"))

    def test_attaches_and_detaches_are_counted(self, setup):
        sim, _device, ap1, ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        channel.detach()
        channel.attach(ap2)
        sim.run_until_idle()
        assert (channel.stats.connects, channel.stats.disconnects) == (2, 1)
        assert channel.access_point_name == "ap2"


class TestMessaging:
    def test_send_up_when_connected(self, setup):
        sim, _device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        assert channel.send_up(Message("hello")) is True
        sim.run_until_idle()
        assert len(ap1.received) == 1
        assert ap1.received[0].sender == "device"

    def test_send_up_while_disconnected_is_counted(self, setup):
        _sim, _device, _ap1, _ap2, channel = setup
        assert channel.send_up(Message("hello")) is False
        assert channel.stats.dropped_while_disconnected == 1

    def test_downlink_reaches_device(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        ap1.send("device", Message("notify", payload=42))
        sim.run_until_idle()
        assert device.received[0].payload == 42

    def test_detach_removes_links(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        channel.detach()
        assert not device.has_link("ap1")
        assert not ap1.has_link("device")


class TestBatchedSendOverWireless:
    """Process.send_many across the (lossy) wireless hop."""

    def test_send_many_burst_arrives_in_order_after_latency(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        device.send_many("ap1", [Message("subscribe", payload=i) for i in range(5)])
        sim.run_until_idle()
        assert [m.payload for m in ap1.received] == [0, 1, 2, 3, 4]
        assert channel._link.stats_a_to_b.messages == 5

    def test_send_many_on_lossy_channel_drops_whole_burst(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        # signal loss without detaching: the link object survives but is down
        channel._link.set_up(False)
        assert not channel.connected
        device.send_many("ap1", [Message("subscribe", payload=i) for i in range(3)])
        sim.run_until_idle()
        assert ap1.received == []
        assert channel._link.stats_a_to_b.dropped == 3

    def test_burst_in_flight_during_signal_loss_still_delivered(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        device.send_many("ap1", [Message("subscribe", payload=i) for i in range(3)])
        channel._link.set_up(False)  # loss after transmission, before arrival
        sim.run_until_idle()
        # models buffered TCP segments: in-flight traffic survives the outage
        assert [m.payload for m in ap1.received] == [0, 1, 2]

    def test_burst_after_recovery_preserves_fifo_with_earlier_traffic(self, setup):
        sim, device, ap1, _ap2, channel = setup
        channel.attach(ap1)
        sim.run_until_idle()
        device.send("ap1", Message("first"))
        channel._link.set_up(False)
        device.send("ap1", Message("lost"))
        channel._link.set_up(True)
        device.send_many("ap1", [Message("second"), Message("third")])
        sim.run_until_idle()
        assert [m.kind for m in ap1.received] == ["first", "second", "third"]
        assert channel._link.stats_a_to_b.dropped == 1
