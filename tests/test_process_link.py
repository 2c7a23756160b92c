"""Unit tests for processes, messages and FIFO links."""

import pytest

from repro.net.link import Link
from repro.net.process import Message, Process
from repro.net.simulator import Simulator
from repro.net.transport import SimTransport
from repro.pubsub.broker_network import BrokerNetwork


class Recorder(Process):
    """A process that records everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append((self.sim.now, message))


@pytest.fixture
def pair():
    sim = Simulator()
    a = Recorder(sim, "a")
    b = Recorder(sim, "b")
    link = Link(sim, a, b, latency=0.5)
    return sim, a, b, link


class TestMessage:
    def test_unique_ids(self):
        assert Message("x").msg_id != Message("x").msg_id


class TestLinkDelivery:
    def test_message_arrives_after_latency(self, pair):
        sim, a, b, _link = pair
        a.send("b", Message("ping", payload=1))
        sim.run_until_idle()
        assert len(b.received) == 1
        time, message = b.received[0]
        assert time == pytest.approx(0.5)
        assert message.sender == "a"
        assert message.payload == 1

    def test_bidirectional(self, pair):
        sim, a, b, _link = pair
        a.send("b", Message("ping"))
        b.send("a", Message("pong"))
        sim.run_until_idle()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_fifo_order_preserved(self, pair):
        sim, a, b, _link = pair
        for i in range(20):
            a.send("b", Message("seq", payload=i))
        sim.run_until_idle()
        payloads = [message.payload for _t, message in b.received]
        assert payloads == list(range(20))

    def test_fifo_preserved_even_if_latency_drops_mid_stream(self, pair):
        sim, a, b, link = pair
        a.send("b", Message("seq", payload=0))
        link.latency = 0.01  # later message would overtake without the FIFO floor
        a.send("b", Message("seq", payload=1))
        sim.run_until_idle()
        payloads = [message.payload for _t, message in b.received]
        assert payloads == [0, 1]

    def test_send_without_link_raises(self, pair):
        sim, a, _b, _link = pair
        with pytest.raises(KeyError):
            a.send("nobody", Message("x"))

    def test_dead_process_ignores_messages(self, pair):
        sim, a, b, _link = pair
        b.shutdown()
        a.send("b", Message("x"))
        sim.run_until_idle()
        assert b.received == []

    def test_counters(self, pair):
        sim, a, b, link = pair
        a.send("b", Message("x"))
        a.send("b", Message("y"))
        sim.run_until_idle()
        assert a.messages_sent == 2
        assert b.messages_received == 2
        assert link.total_messages() == 2
        assert link.stats_a_to_b.messages == 2
        assert link.stats_b_to_a.messages == 0
        assert link.messages_of_kind("x") == 1


class TestLinkFailure:
    def test_down_link_drops_messages(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        a.send("b", Message("x"))
        sim.run_until_idle()
        assert b.received == []
        assert link.stats_a_to_b.dropped == 1

    def test_disconnect_detaches_endpoints(self, pair):
        sim, a, b, link = pair
        link.disconnect()
        assert not a.has_link("b")
        assert not b.has_link("a")

    def test_in_flight_messages_still_delivered_after_disconnect(self, pair):
        sim, a, b, link = pair
        a.send("b", Message("x"))
        link.disconnect()
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_reconnect_restores_delivery(self, pair):
        sim, a, b, link = pair
        link.disconnect()
        link.reconnect()
        a.send("b", Message("x"))
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_negative_latency_rejected(self):
        sim = Simulator()
        a = Recorder(sim, "a")
        b = Recorder(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, latency=-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("build", ["link", "transport"])
    def test_a_latency_that_is_not_finite_is_refused_at_construction(self, latency, build):
        # a NaN passes ``latency < 0`` and used to fail only at the first send;
        # an infinite one delivered at t=inf and left the clock there
        sim = Simulator()
        a = Recorder(sim, "a")
        b = Recorder(sim, "b")
        with pytest.raises(ValueError, match="finite"):
            if build == "link":
                Link(sim, a, b, latency=latency)
            else:
                SimTransport().make_link(a, b, latency=latency)
        assert a.links == {} and b.links == {}


class TestBrokerNetworkRegistry:
    def test_duplicate_process_names_rejected(self):
        network = BrokerNetwork()
        sim = network.sim
        network.add_process(Recorder(sim, "a"))
        with pytest.raises(ValueError):
            network.add_process(Recorder(sim, "a"))

    def test_connect_and_lookup(self):
        network = BrokerNetwork()
        sim = network.sim
        a = network.add_process(Recorder(sim, "a"))
        b = network.add_process(Recorder(sim, "b"))
        network.connect_processes("a", "b", latency=0.1)
        assert network.link_between("a", "b") is not None
        assert network.link_between("b", "a") is not None
        assert network.link_between("a", "c") is None
        a.send("b", Message("hello"))
        sim.run_until_idle()
        assert network.total_messages() == 1
        assert network.total_messages("hello") == 1


class TestBatchedDelivery:
    def test_send_many_preserves_fifo_with_earlier_traffic(self, pair):
        sim, a, b, link = pair
        a.send("b", Message("x", payload="first"))
        a.send_many("b", [Message("y", payload="second"), Message("y", payload="third")])
        sim.run_until_idle()
        assert [m.payload for (_, m) in b.received] == ["first", "second", "third"]

    def test_send_many_on_down_link_drops_all(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        a.send_many("b", [Message("x"), Message("x")])
        sim.run_until_idle()
        assert b.received == []
        assert link.stats_a_to_b.dropped == 2


# ------------------------------------------------------- counted, not weighed


class _Trap:
    """A payload that fails the test the moment anything looks inside it."""

    def __getattr__(self, name):
        raise AssertionError(f"a send asked the payload for {name!r}")

    def __len__(self):
        raise AssertionError("a send took the payload's length")

    def __iter__(self):
        raise AssertionError("a send iterated over the payload")


class TestSendNeverLooksInside:
    @pytest.mark.parametrize("where", ["payload", "meta"])
    def test_a_trap_arrives_untouched_and_counted(self, pair, where):
        sim, a, b, link = pair
        trap = _Trap()
        if where == "payload":
            message = Message("trap", payload=trap)
        else:
            message = Message("trap", meta={"value": trap})
        a.send("b", message)
        sim.run_until_idle()
        [(_time, received)] = b.received
        carried = received.payload if where == "payload" else received.meta["value"]
        assert carried is trap
        assert a.messages_sent == 1
        assert link.stats_a_to_b.messages == 1
        assert link.messages_of_kind("trap") == 1
