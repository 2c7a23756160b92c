"""One TCP connection per ``AsyncioLink``: what the single socket must still do.

A link's two directions share one duplex connection (``link.a`` dials
``link.b``'s server; each end writes on the socket it reads on).  Three
properties are easy to lose with that shape and are pinned here:

* a detach closes by *half-close* — what either end wrote just before
  ``close_dynamic_link`` is still read by the other (``close()`` on both
  ends makes each stop reading at once and drops all of it);
* the dialler waits for the acceptor's handshake, so a rejected or dead
  accept must fail the open promptly instead of parking the drain;
* the socket census: two fds per open link, none left behind by churn.

The cases on the ``transport`` fixture run on both write paths: bursts
batched into one socket write, and a socket write per frame.
"""

import os
import resource
import socket
import sys
import time

import pytest
from helpers import WRITE_PATHS, with_write_path

from repro.config import SystemConfig
from repro.net import wire
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport, _Receiver
from repro.pubsub.broker_network import BrokerNetwork


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message.payload)


@pytest.fixture(params=WRITE_PATHS)
def transport(request):
    transport = with_write_path(AsyncioTransport(), request.param)
    yield transport
    transport.close()


def open_link(transport, a, b, latency=0.0):
    opened = []
    link = transport.open_dynamic_link(a, b, latency=latency, ready=opened.append)
    transport.run_until_idle()
    assert opened == [link]
    return link


def sizes_after_one_cycle(transport, a, b):
    """The baseline a failed open must return to: servers exist, no link does."""
    link = open_link(transport, a, b)
    link.disconnect()
    transport.close_dynamic_link(link)
    transport.run_until_idle()
    return transport.resource_sizes()


# ------------------------------------------------------------ graceful close


@pytest.mark.parametrize("latency", [0.0, 0.002])
def test_farewells_in_both_directions_survive_the_close(transport, latency):
    """Regression: closing both ends outright dropped 400 of 400 such frames —
    each end stopped reading the moment its own socket closed."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    link = open_link(transport, a, b, latency)
    n = 200
    for i in range(n):
        a.send("b", Message("x", payload=i))
        b.send("a", Message("x", payload=i))
    link.disconnect()
    transport.close_dynamic_link(link)
    transport.run_until_idle(timeout=5.0)
    assert a.received == list(range(n))
    assert b.received == list(range(n))
    sizes = transport.resource_sizes()
    assert sizes["inflight_frames"] == 0
    assert sizes["open_writers"] == 0


# --------------------------------------------------------------- failed open


def skewed_fields():
    return {"wire": wire.WIRE_VERSION + 1, "table": -1}


def drain_failed_open(transport):
    """Let a failed open finish unwinding.  Both ends report: the dialler's own
    "closed before its handshake" may follow the rejection already raised."""
    try:
        transport.run_until_idle(timeout=2.0)
    except ConnectionError:
        transport.run_until_idle(timeout=2.0)


@pytest.mark.parametrize("skewed_end", ["handshake", "ack"])
def test_codec_skew_at_either_end_fails_the_open_promptly(monkeypatch, skewed_end):
    """The acceptor checks the dialler's handshake and the dialler the
    acceptor's ack, so a skew on only one side of the negotiation is caught."""
    transport = AsyncioTransport()
    try:
        a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
        baseline = sizes_after_one_cycle(transport, a, b)
        honest = wire.handshake_fields
        calls = []

        def fields():
            calls.append(skewed_end)
            skewed = len(calls) == (1 if skewed_end == "handshake" else 2)
            return skewed_fields() if skewed else honest()

        monkeypatch.setattr(wire, "handshake_fields", fields)
        opened = []
        transport.clock.schedule(0.0, transport.open_dynamic_link, a, b, 0.0, True, opened.append)
        start = time.perf_counter()
        with pytest.raises(wire.CodecMismatchError):
            transport.run_until_idle()
        assert time.perf_counter() - start < 2.0
        drain_failed_open(transport)
        assert opened == []
        assert len(calls) == (1 if skewed_end == "handshake" else 2)
        assert transport.resource_sizes() == baseline
        assert transport.links == []
    finally:
        transport.close()


def test_accept_that_dies_before_the_ack_fails_the_open_promptly(transport):
    """``b``'s address is a listener that accepts and hangs up without a word."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    baseline = sizes_after_one_cycle(transport, a, b)
    with socket.socket() as mute:
        mute.bind(("127.0.0.1", 0))
        mute.listen()
        mute.settimeout(2.0)
        transport._addresses["b"] = mute.getsockname()
        opened = []
        transport.clock.schedule(0.0, transport.open_dynamic_link, a, b, 0.0, True, opened.append)
        transport.clock.schedule(0.02, lambda: mute.accept()[0].close())
        start = time.perf_counter()
        with pytest.raises(ConnectionError):
            transport.run_until_idle()
        assert time.perf_counter() - start < 2.0
    assert opened == []
    assert transport.resource_sizes() == baseline
    assert transport.links == []


# ------------------------------------------------------------- socket census

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/fd")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def settle(transport):
    """Closing is asynchronous (EOF out, EOF back): give the last sockets a moment."""
    transport.run(until=transport.clock.now + 0.05)


@linux_only
def test_an_open_link_costs_two_fds(transport):
    a, b, c = (Recorder(transport.clock, name) for name in "abc")
    transport.make_link(a, b, latency=0.0)
    transport.make_link(b, c, latency=0.0)  # every server now exists
    before = open_fds()
    transport.make_link(a, c, latency=0.0)
    assert open_fds() - before == 2  # the two ends of one connection (was 4)
    a.send("c", Message("x", payload="there"))
    c.send("a", Message("x", payload="back"))
    transport.run_until_idle()
    assert (a.received, c.received) == (["back"], ["there"])


@linux_only
def test_a_fabric_holds_one_connection_per_link():
    net = BrokerNetwork(config=SystemConfig(transport="asyncio"))
    transport = net.transport
    try:
        idle = open_fds()  # the loop's own fds are already open
        names = [f"B{i + 1}" for i in range(5)]
        for name in names:
            net.add_broker(name)
        for left, right in zip(names, names[1:]):
            net.connect_brokers(left, right)
        for i in range(6):
            net.add_client(f"c{i}", f"B{i % 5 + 1}")
        net.run_until_idle()
        sizes = transport.resource_sizes()
        assert (sizes["servers"], sizes["links"]) == (11, 10)
        assert sizes["open_writers"] == 2 * sizes["links"]
        assert len(transport._receivers) == 2 * sizes["links"]
        assert open_fds() - idle == sizes["servers"] + 2 * sizes["links"]
    finally:
        net.close()


@linux_only
def test_attach_detach_churn_returns_every_fd(transport):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")

    def cycle(i):
        link = open_link(transport, a, b)
        a.send("b", Message("x", payload=i))
        b.send("a", Message("x", payload=i))
        link.disconnect()
        transport.close_dynamic_link(link)
        transport.run_until_idle()

    cycle(-1)  # warm-up: the servers are created lazily
    settle(transport)
    baseline = open_fds()
    for i in range(300):
        cycle(i)
    settle(transport)
    assert open_fds() == baseline
    assert transport._receivers == set()
    assert a.received == b.received == list(range(-1, 300))
    assert transport.resource_sizes()["links"] == 0


# ------------------------------------------------------------- reading buffer


def test_reads_land_in_the_node_owned_buffer(transport):
    """A plain ``Protocol`` gets a fresh 256 KiB ``bytes`` per socket read,
    which glibc may serve by growing and trimming the heap top — a page fault
    per read, or none, by what happens to sit at the top of the heap.  Reading
    into one buffer the node owns takes the allocation (and the lottery) away."""
    assert not hasattr(_Receiver, "data_received")
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    open_link(transport, a, b)

    def one_read_each(count):
        for i in range(count):
            a.send("b", Message("x", payload=i))
            transport.run_until_idle()

    one_read_each(200)  # warm-up
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_read_each(2000)
    grew = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert len(b.received) == 2200
    assert grew < 500, f"{grew} minor faults over 2000 single-frame reads"
