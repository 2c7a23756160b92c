"""One TCP connection per ``AsyncioLink``: what the single socket must still do.

A link's two directions share one duplex connection (the transport pairs
its two sockets with one loopback connect to its own listener; each end
writes on the socket it reads on).  Four properties are easy to lose with
that shape and are pinned here:

* a detach closes by *half-close* — what either end wrote just before
  ``close_dynamic_link`` is still read by the other (``close()`` on both
  ends makes each stop reading at once and drops all of it);
* a pairing step that raises fails the open promptly and leaves nothing
  behind, one that times out moves the open to a fresh listener, and a
  stranger at the listener is never served
  (the cluster, whose ends live in different processes, still negotiates
  the wire revision at open, and a skew at either end fails it);
* both sockets of every link send each write at once (``TCP_NODELAY``);
* the socket census: one listener, opened with the first link and closed
  with the transport, two fds per open link, none left behind by churn.

The cases on the ``transport`` fixture run on both write paths: bursts
batched into one socket write, and a socket write per frame.
"""

import os
import resource
import socket
import sys
import time

import pytest
from helpers import WRITE_PATHS, impostor_of, with_write_path

from repro.config import SystemConfig
from repro.net import wire
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport, _Connection
from repro.pubsub.broker_network import BrokerNetwork, line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


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
    link = transport.make_link(a, b, latency=latency)
    transport.run_until_idle()
    return link


def sizes_after_one_cycle(transport, a, b):
    """The baseline a failed open must return to: the listener exists, no link does."""
    link = open_link(transport, a, b)
    link.disconnect()
    transport.close_dynamic_link(link)
    transport.run_until_idle()
    return transport.resource_sizes()


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/fd")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def settle(transport):
    """Closing is asynchronous (EOF out, EOF back): give the last sockets a moment."""
    transport.run(until=transport.clock.now + 0.05)


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



@linux_only
def test_an_accept_that_dies_fails_the_open_promptly(transport, monkeypatch):
    """The pairing's accept raises: the dialled socket is closed, the link is
    forgotten, and the connection left queued at the listener is turned away
    by the next pairing as a stranger."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    baseline = sizes_after_one_cycle(transport, a, b)
    fds = open_fds()

    def dies(listener):
        raise ConnectionAbortedError("accept died")

    monkeypatch.setattr(socket.socket, "accept", dies)
    opened = []
    transport.clock.schedule(0.0, lambda: opened.append(transport.make_link(a, b, 0.0)))
    start = time.perf_counter()
    with pytest.raises(ConnectionAbortedError):
        transport.run_until_idle()
    assert time.perf_counter() - start < 2.0
    assert opened == []
    assert transport.resource_sizes() == baseline
    assert transport.links == []
    assert open_fds() == fds
    monkeypatch.undo()
    assert sizes_after_one_cycle(transport, a, b) == baseline


@pytest.mark.parametrize("skewed_end", ["handshake", "ack"])
def test_codec_skew_at_either_end_fails_the_open_promptly(monkeypatch, capfd, skewed_end):
    """A link is born connected and negotiates nothing; a cluster connection
    still does.  The acceptor checks the dialler's handshake and the dialler
    the acceptor's ack, so a skew on only one side is caught: the attach
    fails promptly, the end that refused names the mismatch, and the
    cluster goes on delivering."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    try:
        pub, sub = net.add_client("pub", "B1"), net.add_client("sub", "B2")
        sub.subscribe(Filter([Equals("service", "temp")]))
        net.run_until_idle()
        capfd.readouterr()
        start = time.perf_counter()
        if skewed_end == "handshake":
            honest = wire.handshake_fields
            monkeypatch.setattr(wire, "handshake_fields", lambda: {**honest(), **skewed_fields()})
            with pytest.raises(ConnectionError, match="closed before its handshake"):
                net.add_client("late", "B1")
            monkeypatch.undo()
            net.run_until_idle()  # the refusal is the broker's, not the driver's
            refused = capfd.readouterr().err
            assert "B1: refused a connection" in refused
            assert "wire revision" in refused
        else:
            with impostor_of(net, "B1", **skewed_fields()) as heard:
                with pytest.raises(ConnectionError, match="closed before its handshake"):
                    net.add_client("late", "B1")
                with pytest.raises(wire.CodecMismatchError, match="wire revision"):
                    net.run_until_idle()
            assert heard[1:] == [b""]  # the dialler hung up
        assert time.perf_counter() - start < 2.0
        assert net.transport._children["B1"].poll() is None
        pub.publish(Notification({"service": "temp"}))
        net.run_until_idle()
        assert len(sub.deliveries) == 1
    finally:
        net.close()
    assert net.transport.failures == {}


@pytest.mark.parametrize("says", [b"", wire.frame(b"\x01hello")], ids=["silent", "speaking"])
def test_a_stranger_at_the_listener_is_never_served(transport, says):
    """A connection the transport did not dial is closed unread by the next
    pairing: it is bound to no link, its bytes reach no process, and the
    link opened after it delivers both ways."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    baseline = sizes_after_one_cycle(transport, a, b)
    with socket.create_connection(transport._listener.getsockname(), timeout=2.0) as stranger:
        stranger.sendall(says)
        link = open_link(transport, a, b)
        a.send("b", Message("x", payload="there"))
        b.send("a", Message("x", payload="back"))
        transport.run_until_idle()
        assert (a.received, b.received) == (["back"], ["there"])
        served = {c.sock.getpeername() for c in transport._connections}
        assert stranger.getsockname() not in served
        assert len(transport._connections) == 2
        try:
            assert stranger.recv(1) == b""  # closed by the transport
        except ConnectionResetError:
            assert says  # closed with the stranger's bytes unread
    link.disconnect()
    transport.close_dynamic_link(link)
    transport.run_until_idle()
    assert transport.resource_sizes() == baseline


@pytest.mark.parametrize("hang_up", [False, True], ids=["waiting", "hung-up"])
def test_a_listener_backlog_full_of_strangers_moves_the_open_to_a_fresh_listener(hang_up):
    """The pairing blocks the loop's thread, so each of its steps has a time
    limit.  Strangers fill the listener's accept queue (and may hang up
    there, where no accept drains them), so the pairing's connect times out:
    the listener is replaced by a fresh one and the open succeeds on it
    promptly, as does every later open, with one listener held throughout;
    a link opened before it still delivers both ways."""
    transport = AsyncioTransport()
    transport.PAIR_TIMEOUT = 0.2
    strangers = []
    try:
        a, b, c, d = (Recorder(transport.clock, name) for name in "abcd")
        open_link(transport, a, c)
        address = transport._listener.getsockname()
        for _ in range(4096):
            try:
                strangers.append(socket.create_connection(address, timeout=0.05))
            except TimeoutError:
                break  # the accept queue is full
        else:
            pytest.fail("the listener's accept queue never filled")
        if hang_up:
            for stranger in strangers:
                stranger.close()
        opened = []
        transport.clock.schedule(0.0, lambda: opened.append(transport.make_link(a, b, 0.0)))
        start = time.perf_counter()
        transport.run_until_idle()
        assert time.perf_counter() - start < 2.0
        assert len(opened) == 1
        assert transport._listener.getsockname() != address
        for later in (d, d, d):
            link = open_link(transport, b, later)
            link.disconnect()
            transport.close_dynamic_link(link)
        assert time.perf_counter() - start < 2.0
        assert transport.resource_sizes()["listeners"] == 1
        for here, there in ((a, c), (a, b)):
            here.send(there.name, Message("x", payload="there"))
            there.send(here.name, Message("x", payload="back"))
        transport.run_until_idle()
        assert (a.received, b.received, c.received) == (["back"] * 2, ["there"], ["there"])
    finally:
        for stranger in strangers:
            stranger.close()
        transport.close()


# ------------------------------------------------------------- partial sends


def test_a_burst_the_kernel_refuses_is_held_then_sent_whole_and_in_order(transport):
    """Sent before the loop runs, a burst far larger than the loopback
    socket buffers is taken only in part: the connection holds the rest
    (``unsent_bytes``) and sends it as the socket drains."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    open_link(transport, a, b)
    n, pad = 40_000, "x" * 240
    for i in range(n):
        a.send("b", Message("x", payload=(i, pad)))
    held = transport.resource_sizes()["unsent_bytes"]
    assert held > 0
    transport.run_until_idle(timeout=10.0)
    assert [payload[0] for payload in b.received] == list(range(n))
    sizes = transport.resource_sizes()
    assert (sizes["unsent_bytes"], sizes["inflight_frames"]) == (0, 0)


# ------------------------------------------------------------- socket census

@linux_only
def test_an_open_link_costs_two_fds(transport):
    a, b, c = (Recorder(transport.clock, name) for name in "abc")
    transport.make_link(a, b, latency=0.0)
    transport.make_link(b, c, latency=0.0)  # the listener now exists
    before = open_fds()
    transport.make_link(a, c, latency=0.0)
    assert open_fds() - before == 2  # the two ends of one connection (was 4)
    a.send("c", Message("x", payload="there"))
    c.send("a", Message("x", payload="back"))
    transport.run_until_idle()
    assert (a.received, c.received) == (["back"], ["there"])


def test_the_listener_opens_with_the_first_link_and_closes_with_the_transport():
    """One listening socket serves every pairing: none before the first link,
    the same one for each link after it, and nothing accepting once the
    transport is closed."""
    transport = AsyncioTransport()
    try:
        a, b, c = (Recorder(transport.clock, name) for name in "abc")
        assert transport.resource_sizes()["listeners"] == 0
        transport.make_link(a, b, latency=0.0)
        listener = transport._listener
        address = listener.getsockname()
        transport.make_link(b, c, latency=0.0)
        assert transport._listener is listener
        assert transport.resource_sizes()["listeners"] == 1
    finally:
        transport.close()
    assert listener.fileno() == -1
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=2.0).close()


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
        assert (sizes["listeners"], sizes["links"]) == (1, 10)
        assert sizes["open_writers"] == 2 * sizes["links"]
        assert len(transport._connections) == 2 * sizes["links"]
        assert open_fds() - idle == sizes["listeners"] + 2 * sizes["links"]
    finally:
        net.close()


def test_every_link_sends_each_write_at_once(transport):
    """Both sockets of every link carry ``TCP_NODELAY``; without it Nagle and
    a delayed ACK hold a drain's last small write back ~25 ms and
    ``handover_tcp`` runs at a tenth of its rate, while every functional
    test still passes."""
    a, b, c = (Recorder(transport.clock, name) for name in "abc")
    transport.make_link(a, b, latency=0.0)
    transport.make_link(b, c, latency=0.0)
    open_link(transport, a, c)
    sockets = [
        endpoint._writer.sock
        for link in transport.links
        for endpoint in (link._a_to_b, link._b_to_a)
    ]
    assert len(sockets) == 6
    for sock in sockets:
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


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

    cycle(-1)  # warm-up: the listener is created lazily
    settle(transport)
    baseline = open_fds()
    for i in range(300):
        cycle(i)
    settle(transport)
    assert open_fds() == baseline
    assert transport._connections == set()
    assert a.received == b.received == list(range(-1, 300))
    assert transport.resource_sizes()["links"] == 0


# ------------------------------------------------------------- reading buffer


def test_reads_land_in_the_node_owned_buffer(transport):
    """A fresh 256 KiB ``bytes`` per socket read (an asyncio ``Protocol``'s
    ``data_received``) may be served by glibc growing and trimming the heap
    top — a page fault per read, or none, by what happens to sit at the top
    of the heap.  Reading into one buffer the node owns takes the allocation
    (and the lottery) away."""
    assert not hasattr(_Connection, "data_received")
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
