"""Time on the socket backends: timers fire when due, frames at arrival.

Two mechanisms of the socket runtime (``SocketNode``) keep time.  The event
loop's selector waits with microsecond resolution (the stock epoll selector
rounds every timer wait up to a whole millisecond), and each connection is
read by a callback-driven receiver that hands every frame of a read to its
process in that same callback — a socket link applies no latency of its
own.  ``AsyncioTransport`` and the cluster's parent and broker children are
all instances of that runtime; the cases that need no in-process link also
run on the cluster.  The asyncio cases run on both write paths (batched
bursts, a write per frame).  Timing assertions are on *medians*: a stalled
CI machine delays a few samples, not half of them.
"""

import asyncio
import random
import selectors
import socket
import statistics
import time

import pytest
from helpers import WRITE_PATHS, impostor_of, with_write_path

from repro.config import SystemConfig
from repro.net import wire
from repro.net.cluster import ClusterTransport
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport, TransportError
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


class Recorder(Process):
    """Records ``(payload, clock.now at receipt)`` for everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append((message.payload, self.sim.now))

    def payloads(self):
        return [payload for payload, _at in self.received]


@pytest.fixture(params=WRITE_PATHS)
def transport(request):
    transport = with_write_path(AsyncioTransport(), request.param)
    yield transport
    transport.close()


@pytest.fixture(params=[f"asyncio-{path}" for path in WRITE_PATHS] + ["cluster"])
def clocked(request):
    """A socket backend with nothing on it: its clock and loop are all a timer needs."""
    backend, _, write_path = request.param.partition("-")
    if backend == "asyncio":
        transport = with_write_path(AsyncioTransport(), write_path)
    else:
        transport = ClusterTransport()
    yield transport
    transport.close()


def pair(transport):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    return a, b, transport.make_link(a, b, latency=0.0)


# ------------------------------------------------------------------ streams


def test_a_stream_over_a_link_given_a_latency_is_received_at_arrival(transport):
    """A latency is simulated seconds: a socket link given 20 ms reports none
    and holds no frame back.  Regression: the receiver held each frame behind
    a 20 ms floor, so one send every 10 ms transited in 20 ms or more."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    link = transport.make_link(a, b, latency=0.02)
    assert link.latency == 0.0
    clock = transport.clock
    sent_at = {}

    def send(i):
        sent_at[i] = clock.now
        a.send("b", Message("seq", payload=i))

    for i in range(6):
        clock.schedule(0.01 * i, send, i)
    transport.run_until_idle()
    assert b.payloads() == list(range(6))
    transits = [received_at - sent_at[i] for i, received_at in b.received]
    assert statistics.median(transits) < 0.005, [round(t * 1e3, 2) for t in transits]


def test_bursts_arrive_in_order_after_one_drain(transport):
    a, b, _link = pair(transport)

    def send_burst(burst):
        for i in range(10):
            a.send("b", Message("seq", payload=burst * 10 + i))

    for burst in range(10):
        transport.clock.schedule(0.0005 * burst, send_burst, burst)
    transport.run_until_idle()
    assert b.payloads() == list(range(100))
    assert transport.resource_sizes()["inflight_frames"] == 0


def test_writes_onto_a_closing_connection_are_reconciled_not_waited_for(transport):
    """Frames sent after the connections started closing never arrive; the
    drain reconciles them instead of waiting out its timeout on them."""
    a, b, link = pair(transport)
    for i in range(5):
        a.send("b", Message("x", payload=i))
    transport.run_until_idle()
    assert b.payloads() == list(range(5))
    link._close_writers()
    for i in range(5, 10):
        a.send("b", Message("x", payload=i))
    assert transport.resource_sizes()["inflight_frames"] == 5
    transport.run_until_idle(timeout=2.0)
    assert b.payloads() == list(range(5))
    assert transport.resource_sizes()["inflight_frames"] == 0
    with pytest.raises(TransportError, match="not connected"):
        a.send("b", Message("x", payload="onto the dead connection"))


def test_raising_handler_mid_batch_surfaces_and_does_not_wedge(transport):
    class Poisoned(Recorder):
        def on_message(self, message):
            if message.payload == "poison":
                raise RuntimeError("handler bug")
            super().on_message(message)

    a, b = Recorder(transport.clock, "a"), Poisoned(transport.clock, "b")
    transport.make_link(a, b, latency=0.0)
    for payload in ("before", "poison", "after"):
        a.send("b", Message("x", payload=payload))
    with pytest.raises(RuntimeError, match="handler bug"):
        transport.run_until_idle(timeout=2.0)
    transport.run_until_idle(timeout=2.0)  # the undelivered frame is not a ghost
    assert b.payloads() == ["before"]
    assert transport.resource_sizes()["inflight_frames"] == 0


def test_cluster_broker_survives_a_dialler_it_refuses():
    """Regression: a handshake the broker child rejected failed the whole node
    (exit 1) — one misconfigured dialler took a broker down.  It now costs
    that connection only: closed without an answer."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    try:
        pub, sub = net.add_client("pub", "B1"), net.add_client("sub", "B2")
        sub.subscribe(Filter([Equals("service", "temp")]))
        net.run_until_idle()
        handshake = {
            "source": "intruder",
            "target": "B1",
            "kind": "client",
            **wire.handshake_fields(),
            "wire": wire.WIRE_VERSION + 1,
        }
        start = time.perf_counter()
        address = net.transport.addresses["B1"]
        with socket.create_connection(address, timeout=2.0) as raw:
            raw.sendall(wire.frame(wire.encode_control(handshake)))
            assert raw.recv(1) == b""  # refused: no ack, connection closed
        assert time.perf_counter() - start < 2.0
        assert net.transport._children["B1"].poll() is None
        pub.publish(Notification({"service": "temp"}))
        net.run_until_idle()
        assert len(sub.deliveries) == 1
    finally:
        net.close()
    assert net.transport.failures == {}


@pytest.mark.parametrize("write_path", WRITE_PATHS)
def test_handshake_naming_the_wrong_target_surfaces_from_the_driver(write_path):
    """The dialler checks that the acceptor's answer is addressed to it.  An
    attach to an impostor whose ack names another process fails promptly,
    the driver raises the refusal, and the cluster goes on delivering on the
    parent's write path."""
    net = line_topology(n_brokers=2, config=SystemConfig(transport="cluster"))
    with_write_path(net.transport, write_path)
    try:
        pub, sub = net.add_client("pub", "B1"), net.add_client("sub", "B2")
        sub.subscribe(Filter([Equals("service", "temp")]))
        net.run_until_idle()
        start = time.perf_counter()
        with impostor_of(net, "B1", target="someone else") as heard:
            with pytest.raises(ConnectionError, match="closed before its handshake"):
                net.add_client("late", "B1")
            with pytest.raises(wire.WireError, match="for 'someone else' arrived at 'late'"):
                net.run_until_idle()
        assert time.perf_counter() - start < 2.0
        assert wire.decode_control(heard[0])["target"] == "B1"
        assert heard[1:] == [b""]  # the dialler hung up
        pub.publish(Notification({"service": "temp"}))
        net.run_until_idle()
        assert len(sub.deliveries) == 1
    finally:
        net.close()
    assert net.transport.failures == {}


# ------------------------------------------------------------------- timers


def test_sub_millisecond_timers_fire_when_due(clocked):
    """The stock epoll selector rounds a wait up to whole milliseconds: every
    one of these fired at >= 1.09 ms, i.e. 0.2 - 0.9 ms late (and the cluster
    parent, then on a stock loop of its own, fired a 0.3 ms timer at 1.23 ms).
    Driven by time: a cluster that has not booted has no drain to run."""
    if selectors.DefaultSelector is not selectors.EpollSelector:
        pytest.skip("only the epoll selector rounds; elsewhere the stock loop is kept")
    clock = clocked.clock
    rng = random.Random(15)
    lateness = []
    for _ in range(51):
        delay = rng.uniform(0.0002, 0.0009)
        due = clock.now + delay
        clock.schedule(delay, lambda due=due: lateness.append(clock.now - due))
        clocked.run(until=due + 0.001)
    assert len(lateness) == 51
    median = statistics.median(lateness)
    assert median < 0.0003, f"median lateness {median * 1e3:.3f} ms"


def test_io_preempts_a_long_timer_wait(transport):
    """Waiting on the epoll fd for a timer must still wake at once on a readable socket."""
    a, b, _link = pair(transport)
    far = transport.clock.schedule(0.05, lambda: None)
    sent = transport.clock.now
    a.send("b", Message("x", payload="while the loop waits for the timer"))
    transport.run_until_idle()
    assert len(b.received) == 1
    assert b.received[0][1] - sent < 0.01
    assert far.executed  # the drain then waited for the timer itself


# ---------------------------------------------------------------- structure


def test_no_task_exists_per_connection(transport):
    names = ["a", "b", "c", "d"]
    nodes = [Recorder(transport.clock, name) for name in names]
    for left, right in zip(nodes, nodes[1:]):
        transport.make_link(left, right, latency=0.001)
    for node, successor in zip(nodes, names[1:]):
        node.send(successor, Message("x", payload=node.name))
    transport.run_until_idle()
    assert [node.payloads() for node in nodes[1:]] == [["a"], ["b"], ["c"]]
    assert len(transport._receivers) == 6  # one per direction of three links
    assert asyncio.all_tasks(transport._loop) == set()


def test_no_task_exists_per_cluster_client_connection():
    """The parent read each client connection in a task of its own; its
    receivers are callbacks, and so are those of the control connections
    (one per broker): the parent runs no task at all."""
    net = line_topology(n_brokers=3, config=SystemConfig(transport="cluster"))
    try:
        transport = net.transport
        transport.boot()
        assert asyncio.all_tasks(transport._loop) == set()
        assert len(transport._receivers) == 3  # the control connections
        clients = [net.add_client(f"c{i}", f"B{i % 3 + 1}") for i in range(6)]
        for client in clients:
            client.subscribe(Filter([Equals("service", "temp")]))
        net.run_until_idle()
        clients[0].publish(Notification({"service": "temp"}))
        net.run_until_idle()
        assert [len(client.deliveries) for client in clients[1:]] == [1] * 5
        assert asyncio.all_tasks(transport._loop) == set()
        assert len(transport._receivers) == 3 + 6
    finally:
        net.close()


# --------------------------------------------------------------- accounting


def test_refused_transmit_is_not_counted(transport):
    """Regression: a send onto a dead direction raised *after* the link stats
    and the process counters had counted it (3 messages for 2 frames sent)."""
    a, b, link = pair(transport)
    a.send("b", Message("x", payload=1))
    a.send("b", Message("x", payload=2))
    transport.run_until_idle()
    link._close_writers()
    transport.run_until_idle()
    transport.run(until=transport.clock.now + 0.02)  # b's receiver sees the close
    counters = (link.stats_a_to_b.messages, a.messages_sent)
    with pytest.raises(TransportError, match="not connected"):
        a.send("b", Message("x", payload=3))
    assert (link.stats_a_to_b.messages, a.messages_sent) == counters == (2, 2)
    assert b.payloads() == [1, 2]
    assert transport.resource_sizes()["inflight_frames"] == 0
