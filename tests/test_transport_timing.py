"""Time on the socket backends: timers fire when due, floors count from arrival.

Two mechanisms of the socket runtime (``SocketNode``) keep time.  The event
loop's selector waits with microsecond resolution (the stock epoll selector
rounds every timer wait up to a whole millisecond), and each connection is
read by a callback-driven receiver that stamps a read's true arrival and
releases frames from a FIFO floor queue with one timer — it never sleeps
inline, so the floors of a stream cannot add up.  ``AsyncioTransport`` and
the cluster's parent and broker children are all instances of that runtime;
the cases that need no in-process link also run on the cluster.  The
asyncio cases run on both write paths (batched bursts, a write per frame),
so a stream of small writes meets the floor queue as well.  Timing
assertions are on *medians*: a stalled CI machine delays a few samples, not
half of them.
"""

import asyncio
import random
import selectors
import socket
import statistics
import time

import pytest
from helpers import WRITE_PATHS, with_write_path

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


def pair(transport, latency):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    return a, b, transport.make_link(a, b, latency=latency)


# ------------------------------------------------------------------- floors


def test_link_floors_do_not_compound_under_a_stream(transport):
    """Regression: the receiver slept inline, so a message sent while the one
    before it waited out its floor was stamped late and waited again (20 ms
    link, one send every 10 ms: transits of 21 / 31 / 42 ms)."""
    a, b, _link = pair(transport, latency=0.02)
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
    assert min(transits) >= 0.02
    assert statistics.median(transits) < 0.025, [round(t * 1e3, 1) for t in transits]


def test_bursts_over_a_floor_arrive_in_order_after_one_drain(transport):
    a, b, _link = pair(transport, latency=0.002)
    for burst in range(10):
        transport.clock.schedule(
            0.0005 * burst,
            a.send_many,
            "b",
            [Message("seq", payload=burst * 10 + i) for i in range(10)],
        )
    transport.run_until_idle()
    assert b.payloads() == list(range(100))
    assert transport.resource_sizes()["inflight_frames"] == 0


def test_closing_the_connections_under_a_waiting_floor_releases_the_drain(transport):
    """Frames read before the close still wait out their floor and arrive; frames
    written onto the closing connection are reconciled, not waited for."""
    a, b, link = pair(transport, latency=0.05)
    a.send_many("b", [Message("x", payload=i) for i in range(5)])
    transport.run(until=transport.clock.now + 0.01)  # read, now waiting behind the floor
    assert b.received == []
    assert transport.resource_sizes()["inflight_frames"] == 5
    link._close_writers()
    a.send_many("b", [Message("x", payload=i) for i in range(5, 10)])
    assert transport.resource_sizes()["inflight_frames"] == 10
    transport.run_until_idle(timeout=2.0)
    assert b.payloads() == list(range(5))
    assert transport.resource_sizes()["inflight_frames"] == 0
    with pytest.raises(TransportError, match="not connected"):
        a.send("b", Message("x", payload="onto the dead connection"))


def test_raising_handler_behind_the_floor_surfaces_and_does_not_wedge(transport):
    class Poisoned(Recorder):
        def on_message(self, message):
            if message.payload == "poison":
                raise RuntimeError("handler bug")
            super().on_message(message)

    a, b = Recorder(transport.clock, "a"), Poisoned(transport.clock, "b")
    transport.make_link(a, b, latency=0.005)
    a.send_many("b", [Message("x", payload=p) for p in ("before", "poison", "after")])
    with pytest.raises(RuntimeError, match="handler bug"):
        transport.run_until_idle(timeout=2.0)
    transport.run_until_idle(timeout=2.0)  # the undelivered frame is not a ghost
    assert b.payloads() == ["before"]
    assert transport.resource_sizes()["inflight_frames"] == 0


def test_handshake_naming_the_wrong_target_surfaces_from_the_driver(transport):
    _a, _b, _link = pair(transport, latency=0.0)
    handshake = {
        "link": 1,
        "source": "a",
        "target": "someone else",
        **wire.handshake_fields(),
    }
    with socket.create_connection(transport._addresses["b"]) as raw:
        raw.sendall(wire.frame(wire.encode_control(handshake)))
        with pytest.raises(wire.WireError, match="arrived at 'b'"):
            transport.run(until=transport.clock.now + 0.2)
    transport.run_until_idle(timeout=2.0)


@pytest.mark.parametrize(
    "link_offset,source,refusal",
    [
        (0, "someone else", "not an open link between them"),
        (0, "a", "already connected"),
        (7, "a", "not an open link between them"),
    ],
)
def test_handshake_for_a_live_link_from_the_wrong_peer_is_refused(
    transport, link_offset, source, refusal
):
    """Regression: a handshake was bound to whatever link id it named once its
    target matched — here it would be handed the live link's way back to ``a``.
    Only the link's own two ends may open it, and only once; one that names
    no open link at all used to be served unbound, its frames lowering the
    in-flight count of links it had no part in."""
    a, b, link = pair(transport, latency=0.0)
    handshake = {
        "link": link.link_id + link_offset,
        "source": source,
        "target": "b",
        **wire.handshake_fields(),
    }
    with socket.create_connection(transport._addresses["b"], timeout=2.0) as raw:
        raw.sendall(wire.frame(wire.encode_control(handshake)))
        with pytest.raises(wire.WireError, match=refusal):
            transport.run(until=transport.clock.now + 0.2)
        assert raw.recv(1) == b""  # aborted, and sent no ack
    b.send("a", Message("x", payload="still the real way back"))
    transport.run_until_idle(timeout=2.0)
    assert a.payloads() == ["still the real way back"]


def test_cluster_broker_survives_a_dialler_it_refuses():
    """Regression: a handshake the broker child rejected failed the whole node
    (exit 1) — one misconfigured dialler took a broker down.  It now costs
    that connection only: closed without an answer, as on the asyncio backend."""
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
        address = net.transport.registry.registered["B1"]
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
    a, b, _link = pair(transport, latency=0.0)
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
    receivers are callbacks too now.  The registry's control channels (one
    stream task per broker) are all that is left."""
    net = line_topology(n_brokers=3, config=SystemConfig(transport="cluster"))
    try:
        transport = net.transport
        transport.boot()
        control_tasks = asyncio.all_tasks(transport._loop)
        assert len(control_tasks) == 3
        clients = [net.add_client(f"c{i}", f"B{i % 3 + 1}") for i in range(6)]
        for client in clients:
            client.subscribe(Filter([Equals("service", "temp")]))
        net.run_until_idle()
        clients[0].publish(Notification({"service": "temp"}))
        net.run_until_idle()
        assert [len(client.deliveries) for client in clients[1:]] == [1] * 5
        assert asyncio.all_tasks(transport._loop) == control_tasks
        assert len(transport._receivers) == 6
    finally:
        net.close()


# --------------------------------------------------------------- accounting


def test_refused_transmit_is_not_counted(transport):
    """Regression: a send onto a dead direction raised *after* the link stats
    and the process counters had counted it (3 messages for 2 frames sent)."""
    a, b, link = pair(transport, latency=0.0)
    a.send("b", Message("x", payload=1))
    a.send_many("b", [Message("x", payload=2)])
    transport.run_until_idle()
    link._close_writers()
    transport.run_until_idle()
    transport.run(until=transport.clock.now + 0.02)  # b's receiver sees the close
    counters = (link.stats_a_to_b.messages, a.messages_sent, a.bytes_sent)
    with pytest.raises(TransportError, match="not connected"):
        a.send("b", Message("x", payload=3))
    with pytest.raises(TransportError, match="not connected"):
        a.send_many("b", [Message("x", payload=4), Message("x", payload=5)])
    assert (link.stats_a_to_b.messages, a.messages_sent, a.bytes_sent) == counters
    assert counters[:2] == (2, 2)
    assert b.payloads() == [1, 2]
    assert transport.resource_sizes()["inflight_frames"] == 0
