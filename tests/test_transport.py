"""Cross-check tests for the pluggable transport layer.

Two layers of guarantees, in the spirit of the brute-force matching oracle's
and of the scan advertising oracle's (``tests/test_routing_advertising.py``):

1. **Golden trace** — a deterministic churn scenario on the default
   (simulator) substrate is captured as a canonical byte trace (every
   delivered message, wire-encoded with normalized message ids) and hashed.
   The digest below was recorded on the pre-refactor substrate, so
   ``SimTransport`` producing the same digest proves the refactor did not
   change a single delivered byte.  There is one way to build that network,
   ``line_topology(4, routing=...)``: the transport owns the simulator.
2. **Backend equivalence** — the asyncio backend (real localhost TCP
   sockets) delivers the same notification set as the simulator for the same
   scenario on a 3-broker topology.
"""

import hashlib

import pytest

from repro.config import SystemConfig
from repro.core.location import LocationSpace
from repro.core.middleware import MobilePubSub
from repro.core.mobile_client import MobileClient
from repro.net.faults import FaultInjector
from repro.net.process import Message, Process
from repro.net.simulator import Simulator
from repro.net.transport import SimTransport, make_transport
from repro.net.wire import encode_control, encode_message, frame
from repro.net.wireless import WirelessChannel
from repro.pubsub.broker_network import BrokerNetwork, line_topology
from repro.pubsub.client import Client
from repro.pubsub.filters import Equals, Filter, Prefix, Range
from repro.pubsub.notification import Notification

# sha256 of the canonical trace of scenario() on the pre-refactor substrate
# (commit 042deda); recorded before the transport refactor and asserted ever
# since.  If this changes, SimTransport is no longer byte-identical to the
# original discrete-event simulator semantics.
GOLDEN_DIGESTS = {
    "simple": "d5036e6a7c7c4044dc3a3fad8cb17b9a90dcd2e3c9c49d2bc1c9393b293b7a99",
    "covering": "23edd2c77af9da29650fd0f574f4d857a5f6bede8072b8d2d644c651a8388852",
}


# ----------------------------------------------------------- trace capturing


def _instrument(network) -> list:
    """Wrap every registered process's deliver() to record arriving messages."""
    trace = []
    sim_clock = network.sim
    for process in network.processes.values():
        original = process.deliver

        def hook(message, _original=original, _name=process.name):
            trace.append((_name, sim_clock.now, message))
            _original(message)

        process.deliver = hook
    return trace


def canonical_trace_bytes(trace) -> bytes:
    """Serialize a delivery trace to canonical bytes.

    Message ids come from a process-global counter, so absolute values depend
    on how many messages earlier tests created; they are remapped to dense
    ids by order of first appearance, which preserves identity and forwarding
    structure while making the byte trace reproducible in any test order.
    """
    msg_ids = {}
    chunks = []
    for receiver, now, message in trace:
        dense = msg_ids.setdefault(message.msg_id, len(msg_ids))
        normalized = Message(
            kind=message.kind,
            payload=message.payload,
            sender=message.sender,
            msg_id=dense,
            meta=dict(message.meta),
        )
        chunks.append(frame(encode_control({"to": receiver, "t": now})))
        chunks.append(frame(encode_message(normalized)))
    return b"".join(chunks)


def scenario(routing: str, net: BrokerNetwork) -> None:
    """A deterministic churn scenario: subscriptions, publishes, failures.

    Everything that would consult a global counter (notification ids,
    subscription ids) is pinned explicitly so the trace depends only on the
    substrate's delivery semantics.
    """
    sim = net.sim
    c1 = net.add_client("c1", "B1")
    c2 = net.add_client("c2", "B4")
    c3 = net.add_client("c3", "B2")
    publisher = net.add_client("pub", "B3")

    c1.subscribe(Filter([Equals("service", "temp")]), sub_id="g1")
    c2.subscribe(Filter([Equals("service", "temp"), Range("value", 10, 30)]), sub_id="g2")
    c3.subscribe(Filter([Prefix("room", "r")]), sub_id="g3")
    net.run(until=1.0)

    def publish(i, **attrs):
        publisher.publish(Notification(attrs, notification_id=9000 + i))

    for i in range(6):
        publish(i, service="temp", value=5 * i, room=f"r{i % 3}")
    net.run(until=2.0)

    # g5 is narrower than the already-propagated g1, so covering routing
    # suppresses (part of) its forwarding while simple routing does not
    c3.subscribe(Filter([Equals("service", "temp"), Range("value", 0, 50)]), sub_id="g5")
    net.run(until=2.5)

    # covering churn: a broad subscription arrives, then the narrow one leaves
    c2.subscribe(Filter([Equals("service", "temp")]), sub_id="g4")
    net.run(until=3.0)
    c2.unsubscribe("g2")
    net.run(until=3.5)
    # removing the coverer forces covering routing to re-advertise g5
    c1.unsubscribe("g1")
    net.run(until=4.0)
    for i in range(6, 10):
        publish(i, service="temp", value=7 * i, room="q1")
    net.run(until=5.0)

    # a link outage drops traffic mid-run, then the link heals
    link = net.link_between("B2", "B3")
    link.set_up(False)
    publish(10, service="temp", value=12, room="r0")
    net.run(until=6.0)
    link.set_up(True)
    publish(11, service="temp", value=13, room="r1")
    net.run(until=7.0)

    # a client detaches entirely; its routing entries are garbage collected
    c3.disconnect(notify_broker=True)
    net.run(until=8.0)
    publish(12, service="temp", value=14, room="r2")
    net.sim.run_until_idle()


def run_scenario(routing: str) -> bytes:
    net = line_topology(4, routing=routing)
    trace = _instrument(net)
    scenario(routing, net)
    return canonical_trace_bytes(trace)


def trace_digest(trace_bytes: bytes) -> str:
    return hashlib.sha256(trace_bytes).hexdigest()


# ------------------------------------------------------------------- goldens


@pytest.mark.parametrize("routing", sorted(GOLDEN_DIGESTS))
def test_sim_substrate_matches_pre_refactor_golden_trace(routing):
    digest = trace_digest(run_scenario(routing))
    assert digest == GOLDEN_DIGESTS[routing], (
        "the simulator substrate no longer reproduces the pre-refactor "
        "byte trace — SimTransport changed observable delivery behaviour"
    )


def test_transport_string_knob_builds_sim_backend():
    net = line_topology(n_brokers=4, config=SystemConfig(transport="sim"))
    assert net.transport.name == "sim"
    assert net.sim is net.transport.sim  # the clock IS the simulator


# ------------------------------------------------------- asyncio equivalence


def asyncio_scenario(net: BrokerNetwork):
    """A 3-broker scenario runnable on either backend.

    Returns the per-client sets of delivered notification identities.
    Ordering is not compared: the asyncio backend interleaves link traffic
    with a real scheduler, so only the delivered *set* is substrate-invariant.
    """
    c1 = net.add_client("c1", "B1")
    c3 = net.add_client("c3", "B3")
    c1.subscribe(Filter([Equals("service", "temp")]), sub_id="a1")
    c1.subscribe(Filter([Equals("service", "humidity"), Range("value", 40, 60)]), sub_id="a2")
    c3.subscribe(Filter([Range("value", 0, 24)]), sub_id="a3")
    net.run_until_idle()

    pub1 = net.add_client("pub1", "B2")
    pub3 = net.add_client("pub3", "B3")
    for i in range(12):
        pub1.publish(Notification({"service": "temp", "value": 2 * i}, notification_id=7000 + i))
        pub3.publish(
            Notification({"service": "humidity", "value": 35 + 2 * i}, notification_id=7100 + i)
        )
    net.run_until_idle()

    # churn: the narrow subscription leaves, a broad one arrives
    c3.unsubscribe("a3")
    c3.subscribe(Filter([Equals("service", "humidity")]), sub_id="a4")
    net.run_until_idle()
    for i in range(6):
        pub1.publish(Notification({"service": "humidity", "value": 50 + i}, notification_id=7200 + i))
    net.run_until_idle()

    def delivered(client):
        return {
            (d.notification.notification_id, tuple(sorted(d.notification.attributes.items())))
            for d in client.deliveries
        }

    return {"c1": delivered(c1), "c3": delivered(c3)}


def test_asyncio_backend_delivers_same_notification_set_as_simulator():
    sim_net = line_topology(n_brokers=3, routing="covering")
    expected = asyncio_scenario(sim_net)
    assert expected["c1"] and expected["c3"], "scenario must actually deliver"

    asyncio_net = line_topology(
        n_brokers=3, routing="covering", link_latency=0.0, config=SystemConfig(transport="asyncio")
    )
    try:
        actual = asyncio_scenario(asyncio_net)
    finally:
        asyncio_net.close()
    assert actual == expected


# ------------------------------------------------------- asyncio link semantics


class Recorder(Process):
    """A process that records everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def tcp_pair():
    from repro.net.transport import AsyncioTransport

    transport = AsyncioTransport()
    a = Recorder(transport.clock, "a")
    b = Recorder(transport.clock, "b")
    link = transport.make_link(a, b, latency=0.0)
    yield transport, a, b, link
    transport.close()


class TestAsyncioLink:
    def test_roundtrip_and_stats(self, tcp_pair):
        transport, a, b, link = tcp_pair
        a.send("b", Message("ping", payload={"n": 1}))
        b.send("a", Message("pong", payload={"n": 2}))
        transport.run_until_idle()
        assert [m.payload for m in b.received] == [{"n": 1}]
        assert [m.payload for m in a.received] == [{"n": 2}]
        assert b.received[0].sender == "a"
        assert link.total_messages() == 2
        assert link.messages_of_kind("ping") == 1
        assert link.stats_a_to_b.messages == 1
        # a socket counts the real bytes it wrote, not an estimate
        assert transport.metrics.snapshot()["counters"]["transport.bytes_sent"] > 0

    def test_fifo_order_over_tcp(self, tcp_pair):
        transport, a, b, _link = tcp_pair
        for i in range(50):
            a.send("b", Message("seq", payload=i))
        transport.run_until_idle()
        assert [m.payload for m in b.received] == list(range(50))

    def test_send_many_burst_arrives_in_order(self, tcp_pair):
        transport, a, b, link = tcp_pair
        a.send("b", Message("x", payload="first"))
        a.send_many("b", [Message("y", payload="second"), Message("y", payload="third")])
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["first", "second", "third"]
        assert a.messages_sent == 3
        assert link.stats_a_to_b.messages == 3

    def test_down_link_drops_at_sender(self, tcp_pair):
        transport, a, b, link = tcp_pair
        link.set_up(False)
        a.send("b", Message("x"))
        a.send_many("b", [Message("x"), Message("x")])
        transport.run_until_idle()
        assert b.received == []
        assert link.stats_a_to_b.dropped == 3

    def test_disconnect_and_reconnect(self, tcp_pair):
        transport, a, b, link = tcp_pair
        link.disconnect()
        assert not a.has_link("b")
        link.reconnect()
        a.send("b", Message("x", payload=1))
        transport.run_until_idle()
        assert [m.payload for m in b.received] == [1]

    def test_dead_process_ignores_messages(self, tcp_pair):
        transport, a, b, _link = tcp_pair
        b.shutdown()
        a.send("b", Message("x"))
        transport.run_until_idle()
        assert b.received == []
        assert b.messages_received == 0

    def test_clock_schedules_callbacks(self, tcp_pair):
        transport, a, b, _link = tcp_pair
        fired = []
        transport.clock.schedule(0.01, fired.append, "later")
        cancelled = transport.clock.schedule(0.01, fired.append, "never")
        cancelled.cancel()
        transport.run_until_idle()
        assert fired == ["later"]
        assert transport.clock.now > 0

    def test_duplicate_process_name_rejected(self, tcp_pair):
        from repro.net.transport import TransportError

        transport, a, b, _link = tcp_pair
        impostor = type(a)(transport.clock, "a")
        with pytest.raises(TransportError):
            transport.make_link(impostor, b, latency=0.0)

    def test_link_down_during_latency_window_delivers_by_default(self, tcp_pair):
        # what was sent before the link went down is in flight, and is delivered
        transport, a, b, link = tcp_pair
        a.send("b", Message("x"))
        link.set_up(False)
        transport.run_until_idle()
        assert len(b.received) == 1
        assert link.stats_a_to_b.dropped == 0

    def test_raising_scheduled_callback_fails_the_run(self, tcp_pair):
        # parity with the simulator backend, where a raising event fails run()
        transport, _a, _b, _link = tcp_pair

        def boom():
            raise RuntimeError("scheduled bug")

        transport.clock.schedule(0.005, boom)
        with pytest.raises(RuntimeError, match="scheduled bug"):
            transport.run_until_idle()

    def test_raising_handler_fails_run_and_does_not_wedge_the_transport(self):
        from repro.net.transport import AsyncioTransport

        class Poisoned(Recorder):
            def on_message(self, message):
                if message.payload == "poison":
                    raise RuntimeError("handler bug")
                super().on_message(message)

        transport = AsyncioTransport()
        try:
            a = Recorder(transport.clock, "a")
            b = Poisoned(transport.clock, "b")
            transport.make_link(a, b, latency=0.0)
            a.send("b", Message("x", payload="poison"))
            a.send("b", Message("x", payload="after"))  # never dispatched
            with pytest.raises(RuntimeError, match="handler bug"):
                transport.run_until_idle()
            # regression: the undispatched frame used to stay in the
            # in-flight count forever, wedging every later run_until_idle
            # into its full timeout
            transport.run_until_idle(timeout=2.0)
            # the dead direction is marked: further sends fail loudly
            # instead of silently re-inflating the in-flight counter
            from repro.net.transport import TransportError

            with pytest.raises(TransportError):
                a.send("b", Message("x", payload="onto the dead connection"))
            transport.run_until_idle(timeout=2.0)  # still not wedged
        finally:
            transport.close()


@pytest.mark.parametrize(
    "backend, reported",
    [("sim", 0.05), ("asyncio", 0.0), ("cluster", 0.0)],
    ids=["sim", "asyncio", "cluster"],
)
def test_latency_is_simulated_seconds(backend, reported):
    """A link latency is simulated seconds: the simulator applies it, a socket
    delivers at arrival and its link says so.  Regression: the cluster's link
    reported the 0.05 s it was given yet never applied it, while the asyncio
    link held every frame behind a 0.05 s floor."""
    net = BrokerNetwork(config=SystemConfig(transport=backend))
    try:
        net.add_broker("B1")
        publisher, subscriber = Client(net.sim, "pub"), Client(net.sim, "sub")
        for client in (subscriber, publisher):
            assert net.attach_client(client, "B1", latency=0.05).latency == reported
        subscriber.subscribe(Filter([Equals("topic", "seq")]))
        net.run_until_idle()
        for i in range(20):
            publisher.publish(Notification({"topic": "seq", "i": i}))
        net.run_until_idle()
        assert [d.notification["i"] for d in subscriber.deliveries] == list(range(20))
    finally:
        net.close()


def test_socket_backends_reject_a_simulator():
    # every backend owns its clock; a Simulator handed in beside it fails at the call
    for backend in ("asyncio", "cluster"):
        with pytest.raises(TypeError):
            BrokerNetwork(Simulator(), config=SystemConfig(transport=backend))


#: each owner of a clock, called with a Simulator beside the object that owns
#: one: (the old positional call, the same Simulator passed as ``sim=``)
_CLOCK_OWNERS = {
    "make_transport": (
        lambda net, sim: make_transport(SystemConfig(), sim),
        lambda net, sim: make_transport(SystemConfig(), sim=sim),
    ),
    "SimTransport": (
        lambda net, sim: SimTransport(sim),
        lambda net, sim: SimTransport(sim=sim),
    ),
    "MobilePubSub": (
        lambda net, sim: MobilePubSub(sim, net, LocationSpace({"l1": "B1"})),
        lambda net, sim: MobilePubSub(net, LocationSpace({"l1": "B1"}), sim=sim),
    ),
    "FaultInjector": (
        lambda net, sim: FaultInjector(sim, net),
        lambda net, sim: FaultInjector(net, sim=sim),
    ),
    "MobileClient": (
        lambda net, sim: MobileClient(sim, "m", transport=net.transport),
        lambda net, sim: MobileClient("m", sim=sim, transport=net.transport),
    ),
    "WirelessChannel": (
        lambda net, sim: WirelessChannel(sim, Process(net.sim, "d"), transport=net.transport),
        lambda net, sim: WirelessChannel(Process(net.sim, "d"), sim=sim, transport=net.transport),
    ),
}


@pytest.mark.parametrize("spelling", ["positional", "keyword"])
@pytest.mark.parametrize("owner", sorted(_CLOCK_OWNERS))
def test_an_object_that_owns_a_clock_refuses_a_simulator(owner, spelling):
    # the clock is the transport's (``network.sim``); a second one handed in
    # beside it fails at the call instead of binding to the next parameter
    build = _CLOCK_OWNERS[owner][spelling == "keyword"]
    net = line_topology(n_brokers=1)
    with pytest.raises(TypeError):
        build(net, Simulator())
