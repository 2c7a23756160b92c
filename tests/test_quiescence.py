"""Exactness of ``AsyncioTransport.run_until_idle``'s event-driven wait.

The drain neither polls nor waits out a confirmation window: it returns the
moment the in-flight and timer counters read zero (or an error is recorded).
These tests pin that by structure — what has happened when the call returns
— on both write paths (batched bursts and a write per frame), with and
without a link latency floor.  The cluster parent runs the same clock on the
same loop; where a case needs no in-process link it is also run there,
against the cluster's counter-poll drain.
"""

import time

import pytest
from helpers import WRITE_PATHS, with_write_path

from repro.config import SystemConfig
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport, TransportError
from repro.pubsub.broker_network import line_topology


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message.payload)


@pytest.fixture(params=[0.0, 0.002])
def latency(request):
    return request.param


@pytest.fixture(params=WRITE_PATHS)
def write_path(request):
    return request.param


@pytest.fixture
def transport(write_path):
    transport = with_write_path(AsyncioTransport(), write_path)
    yield transport
    transport.close()


@pytest.fixture(params=["asyncio", "cluster"])
def driven(request, write_path):
    """A transport whose drain is live: the cluster's only polls once booted."""
    if request.param == "asyncio":
        transport = AsyncioTransport()
    else:
        transport = line_topology(n_brokers=1, config=SystemConfig(transport="cluster")).transport
        transport.boot()
    with_write_path(transport, write_path)
    yield transport
    transport.close()


def test_idle_transport_returns_without_sleeping(transport, latency, monkeypatch):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    transport.make_link(a, b, latency=latency)
    a.send("b", Message("x", payload=1))
    transport.run_until_idle()

    async def no_sleep(*_args, **_kwargs):
        raise AssertionError("an idle drain must not sleep")

    monkeypatch.setattr("repro.net.transport.asyncio.sleep", no_sleep)
    start = time.perf_counter()
    for _ in range(50):
        transport.run_until_idle()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05, f"50 idle drains took {elapsed * 1e3:.1f} ms"


def test_lone_timer_firing_ends_the_drain(driven):
    fired = []
    driven.clock.schedule(0.005, fired.append, "only event")
    driven.run_until_idle(timeout=2.0)  # would time out if fire() did not wake it
    assert fired == ["only event"]


def test_timer_that_raises_surfaces_from_the_drain_once(driven):
    def boom():
        raise RuntimeError("timer bug")

    driven.clock.schedule(0.001, boom)
    with pytest.raises(RuntimeError, match="timer bug"):
        driven.run_until_idle(timeout=2.0)
    driven.run_until_idle(timeout=2.0)
    assert driven.resource_sizes()["pending_timers"] == 0


def test_relay_chain_is_fully_received_after_one_drain(transport, latency):
    """Idle is never declared between a timer firing and the frame it sends."""
    hops = 20
    names = ["a", "b", "c"]

    class Relay(Recorder):
        def on_message(self, message):
            super().on_message(message)
            hop = message.payload
            if hop < hops:
                successor = names[(names.index(self.name) + 1) % 3]
                self.sim.schedule(0.003, self.send, successor, Message("hop", payload=hop + 1))

    a, b, c = (Relay(transport.clock, name) for name in names)
    for left, right in ((a, b), (b, c), (c, a)):
        transport.make_link(left, right, latency=latency)
    a.send("b", Message("hop", payload=1))
    transport.run_until_idle()
    received = sorted(a.received + b.received + c.received)
    assert received == list(range(1, hops + 1))
    assert transport.resource_sizes()["pending_timers"] == 0


def test_cancelling_the_last_timer_from_a_handler_ends_the_drain(transport, latency):
    far = transport.clock.schedule(10.0, lambda: None)

    class Canceller(Recorder):
        def on_message(self, message):
            super().on_message(message)
            far.cancel()

    a, b = Recorder(transport.clock, "a"), Canceller(transport.clock, "b")
    transport.make_link(a, b, latency=latency)
    a.send("b", Message("x", payload="cancel"))
    transport.run_until_idle(timeout=2.0)  # would time out if the cancelled timer kept it parked
    assert b.received == ["cancel"]
    assert far.cancelled


def test_raising_handler_surfaces_with_work_still_in_flight(transport, latency):
    class Poisoned(Recorder):
        def on_message(self, message):
            raise RuntimeError("handler bug")

    a, b = Recorder(transport.clock, "a"), Poisoned(transport.clock, "b")
    transport.make_link(a, b, latency=latency)
    far = transport.clock.schedule(10.0, lambda: None)
    a.send("b", Message("x"))
    try:
        with pytest.raises(RuntimeError, match="handler bug"):
            transport.run_until_idle(timeout=2.0)
        assert transport.resource_sizes()["pending_timers"] == 1
    finally:
        far.cancel()


def test_dynamic_link_opened_from_a_callback_is_ready_and_used_before_idle(transport, latency):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    opened = []

    def ready(link):
        opened.append(link)
        a.send("b", Message("x", payload="first over the new link"))

    transport.clock.schedule(
        0.005, lambda: transport.open_dynamic_link(a, b, latency=latency, ready=ready)
    )
    transport.run_until_idle()
    assert len(opened) == 1
    assert b.received == ["first over the new link"]


def test_connection_killed_mid_burst_reconciles_and_releases_the_drain(transport, latency):
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    link = transport.make_link(a, b, latency=latency)
    a.send_many("b", [Message("x", payload=i) for i in range(5)])
    transport.run_until_idle()
    link._close_writers()
    # counted as in flight, but written to a connection that is already closing
    a.send_many("b", [Message("x", payload=i) for i in range(5, 10)])
    assert transport.resource_sizes()["inflight_frames"] == 5
    transport.run_until_idle(timeout=2.0)
    assert b.received == list(range(5))
    assert transport.resource_sizes()["inflight_frames"] == 0


def test_timer_beyond_the_timeout_raises_with_the_counts(transport):
    far = transport.clock.schedule(10.0, lambda: None)
    try:
        with pytest.raises(TransportError, match=r"0 frames in flight, 1 timers pending"):
            transport.run_until_idle(timeout=0.05)
    finally:
        far.cancel()
    transport.run_until_idle(timeout=2.0)


def test_failed_dynamic_link_is_forgotten_and_fails_the_drain_promptly(transport):
    """Regression: a link whose connect was refused stayed in the registries."""
    a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
    first = transport.make_link(a, b, latency=0.0)
    first.disconnect()
    transport.close_dynamic_link(first)
    transport.run_until_idle()
    transport._servers["b"].close()  # b stops listening; its address stays known
    before = transport.resource_sizes()
    opened = []
    transport.clock.schedule(
        0.0, lambda: transport.open_dynamic_link(a, b, latency=0.0, ready=opened.append)
    )
    start = time.perf_counter()
    with pytest.raises(ConnectionRefusedError):
        transport.run_until_idle()
    assert time.perf_counter() - start < 2.0
    assert opened == []
    assert transport.resource_sizes() == before
    assert transport.links == []
