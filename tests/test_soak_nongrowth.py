"""Resource non-growth under churn: sockets, writers, timers, listeners.

The leak class the soak harness gates: repeated attach/detach and
kill/restart cycles must leave every transport-held resource at its
baseline.  Three surfaces:

* **asyncio dynamic links** — open/close cycles of wireless links must not
  accumulate link registrations, TCP writers or pending timers (a closed
  link that left its writers behind shows up in ``open_writers`` even after
  being dropped from the registry);
* **cluster kill/restart** — each supervised recovery cycle closes the dead
  broker's client sockets and control connection and opens fresh ones on
  the listener the parent holds; open writers, receivers, held listeners,
  control connections, live children and pending timers must all return
  to the pre-fault baseline;
* **soak loop** — a short in-process soak run holds its process-level
  plateau (open fds exactly flat) while chaining seeded chaos plans and
  seed-drawn mobility workload members.
"""

from repro.config import SystemConfig
from repro.net.faults import FaultInjector
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport
from repro.pubsub.broker_network import line_topology
from repro.pubsub.chaosgen import run_soak
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.invariants import check_non_growth, resource_snapshot


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def _dynamic_link_cycle(transport, a, b):
    link = transport.make_link(a, b, latency=0.0)
    transport.run_until_idle()
    a.send("b", Message("ping", payload=1))
    transport.run_until_idle()
    transport.close_dynamic_link(link)
    transport.run_until_idle()


def test_asyncio_dynamic_link_cycles_do_not_leak_sockets():
    transport = AsyncioTransport()
    try:
        a = Recorder(transport.clock, "a")
        b = Recorder(transport.clock, "b")
        # warmup: the listener and the event loop's plumbing are created lazily
        _dynamic_link_cycle(transport, a, b)
        baseline = transport.resource_sizes()
        for _ in range(5):
            _dynamic_link_cycle(transport, a, b)
        final = transport.resource_sizes()
        violations = check_non_growth(baseline, final)
        assert not violations, [str(v) for v in violations]
        assert final["open_writers"] == baseline["open_writers"]
        assert final["links"] == baseline["links"]
        assert final["pending_timers"] == baseline["pending_timers"]
        assert len(b.received) == 6
    finally:
        transport.close()


def test_cluster_kill_restart_cycles_return_to_baseline():
    net = line_topology(
        n_brokers=3, routing="covering", config=SystemConfig(transport="cluster")
    )
    try:
        net.add_client("pub", "B1")
        sub = net.add_client("sub", "B3")
        sub.subscribe(Filter([Equals("service", "temp")]), sub_id="leak-probe")
        net.run_until_idle()
        injector = FaultInjector(net)
        baseline = resource_snapshot(net)
        for _ in range(2):
            injector.crash_now("B2")
            injector.restart_now("B2")
            net.run_until_idle()
        # covering advertisement order may move one routing entry per broker
        # (forwarded vs suppressed covered subscription); transport-held
        # resources — the leak surface — are gated exactly below
        slack = {key: 1 for key in baseline if key.startswith("routing:")}
        violations = check_non_growth(baseline, resource_snapshot(net), slack=slack)
        assert not violations, [str(v) for v in violations]
        sizes = net.transport.resource_sizes()
        assert sizes["open_writers"] == baseline["transport:open_writers"]
        assert sizes["receivers"] == baseline["transport:receivers"]
        assert sizes["listeners"] == baseline["transport:listeners"] == 3
        assert sizes["control_connections"] == baseline["transport:control_connections"] == 3
        assert sizes["live_children"] == baseline["transport:live_children"]
        assert sizes["pending_timers"] == baseline["transport:pending_timers"]
        assert sizes["unsent_bytes"] == baseline["transport:unsent_bytes"] == 0
    finally:
        net.close()


def test_short_sim_soak_holds_its_plateau():
    result = run_soak(backend="sim", budget_sec=0.0, min_iterations=3)
    assert result.ok, [str(v) for v in result.violations]
    assert result.iterations == 3
    assert result.seeds == [0, 1, 2]
    if "fds" in result.plateau_baseline:  # Linux-only observability
        assert result.plateau_final["fds"] == result.plateau_baseline["fds"]


def test_short_asyncio_soak_holds_its_plateau():
    result = run_soak(backend="asyncio", budget_sec=0.0, min_iterations=2)
    assert result.ok, [str(v) for v in result.violations]
    assert result.iterations == 2
