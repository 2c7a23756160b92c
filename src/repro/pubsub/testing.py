"""Doubles and shared workloads for exercising the pub/sub stack.

* :class:`RecordingBroker` / :func:`normalize_merged_ids` — drive a routing
  strategy outside a full broker network and compare the control messages it
  emits; shared by the equivalence tests
  (``tests/test_routing_advertising.py``) and the subscription-control
  benchmark (``benchmarks/bench_covering_scale.py``).
* :func:`run_line_workload` — the canonical transport-backend workload (a
  line of brokers, one progressively-narrower subscriber per broker, one
  publisher, delivery verification); shared by the ``repro demo line`` CLI
  and ``benchmarks/bench_transport.py`` so the demo and the benchmark's
  integration gate can never diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from .routing_table import RoutingTable


class RecordingBroker:
    """The narrow broker interface a routing strategy sees, with a message log.

    Every ``forward_subscribe``/``forward_unsubscribe`` call is appended to
    :attr:`log` as ``(kind, link, sub_id, filter_key)`` so two strategy runs
    can be compared message by message.
    """

    def __init__(self, neighbors):
        self.routing_table = RoutingTable()
        self._neighbors = list(neighbors)
        self.log: List[Tuple[str, str, str, Tuple]] = []

    def broker_neighbors(self):
        return list(self._neighbors)

    def client_links(self):
        return []

    def forward_subscribe(self, subscription, link):
        self.log.append(
            ("subscribe", link, subscription.sub_id, subscription.filter.key())
        )

    def forward_unsubscribe(self, sub_id, filter, link):
        self.log.append(("unsubscribe", link, sub_id, filter.key()))


@dataclass
class SubscriberOutcome:
    """Per-subscriber result of :func:`run_line_workload`."""

    name: str
    threshold: int
    expected: int
    received: int
    latencies: List[float]

    @property
    def ok(self) -> bool:
        return self.received == self.expected


@dataclass
class LineWorkloadResult:
    """Outcome of :func:`run_line_workload` on one backend."""

    backend: str
    brokers: int
    notifications: int
    wall_sec: float
    subscribers: List[SubscriberOutcome]
    codec: str = "json"

    @property
    def delivered(self) -> int:
        return sum(s.received for s in self.subscribers)

    @property
    def expected(self) -> int:
        return sum(s.expected for s in self.subscribers)

    @property
    def mismatches(self) -> int:
        return sum(1 for s in self.subscribers if not s.ok)

    def all_latencies(self) -> List[float]:
        return sorted(l for s in self.subscribers for l in s.latencies)


def run_line_workload(
    backend: str,
    brokers: int,
    notifications: int,
    topic: str = "demo",
    payload_pad: str = "",
    observer=None,
    config=None,
) -> LineWorkloadResult:
    """Run the canonical transport workload on ``backend`` and verify it.

    Builds a line of ``brokers`` brokers on the chosen transport, attaches
    one subscriber per broker with a progressively narrower
    ``topic == X AND value >= threshold`` filter, publishes ``notifications``
    values from the first broker, drains to quiescence and reports the
    per-subscriber delivered counts (with real delivery latencies) against
    what each filter promises.  The socket backends (``asyncio`` and the
    multi-process ``cluster``) run at raw socket speed (latency 0); the
    simulator keeps its default link latency.

    ``config`` carries the remaining knobs as one
    :class:`~repro.config.SystemConfig` (the defaults when omitted; its
    ``transport`` field is overridden by ``backend``).
    """
    from ..config import SystemConfig
    from .broker_network import line_topology
    from .filters import AtLeast, Equals, Filter
    from .notification import Notification

    config = (config or SystemConfig()).replace(transport=backend)
    net = line_topology(
        n_brokers=brokers, link_latency=0.001 if backend == "sim" else 0.0, config=config
    )
    try:
        subscribers = []
        for i, broker_name in enumerate(net.broker_names()):
            threshold = i * max(1, notifications // brokers)
            client = net.add_client(f"sub@{broker_name}", broker_name)
            client.subscribe(
                Filter([Equals("topic", topic), AtLeast("value", threshold)]),
                sub_id=f"{topic}-{broker_name}",
            )
            subscribers.append((client, threshold))
        net.run_until_idle()

        publisher = net.add_client("publisher", net.broker_names()[0])
        payloads = [
            Notification(
                {"topic": topic, "value": value, **({"pad": payload_pad} if payload_pad else {})}
            )
            for value in range(notifications)
        ]
        start = time.perf_counter()
        for payload in payloads:
            publisher.publish(payload)
        net.run_until_idle()
        wall = time.perf_counter() - start

        outcomes = [
            SubscriberOutcome(
                name=client.name,
                threshold=threshold,
                expected=max(0, notifications - threshold),
                received=len(client.deliveries),
                latencies=client.delivery_latencies(),
            )
            for client, threshold in subscribers
        ]
        return LineWorkloadResult(
            backend=backend,
            brokers=brokers,
            notifications=notifications,
            wall_sec=wall,
            subscribers=outcomes,
            codec=config.codec,
        )
    finally:
        # ``observer`` (e.g. ``repro demo line`` on the cluster) gets the network just
        # before teardown, so it can keep a transport reference and inspect
        # child exit codes after close(); a raising observer must not skip
        # the close (it would leak broker child processes)
        try:
            if observer is not None:
                observer(net)
        finally:
            net.close()


def normalize_merged_ids(log):
    """Map generated merged-subscription ids to first-appearance ordinals.

    Merged advertisements draw ids from a process-global counter, so two
    otherwise identical runs disagree on the literal ids; the sequence of
    merges is what must match.
    """
    mapping = {}
    result = []
    for kind, link, sub_id, filter_key in log:
        if sub_id.startswith("merged-"):
            sub_id = mapping.setdefault(sub_id, f"merged#{len(mapping)}")
        result.append((kind, link, sub_id, filter_key))
    return result
