"""Doubles, oracles and shared workloads for exercising the pub/sub stack.

* :class:`RecordingBroker` / :func:`normalize_merged_ids` — drive a routing
  strategy outside a full broker network and compare the control messages it
  emits; shared by the equivalence tests
  (``tests/test_routing_advertising.py``) and the subscription-control
  benchmark (``benchmarks/bench_covering_scale.py``).
* :class:`ScanAdvertising` / :func:`scan_strategy` /
  :func:`use_scan_advertising` — the scan specification of subscription
  control, the oracle the routing strategies' maintained forwarded-filter
  index must agree with, decision for decision.
* :class:`BruteRoutingTable` / :func:`use_brute_matching` — the routing
  table that evaluates every entry and keeps no index, the oracle the
  product's indexed table must agree with, destination for destination.
* :class:`BruteForceMatcher` / :func:`cross_check` — the same oracle for
  the standalone matcher (:class:`~repro.pubsub.matching.AttributeIndexMatcher`).
* :func:`interval_candidates` — what an interval index's stab hands out for
  a value, the view its tests hold against a linear scan
  (``tests/test_interval_index.py``).
* :func:`run_line_workload` — the canonical transport-backend workload (a
  line of brokers, one progressively-narrower subscriber per broker, one
  publisher, delivery verification); shared by the ``repro demo line`` CLI
  and ``benchmarks/bench_transport.py`` so the demo and the benchmark's
  integration gate can never diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .broker import Broker
from .filters import Filter
from .matching import IntervalBucketIndex
from .notification import Notification, attribute_dict
from .routing import (
    CoveringRouting,
    FloodingRouting,
    IdentityRouting,
    MergingRouting,
    RoutingStrategy,
    SimpleRouting,
)
from .routing_table import RoutingTable
from .subscription import Subscription


class ScanAdvertising:
    """Mixin: a routing strategy's subscription control, by the specification.

    Every decision rebuilds the list of filters forwarded over the link from
    the routing table and re-evaluates equality / ``covers`` against each
    of them, and every unsubscription re-examines every subscription in the
    table on every link it was forwarded on.  No forwarded-filter index is
    kept.  Mixed in ahead of a strategy it must make that strategy's
    decisions, and emit its control messages, exactly.
    """

    uses_advert_index = False

    def _reforward_due(self, links: List[str]) -> Dict[str, List[str]]:
        return dict.fromkeys(self.broker.routing_table.subscription_ids(), links)

    def _forwarded_filters(self, link: str) -> List[Filter]:
        filters = []
        for sub_id, links in self._forwarded.items():
            if link in links:
                entries = self.broker.routing_table.entries_for_sub(sub_id)
                filters.extend(entry.filter for entry in entries)
        return filters


class _ScanFlooding(ScanAdvertising, FloodingRouting):
    pass


class _ScanSimple(ScanAdvertising, SimpleRouting):
    pass


class _ScanIdentity(ScanAdvertising, IdentityRouting):
    def needs_forwarding(self, filter: Filter, link: str) -> bool:
        return all(existing != filter for existing in self._forwarded_filters(link))


class _ScanCovering(ScanAdvertising, CoveringRouting):
    def needs_forwarding(self, filter: Filter, link: str) -> bool:
        return not any(existing.covers(filter) for existing in self._forwarded_filters(link))


class _ScanMerging(_ScanCovering, MergingRouting):
    def _merged_filter(self, link: str) -> Optional[Filter]:
        forwarded = self._forwarded_filters(link)
        if len(forwarded) <= self.merge_threshold:
            return None
        merged_filter = forwarded[0]
        for other in forwarded[1:]:
            merged_filter = merged_filter.merge(other)
        return merged_filter

    def _retract_covered_adverts(self, merged_filter: Filter, link: str) -> None:
        for sub_id, links in list(self._forwarded.items()):
            if link in links:
                entries = self.broker.routing_table.entries_for_sub(sub_id)
                filters = [entry.filter for entry in entries]
                if filters and all(merged_filter.covers(f) for f in filters):
                    self.broker.forward_unsubscribe(sub_id, filters[0], link)
                    links.discard(link)
                    self._adverts_changed.add(link)


_SCAN_STRATEGIES = {
    cls.name: cls
    for cls in (_ScanFlooding, _ScanSimple, _ScanIdentity, _ScanCovering, _ScanMerging)
}


def scan_strategy(name: str, broker) -> RoutingStrategy:
    """The scan oracle of the routing strategy called ``name``, for ``broker``."""
    try:
        cls = _SCAN_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing strategy {name!r}; available: {sorted(_SCAN_STRATEGIES)}"
        ) from None
    return cls(broker)


def use_scan_advertising(net):
    """Give every broker of the freshly built network ``net`` its strategy's
    scan oracle; returns ``net``.

    Only in-process brokers can be swapped (a cluster broker's strategy lives
    in its child process), and only before they hold routing state.
    """
    for broker in net.brokers.values():
        if not isinstance(broker, Broker):
            raise TypeError(f"{broker.name}: scan advertising needs an in-process broker")
        if len(broker.routing_table):
            raise ValueError(f"{broker.name}: the oracle must be installed before subscriptions")
        broker.strategy = scan_strategy(broker.routing_strategy_name, broker)
    return net


class _NoIndex:
    """An attribute index that holds nothing: the brute table keeps none."""

    def add(self, entry_id, filter, payload) -> None:
        pass

    def discard(self, entry_id, filter) -> None:
        pass


_NO_INDEX = _NoIndex()


class BruteRoutingTable(RoutingTable):
    """A routing table by the specification: every ``destinations()`` scans
    every entry of every link, first match deciding each link, and no
    attribute index is kept, so entry churn costs only the per-link and
    per-subscription dicts.  It must answer exactly as
    :class:`~repro.pubsub.routing_table.RoutingTable` does."""

    def __init__(self, metrics=None) -> None:
        super().__init__(metrics=metrics)
        self._index = _NO_INDEX

    def clear(self) -> None:
        super().clear()
        self._index = _NO_INDEX

    def destinations(self, notification: Mapping, exclude: Iterable[str] = ()) -> List[str]:
        result = self._scan(attribute_dict(notification), set(exclude))
        result.sort()
        return result


def use_brute_matching(net):
    """Give every broker of the freshly built network ``net`` a
    :class:`BruteRoutingTable`; returns ``net``.

    Only in-process brokers can be swapped (a cluster broker's table lives
    in its child process), and only before they hold routing state.
    """
    for broker in net.brokers.values():
        if not isinstance(broker, Broker):
            raise TypeError(f"{broker.name}: brute matching needs an in-process broker")
        if len(broker.routing_table):
            raise ValueError(f"{broker.name}: the oracle must be installed before subscriptions")
        broker.routing_table = BruteRoutingTable(metrics=broker.metrics)
    return net


class BruteForceMatcher:
    """Evaluate every registered subscription on every notification: the
    oracle of :class:`~repro.pubsub.matching.AttributeIndexMatcher`."""

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}

    def add(self, subscription: Subscription) -> None:
        self._subscriptions[subscription.sub_id] = subscription

    def remove(self, sub_id: str) -> Optional[Subscription]:
        return self._subscriptions.pop(sub_id, None)

    def clear(self) -> None:
        self._subscriptions.clear()

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subscriptions

    def match(self, notification: Mapping) -> List[Subscription]:
        """Return all subscriptions whose filter matches ``notification``."""
        return [sub for sub in self._subscriptions.values() if sub.filter.matches(notification)]

    def matching_ids(self, notification: Mapping) -> Set[str]:
        return {sub.sub_id for sub in self.match(notification)}


def cross_check(matchers: Iterable, notifications: Iterable[Notification]) -> bool:
    """Return True iff all matchers agree on every notification."""
    matchers = list(matchers)
    for notification in notifications:
        reference = matchers[0].matching_ids(notification)
        for other in matchers[1:]:
            if other.matching_ids(notification) != reference:
                return False
    return True


def interval_candidates(index: IntervalBucketIndex, value: object) -> List[object]:
    """Payloads of the members ``index.stab`` hands out for ``value``: every
    range that contains it, and the rest of its bucket."""
    return [member[2] for group in index.stab(value) for member in group]


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
    multi-process ``cluster``) deliver at arrival; the simulator applies
    its default link latency.

    ``config`` carries the remaining knobs as one
    :class:`~repro.config.SystemConfig` (the defaults when omitted; its
    ``transport`` field is overridden by ``backend``).
    """
    from ..config import SystemConfig
    from .broker_network import line_topology
    from .filters import AtLeast, Equals, Filter
    from .notification import Notification

    config = (config or SystemConfig()).replace(transport=backend)
    net = line_topology(n_brokers=brokers, config=config)
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
