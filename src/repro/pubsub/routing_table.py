"""Routing tables.

"Each broker maintains a routing table that determines in which directions a
notification is forwarded.  Each table entry is a pair (F, L) containing a
filter and the link from which it was received, denoting that a matching
notification is to be forwarded along L." (Sect. 2)

The table additionally records which subscription id produced each entry, so
that unsubscriptions, relocations and shadow garbage collection can remove
exactly the right entries.

The table matches through one :class:`~repro.pubsub.matching.AttributeIndex`
over all of its entries, keyed by the :class:`RouteEntry` itself, in the
style of the counting/pre-filtering algorithms the paper references via
[16].  Each entry with an equality constraint is bucketed under its
``(attribute, value)`` pair, and inside that bucket by its ``Range`` (if it
has one) in an :class:`~repro.pubsub.matching.IntervalBucketIndex`
(bucketed boundary cuts; a bucket a query finds oversized is split in one
pass, at evenly spaced member bounds, into pieces of about half the size
limit); entries without an equality key are placed by their ``Range``
alone.  At match time the index is probed once and hands back one list of
groups: only the entries the notification's own values select (plus the
unindexable ones) are candidates.  Each candidate comes with its range's
bounds: one whose bounds miss the value, or whose link is already decided
or excluded, is skipped without being evaluated; one whose place decides
its filter (:func:`~repro.pubsub.matching.placement`'s ``exact``) decides
its link unevaluated; and one whose filter has a ``tail``
(:class:`~repro.pubsub.filters.Filter`) is tested on that alone, because
its equality bucket decided the rest.  A table of at most
:data:`SMALL_TABLE_SCAN` entries is scanned link by link instead, first
match deciding each link.  Results are identical to evaluating every entry
— the index is purely a candidate pre-selection; the test oracle that
evaluates every entry lives in :mod:`repro.pubsub.testing`.

The index is maintained incrementally by :meth:`RoutingTable.add`,
:meth:`RoutingTable.remove`, :meth:`RoutingTable.remove_link` and
:meth:`RoutingTable.clear`, so subscription churn never forces a rebuild.
Every ``destinations()`` call is answered from the table as it stands —
nothing is memoized per notification — so a mutation is seen by the next
query, and a stream of distinct notifications leaves nothing behind.
Range-index split repairs are reported through the optional metrics
registry as ``index.repair``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from .filters import _MISSING, Filter
from .matching import AttributeIndex
from .notification import attribute_dict
from .subscription import Subscription

@dataclass(frozen=True, eq=False, slots=True)
class RouteEntry:
    """One (filter, link) pair, annotated with the subscription that created it.

    Entries compare and hash by identity: the table's index is keyed by the
    entry object, and the table never holds two entries for one
    ``(sub_id, link)``.
    """

    filter: Filter
    link: str
    sub_id: str


#: Tables with at most this many entries are scanned link by link instead
#: of probed, first match deciding each link: one index probe costs more
#: than evaluating that few compiled filters (every table of a line of
#: brokers with one subscription per client is this small).  Correctness is
#: unaffected — both paths are exact.
SMALL_TABLE_SCAN = 8


class RoutingTable:
    """The per-broker routing state.

    Entries are grouped by link for efficient forwarding decisions ("which
    links need this notification?") and indexed by subscription id for
    efficient removal, and one attribute index over all of its entries
    means forwarding decisions only evaluate candidate entries.
    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    receiving the ``index.repair`` counter.  ``matcher`` accepts only
    ``"indexed"``: the benchmark ledger (``benchmarks/budget``) is its one
    caller, and the parameter goes once the ledger stops naming it.
    """

    def __init__(self, matcher: str = "indexed", metrics=None) -> None:
        if matcher != "indexed":
            raise ValueError(f"unknown matcher {matcher!r}; the one matcher is 'indexed'")
        self._by_link: Dict[str, Dict[str, RouteEntry]] = defaultdict(dict)
        self._by_sub: Dict[str, List[RouteEntry]] = defaultdict(list)
        self._size = 0
        self._repair_counter = metrics.counter("index.repair") if metrics else None
        self._index = AttributeIndex(self._repair_counter)

    # ------------------------------------------------------------------ admin
    def add(self, filter: Filter, link: str, sub_id: str) -> RouteEntry:
        """Insert an entry; replaces an existing entry for the same (sub_id, link)."""
        entry = RouteEntry(filter=filter, link=link, sub_id=sub_id)
        previous = self._by_link[link].get(sub_id)
        if previous is None:
            self._size += 1
        else:
            self._by_sub[sub_id] = [e for e in self._by_sub[sub_id] if e.link != link]
            self._index.discard(previous, previous.filter)
        self._by_link[link][sub_id] = entry
        self._by_sub[sub_id].append(entry)
        self._index.add(entry, filter, entry)
        return entry

    def add_subscription(self, subscription: Subscription, link: str) -> RouteEntry:
        return self.add(subscription.filter, link, subscription.sub_id)

    def remove(self, sub_id: str, link: Optional[str] = None) -> List[RouteEntry]:
        """Remove entries for ``sub_id`` (on all links, or only on ``link``)."""
        removed: List[RouteEntry] = []
        entries = self._by_sub.get(sub_id, [])
        keep: List[RouteEntry] = []
        for entry in entries:
            if link is None or entry.link == link:
                self._by_link[entry.link].pop(sub_id, None)
                if not self._by_link[entry.link]:
                    del self._by_link[entry.link]
                self._index.discard(entry, entry.filter)
                removed.append(entry)
            else:
                keep.append(entry)
        self._size -= len(removed)
        if keep:
            self._by_sub[sub_id] = keep
        else:
            self._by_sub.pop(sub_id, None)
        return removed

    def remove_link(self, link: str) -> List[RouteEntry]:
        """Remove every entry pointing at ``link`` (e.g. a disconnected client)."""
        entries = list(self._by_link.pop(link, {}).values())
        self._size -= len(entries)
        for entry in entries:
            self._index.discard(entry, entry.filter)
            remaining = [e for e in self._by_sub.get(entry.sub_id, []) if e.link != link]
            if remaining:
                self._by_sub[entry.sub_id] = remaining
            else:
                self._by_sub.pop(entry.sub_id, None)
        return entries

    def clear(self) -> None:
        self._by_link.clear()
        self._by_sub.clear()
        self._size = 0
        self._index = AttributeIndex(self._repair_counter)

    # ---------------------------------------------------------------- queries
    def _scan(self, attributes: Mapping, excluded: Set[str]) -> List[str]:
        """The links :meth:`destinations` answers without the index, unsorted:
        link by link, the first matching entry deciding."""
        result = []
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            for entry in entries.values():
                if entry.filter.matches(attributes):
                    result.append(link)
                    break
        return result

    def _probe(self, attributes: Mapping, decided: Set[str]) -> List[str]:
        """The links :meth:`destinations` answers, unsorted, from one probe of
        the index: a candidate whose bounds miss its group's value, or on a
        link already decided or excluded, is skipped unevaluated; an
        ``exact`` one (:func:`~repro.pubsub.matching.placement`) decides its
        link unevaluated; an inexact one with a ``tail`` is tested on that
        alone (its equality bucket decided the rest), any other in full; and
        the probe stops once every link is decided.  ``decided`` is the
        caller's own set of excluded links; the probe adds each link it
        decides."""
        by_link = self._by_link
        undecided = len(by_link)
        for link in decided:
            if link in by_link:
                undecided -= 1
        result: List[str] = []
        if not undecided:
            return result
        get = attributes.get
        for value, group in self._index.groups(attributes):
            for low, high, entry in group:
                if not low <= value <= high:
                    continue
                link = entry.link
                if link in decided:
                    continue
                filter = entry.filter
                # placement(filter)[2], cached when the entry was indexed
                if not filter._placement[2]:
                    tail = filter.tail
                    if tail is None:
                        if not filter.matches(attributes):
                            continue
                    else:
                        got = get(tail[0], _MISSING)
                        if got is _MISSING or not tail[1](got):
                            continue
                decided.add(link)
                result.append(link)
                if len(result) == undecided:
                    return result
        return result

    def destinations(self, notification: Mapping, exclude: Iterable[str] = ()) -> List[str]:
        """Links (deduplicated, sorted) on which ``notification`` must be forwarded."""
        excluded = set(exclude)
        # unwrapped once: every filter below evaluates on the plain dict
        attributes = attribute_dict(notification)
        if self._size > SMALL_TABLE_SCAN:
            result = self._probe(attributes, excluded)
        else:
            result = self._scan(attributes, excluded)
        result.sort()
        return result

    def entries_for_sub(self, sub_id: str) -> List[RouteEntry]:
        return list(self._by_sub.get(sub_id, []))

    def sub_entries(self, sub_id: str) -> Sequence[RouteEntry]:
        """:meth:`entries_for_sub` without the copy, for the routing strategy's
        hot path: read-only, and void after the next table mutation."""
        return self._by_sub.get(sub_id, ())

    def links(self) -> List[str]:
        return sorted(self._by_link.keys())

    def subscription_ids(self) -> Set[str]:
        return set(self._by_sub.keys())

    def has_subscription(self, sub_id: str, link: Optional[str] = None) -> bool:
        entries = self._by_sub.get(sub_id, [])
        if link is None:
            return bool(entries)
        return any(entry.link == link for entry in entries)

    def __len__(self) -> int:
        """Total number of entries (the routing-table size metric of E12)."""
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for link in sorted(self._by_link):
            parts.append(f"{link}:{len(self._by_link[link])}")
        return f"RoutingTable({', '.join(parts)})"
