"""Routing tables.

"Each broker maintains a routing table that determines in which directions a
notification is forwarded.  Each table entry is a pair (F, L) containing a
filter and the link from which it was received, denoting that a matching
notification is to be forwarded along L." (Sect. 2)

The table additionally records which subscription id produced each entry, so
that unsubscriptions, relocations and shadow garbage collection can remove
exactly the right entries.

Two matching strategies are available (the ``matcher`` knob):

* ``"brute"`` — every entry of every link is evaluated against the
  notification; the always-correct baseline the paper's testbed uses.
* ``"indexed"`` (default) — one :class:`~repro.pubsub.matching.AttributeIndex`
  per link, in the style of the counting/pre-filtering algorithms the paper
  references via [16].  Each entry with a hashable equality constraint is
  bucketed under its ``(attribute, value)`` pair; entries whose best
  constraint is a ``Range`` go into a per-attribute
  :class:`~repro.pubsub.matching.IntervalBucketIndex` (bucketed boundary
  cuts with local split repair).  At match time only the buckets selected
  by the notification's own attribute/value pairs (plus the unindexable
  entries) are evaluated, and each link short-circuits on its first
  matching entry.  Results are identical to brute force — the index is
  purely a candidate pre-selection.

The index is maintained incrementally by :meth:`RoutingTable.add`,
:meth:`RoutingTable.remove`, :meth:`RoutingTable.remove_link` and
:meth:`RoutingTable.clear`, so subscription churn never forces a rebuild.

On top of the index sits an epoch-guarded destination cache
(:class:`~repro.pubsub.matching.EpochCache`): ``destinations()`` results are
memoized by the notification's attribute signature (plus the exclude set)
and every table mutation bumps the epoch, so repeated publishes of hot
notification shapes skip candidate evaluation entirely while staleness is
impossible by construction.  Cache hits are reported through the optional
metrics registry as ``match.cache_hit`` (range-index split repairs as
``index.repair``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from .filters import Filter
from .matching import AttributeIndex, EpochCache
from .notification import attribute_dict
from .subscription import Subscription

MATCHER_NAMES = ("brute", "indexed")


@dataclass(frozen=True)
class RouteEntry:
    """One (filter, link) pair, annotated with the subscription that created it."""

    filter: Filter
    link: str
    sub_id: str

    def matches(self, notification: Mapping) -> bool:
        return self.filter.matches(notification)


#: Links with at most this many entries are scanned directly even in indexed
#: mode: probing the index costs about as much as one compiled filter
#: evaluation, so tiny links (e.g. one subscription per client link) are
#: faster brute. Correctness is unaffected — both paths are exact.
SMALL_LINK_SCAN = 4


class RoutingTable:
    """The per-broker routing state.

    Entries are grouped by link for efficient forwarding decisions ("which
    links need this notification?") and indexed by subscription id for
    efficient removal.  With a non-brute ``matcher`` each link additionally
    maintains an attribute index so forwarding decisions only evaluate
    candidate entries, and ``destinations()`` results are memoized in an
    epoch-guarded cache invalidated by every mutation.  ``metrics`` is an
    optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
    ``match.cache_hit`` and ``index.repair`` counters.
    """

    #: bound on the memoized notification signatures (FIFO eviction)
    CACHE_CAPACITY = 4096

    def __init__(self, matcher: str = "indexed", metrics=None) -> None:
        if matcher not in MATCHER_NAMES:
            raise ValueError(f"unknown matcher {matcher!r}; available: {MATCHER_NAMES}")
        self._matcher = matcher
        self._indexed = matcher != "brute"
        self._by_link: Dict[str, Dict[str, RouteEntry]] = defaultdict(dict)
        self._by_sub: Dict[str, List[RouteEntry]] = defaultdict(list)
        self._index: Dict[str, AttributeIndex] = {}
        self.cache_hits = 0
        self._destination_cache = EpochCache()
        self._cache_hit_counter = metrics.counter("match.cache_hit") if metrics else None
        self._repair_counter = metrics.counter("index.repair") if metrics else None

    # ----------------------------------------------------------------- matcher
    @property
    def matcher(self) -> str:
        return self._matcher

    def _index_add(self, entry: RouteEntry) -> None:
        index = self._index.get(entry.link)
        if index is None:
            index = self._index[entry.link] = AttributeIndex(self._repair_counter)
        index.add(entry.sub_id, entry.filter, entry)

    def _index_discard(self, entry: RouteEntry) -> None:
        index = self._index.get(entry.link)
        if index is None:
            return
        index.discard(entry.sub_id, entry.filter)
        if index.empty():
            del self._index[entry.link]

    # ------------------------------------------------------------------ admin
    def add(self, filter: Filter, link: str, sub_id: str) -> RouteEntry:
        """Insert an entry; replaces an existing entry for the same (sub_id, link)."""
        entry = RouteEntry(filter=filter, link=link, sub_id=sub_id)
        self._destination_cache.epoch += 1
        previous = self._by_link[link].get(sub_id)
        if previous is not None:
            self._by_sub[sub_id] = [e for e in self._by_sub[sub_id] if e.link != link]
            if self._indexed:
                self._index_discard(previous)
        self._by_link[link][sub_id] = entry
        self._by_sub[sub_id].append(entry)
        if self._indexed:
            self._index_add(entry)
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
                self._destination_cache.epoch += 1
                self._by_link[entry.link].pop(sub_id, None)
                if not self._by_link[entry.link]:
                    del self._by_link[entry.link]
                if self._indexed:
                    self._index_discard(entry)
                removed.append(entry)
            else:
                keep.append(entry)
        if keep:
            self._by_sub[sub_id] = keep
        else:
            self._by_sub.pop(sub_id, None)
        return removed

    def remove_link(self, link: str) -> List[RouteEntry]:
        """Remove every entry pointing at ``link`` (e.g. a disconnected client)."""
        entries = list(self._by_link.pop(link, {}).values())
        self._destination_cache.epoch += 1
        self._index.pop(link, None)
        for entry in entries:
            remaining = [e for e in self._by_sub.get(entry.sub_id, []) if e.link != link]
            if remaining:
                self._by_sub[entry.sub_id] = remaining
            else:
                self._by_sub.pop(entry.sub_id, None)
        return entries

    def clear(self) -> None:
        self._destination_cache.epoch += 1
        self._by_link.clear()
        self._by_sub.clear()
        self._index.clear()

    # ---------------------------------------------------------------- queries
    def _link_groups(self, attributes: Mapping, excluded):
        """Yield ``(link, candidate groups)`` per non-excluded link (indexed mode).

        Small links (<= :data:`SMALL_LINK_SCAN` entries) yield their entries
        as the one group — probing the index would cost more than evaluating
        them; larger links yield :meth:`AttributeIndex.groups`.
        """
        items = attributes.items()  # a view: every index probed iterates it, none copies it
        index_by_link = self._index
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            if len(entries) <= SMALL_LINK_SCAN:
                yield link, (entries.values(),)
            else:
                yield link, index_by_link[link].groups(items)

    def destinations(self, notification: Mapping, exclude: Iterable[str] = ()) -> List[str]:
        """Links (deduplicated, sorted) on which ``notification`` must be forwarded."""
        excluded = set(exclude)
        # unwrapped once: the cache key and every filter below use the plain dict
        attributes = attribute_dict(notification)
        if self._indexed:
            cache = self._destination_cache
            key, cached = cache.lookup(attributes, tuple(sorted(excluded)))
            if cached is not None:
                self.cache_hits += 1
                if self._cache_hit_counter is not None:
                    self._cache_hit_counter.inc()
                return list(cached)
            result = []
            for link, groups in self._link_groups(attributes, excluded):
                for group in groups:
                    for entry in group:
                        if entry.filter.matches(attributes):
                            result.append(link)
                            break
                    else:
                        continue
                    break  # the first match decides the link
            result.sort()
            if key is not None:
                cache.store(key, result, self.CACHE_CAPACITY)
            return list(result)
        matched: Set[str] = set()
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            if any(entry.matches(attributes) for entry in entries.values()):
                matched.add(link)
        return sorted(matched)

    def matching_entries(
        self, notification: Mapping, exclude: Iterable[str] = ()
    ) -> List[RouteEntry]:
        excluded = set(exclude)
        attributes = attribute_dict(notification)
        matched: List[RouteEntry] = []
        if self._indexed:
            for _link, groups in self._link_groups(attributes, excluded):
                for group in groups:
                    matched.extend(e for e in group if e.filter.matches(attributes))
            return matched
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            matched.extend(entry for entry in entries.values() if entry.matches(attributes))
        return matched

    def entries_for_link(self, link: str) -> List[RouteEntry]:
        return list(self._by_link.get(link, {}).values())

    def entries_for_sub(self, sub_id: str) -> List[RouteEntry]:
        return list(self._by_sub.get(sub_id, []))

    def sub_entries(self, sub_id: str) -> Sequence[RouteEntry]:
        """:meth:`entries_for_sub` without the copy, for the routing strategy's
        hot path: read-only, and void after the next table mutation."""
        return self._by_sub.get(sub_id, ())

    def filters_for_link(self, link: str) -> List[Filter]:
        return [entry.filter for entry in self._by_link.get(link, {}).values()]

    def links(self) -> List[str]:
        return sorted(self._by_link.keys())

    def subscription_ids(self) -> Set[str]:
        return set(self._by_sub.keys())

    def has_subscription(self, sub_id: str, link: Optional[str] = None) -> bool:
        entries = self._by_sub.get(sub_id, [])
        if link is None:
            return bool(entries)
        return any(entry.link == link for entry in entries)

    def covered_by_other_link(self, filter: Filter, excluding_link: str) -> bool:
        """True if some entry on a link other than ``excluding_link`` covers ``filter``.

        Used by covering-based routing to decide whether forwarding a new
        subscription towards a neighbour is necessary.
        """
        for link, entries in self._by_link.items():
            if link == excluding_link:
                continue
            if any(entry.filter.covers(filter) for entry in entries.values()):
                return True
        return False

    def __len__(self) -> int:
        """Total number of entries (the routing-table size metric of E12)."""
        return sum(len(entries) for entries in self._by_link.values())

    def size_by_link(self) -> Dict[str, int]:
        return {link: len(entries) for link, entries in self._by_link.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for link in sorted(self._by_link):
            parts.append(f"{link}:{len(self._by_link[link])}")
        return f"RoutingTable({', '.join(parts)})"

