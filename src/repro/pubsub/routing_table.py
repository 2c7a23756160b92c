"""Routing tables.

"Each broker maintains a routing table that determines in which directions a
notification is forwarded.  Each table entry is a pair (F, L) containing a
filter and the link from which it was received, denoting that a matching
notification is to be forwarded along L." (Sect. 2)

The table additionally records which subscription id produced each entry, so
that unsubscriptions, relocations and shadow garbage collection can remove
exactly the right entries.

Three matching strategies are available (the ``matcher`` knob):

* ``"brute"`` — every entry of every link is evaluated against the
  notification; the always-correct baseline the paper's testbed uses.
* ``"indexed"`` (default) — a per-link attribute index in the style of the
  counting/pre-filtering algorithms the paper references via [16].  Each
  entry with a hashable equality constraint is bucketed under its
  ``(attribute, value)`` pair; entries whose best constraint is a ``Range``
  are bucketed in a per-attribute segment index (sorted boundaries +
  bisect, rebuilt lazily after mutations).  At match time only the
  buckets/segments selected by the notification's own attribute/value pairs
  (plus the unindexable entries) are evaluated, and each link
  short-circuits on its first matching entry.  Results are identical to
  brute force — the index is purely a candidate pre-selection.
* ``"interval"`` — the churn-proof variant of ``"indexed"``: range entries
  go into an incrementally maintained
  :class:`~repro.pubsub.matching.IntervalBucketIndex` (bucketed boundary
  cuts with local split repair) instead of the lazily rebuilt segment
  index, so interleaved subscribe/unsubscribe and publish traffic never
  pays an O(n log n) rebuild on the first query after a mutation.

The equality index is maintained incrementally by :meth:`RoutingTable.add`,
:meth:`RoutingTable.remove`, :meth:`RoutingTable.remove_link` and
:meth:`RoutingTable.clear`, so subscription churn never forces a rebuild.

On top of any non-brute matcher sits an epoch-guarded destination cache:
``destinations()`` results are memoized by the notification's attribute
signature (plus the exclude set) and every table mutation bumps the epoch,
so repeated publishes of hot notification shapes skip candidate evaluation
entirely while staleness is impossible by construction.  Cache hits are
reported through the optional metrics registry as ``match.cache_hit``
(interval-index split repairs as ``index.repair``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .filters import Equals, Filter, InSet, NotEquals, Prefix, Range
from .matching import make_range_index, pick_index_key, pick_range_constraint
from .subscription import Subscription

MATCHER_NAMES = ("brute", "indexed", "interval")


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


class _LinkIndex:
    """The attribute index for the entries of a single link.

    ``by_attr`` buckets entries two levels deep — attribute, then equality
    value — following the ``(attribute, value)`` pair chosen by
    :func:`~repro.pubsub.matching.pick_index_key`.  Two flat dict probes per
    notification attribute beat a combined-tuple key: attribute strings cache
    their hashes, and no tuple is allocated per probe.  Entries without a
    usable equality constraint but with a ``Range`` constraint go into a
    per-attribute range index — the lazily rebuilt
    :class:`~repro.pubsub.matching.RangeSegmentIndex` for the ``"indexed"``
    matcher, the incrementally maintained
    :class:`~repro.pubsub.matching.IntervalBucketIndex` for ``"interval"``
    — and are pre-selected by the notification's numeric value;
    ``unindexed`` holds only the remainder, which must always be evaluated.
    """

    __slots__ = ("by_attr", "by_range", "unindexed", "_make_range_index")

    def __init__(self, make_range_index_fn) -> None:
        self.by_attr: Dict[str, Dict[object, Dict[str, RouteEntry]]] = {}
        self.by_range: Dict[str, object] = {}
        self.unindexed: Dict[str, RouteEntry] = {}
        self._make_range_index = make_range_index_fn

    def add(self, entry: RouteEntry) -> None:
        key = pick_index_key(entry.filter)
        if key is None:
            range_constraint = pick_range_constraint(entry.filter)
            if range_constraint is not None:
                attribute = range_constraint.attribute
                index = self.by_range.get(attribute)
                if index is None:
                    index = self.by_range[attribute] = self._make_range_index()
                index.add(entry.sub_id, range_constraint, entry)
                return
            self.unindexed[entry.sub_id] = entry
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            buckets = self.by_attr[attribute] = {}
        bucket = buckets.get(value)
        if bucket is None:
            bucket = buckets[value] = {}
        bucket[entry.sub_id] = entry

    def discard(self, entry: RouteEntry) -> None:
        key = pick_index_key(entry.filter)
        if key is None:
            range_constraint = pick_range_constraint(entry.filter)
            if range_constraint is not None:
                index = self.by_range.get(range_constraint.attribute)
                if index is not None:
                    index.discard(entry.sub_id)
                    if not len(index):
                        del self.by_range[range_constraint.attribute]
                return
            self.unindexed.pop(entry.sub_id, None)
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            return
        bucket = buckets.get(value)
        if bucket is not None:
            bucket.pop(entry.sub_id, None)
            if not bucket:
                del buckets[value]
                if not buckets:
                    del self.by_attr[attribute]

    def empty(self) -> bool:
        return not self.by_attr and not self.by_range and not self.unindexed

    def candidates(self, items) -> Iterator[RouteEntry]:
        """Yield the entries that could match a notification with ``items``.

        ``items`` is the notification's attribute/value pairs, precomputed
        once by the caller and shared across every link probed.  Unindexable
        entries come first, then the equality buckets and range segments
        selected by the notification's own pairs.  No entry is yielded twice:
        each lives in exactly one bucket, one range segment index or in
        ``unindexed``, and a notification carries each attribute once.  This
        is the single definition of candidate pre-selection; every query path
        goes through it.
        """
        yield from self.unindexed.values()
        by_attr = self.by_attr
        if by_attr:
            for attribute, value in items:
                buckets = by_attr.get(attribute)
                if buckets is None:
                    continue
                try:
                    bucket = buckets.get(value)
                except TypeError:  # unhashable notification value
                    continue
                if bucket:
                    yield from bucket.values()
        by_range = self.by_range
        if by_range:
            for attribute, value in items:
                index = by_range.get(attribute)
                if index is not None:
                    yield from index.candidates(value)


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
        self._index: Dict[str, _LinkIndex] = {}
        self.cache_hits = 0
        self._epoch = 0
        self._cache_epoch = 0
        self._destination_cache: Dict[Tuple, List[str]] = {}
        self._cache_hit_counter = metrics.counter("match.cache_hit") if metrics else None
        self._repair_counter = metrics.counter("index.repair") if metrics else None

    # ----------------------------------------------------------------- matcher
    @property
    def matcher(self) -> str:
        return self._matcher

    def set_matcher(self, matcher: str) -> None:
        """Switch matching strategy, rebuilding the index from current entries.

        The destination cache is invalidated along with the index: the flip
        bumps the mutation epoch exactly like an entry change, so a matcher
        arriving through the live control plane can never serve a result
        computed by its predecessor.
        """
        if matcher not in MATCHER_NAMES:
            raise ValueError(f"unknown matcher {matcher!r}; available: {MATCHER_NAMES}")
        if matcher == self._matcher:
            return
        self._matcher = matcher
        self._indexed = matcher != "brute"
        self._epoch += 1
        self._index = {}
        if self._indexed:
            for link, entries in self._by_link.items():
                for entry in entries.values():
                    self._index_add(entry)

    def _new_link_index(self) -> _LinkIndex:
        if self._matcher == "interval":
            repair_counter = self._repair_counter
            return _LinkIndex(lambda: make_range_index("interval", repair_counter))
        return _LinkIndex(lambda: make_range_index("segment"))

    def _index_add(self, entry: RouteEntry) -> None:
        index = self._index.get(entry.link)
        if index is None:
            index = self._index[entry.link] = self._new_link_index()
        index.add(entry)

    def _index_discard(self, entry: RouteEntry) -> None:
        index = self._index.get(entry.link)
        if index is None:
            return
        index.discard(entry)
        if index.empty():
            del self._index[entry.link]

    # ------------------------------------------------------------------ admin
    def add(self, filter: Filter, link: str, sub_id: str) -> RouteEntry:
        """Insert an entry; replaces an existing entry for the same (sub_id, link)."""
        entry = RouteEntry(filter=filter, link=link, sub_id=sub_id)
        self._epoch += 1
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
                self._epoch += 1
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
        self._epoch += 1
        self._index.pop(link, None)
        for entry in entries:
            remaining = [e for e in self._by_sub.get(entry.sub_id, []) if e.link != link]
            if remaining:
                self._by_sub[entry.sub_id] = remaining
            else:
                self._by_sub.pop(entry.sub_id, None)
        return entries

    def clear(self) -> None:
        self._epoch += 1
        self._by_link.clear()
        self._by_sub.clear()
        self._index.clear()

    # ---------------------------------------------------------------- queries
    def _link_candidates(self, notification: Mapping, excluded):
        """Yield ``(link, candidate entries)`` per non-excluded link (indexed mode).

        Small links (<= :data:`SMALL_LINK_SCAN` entries) yield their entries
        directly — probing the index would cost more than evaluating them;
        larger links go through :meth:`_LinkIndex.candidates`.
        """
        items = None
        index_by_link = self._index
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            if len(entries) <= SMALL_LINK_SCAN:
                yield link, entries.values()
            else:
                if items is None:
                    items = list(notification.items())
                yield link, index_by_link[link].candidates(items)

    def destinations(self, notification: Mapping, exclude: Iterable[str] = ()) -> List[str]:
        """Links (deduplicated, sorted) on which ``notification`` must be forwarded."""
        excluded = set(exclude)
        if self._indexed:
            cache = self._destination_cache
            if self._cache_epoch != self._epoch:
                cache.clear()
                self._cache_epoch = self._epoch
            key: Optional[Tuple[Any, ...]] = None
            try:
                key = (tuple(sorted(notification.items())), tuple(sorted(excluded)))
                cached = cache.get(key)
            except TypeError:  # unhashable attribute value — skip the cache
                key = None
                cached = None
            if cached is not None:
                self.cache_hits += 1
                if self._cache_hit_counter is not None:
                    self._cache_hit_counter.inc()
                return list(cached)
            result = []
            for link, candidates in self._link_candidates(notification, excluded):
                for entry in candidates:
                    if entry.filter.matches(notification):
                        result.append(link)
                        break
            result.sort()
            if key is not None:
                if len(cache) >= self.CACHE_CAPACITY:
                    del cache[next(iter(cache))]
                cache[key] = result
            return list(result)
        matched: Set[str] = set()
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            if any(entry.matches(notification) for entry in entries.values()):
                matched.add(link)
        return sorted(matched)

    def matching_entries(
        self, notification: Mapping, exclude: Iterable[str] = ()
    ) -> List[RouteEntry]:
        excluded = set(exclude)
        matched: List[RouteEntry] = []
        if self._indexed:
            for link, candidates in self._link_candidates(notification, excluded):
                matched.extend(e for e in candidates if e.filter.matches(notification))
            return matched
        for link, entries in self._by_link.items():
            if link in excluded:
                continue
            matched.extend(entry for entry in entries.values() if entry.matches(notification))
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


# ----------------------------------------------------------------- probe synthesis


def _constraint_witness(constraint) -> Any:
    """A value the constraint accepts (best effort; ``None`` means unknown)."""
    if isinstance(constraint, Equals):
        return constraint.value
    if isinstance(constraint, InSet):
        if not constraint.values:
            return None
        return min(constraint.values, key=repr)
    if isinstance(constraint, Range):
        low, high = constraint.low, constraint.high
        if math.isfinite(low) and constraint.include_low:
            return low
        if math.isfinite(high) and constraint.include_high:
            return high
        if math.isfinite(low) and math.isfinite(high):
            return (low + high) / 2
        if math.isfinite(low):
            return low + 1
        if math.isfinite(high):
            return high - 1
        return 0
    if isinstance(constraint, Prefix):
        return constraint.prefix + "a"
    if isinstance(constraint, NotEquals):
        return 0 if constraint.value != 0 else 1
    # Exists or an unknown constraint type: any carried value might do
    return 1


def probe_notifications(table: RoutingTable, limit: int = 256) -> List[Dict[str, Any]]:
    """Synthesize notifications that exercise the table's filters.

    For every distinct filter in the routing table a witness notification is
    derived from the filter's own constraints (equality values, range
    endpoints, set members), so each filter contributes at least one probe
    that matches it — plus two generic probes that match nothing but the
    empty filter.  Used by the live-reconfiguration path to assert that
    ``destinations()`` is invariant across a matcher flip: running the probe
    set through both the old and the new matcher must yield identical
    forwarding decisions.
    """
    probes: List[Dict[str, Any]] = [{}, {"__probe__": 0}]
    seen: Set = set()
    for link in table.links():
        for entry in table.entries_for_link(link):
            key = entry.filter.key()
            if key in seen:
                continue
            seen.add(key)
            probe: Dict[str, Any] = {}
            for constraint in entry.filter.constraints:
                witness = _constraint_witness(constraint)
                if witness is not None and constraint.attribute not in probe:
                    probe[constraint.attribute] = witness
            if entry.filter.matches(probe):
                probes.append(probe)
            if len(probes) >= limit:
                return probes
    return probes
