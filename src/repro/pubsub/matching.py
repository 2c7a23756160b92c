"""Matching engine: find the subscriptions matched by a notification.

Brokers match every incoming notification against their routing table and —
at border brokers — against the subscriptions of locally attached clients.
The engine below keeps matching independent from routing so it can be unit
tested and benchmarked in isolation (experiment E1/E12 use it directly).

Two strategies are provided:

* :class:`BruteForceMatcher` — evaluates every registered filter; the
  baseline, always correct.
* :class:`AttributeIndexMatcher` — a pre-selection index in the style of the
  "counting / pre-filtering" family of algorithms referenced by the paper
  via [16]: only the candidates :class:`AttributeIndex` selects are fully
  evaluated, so results are identical to brute force.

:class:`AttributeIndex` is the system's one attribute index — the matcher
holds one over its subscriptions, the routing table
(:mod:`repro.pubsub.routing_table`) one per link — and :class:`EpochCache`
the one memo of per-notification answers in front of both.  Everything here
is maintained incrementally (a few dict operations and at most two bisects
per subscription change; no query ever pays for a rebuild), because in a
mobile fabric churn is the normal case.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .filters import Equals, Filter, InSet, Range
from .notification import Notification, attribute_dict
from .subscription import Subscription


def pick_index_key(filter: Filter) -> Optional[Tuple[str, object]]:
    """Choose one hashable ``(attribute, value)`` equality pair as index key.

    A filter can be pre-selected by an equality constraint (``Equals`` or a
    single-value ``InSet``): it can only match notifications that carry
    exactly that value for the attribute.  Returns ``None`` when the filter
    has no such constraint — those filters must always be evaluated.

    The equality half of :class:`AttributeIndex`'s placement rule.
    """
    for constraint in filter.constraints:
        if isinstance(constraint, Equals):
            value = constraint.value
        elif isinstance(constraint, InSet) and len(constraint.values) == 1:
            (value,) = constraint.values
        else:
            continue
        try:
            hash(value)
        except TypeError:
            continue
        return (constraint.attribute, value)
    return None


def pick_range_constraint(filter: Filter) -> Optional[Range]:
    """Choose the best ``Range`` constraint for interval-bucket pre-selection.

    Used for filters :func:`pick_index_key` rejects (no usable equality
    constraint): such a filter can still be candidate-pruned by one of its
    range constraints, because it only matches notifications whose value for
    that attribute lies inside the range.  Prefers the most selective range
    (two finite bounds beat one, one beats none); returns ``None`` when the
    filter has no range constraint at all.
    """
    best: Optional[Range] = None
    best_score = -1
    for constraint in filter.constraints:
        if isinstance(constraint, Range):
            score = (constraint.low != -math.inf) + (constraint.high != math.inf)
            if score == 2:
                return constraint
            if score > best_score:
                best, best_score = constraint, score
    return best


class IntervalBucketIndex:
    """Incrementally-maintained interval-stabbing index (bucketed boundaries).

    The number line is partitioned into buckets by a monotonically growing
    sorted cut list, and every range is stored in each bucket it overlaps.
    Insert and remove are two ``bisect`` calls plus a handful of dict
    operations; a query is one ``bisect`` into the cut list plus the member
    dict of one bucket — no rebuild, ever.

    Local repair keeps buckets small: when an insert pushes a bucket past
    ``MAX_BUCKET`` entries, the bucket is split at the median of the member
    bounds falling strictly inside it (one ``repairs`` increment, reported
    through the optional ``repair_counter`` as ``index.repair``).  Ranges
    that would straddle more than ``MAX_SPAN`` buckets at insert time go
    into the always-scanned ``wide`` set instead, so heavily overlapping
    workloads degrade to linear scans of those entries rather than to
    quadratic bucket membership.  A bucket whose members cannot be separated
    (e.g. all-identical point intervals) refuses to split and backs off
    until it doubles, so degenerate workloads cannot trigger repeated O(n)
    split attempts.

    Candidate sets are supersets (endpoint inclusivity is ignored; the full
    filter evaluation downstream restores exactness), and each entry is
    yielded at most once per query: a narrow entry lives in many buckets but
    a value stabs exactly one, and wide entries live only in ``wide``.
    """

    __slots__ = ("_entries", "_cuts", "_buckets", "_retry_at", "_wide", "repairs", "repair_counter")

    MAX_BUCKET = 24
    MAX_SPAN = 4

    def __init__(self, repair_counter: object = None) -> None:
        # id -> (low, high, payload, wide)
        self._entries: Dict[str, Tuple[float, float, object, bool]] = {}
        self._cuts: List[float] = []  # bucket i covers (cuts[i-1], cuts[i]]
        self._buckets: List[Dict[str, object]] = [{}]
        #: per-bucket size below which a failed split is not re-attempted
        self._retry_at: List[int] = [0]
        self._wide: Dict[str, object] = {}
        self.repairs = 0
        #: optional live metrics Counter observing every split
        self.repair_counter = repair_counter

    def add(self, entry_id: str, constraint: Range, payload: object) -> None:
        if entry_id in self._entries:
            self.discard(entry_id)
        low, high = constraint.bounds()
        cuts = self._cuts
        lo = bisect_left(cuts, low)
        hi = bisect_left(cuts, high)
        if hi - lo >= self.MAX_SPAN:
            self._entries[entry_id] = (low, high, payload, True)
            self._wide[entry_id] = payload
            return
        self._entries[entry_id] = (low, high, payload, False)
        buckets = self._buckets
        for i in range(lo, hi + 1):
            buckets[i][entry_id] = payload
        # repair right-to-left so a split (which inserts at i + 1) never
        # shifts a bucket index this loop still has to visit
        for i in range(hi, lo - 1, -1):
            if len(buckets[i]) > self.MAX_BUCKET and len(buckets[i]) >= self._retry_at[i]:
                self._split(i)

    def discard(self, entry_id: str) -> None:
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            return
        low, high, _payload, wide = entry
        if wide:
            self._wide.pop(entry_id, None)
        else:
            cuts = self._cuts
            buckets = self._buckets
            for i in range(bisect_left(cuts, low), bisect_left(cuts, high) + 1):
                buckets[i].pop(entry_id, None)
        if not self._entries:
            # compaction: cuts only ever grow, so reset once the index drains
            self._cuts = []
            self._buckets = [{}]
            self._retry_at = [0]
            self._wide = {}

    def _split(self, i: int) -> None:
        """Split bucket ``i`` at the median interior bound (local repair)."""
        bucket = self._buckets[i]
        cuts = self._cuts
        entries = self._entries
        bucket_lo = cuts[i - 1] if i > 0 else -math.inf
        bucket_hi = cuts[i] if i < len(cuts) else math.inf
        points = sorted(
            {
                bound
                for entry_id in bucket
                for bound in entries[entry_id][:2]
                if bucket_lo < bound < bucket_hi
            }
        )
        if not points:
            # unsplittable (members span the bucket or share one boundary):
            # back off until the bucket doubles before trying again
            self._retry_at[i] = 2 * len(bucket)
            return
        cut = points[len(points) // 2]
        left: Dict[str, object] = {}
        right: Dict[str, object] = {}
        for entry_id, payload in bucket.items():
            low, high = entries[entry_id][0], entries[entry_id][1]
            if low <= cut:
                left[entry_id] = payload
            if high > cut:
                right[entry_id] = payload
        cuts.insert(i, cut)
        self._buckets[i : i + 1] = [left, right]
        self._retry_at[i : i + 1] = [0, 0]
        self.repairs += 1
        counter = self.repair_counter
        if counter is not None:
            counter.inc()

    def __len__(self) -> int:
        return len(self._entries)

    def candidates(self, value: object) -> List[object]:
        """Payloads of the ranges that may contain ``value`` (a superset)."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return []  # a Range constraint never matches a non-numeric value
        if value != value:
            return []  # NaN lies inside no interval
        cuts = self._cuts
        bucket = self._buckets[bisect_left(cuts, value)] if cuts else self._buckets[0]
        out = list(bucket.values())
        if self._wide:
            out.extend(self._wide.values())
        return out


class AttributeIndex:
    """Attribute → value → entries pre-selection index over a set of filters.

    ``by_attr`` buckets entries two levels deep — attribute, then equality
    value — following the ``(attribute, value)`` pair chosen by
    :func:`pick_index_key`.  Two flat dict probes per notification attribute
    beat a combined-tuple key: attribute strings cache their hashes, and no
    tuple is allocated per probe.  Entries without a usable equality
    constraint but with a ``Range`` constraint go into one
    :class:`IntervalBucketIndex` per attribute (``by_range``) and are
    pre-selected by the notification's numeric value; ``unindexed`` holds
    only the remainder, which must always be evaluated.

    :meth:`candidates` yields payloads (a ``Subscription`` for the matcher, a
    ``RouteEntry`` for a routing-table link); :meth:`discard` takes the filter
    the entry was added with, because the filter alone decides where the
    entry lives.  ``repair_counter`` is handed to every range index.
    """

    __slots__ = ("by_attr", "by_range", "unindexed", "_repair_counter")

    def __init__(self, repair_counter: object = None) -> None:
        self.by_attr: Dict[str, Dict[object, Dict[str, object]]] = {}
        self.by_range: Dict[str, IntervalBucketIndex] = {}
        self.unindexed: Dict[str, object] = {}
        self._repair_counter = repair_counter

    def add(self, entry_id: str, filter: Filter, payload: object) -> None:
        key = pick_index_key(filter)
        if key is None:
            range_constraint = pick_range_constraint(filter)
            if range_constraint is not None:
                attribute = range_constraint.attribute
                index = self.by_range.get(attribute)
                if index is None:
                    index = self.by_range[attribute] = IntervalBucketIndex(self._repair_counter)
                index.add(entry_id, range_constraint, payload)
                return
            self.unindexed[entry_id] = payload
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            buckets = self.by_attr[attribute] = {}
        bucket = buckets.get(value)
        if bucket is None:
            bucket = buckets[value] = {}
        bucket[entry_id] = payload

    def discard(self, entry_id: str, filter: Filter) -> None:
        key = pick_index_key(filter)
        if key is None:
            range_constraint = pick_range_constraint(filter)
            if range_constraint is not None:
                index = self.by_range.get(range_constraint.attribute)
                if index is not None:
                    index.discard(entry_id)
                    if not len(index):
                        del self.by_range[range_constraint.attribute]
                return
            self.unindexed.pop(entry_id, None)
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            return
        bucket = buckets.get(value)
        if bucket is not None:
            bucket.pop(entry_id, None)
            if not bucket:
                del buckets[value]
                if not buckets:
                    del self.by_attr[attribute]

    def empty(self) -> bool:
        return not self.by_attr and not self.by_range and not self.unindexed

    def groups(self, items) -> Iterator[Iterable[object]]:
        """Yield the groups of payloads that could match a notification with ``items``.

        ``items`` is the notification's attribute/value pairs, precomputed
        once by the caller and shared across every index probed.  Groups are
        handed out whole — the views of the equality buckets and the lists of
        the range buckets selected by the notification's own pairs, then the
        view of the unindexable entries — so a caller's inner loop iterates
        dict views and lists, not a generator per payload.  The selected
        groups come first because their members already passed one test: a
        first-match loop is decided there far more often than among the
        unindexable rest.  No payload appears twice: each lives in exactly
        one equality bucket, one range index or in ``unindexed``, and a
        notification carries each attribute once.  This is the single
        definition of candidate pre-selection; every query path goes through
        it.
        """
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
                    yield bucket.values()
        by_range = self.by_range
        if by_range:
            for attribute, value in items:
                index = by_range.get(attribute)
                if index is not None:
                    yield index.candidates(value)
        if self.unindexed:
            yield self.unindexed.values()

    def candidates(self, items) -> Iterator[object]:
        """The payloads of :meth:`groups`, one after the other."""
        return chain.from_iterable(self.groups(items))


class EpochCache:
    """Per-notification answers, memoized until the owner's next mutation.

    The owner bumps ``epoch`` on every mutation and the next :meth:`lookup`
    drops everything memoized before it, so no stale answer is ever served.
    Keys are the notification's attribute signature plus a caller-chosen
    ``scope`` (the routing table's exclude set); :meth:`store` evicts FIFO.
    """

    __slots__ = ("epoch", "_entries", "_entries_epoch")

    def __init__(self) -> None:
        self.epoch = 0
        self._entries: Dict[Tuple, list] = {}
        self._entries_epoch = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, notification: Mapping, scope: Tuple = ()
    ) -> Tuple[Optional[Tuple], Optional[list]]:
        """Return ``(key, answer)``: ``answer`` is ``None`` on a miss, and a
        ``None`` key marks a notification that cannot be memoized at all.
        Callers pass the notification already unwrapped to its ``dict``."""
        entries = self._entries
        if self._entries_epoch != self.epoch:
            entries.clear()
            self._entries_epoch = self.epoch
        try:
            # attributes are unique keys, so sorting never compares values
            # and the signature is hashable iff every value is
            signature = tuple(sorted(notification.items()))
            for _attribute, value in signature:
                if value is True or value is False:
                    # 1 == True with equal hashes, yet a Range accepts only 1: key by type too
                    signature = tuple((a, v, v.__class__) for a, v in signature)
                    break
            key = (signature, scope)
            return key, entries.get(key)
        except TypeError:  # unorderable items view or unhashable value
            return None, None

    def store(self, key: Tuple, answer: list, capacity: int) -> None:
        entries = self._entries
        if len(entries) >= capacity:
            del entries[next(iter(entries))]
        entries[key] = answer


class BruteForceMatcher:
    """Evaluate every registered subscription on every notification."""

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

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def match(self, notification: Mapping) -> List[Subscription]:
        """Return all subscriptions whose filter matches ``notification``."""
        return [sub for sub in self._subscriptions.values() if sub.filter.matches(notification)]

    def matching_ids(self, notification: Mapping) -> Set[str]:
        return {sub.sub_id for sub in self.match(notification)}


class AttributeIndexMatcher:
    """Pre-select candidate subscriptions through one :class:`AttributeIndex`.

    At match time only the subscriptions the index selects for the
    notification's own attribute/value pairs (equality buckets, range
    buckets, plus all unindexable subscriptions) are evaluated in full, which
    keeps the result identical to brute force while skipping most
    non-matching filters on selective workloads.

    Repeated publishes of a hot notification shape skip candidate gathering
    entirely: results are memoized by the notification's attribute signature
    in an epoch-guarded cache that every mutation invalidates, so a stale
    answer can never be served (``cache_hits`` counts the skips).
    """

    #: bound on the memoized notification signatures (FIFO eviction)
    CACHE_CAPACITY = 4096

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        self._index = AttributeIndex()
        self._match_cache = EpochCache()
        self.full_evaluations = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------ admin
    def add(self, subscription: Subscription) -> None:
        sub_id = subscription.sub_id
        self.remove(sub_id)  # re-adding an id replaces, like brute force
        self._match_cache.epoch += 1
        self._subscriptions[sub_id] = subscription
        self._index.add(sub_id, subscription.filter, subscription)

    def remove(self, sub_id: str) -> Optional[Subscription]:
        removed = self._subscriptions.pop(sub_id, None)
        if removed is not None:
            self._match_cache.epoch += 1
            self._index.discard(sub_id, removed.filter)
        return removed

    def clear(self) -> None:
        self._match_cache.epoch += 1
        self._subscriptions.clear()
        self._index = AttributeIndex()

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subscriptions

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    # --------------------------------------------------------------- matching
    def match(self, notification: Mapping) -> List[Subscription]:
        attributes = attribute_dict(notification)
        key, cached = self._match_cache.lookup(attributes)
        if cached is not None:
            self.cache_hits += 1
            return list(cached)
        matched = []
        for sub in self._index.candidates(attributes.items()):
            self.full_evaluations += 1
            if sub.filter.matches(attributes):
                matched.append(sub)
        if key is not None:
            self._match_cache.store(key, matched, self.CACHE_CAPACITY)
        return list(matched)

    def matching_ids(self, notification: Mapping) -> Set[str]:
        return {sub.sub_id for sub in self.match(notification)}


def cross_check(
    matchers: Iterable, notifications: Iterable[Notification]
) -> bool:
    """Return True iff all matchers agree on every notification (test helper)."""
    matchers = list(matchers)
    for notification in notifications:
        reference = matchers[0].matching_ids(notification)
        for other in matchers[1:]:
            if other.matching_ids(notification) != reference:
                return False
    return True
