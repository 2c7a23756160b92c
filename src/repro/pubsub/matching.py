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

:class:`AttributeIndex` is the system's one attribute index: the matcher
holds one over its subscriptions, the routing table
(:mod:`repro.pubsub.routing_table`) one over all of its entries.  A query
is one call of :meth:`AttributeIndex.groups`, with no generator under it: it
walks the equality buckets the notification selects and the range buckets
its values stab, and returns the views it reached in one list, each paired
with the value its members' bounds are tested on.  A member is the tuple
``(low, high, payload)``, so a caller rejects a candidate whose range misses
the value with one comparison, and a filter its place decides
(:func:`placement`'s ``exact``) needs no evaluation at all.  Every query
is answered from the index as it stands; nothing is memoized per
notification, so a mutation is seen by the next query and a notification
leaves nothing behind.  The index is maintained incrementally (a few dict
operations and at most two bisects per subscription change; no query ever
pays for a rebuild), because in a mobile fabric churn is the normal case.
The one deferred cost is a range bucket's split, paid by the first query
that stabs the bucket oversized, not by the insert that grew it: one pass
cuts the whole bucket into pieces of about half ``MAX_BUCKET`` entries, so
the queries after it land in pieces that are already small.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .filters import Equals, Filter, InSet, Range
from .notification import Notification, attribute_dict
from .subscription import Subscription

#: ``(low, high, payload)``: one range-index entry with its closed bounds
Member = Tuple[float, float, object]


def pick_index_key(filter: Filter) -> Optional[Tuple[str, object]]:
    """Choose one ``(attribute, value)`` equality pair as index key.

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
        return (constraint.attribute, value)
    return None


def pick_range_constraint(filter: Filter) -> Optional[Range]:
    """Choose the best ``Range`` constraint for interval-bucket pre-selection.

    A filter can be candidate-pruned by one of its range constraints, because
    it only matches notifications whose value for that attribute lies inside
    the range — on its own, or inside the equality bucket
    :func:`pick_index_key` chose.  Prefers the most selective range (two
    finite bounds beat one, one beats none); returns ``None`` when the filter
    has no range constraint at all.

    The range half of :class:`AttributeIndex`'s placement rule.
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


def placement(filter: Filter) -> Tuple[Optional[Tuple[str, object]], Optional[Range], bool]:
    """``(pick_index_key(filter), pick_range_constraint(filter), exact)``,
    computed once per filter and cached on it (filters are immutable).

    ``exact`` is true iff the filter is its equality key and/or one closed
    ``Range`` and nothing else (the empty filter too): its place then decides
    it.  The equality bucket's dict lookup agrees with ``==`` (no constraint
    value is NaN), and for every number :meth:`IntervalBucketIndex.stab` lets
    through, ``low <= value <= high`` is the closed ``Range``'s own test.
    """
    placed = filter._placement
    if placed is None:
        key, constraint = pick_index_key(filter), pick_range_constraint(filter)
        closed = constraint is None or (constraint.include_low and constraint.include_high)
        exact = closed and len(filter.constraints) == (key is not None) + (constraint is not None)
        placed = filter._placement = (key, constraint, exact)
    return placed


class IntervalBucketIndex:
    """Incrementally-maintained interval-stabbing index (bucketed boundaries).

    The number line is partitioned into buckets by a monotonically growing
    sorted cut list, and every range is stored in each bucket it overlaps.
    Insert and remove are two ``bisect`` calls plus a handful of dict
    operations; a query is one ``bisect`` into the cut list plus the member
    dict of one bucket — no rebuild, ever.  Each entry is one member tuple
    ``(low, high, payload)``, built once by :meth:`add` and shared by
    ``_ranges``, every bucket it sits in and ``wide``, so a caller rejects a
    member that does not contain its value with one inline comparison.

    Local repair keeps the buckets queries land in small: when a query stabs
    a bucket holding more than ``MAX_BUCKET`` entries, the bucket is split in
    one pass — the member bounds falling strictly inside it sorted once, cuts
    placed at evenly spaced ones, each member put by two bisects into every
    piece it overlaps — into pieces of about ``MAX_BUCKET / 2`` entries.  A
    piece that is still oversized (heavily overlapping members) is split
    again the same way when the query lands in it (one ``repairs`` increment
    per split, reported through the optional ``repair_counter`` as
    ``index.repair``).  Inserts never split, so a bucket no query reaches
    never pays for one.  Ranges that would straddle more than ``MAX_SPAN``
    buckets at insert time go into the always-scanned ``wide`` set instead,
    so heavily overlapping workloads degrade to linear scans of those entries
    rather than to quadratic bucket membership.  A bucket whose members
    cannot be separated (e.g. all-identical point intervals) refuses to split
    and backs off until it doubles, so degenerate workloads cannot trigger
    repeated O(n) split attempts.

    A query hands out whole buckets, so a member may not contain the value;
    its closed bounds tell (endpoint inclusivity is the filter's).  Each
    member is handed out at most once per query: a narrow entry lives in many
    buckets but a value stabs exactly one, and wide entries live only in
    ``wide``.
    """

    __slots__ = ("_ranges", "_cuts", "_buckets", "_retry_at", "_wide", "repairs", "repair_counter")

    MAX_BUCKET = 24
    MAX_SPAN = 4

    def __init__(self, repair_counter: object = None) -> None:
        self._ranges: Dict[object, Member] = {}  # id -> its member
        self._cuts: List[float] = []  # bucket i covers (cuts[i-1], cuts[i]]
        self._buckets: List[Dict[object, Member]] = [{}]
        #: per-bucket size below which a failed split is not re-attempted
        self._retry_at: List[int] = [0]
        self._wide: Dict[object, Member] = {}
        self.repairs = 0
        #: optional live metrics Counter observing every split
        self.repair_counter = repair_counter

    def add(self, entry_id: object, constraint: Range, payload: object) -> None:
        if entry_id in self._ranges:
            self.discard(entry_id)
        low, high = constraint.low, constraint.high
        member = self._ranges[entry_id] = (low, high, payload)
        cuts = self._cuts
        lo = bisect_left(cuts, low)
        hi = bisect_left(cuts, high)
        if hi - lo >= self.MAX_SPAN:
            self._wide[entry_id] = member
            return
        buckets = self._buckets
        for i in range(lo, hi + 1):
            buckets[i][entry_id] = member

    def discard(self, entry_id: object) -> None:
        member = self._ranges.pop(entry_id, None)
        if member is None:
            return
        if entry_id in self._wide:
            del self._wide[entry_id]
        else:
            cuts = self._cuts
            buckets = self._buckets
            lo = bisect_left(cuts, member[0])
            for i in range(lo, bisect_left(cuts, member[1]) + 1):
                del buckets[i][entry_id]
        if not self._ranges:
            # compaction: cuts only ever grow, so reset once the index drains
            self._cuts = []
            self._buckets = [{}]
            self._retry_at = [0]
            self._wide = {}

    def _split(self, i: int) -> None:
        """Split bucket ``i`` in one pass into pieces of about half
        ``MAX_BUCKET`` members each, cut at evenly spaced interior bounds
        (local repair)."""
        bucket = self._buckets[i]
        cuts = self._cuts
        bucket_lo = cuts[i - 1] if i > 0 else -math.inf
        bucket_hi = cuts[i] if i < len(cuts) else math.inf
        points = sorted(
            {
                bound
                for low, high, _ in bucket.values()
                for bound in (low, high)
                if bucket_lo < bound < bucket_hi
            }
        )
        if not points:
            # unsplittable (members span the bucket or share one boundary):
            # back off until the bucket doubles before trying again
            self._retry_at[i] = 2 * len(bucket)
            return
        # pieces of about MAX_BUCKET / 2 members; no more cuts than bounds
        count = min(math.ceil(2 * len(bucket) / self.MAX_BUCKET), len(points) + 1)
        new_cuts = [points[k * len(points) // count] for k in range(1, count)]
        pieces: List[Dict[object, Member]] = [{} for _ in range(count)]
        for entry_id, member in bucket.items():
            first = bisect_left(new_cuts, member[0])
            for piece in pieces[first : bisect_left(new_cuts, member[1], first) + 1]:
                piece[entry_id] = member
        cuts[i:i] = new_cuts
        self._buckets[i : i + 1] = pieces
        self._retry_at[i : i + 1] = [0] * count
        self.repairs += 1
        counter = self.repair_counter
        if counter is not None:
            counter.inc()

    def __len__(self) -> int:
        return len(self._ranges)

    def stab(self, value: object) -> Tuple[Iterable[Member], ...]:
        """The groups of members whose ranges may contain ``value``: the
        stabbed bucket — split first while it is oversized — and the wide
        entries.  Nothing for a non-number or NaN."""
        if not isinstance(value, (int, float)) or value != value:
            return ()  # a Range never matches a non-number, and NaN lies in no interval
        cuts = self._cuts
        buckets = self._buckets
        i = bisect_left(cuts, value)
        bucket = buckets[i]
        while len(bucket) > self.MAX_BUCKET and len(bucket) >= self._retry_at[i]:
            self._split(i)
            i = bisect_left(cuts, value)
            bucket = buckets[i]
        if self._wide:
            return (bucket.values(), self._wide.values())
        return (bucket.values(),)


class _Shelf:
    """The entries one equality bucket holds — or, in :class:`AttributeIndex`,
    the entries no equality bucket holds: those placed with a ``Range`` in one
    :class:`IntervalBucketIndex` per range attribute (``by_range``), the rest
    in ``unindexed`` as members ``(-inf, inf, payload)``."""

    __slots__ = ("by_range", "unindexed")

    def __init__(self) -> None:
        self.by_range: Dict[str, IntervalBucketIndex] = {}
        self.unindexed: Dict[object, Member] = {}

    def add(
        self, entry_id: object, constraint: Optional[Range], payload: object, repair_counter: object
    ) -> None:
        if constraint is None:
            self.unindexed[entry_id] = (-math.inf, math.inf, payload)
            return
        index = self.by_range.get(constraint.attribute)
        if index is None:
            index = self.by_range[constraint.attribute] = IntervalBucketIndex(repair_counter)
        index.add(entry_id, constraint, payload)

    def discard(self, entry_id: object, constraint: Optional[Range]) -> None:
        if constraint is None:
            self.unindexed.pop(entry_id, None)
            return
        index = self.by_range.get(constraint.attribute)
        if index is not None:
            index.discard(entry_id)
            if not len(index):
                del self.by_range[constraint.attribute]

    def empty(self) -> bool:
        return not self.by_range and not self.unindexed


class AttributeIndex:
    """Attribute → value → entries pre-selection index over a set of filters.

    Each entry is placed once, by :func:`placement`.  ``by_attr`` buckets
    entries two levels deep — attribute, then equality value — following the
    ``(attribute, value)`` pair chosen by :func:`pick_index_key`.  Two flat
    dict probes per notification attribute beat a combined-tuple key:
    attribute strings cache their hashes, and no tuple is allocated per
    probe.  An entry whose filter also carries a ``Range`` sits, inside its
    equality bucket, in an :class:`IntervalBucketIndex` over that range's
    attribute, so a bucket hands out only the entries both the equality value
    and the notification's numeric value admit.  Entries without a usable
    equality constraint are placed the same way one level up (``rest``): by
    their ``Range`` if they have one, else in its ``unindexed`` remainder,
    which every query hands out.

    :meth:`groups` returns, in one list, the groups of members
    ``(low, high, payload)`` (a ``Subscription`` for the matcher, a
    ``RouteEntry`` for the routing table) a notification selects, each with
    the value their bounds are tested on; :meth:`discard` takes the filter the
    entry was added with, because the filter alone decides where the entry
    lives.  ``repair_counter`` is handed to every range index.
    """

    __slots__ = ("by_attr", "rest", "_repair_counter")

    def __init__(self, repair_counter: object = None) -> None:
        self.by_attr: Dict[str, Dict[object, _Shelf]] = {}
        self.rest = _Shelf()
        self._repair_counter = repair_counter

    def add(self, entry_id: object, filter: Filter, payload: object) -> None:
        key, constraint, _ = placement(filter)
        if key is None:
            self.rest.add(entry_id, constraint, payload, self._repair_counter)
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            buckets = self.by_attr[attribute] = {}
        bucket = buckets.get(value)
        if bucket is None:
            bucket = buckets[value] = _Shelf()
        bucket.add(entry_id, constraint, payload, self._repair_counter)

    def discard(self, entry_id: object, filter: Filter) -> None:
        key, constraint, _ = placement(filter)
        if key is None:
            self.rest.discard(entry_id, constraint)
            return
        attribute, value = key
        buckets = self.by_attr.get(attribute)
        if buckets is None:
            return
        bucket = buckets.get(value)
        if bucket is not None:
            bucket.discard(entry_id, constraint)
            if bucket.empty():
                del buckets[value]
                if not buckets:
                    del self.by_attr[attribute]

    def groups(self, notification: Mapping) -> List[Tuple[object, Iterable[Member]]]:
        """The ``(value, members)`` groups that could match ``notification``,
        in one list.

        ``notification`` is the plain attribute mapping, unwrapped once by
        the caller.  Groups are handed out whole — per equality bucket the
        notification's own pairs select, the range buckets its values stab
        and the view of the bucket's other entries; then the same for the
        entries without an equality key — so a caller's inner loop iterates
        dict views, not a generator per payload, and the whole walk is this
        one frame plus one ``stab`` call per range index reached.  A range
        group's ``value`` is the notification's value for that range's
        attribute, a range-less group's is ``0.0`` (its members are
        ``(-inf, inf, payload)``): a member can match only if
        ``low <= value <= high``.  The
        equality buckets come first because their members already passed one
        test: a first-match loop is decided there far more often than among
        the rest.  A value selects the bucket whose pin ``==`` it, the value
        domain's one equality (:mod:`repro.pubsub.notification`): ``1``,
        ``1.0`` and ``True`` select one bucket and stab alike, so they are
        answered alike.  No payload appears twice: each lives in exactly one
        place, a notification carries each attribute once, and a value stabs
        one range bucket.  This is the single definition of candidate
        pre-selection; every query path goes through it.
        """
        shelves = []
        by_attr = self.by_attr
        if by_attr:
            for attribute, value in notification.items():
                buckets = by_attr.get(attribute)
                if buckets is None:
                    continue
                shelf = buckets.get(value)
                if shelf is not None:
                    shelves.append(shelf)
        shelves.append(self.rest)
        groups: List[Tuple[object, Iterable[Member]]] = []
        for shelf in shelves:
            for attribute, index in shelf.by_range.items():
                # a missing attribute reads None, which stabs nothing
                value = notification.get(attribute)
                for view in index.stab(value):
                    groups.append((value, view))
            if shelf.unindexed:
                # a float: comparing it with the infinite bounds takes the fast path
                groups.append((0.0, shelf.unindexed.values()))
        return groups


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
    """

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        self._index = AttributeIndex()
        self.full_evaluations = 0

    # ------------------------------------------------------------------ admin
    def add(self, subscription: Subscription) -> None:
        sub_id = subscription.sub_id
        self.remove(sub_id)  # re-adding an id replaces, like brute force
        self._subscriptions[sub_id] = subscription
        self._index.add(sub_id, subscription.filter, subscription)

    def remove(self, sub_id: str) -> Optional[Subscription]:
        removed = self._subscriptions.pop(sub_id, None)
        if removed is not None:
            self._index.discard(sub_id, removed.filter)
        return removed

    def clear(self) -> None:
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
        matched = []
        for _, group in self._index.groups(attributes):
            for _, _, sub in group:
                self.full_evaluations += 1
                if sub.filter.matches(attributes):
                    matched.append(sub)
        return matched

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
