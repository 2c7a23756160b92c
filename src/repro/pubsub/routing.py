"""Routing strategies.

Section 2 of the paper assumes *simple routing* — "active filters are simply
added to the routing table according to the link they belong to" and
forwarded to all other brokers — while noting that REBECA also provides the
*covering* and *merging* optimisations.  Experiment E12 reproduces that
substrate comparison, so this module implements the whole family:

* :class:`FloodingRouting` — notifications are flooded through the broker
  graph, subscriptions never leave their border broker.  The trivially
  correct baseline with maximal notification traffic.
* :class:`SimpleRouting` — every subscription is forwarded to every broker.
* :class:`IdentityRouting` — a subscription is not forwarded over a link if
  an identical filter has already been forwarded over it.
* :class:`CoveringRouting` — a subscription is not forwarded over a link if a
  *covering* filter has already been forwarded over it.
* :class:`MergingRouting` — like covering, but additionally replaces sets of
  forwarded filters by a coarser merged filter (imperfect merging: the merge
  may accept more notifications, which costs traffic but never correctness
  because border brokers still match against the clients' exact filters).

The identity, covering and merging strategies decide through a maintained
per-link :class:`_ForwardedFilterIndex`: a refcounted multiset of forwarded
filter keys, distinct filters grouped by constrained attribute set (the
covering candidate bound) and, inside it, by one pinned equality value, and
refcounted constraint counts from which merging reads its merged filter
without re-folding the merge chain.  Every suppressed (subscription, link)
pair waits behind the advertised filter that suppresses it (its *witness*),
so an unsubscription re-examines only the pairs whose witness it took away,
not the routing table.  The specification the index must agree with —
rebuild the forwarded-filter list per query and re-examine every
subscription after every unsubscription — is the test oracle
:class:`~repro.pubsub.testing.ScanAdvertising`.

All strategies are stateful per broker and interact with their broker through
a narrow interface (`routing_table`, `broker_neighbors`, `forward_subscribe`,
`forward_unsubscribe`), which keeps them unit-testable with a fake broker.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Set, Tuple

from ..obs.metrics import NULL_COUNTER
from .filters import Constraint, Equals, Filter, InSet
from .matching import pick_index_key
from .subscription import Subscription, next_subscription_id


class RoutingBroker(Protocol):
    """The part of a broker that routing strategies are allowed to see."""

    routing_table: "RoutingTable"

    def broker_neighbors(self) -> List[str]: ...

    def forward_subscribe(self, subscription: Subscription, link: str) -> None: ...

    def forward_unsubscribe(self, sub_id: str, filter: Filter, link: str) -> None: ...


from .routing_table import RoutingTable  # noqa: E402  (after Protocol to avoid confusion)


def _cost(filter: Filter) -> int:
    return len(filter.constraints)


def _probe_groups(filter: Filter) -> Optional[List[Optional[Tuple]]]:
    """The pin groups that can hold a coverer of ``filter``; ``None`` means all of them.

    A filter pinned to ``(a, v)`` (:func:`~repro.pubsub.matching.pick_index_key`:
    ``Equals(a, v)`` or the singleton ``InSet(a, {v})``) covers only filters
    that themselves constrain ``a`` to exactly ``v``, so besides the unpinned
    general group (key ``None``) only ``filter``'s own pins name candidates.
    Every ``InSet`` covers the empty one, which no lookup finds.
    """
    groups: List[Optional[Tuple]] = [None]
    for constraint in filter.constraints:
        if isinstance(constraint, Equals):
            value = constraint.value
        elif isinstance(constraint, InSet) and len(constraint.values) <= 1:
            if not constraint.values:
                return None
            (value,) = constraint.values
        else:
            continue
        groups.append((constraint.attribute, value))
    return groups


class _LinkAdverts:
    """The forwarded-filter state of one link, maintained incrementally.

    Tracks the multiset of filters currently advertised over the link as a
    per-(subscription, link) contribution list, aggregated three ways:

    * ``key_count``/``rep`` — refcount and one representative filter per
      distinct ``Filter.key()``; identity queries are one dict probe.
    * ``by_attrs`` — distinct filters grouped by constrained attribute set,
      then by pin.  ``G.covers(F)`` implies ``attrs(G) ⊆ attrs(F)``, so only
      buckets whose attribute set is a subset of the queried filter's can
      hold a coverer, and inside a bucket only the groups
      :func:`_probe_groups` names.  A group lists the cheapest ``covers()``
      probe first: fewer constraints are cheaper to test and cover more.
    * ``constraint_count``/``constraint_rep``/``total`` — per-constraint
      refcounts over the multiset; a constraint present in every advertised
      filter (count == total) is part of the merged filter, which makes the
      merge fold an O(distinct constraints) read.

    On top sits the suppression record.  ``witness`` maps the key of a filter
    found redundant here to the key of the advertised filter that makes it so
    (``covers`` taken as a function of keys: filters with equal keys match
    alike), ``witnessed`` is its inverse, and ``waiting``
    holds the subscriptions suppressed on this link, by the key of their
    suppressed filter.  A ``witness`` entry lives only while its witness is
    advertised, so its presence *is* the answer "still covered"; when the
    witness's refcount reaches zero the entry goes and the subscriptions
    waiting on it are handed back as *orphans* — the only ones an
    unsubscription has to re-examine.
    """

    __slots__ = (
        "subs",
        "key_count",
        "rep",
        "by_attrs",
        "constraint_count",
        "constraint_rep",
        "total",
        "witness",
        "witnessed",
        "waiting",
    )

    def __init__(self) -> None:
        self.subs: Dict[str, List[Filter]] = {}
        self.key_count: Dict[frozenset, int] = {}
        self.rep: Dict[frozenset, Filter] = {}
        self.by_attrs: Dict[frozenset, Dict[Optional[Tuple], List[Filter]]] = {}
        self.constraint_count: Dict[Tuple, int] = {}
        self.constraint_rep: Dict[Tuple, Constraint] = {}
        self.total = 0
        self.witness: Dict[frozenset, frozenset] = {}
        self.witnessed: Dict[frozenset, Set[frozenset]] = {}
        self.waiting: Dict[frozenset, Set[str]] = {}

    def set_contribution(self, sub_id: str, filters: List[Filter]) -> Iterable[str]:
        """Replace ``sub_id``'s advertised filters; returns the orphans of the old ones."""
        orphans = self.remove_contribution(sub_id)
        self.subs[sub_id] = list(filters)
        for filter in filters:
            self.total += 1
            key = filter.key()
            count = self.key_count.get(key, 0)
            self.key_count[key] = count + 1
            if count == 0:
                self.rep[key] = filter
                groups = self.by_attrs.setdefault(filter.attribute_set, {})
                insort(groups.setdefault(pick_index_key(filter), []), filter, key=_cost)
            for ckey, constraint in {c.key(): c for c in filter.constraints}.items():
                ccount = self.constraint_count.get(ckey, 0)
                self.constraint_count[ckey] = ccount + 1
                if ccount == 0:
                    self.constraint_rep[ckey] = constraint
        return orphans

    def remove_contribution(self, sub_id: str) -> Iterable[str]:
        """Withdraw ``sub_id``'s advertised filters; returns the subscriptions
        that were waiting on a filter this was the last advertisement of."""
        orphans: Set[str] = set()
        for filter in self.subs.pop(sub_id, ()):
            self.total -= 1
            key = filter.key()
            count = self.key_count[key] - 1
            if count:
                self.key_count[key] = count
            else:
                del self.key_count[key]
                rep = self.rep.pop(key)
                groups = self.by_attrs[rep.attribute_set]
                pin = pick_index_key(rep)
                group = groups[pin]
                del group[next(i for i, member in enumerate(group) if member is rep)]
                if not group:
                    del groups[pin]
                    if not groups:
                        del self.by_attrs[rep.attribute_set]
                for covered_key in self.witnessed.pop(key, ()):
                    del self.witness[covered_key]
                    orphans.update(self.waiting.pop(covered_key, ()))
            for ckey in {c.key() for c in filter.constraints}:
                ccount = self.constraint_count[ckey] - 1
                if ccount:
                    self.constraint_count[ckey] = ccount
                else:
                    del self.constraint_count[ckey]
                    del self.constraint_rep[ckey]
        return orphans

    def empty(self) -> bool:
        return not self.subs

    def set_witness(self, key: frozenset, witness: frozenset) -> None:
        self.witness[key] = witness
        self.witnessed.setdefault(witness, set()).add(key)

    def stop_waiting(self, sub_id: str, key: frozenset) -> None:
        """``sub_id`` no longer waits on filter ``key``; a memo entry nobody waits on goes too."""
        waiters = self.waiting.get(key)
        if waiters is not None:
            waiters.discard(sub_id)
            if waiters:
                return
            del self.waiting[key]
        witness = self.witness.pop(key, None)
        if witness is not None:
            covered = self.witnessed[witness]
            covered.discard(key)
            if not covered:
                del self.witnessed[witness]

    def merged_filter(self) -> Filter:
        """The constraint intersection of the advertised multiset.

        Identical (as a filter, i.e. by key) to folding ``Filter.merge`` over
        the multiset: ``merge`` keeps the constraints present in both
        operands, so the fold keeps exactly the constraints present in every
        advertised filter.
        """
        total = self.total
        return Filter(
            constraint
            for ckey, constraint in self.constraint_rep.items()
            if self.constraint_count[ckey] == total
        )


class _ForwardedFilterIndex:
    """Incrementally maintained cover structure over forwarded filters.

    One :class:`_LinkAdverts` per link.  A candidate is tested with
    ``Filter.covers`` itself: a memo keyed by filter-key pairs cost more than
    the test.  The per-link witness memo needs no bound — an entry dies with
    its witness, with the last subscription waiting on it, or with the link.
    """

    def __init__(self, hits=NULL_COUNTER) -> None:
        self._links: Dict[str, _LinkAdverts] = {}
        # live-metrics counter bumped whenever the index answers "covered"
        # (the forwarding suppressions the incremental structure exists for)
        self._hits = hits

    # ---------------------------------------------------------- maintenance
    def set_contribution(self, sub_id: str, link: str, filters: List[Filter]) -> Iterable[str]:
        state = self._links.get(link)
        if state is None:
            state = self._links[link] = _LinkAdverts()
        return state.set_contribution(sub_id, filters)

    def remove_contribution(self, sub_id: str, link: str) -> Iterable[str]:
        state = self._links.get(link)
        if state is None:
            return ()
        orphans = state.remove_contribution(sub_id)
        if state.empty():
            del self._links[link]
        return orphans

    def block(self, sub_id: str, link: str, key: frozenset) -> bool:
        """Park ``sub_id`` behind the advertisement that suppresses filter ``key`` on ``link``.

        False when no such advertisement is on record — the caller must then
        keep re-examining the pair itself.
        """
        state = self._links.get(link)
        if state is None:
            return False
        if key not in state.witness:
            if key not in state.key_count:
                return False
            # identity routing asks has_key(), which records nothing: the
            # identical advertisement is the witness
            state.set_witness(key, key)
        state.waiting.setdefault(key, set()).add(sub_id)
        return True

    def unblock(self, sub_id: str, key: frozenset) -> None:
        """``sub_id`` lost a table entry with filter ``key``: it waits on that nowhere."""
        for state in self._links.values():
            state.stop_waiting(sub_id, key)

    # --------------------------------------------------------------- queries
    def has_key(self, link: str, key: frozenset) -> bool:
        state = self._links.get(link)
        return state is not None and key in state.key_count

    def covered(self, link: str, filter: Filter) -> bool:
        """True iff some filter advertised over ``link`` covers ``filter``."""
        state = self._links.get(link)
        if state is None:
            return False
        key = filter.key()
        if key not in state.witness:
            witness = self._find_coverer(state, filter)
            if witness is None:
                return False
            state.set_witness(key, witness)
        self._hits.inc()
        return True

    def _find_coverer(self, state: _LinkAdverts, filter: Filter) -> Optional[frozenset]:
        # an identically-keyed filter advertised over the link covers it:
        # every constraint value equals itself (the value domain holds no NaN)
        if filter.key() in state.key_count:
            return filter.key()
        attrs = filter.attribute_set
        pins = _probe_groups(filter)
        for bucket_attrs, groups in state.by_attrs.items():
            if not bucket_attrs <= attrs:
                continue
            probed = groups.values() if pins is None else [groups[p] for p in pins if p in groups]
            for group in probed:
                for rep in group:
                    if rep.covers(filter):
                        return rep.key()
        return None

    def count(self, link: str) -> int:
        state = self._links.get(link)
        return state.total if state is not None else 0

    def merged_filter(self, link: str) -> Filter:
        return self._links[link].merged_filter()

    def subs_on(self, link: str) -> Dict[str, List[Filter]]:
        state = self._links.get(link)
        return dict(state.subs) if state is not None else {}


class RoutingStrategy:
    """Base class: subscription-forwarding behaviour shared by all strategies."""

    name = "abstract"
    #: strategies that consult the forwarded-filter set in needs_forwarding /
    #: merging; flooding and simple routing never do, so they skip the index.
    uses_advert_index = False

    def __init__(self, broker: RoutingBroker, metrics=None):
        self.broker = broker
        # the live covering-index-hits counter (a no-op when the owning
        # broker runs without a metrics registry or with metrics disabled)
        self._covering_hits = (
            metrics.counter("routing.covering_index_hits") if metrics is not None else NULL_COUNTER
        )
        # one per needs_forwarding() evaluated while re-advertising after an
        # unsubscription: the control path's work, wasted unless it forwards
        self._reforward_probes = (
            metrics.counter("routing.reforward_probes") if metrics is not None else NULL_COUNTER
        )
        # sub_id -> links this broker has forwarded the subscription to
        self._forwarded: Dict[str, Set[str]] = defaultdict(set)
        # link -> subscriptions to re-examine at the next re-advertisement
        # over it.  A subscription with a table entry off a link listed here,
        # not forwarded on it, is in the link's set or waits in the index
        # behind a live witness.  Nothing is known yet about a link not
        # listed: its first re-advertisement walks the table.
        self._pending: Dict[str, Set[str]] = {}
        self._index: Optional[_ForwardedFilterIndex] = (
            _ForwardedFilterIndex(hits=self._covering_hits) if self.uses_advert_index else None
        )
        # links whose advertised set changed since the last merge fold
        self._adverts_changed: Set[str] = set()

    # ------------------------------------------------------------ subscriptions
    def handle_subscribe(self, subscription: Subscription, from_link: str) -> None:
        """Record the subscription and forward it where the strategy requires."""
        table = self.broker.routing_table
        sub_id = subscription.sub_id
        replaced = [entry for entry in table.sub_entries(sub_id) if entry.link == from_link]
        table.add_subscription(subscription, from_link)
        if replaced:
            self._stop_waiting(sub_id, replaced)  # re-bound in place
        if sub_id in self._forwarded:
            # an already-forwarded subscription gained a routing-table entry:
            # its advertised contributions changed, in both modes
            self._refresh_contributions(sub_id)
        targets = self._forward_targets(from_link)
        for link in targets:
            if self.needs_forwarding(subscription.filter, link):
                self._do_forward(subscription, link)
            else:
                self._suppress(sub_id, subscription.filter, link)
        for link in self._pending:
            if link != from_link and link not in targets:
                # a link re-advertised over before that is no neighbour now
                self._fall_due((sub_id,), link)

    def handle_unsubscribe(self, sub_id: str, filter: Filter, from_link: str) -> None:
        """Remove the subscription's entry for ``from_link`` and propagate."""
        removed = self.broker.routing_table.remove(sub_id, link=from_link)
        # a duplicate or late unsubscription removes nothing, and must then
        # retract nothing: the advertisements belong to the surviving entry
        if removed:
            self._withdraw(sub_id, filter, removed)

    def on_entries_removed(self, entries: Iterable) -> None:
        """The broker removed routing-table entries in bulk (a link detach).

        They all left the table before any unsubscription is propagated, so
        none is re-advertised in place of another.  The index first
        re-derives the contributions of still-forwarded subscriptions from
        the live table.
        """
        entries = list(entries)
        for sub_id in {entry.sub_id for entry in entries}:
            if sub_id in self._forwarded:
                self._refresh_contributions(sub_id)
        for entry in entries:
            self._withdraw(entry.sub_id, entry.filter, [entry])

    def _withdraw(self, sub_id: str, filter: Filter, removed: Iterable) -> None:
        """Propagate the loss of ``sub_id``'s table entries ``removed``."""
        # sorted: emission order must not depend on set iteration order, so
        # runs are reproducible across processes/hash seeds (the golden-trace
        # transport cross-check hashes the delivered byte sequence)
        forwarded_links = sorted(self._forwarded.pop(sub_id, ()))
        self._stop_waiting(sub_id, removed)
        if self._index is not None:
            for link in forwarded_links:
                self._fall_due(self._index.remove_contribution(sub_id, link), link)
        self._adverts_changed.update(forwarded_links)
        for link in forwarded_links:
            self.broker.forward_unsubscribe(sub_id, filter, link)
        self._reforward_uncovered(forwarded_links)

    def _stop_waiting(self, sub_id: str, removed: Iterable) -> None:
        """``sub_id``'s table entries ``removed`` are gone: it waits on their
        filters no more.  An entry that survives them — relocation overlap, or
        the entry that replaced them — is due on every link: it may be
        neither forwarded nor waiting there now.  With none left it is due nowhere."""
        if self._index is not None:
            for entry in removed:
                self._index.unblock(sub_id, entry.filter.key())
        if self.broker.routing_table.has_subscription(sub_id):
            for link in self._pending:
                self._fall_due((sub_id,), link)
        else:  # a link no unsubscription drains would keep it for good
            for pending in self._pending.values():
                pending.discard(sub_id)

    # ------------------------------------------------------------- notifications
    def route(self, notification: Mapping, from_link: str) -> List[str]:
        """Return the links the notification must be forwarded on."""
        return self.broker.routing_table.destinations(notification, exclude=(from_link,))

    # ------------------------------------------------------------------ plumbing
    def needs_forwarding(self, filter: Filter, link: str) -> bool:
        """Strategy-specific test: must ``filter`` be advertised over ``link``?"""
        return True

    def _forward_targets(self, from_link: str) -> List[str]:
        return [link for link in self.broker.broker_neighbors() if link != from_link]

    def _do_forward(self, subscription: Subscription, link: str) -> None:
        sub_id = subscription.sub_id
        self._forwarded[sub_id].add(link)
        if self._index is not None:
            self._contribute(sub_id, (link,))
        self._adverts_changed.add(link)
        self.broker.forward_subscribe(subscription, link)

    def _refresh_contributions(self, sub_id: str) -> None:
        """A forwarded subscription's table entries changed: re-derive its
        index contributions and mark its links' advertised sets changed."""
        links = self._forwarded.get(sub_id, ())
        if self._index is not None:
            self._contribute(sub_id, links)
        self._adverts_changed.update(links)

    def _contribute(self, sub_id: str, links: Iterable[str]) -> None:
        """Advertise the filters of ``sub_id``'s live table entries on ``links``."""
        filters = [entry.filter for entry in self.broker.routing_table.sub_entries(sub_id)]
        for link in links:
            self._fall_due(self._index.set_contribution(sub_id, link, filters), link)

    def _fall_due(self, sub_ids: Iterable[str], link: str) -> None:
        """``sub_ids`` must be re-examined at the next re-advertisement over ``link``."""
        pending = self._pending.get(link)
        if pending is not None:
            pending.update(sub_ids)

    def _suppress(self, sub_id: str, filter: Filter, link: str) -> None:
        """``needs_forwarding`` found ``filter`` redundant on ``link``: park the
        pair behind its witness, or keep it due where the index knows none."""
        pending = self._pending.get(link)
        if pending is not None and (
            self._index is None or not self._index.block(sub_id, link, filter.key())
        ):
            pending.add(sub_id)

    def _reforward_due(self, links: List[str]) -> Dict[str, List[str]]:
        """The subscriptions to re-examine after an unsubscription, each with
        the ``links`` it is due on.

        Those due on each link, those whose witness just left among them; a
        pair left out waits behind a live witness, for which
        ``needs_forwarding`` would answer no.  Taking a link's set starts a
        fresh one.
        """
        due: Dict[str, List[str]] = {}
        for link in links:
            pending = self._pending.get(link)
            if pending is None:
                pending = self.broker.routing_table.subscription_ids()
            elif not pending:
                continue
            self._pending[link] = set()
            for sub_id in pending:
                due.setdefault(sub_id, []).append(link)
        return due

    def _reforward_uncovered(self, links: List[str]) -> None:
        """After an unsubscription, re-advertise suppressed subscriptions.

        A strategy that suppressed forwarding of subscription *T* because the
        removed subscription's filter made it redundant must now forward *T*,
        otherwise upstream brokers would stop routing T's notifications.
        """
        if not links:
            return
        table = self.broker.routing_table
        due = self._reforward_due(links)
        # Sorted, so shadow-forward emission order is independent of set/hash
        # ordering (byte-reproducible runs).
        for sub_id in sorted(due):
            # Group the candidate entries by link up front: a subscription
            # with entries on several links must produce at most one shadow
            # forward per link, but every entry's filter is tried — a later
            # entry's filter may be the one that actually needs re-advertising.
            forwarded = self._forwarded.get(sub_id, ())
            by_link: Dict[str, List] = {}
            for entry in table.sub_entries(sub_id):
                for link in due[sub_id]:
                    if link != entry.link and link not in forwarded:
                        by_link.setdefault(link, []).append(entry)
            for link, entries in by_link.items():
                for entry in entries:
                    if link in self._forwarded.get(sub_id, ()):
                        break  # an earlier entry already restored this pair
                    self._reforward_probes.inc()
                    if self.needs_forwarding(entry.filter, link):
                        shadow = Subscription(
                            sub_id=sub_id, filter=entry.filter, subscriber=entry.link
                        )
                        self._do_forward(shadow, link)
                    else:
                        self._suppress(sub_id, entry.filter, link)

    def resync_link(self, link: str) -> int:
        """Re-advertise this broker's routing state over ``link`` from scratch.

        The recovery half of the paper's subscription re-sync: after the
        peer behind ``link`` lost its state (a broker process restart) or
        the connection was re-established after a severed TCP link, the
        peer's view of our advertisements is void.  Forget everything this
        strategy believes it forwarded over the link, then re-forward the
        current routing table making the same decisions a fresh boot would
        — so the peer converges back to the steady-state advertisement set.
        Returns the number of subscriptions re-forwarded.
        """
        # the walk below re-decides every pair on the link without recording
        # the suppressed ones, so nothing is known about the link afterwards
        self._pending.pop(link, None)
        for sub_id in [s for s, links in self._forwarded.items() if link in links]:
            links = self._forwarded[sub_id]
            links.discard(link)
            if self._index is not None:
                self._index.remove_contribution(sub_id, link)
            if not links:
                del self._forwarded[sub_id]
        self._adverts_changed.add(link)
        if link not in self.broker.broker_neighbors():
            return 0
        table = self.broker.routing_table
        count = 0
        # sorted: re-advertisement order must not depend on set iteration
        # order (byte-reproducible runs), mirroring _reforward_uncovered
        for sub_id in sorted(table.subscription_ids()):
            for entry in table.entries_for_sub(sub_id):
                if entry.link == link:
                    continue  # never echo the peer's own subscriptions back
                if link in self._forwarded.get(sub_id, ()):
                    break  # an earlier entry already re-advertised this pair
                if self.needs_forwarding(entry.filter, link):
                    shadow = Subscription(sub_id=sub_id, filter=entry.filter, subscriber=entry.link)
                    self._do_forward(shadow, link)
                    count += 1
        return count

    # -------------------------------------------------------------------- stats
    def forwarded_count(self) -> int:
        return sum(len(links) for links in self._forwarded.values())


class FloodingRouting(RoutingStrategy):
    """Flood notifications everywhere; never forward subscriptions."""

    name = "flooding"

    def handle_subscribe(self, subscription: Subscription, from_link: str) -> None:
        # Only local knowledge: the routing table holds the entry so that the
        # border broker can deliver to its own clients.
        self.broker.routing_table.add_subscription(subscription, from_link)

    def handle_unsubscribe(self, sub_id: str, filter: Filter, from_link: str) -> None:
        self.broker.routing_table.remove(sub_id, link=from_link)

    def route(self, notification: Mapping, from_link: str) -> List[str]:
        destinations = [link for link in self.broker.broker_neighbors() if link != from_link]
        client_targets = self.broker.routing_table.destinations(
            notification, exclude=set(self.broker.broker_neighbors()) | {from_link}
        )
        return sorted(set(destinations) | set(client_targets))

    def resync_link(self, link: str) -> int:
        # flooding never advertises subscriptions, so there is nothing to
        # re-advertise after a peer restart
        return 0


class SimpleRouting(RoutingStrategy):
    """Forward every subscription to every neighbouring broker (the paper's default)."""

    name = "simple"


class IdentityRouting(SimpleRouting):
    """Suppress forwarding of filters identical to one already forwarded on a link."""

    name = "identity"
    uses_advert_index = True

    def needs_forwarding(self, filter: Filter, link: str) -> bool:
        return not self._index.has_key(link, filter.key())


class CoveringRouting(SimpleRouting):
    """Suppress forwarding of filters covered by one already forwarded on a link."""

    name = "covering"
    uses_advert_index = True

    def needs_forwarding(self, filter: Filter, link: str) -> bool:
        return not self._index.covered(link, filter)


class MergingRouting(CoveringRouting):
    """Covering plus imperfect merging of forwarded filters.

    When more than ``merge_threshold`` distinct filters have been forwarded on
    a link, the strategy advertises a single merged filter that covers them
    and retracts the individual advertisements.  The merge is *imperfect*
    (it may be broader than the union), which increases notification traffic
    towards this broker but never loses notifications.

    The fold is only recomputed for links whose advertised set actually
    changed since the last call (``_adverts_changed``), and the merged filter
    is read straight from the index's constraint counts instead of
    re-folding the merge chain.
    """

    name = "merging"
    merge_threshold = 4

    def __init__(self, broker: RoutingBroker, metrics=None):
        super().__init__(broker, metrics=metrics)
        # link -> merged subscription currently advertised (if any)
        self._merged_subs: Dict[str, Subscription] = {}

    def handle_subscribe(self, subscription: Subscription, from_link: str) -> None:
        super().handle_subscribe(subscription, from_link)
        for link in self._forward_targets(from_link):
            self._maybe_merge(link)

    def resync_link(self, link: str) -> int:
        # the peer lost the merged advertisement with the rest of its state;
        # drop the record so a later fold re-advertises instead of assuming
        # the peer still holds an identical merged filter
        self._merged_subs.pop(link, None)
        count = super().resync_link(link)
        self._maybe_merge(link)
        return count

    def _maybe_merge(self, link: str) -> None:
        if link not in self._adverts_changed:
            return  # advertised set unchanged since the last fold
        self._adverts_changed.discard(link)
        merged_filter = self._merged_filter(link)
        if merged_filter is None:
            return
        previous = self._merged_subs.get(link)
        if previous is not None and previous.filter == merged_filter:
            return
        merged = Subscription(
            sub_id=next_subscription_id("merged"),
            filter=merged_filter,
            subscriber="<merged>",
        )
        if previous is not None:
            self.broker.forward_unsubscribe(previous.sub_id, previous.filter, link)
        self.broker.forward_subscribe(merged, link)
        self._merged_subs[link] = merged
        self._retract_covered_adverts(merged_filter, link)

    def _merged_filter(self, link: str) -> Optional[Filter]:
        """The filter to advertise over ``link`` in place of its fine-grained
        advertisements; ``None`` while they number no more than the threshold."""
        if self._index.count(link) <= self.merge_threshold:
            return None
        return self._index.merged_filter(link)

    def _retract_covered_adverts(self, merged_filter: Filter, link: str) -> None:
        """Retract the fine-grained advertisements now covered by the merge."""
        link_subs = self._index.subs_on(link)
        # iterate in _forwarded insertion order: the same retraction order
        # the scan oracle produces
        for sub_id in list(self._forwarded):
            filters = link_subs.get(sub_id)
            if filters and all(merged_filter.covers(filter) for filter in filters):
                self.broker.forward_unsubscribe(sub_id, filters[0], link)
                self._forwarded[sub_id].discard(link)
                # the merged advertisement is not in the index: the pair is
                # due, with whatever waited on its filters
                self._fall_due((sub_id, *self._index.remove_contribution(sub_id, link)), link)
                self._adverts_changed.add(link)


STRATEGIES = {
    FloodingRouting.name: FloodingRouting,
    SimpleRouting.name: SimpleRouting,
    IdentityRouting.name: IdentityRouting,
    CoveringRouting.name: CoveringRouting,
    MergingRouting.name: MergingRouting,
}


def make_strategy(name: str, broker: RoutingBroker, metrics=None) -> RoutingStrategy:
    """Instantiate the routing strategy called ``name`` for ``broker``."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    return cls(broker, metrics=metrics)
