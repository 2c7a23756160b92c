"""Property-based tests (hypothesis) for the filter algebra.

Key invariants:

* soundness of covering: if ``f.covers(g)`` then every notification matching
  ``g`` matches ``f``;
* soundness of non-overlap: if ``not f.overlaps(g)`` then no notification
  matches both;
* the merge of two filters covers both operands;
* filter equality is consistent with hashing, and filters with equal keys
  match alike;
* the compiled ``Filter.matches`` closure, whatever shape it was specialised
  to, answers exactly like the per-constraint reference on every value type.

Values are drawn from the whole value domain: ``str``, ``int``, ``bool``,
``float`` (signed zeros, infinities, and NaN in notifications only),
``None`` and tuples of them.
"""

from __future__ import annotations

import math
from decimal import Decimal
from types import MappingProxyType

import pytest
from helpers import respelt
from hypothesis import given, settings, strategies as st

from repro.net.wire import WireError
from repro.pubsub.filters import Equals, Exists, Filter, InSet, NotEquals, Prefix, Range
from repro.pubsub.notification import Notification

ATTRIBUTES = ["service", "location", "value", "priority"]
STRING_VALUES = ["a", "b", "c", "room-1", "room-2", "news", "news/sport"]

#: the scalars of the value domain
SCALARS = st.one_of(
    st.sampled_from(STRING_VALUES),
    st.integers(-5, 25),
    st.booleans(),
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, math.inf, -math.inf]),
)
#: every value a constraint may hold: a scalar or a tuple of them, no NaN
VALUES = SCALARS | st.tuples(SCALARS) | st.tuples(SCALARS, SCALARS)
#: every value a notification may carry: NaN too, alone or in a tuple
NOTIFICATION_VALUES = VALUES | st.just(math.nan) | st.tuples(SCALARS, st.just(math.nan))
#: range bounds: ints, floats and a bool, which ``Range`` reads as its int
BOUNDS = st.integers(-10, 30) | st.sampled_from([-math.inf, math.inf, 2.5, -0.0, True])


@st.composite
def constraints(draw):
    attribute = draw(st.sampled_from(ATTRIBUTES))
    kind = draw(st.sampled_from(["eq", "ne", "in", "range", "prefix"]))
    if kind == "eq":
        return Equals(attribute, draw(VALUES))
    if kind == "ne":
        return NotEquals(attribute, draw(VALUES))
    if kind == "in":
        return InSet(attribute, draw(st.lists(VALUES, min_size=1, max_size=4)))
    if kind == "range":
        low, high = sorted((draw(BOUNDS), draw(BOUNDS)))
        return Range(attribute, low=low, high=high)
    prefix = draw(st.sampled_from(["n", "ne", "news", "news/", "room"]))
    return Prefix(attribute, prefix)


@st.composite
def filters(draw):
    return Filter(draw(st.lists(constraints(), min_size=0, max_size=3)))


@st.composite
def notifications(draw):
    attrs = {}
    for attribute in ATTRIBUTES:
        if draw(st.booleans()):
            attrs[attribute] = draw(NOTIFICATION_VALUES | st.integers(-10, 30))
    return attrs


@settings(max_examples=200, deadline=None)
@given(f=filters(), g=filters(), n=notifications())
def test_covering_is_sound(f, g, n):
    if f.covers(g) and g.matches(n):
        assert f.matches(n)


@settings(max_examples=200, deadline=None)
@given(f=filters(), g=filters(), n=notifications())
def test_non_overlap_is_sound(f, g, n):
    if not f.overlaps(g):
        assert not (f.matches(n) and g.matches(n))


@settings(max_examples=150, deadline=None)
@given(f=filters(), g=filters())
def test_merge_covers_both_operands(f, g):
    merged = f.merge(g)
    assert merged.covers(f)
    assert merged.covers(g)


@settings(max_examples=150, deadline=None)
@given(f=filters(), g=filters(), n=notifications())
def test_conjunction_is_intersection(f, g, n):
    combined = Filter(f.constraints + g.constraints)
    assert combined.matches(n) == (f.matches(n) and g.matches(n))


@settings(max_examples=150, deadline=None)
@given(f=filters())
def test_covering_reflexive(f):
    assert f.covers(f)


@settings(max_examples=150, deadline=None)
@given(f=filters())
def test_empty_filter_covers_everything(f):
    assert Filter(()).covers(f)


@settings(max_examples=150, deadline=None)
@given(f=filters(), g=filters())
def test_equality_consistent_with_hash(f, g):
    if f == g:
        assert hash(f) == hash(g)


@settings(max_examples=300, deadline=None)
@given(
    f=filters(),
    g=filters(),
    twin=st.booleans(),
    ns=st.lists(notifications(), min_size=1, max_size=6),
)
def test_equal_keys_match_alike(f, g, twin, ns):
    """Equal ``key()`` ⇒ equal ``matches`` on every drawn notification: the
    key is what identity routing, the witness record and the replicator
    treat as the filter."""
    if twin:
        g = respelt(f)
        assert g.key() == f.key()
    if f.key() == g.key():
        assert f == g and hash(f) == hash(g)
        for n in ns:
            assert f.matches(n) == g.matches(n), (f, g, n)


@settings(max_examples=150, deadline=None)
@given(f=filters(), n=notifications())
def test_match_is_deterministic(f, n):
    assert f.matches(n) == f.matches(n)


# ------------------------------------------------------------ the compiled kernel


class Level(int):
    """An ``int`` subclass: a number to ``Range``, but never the exact-class fast path."""


#: every kind of value a constraint may hold, an int subclass included
KERNEL_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(STRING_VALUES),
    st.none(),
    st.builds(Level, st.integers(-3, 12)),
    st.tuples(st.integers(0, 2) | st.booleans()),
)
#: every kind of value a notification may carry
KERNEL_NOTIFICATION_VALUES = KERNEL_VALUES | st.just(math.nan)
KERNEL_BOUNDS = st.integers(-3, 12) | st.sampled_from([-math.inf, math.inf, 2.5, False])


@st.composite
def kernel_constraints(draw):
    attribute = draw(st.sampled_from(ATTRIBUTES))
    kind = draw(st.sampled_from(["exists", "eq", "ne", "in", "range", "prefix"]))
    if kind == "exists":
        return Exists(attribute)
    if kind == "eq":
        return Equals(attribute, draw(KERNEL_VALUES))
    if kind == "ne":
        return NotEquals(attribute, draw(KERNEL_VALUES))
    if kind == "in":
        return InSet(attribute, draw(st.lists(KERNEL_VALUES, max_size=4)))
    if kind == "range":
        low, high = sorted((draw(KERNEL_BOUNDS), draw(KERNEL_BOUNDS)))
        return Range(attribute, low, high, draw(st.booleans()), draw(st.booleans()))
    return Prefix(attribute, draw(st.sampled_from(["", "n", "news", "room"])))


@settings(max_examples=600, deadline=None)
@given(
    constraint_list=st.lists(kernel_constraints(), min_size=0, max_size=4),
    attrs=st.dictionaries(st.sampled_from(ATTRIBUTES), KERNEL_NOTIFICATION_VALUES),
)
def test_compiled_matches_equals_the_reference(constraint_list, attrs):
    expected = all(
        c.attribute in attrs and bool(c.matches_value(attrs[c.attribute])) for c in constraint_list
    )
    f = Filter(constraint_list)
    for spelling in (attrs, Notification(attrs), MappingProxyType(attrs)):
        assert bool(f.matches(spelling)) is expected, (f, attrs, type(spelling).__name__)
        assert bool(f(spelling)) is expected


def reference_covers(f: Filter, g: Filter) -> bool:
    """``f.covers(g)`` spelt out per constraint: each constraint of ``f``
    covers some constraint of ``g`` on its attribute, tried in order; a
    constraint whose attribute ``g`` leaves free is covered by none, and is
    found before any constraint is asked."""
    if not {c.attribute for c in f.constraints} <= {c.attribute for c in g.constraints}:
        return False
    return all(
        any(mine.covers(theirs) for theirs in g.constraints if theirs.attribute == mine.attribute)
        for mine in f.constraints
    )


@settings(max_examples=600, deadline=None)
@given(
    mine=st.lists(kernel_constraints(), min_size=0, max_size=4),
    theirs=st.lists(kernel_constraints(), min_size=0, max_size=4),
)
def test_covers_equals_the_reference(mine, theirs):
    """The kernel reads the coveree's constraints grouped by attribute, built
    on first use and cached on the filter: its answer is the reference rule's
    in both argument orders, and again when asked a second time."""
    f, g = Filter(mine), Filter(theirs)
    for coverer, coveree in ((f, g), (g, f), (f, f), (g, g)):
        expected = reference_covers(coverer, coveree)
        for _ in range(2):  # the second time from the cached grouping
            assert coverer.covers(coveree) == expected, (coverer, coveree)


#: values outside the domain (what the kernel strategies once drew): each is
#: refused where it would enter, by a constraint constructor or at publish
OUTSIDE = [[1, 2], {1}, frozenset({1}), {"k": 1}, b"x", Decimal("1"), Decimal("NaN"), (1, [2])]


@pytest.mark.parametrize("value", OUTSIDE, ids=repr)
def test_values_outside_the_domain_are_refused(value):
    for build in (Equals, NotEquals, lambda attribute, v: InSet(attribute, [v])):
        with pytest.raises(WireError, match="outside the value domain"):
            build("value", value)
    with pytest.raises(WireError, match="outside the value domain"):
        Notification({"value": value}).stamped(published_at=0.0, publisher="p")
