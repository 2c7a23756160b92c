"""Content-based filters.

"Filters are boolean-valued functions over notifications and a common way of
implementing subscriptions.  The most flexible scheme for specifying these
filters is content-based filtering, which utilizes predicates on the entire
content of a notification." (Sect. 2)

A :class:`Filter` is a conjunction of per-attribute :class:`Constraint`
objects, the standard model used by REBECA, SIENA and JEDI.  Filters support
the operations the routing algorithms need:

* ``matches(notification)`` — evaluation;
* ``covers(other)`` — conservative implication test, used by covering-based
  routing and by the replicator to avoid duplicating subscriptions;
* ``overlaps(other)`` — conservative satisfiability test of the conjunction;
* ``merge(other)`` — a filter covering both operands (perfect merging when
  the operands differ in a single attribute, otherwise an attribute-wise
  widening), used by merging-based routing.

Covering is *conservative*: ``covers`` returning ``True`` guarantees
implication, returning ``False`` makes no claim.  That is the soundness
direction required for correct (if occasionally less optimised) routing.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .notification import Notification

# --------------------------------------------------------------------------- operators

#: Sentinel distinguishing "attribute absent" from any real attribute value.
_MISSING = object()


def _always_true(value: Any) -> bool:
    return True


def _is_number(value: Any) -> bool:
    """An ``int`` or ``float`` (subclasses included) that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Constraint:
    """A predicate over a single notification attribute.

    Constraints are treated as immutable once constructed: their identity
    key and hash are computed once and cached, and :meth:`value_test`
    returns a plain callable that the filter compiler chains into a fast
    evaluation path.
    """

    __slots__ = ("attribute", "_key", "_hash")

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._key: Optional[Tuple] = None
        self._hash: Optional[int] = None

    # -- evaluation ----------------------------------------------------------
    def matches_value(self, value: Any) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def matches(self, notification: Mapping[str, Any]) -> bool:
        if self.attribute not in notification:
            return False
        return self.matches_value(notification[self.attribute])

    def value_test(self) -> Any:
        """A ``value -> bool`` callable equivalent to :meth:`matches_value`.

        Subclasses override this to return a closure without per-call
        attribute lookups; the default is the bound method itself.
        """
        return self.matches_value

    # -- algebra -------------------------------------------------------------
    def covers(self, other: "Constraint") -> bool:
        """Conservative: True only if every value accepted by ``other`` is accepted by self."""
        raise NotImplementedError  # pragma: no cover - interface

    def overlaps(self, other: "Constraint") -> bool:
        """Conservative satisfiability of the conjunction; default: assume they might overlap."""
        return True

    def _make_key(self) -> Tuple:  # pragma: no cover - interface
        raise NotImplementedError

    def key(self) -> Tuple:
        """A hashable identity used for equality and routing-table deduplication."""
        key = self._key
        if key is None:
            key = self._key = self._make_key()
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        result = self._hash
        if result is None:
            result = self._hash = hash(self.key())
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

    def describe(self) -> str:  # pragma: no cover - overridden
        return self.attribute


class Exists(Constraint):
    """Matches any notification that carries the attribute at all."""

    def matches_value(self, value: Any) -> bool:
        return True

    def value_test(self):
        return _always_true

    def covers(self, other: Constraint) -> bool:
        return other.attribute == self.attribute

    def _make_key(self) -> Tuple:
        return ("exists", self.attribute)

    def describe(self) -> str:
        return f"{self.attribute} exists"


class Equals(Constraint):
    __slots__ = ("value",)

    def __init__(self, attribute: str, value: Any):
        super().__init__(attribute)
        self.value = value

    def matches_value(self, value: Any) -> bool:
        return value == self.value

    def value_test(self):
        expected = self.value

        def test(value: Any, _expected=expected) -> bool:
            return value == _expected

        return test

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return other.value == self.value
        if isinstance(other, InSet):
            return set(other.values) == {self.value}
        return False

    def overlaps(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return True
        return other.matches_value(self.value)

    def _make_key(self) -> Tuple:
        return ("eq", self.attribute, _hashable(self.value))

    def describe(self) -> str:
        return f"{self.attribute} == {self.value!r}"


class NotEquals(Constraint):
    __slots__ = ("value",)

    def __init__(self, attribute: str, value: Any):
        super().__init__(attribute)
        self.value = value

    def matches_value(self, value: Any) -> bool:
        return value != self.value

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return other.value != self.value
        if isinstance(other, InSet):
            return self.value not in other.values
        if isinstance(other, NotEquals):
            return other.value == self.value
        return False

    def _make_key(self) -> Tuple:
        return ("ne", self.attribute, _hashable(self.value))

    def describe(self) -> str:
        return f"{self.attribute} != {self.value!r}"


class InSet(Constraint):
    """Matches when the attribute value is a member of a finite set.

    This is the constraint used by location-dependent subscriptions: the
    ``myloc`` marker is bound to the set of locations appropriate for the
    client's current position (Sect. 1).
    """

    __slots__ = ("values",)

    def __init__(self, attribute: str, values: Iterable[Any]):
        super().__init__(attribute)
        self.values = frozenset(values)

    def matches_value(self, value: Any) -> bool:
        try:
            return value in self.values
        except TypeError:  # unhashable notification value can never be a member
            return False

    def value_test(self):
        members = self.values

        def test(value: Any, _members=members) -> bool:
            try:
                return value in _members
            except TypeError:  # unhashable notification value
                return False

        return test

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return other.value in self.values
        if isinstance(other, InSet):
            return other.values <= self.values
        return False

    def overlaps(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return True
        if isinstance(other, Equals):
            return other.value in self.values
        if isinstance(other, InSet):
            return bool(self.values & other.values)
        return any(other.matches_value(v) for v in self.values)

    def _make_key(self) -> Tuple:
        return ("in", self.attribute, tuple(sorted(map(repr, self.values))))

    def describe(self) -> str:
        return f"{self.attribute} in {{{', '.join(sorted(map(repr, self.values)))}}}"


class Range(Constraint):
    """Matches numeric values inside a (possibly half-open) interval."""

    __slots__ = ("low", "high", "include_low", "include_high")

    def __init__(
        self,
        attribute: str,
        low: float = -math.inf,
        high: float = math.inf,
        include_low: bool = True,
        include_high: bool = True,
    ):
        super().__init__(attribute)
        if low != low or high != high:
            raise ValueError(f"NaN bound for {attribute}: [{low}, {high}]")
        if low > high:
            raise ValueError(f"empty range for {attribute}: [{low}, {high}]")
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def matches_value(self, value: Any) -> bool:
        if not _is_number(value):
            return False
        if value != value:  # NaN lies inside no interval
            return False
        if value < self.low or (value == self.low and not self.include_low):
            return False
        if value > self.high or (value == self.high and not self.include_high):
            return False
        return True

    def value_test(self):
        low, high = self.low, self.high
        # one of four specialized closures: a single chained comparison per
        # evaluation, and NaN fails every variant because all its comparisons
        # are false (the chain is phrased positively).  An exact ``int`` or
        # ``float`` skips the two isinstance calls; ``bool``, subclasses and
        # everything non-numeric take the general line
        if self.include_low:
            if self.include_high:

                def test(value: Any, _low=low, _high=high) -> bool:
                    cls = value.__class__
                    if cls is int or cls is float:
                        return _low <= value <= _high
                    return _is_number(value) and _low <= value <= _high

            else:

                def test(value: Any, _low=low, _high=high) -> bool:
                    cls = value.__class__
                    if cls is int or cls is float:
                        return _low <= value < _high
                    return _is_number(value) and _low <= value < _high

        elif self.include_high:

            def test(value: Any, _low=low, _high=high) -> bool:
                cls = value.__class__
                if cls is int or cls is float:
                    return _low < value <= _high
                return _is_number(value) and _low < value <= _high

        else:

            def test(value: Any, _low=low, _high=high) -> bool:
                cls = value.__class__
                if cls is int or cls is float:
                    return _low < value < _high
                return _is_number(value) and _low < value < _high

        return test

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return isinstance(other.value, (int, float)) and self.matches_value(other.value)
        if isinstance(other, InSet):
            return all(isinstance(v, (int, float)) and self.matches_value(v) for v in other.values)
        if isinstance(other, Range):
            low_ok = self.low < other.low or (
                self.low == other.low and (self.include_low or not other.include_low)
            )
            high_ok = self.high > other.high or (
                self.high == other.high and (self.include_high or not other.include_high)
            )
            return low_ok and high_ok
        return False

    def overlaps(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return True
        if isinstance(other, Equals):
            return self.matches_value(other.value)
        if isinstance(other, InSet):
            return any(self.matches_value(v) for v in other.values)
        if isinstance(other, Range):
            if self.high < other.low or other.high < self.low:
                return False
            if self.high == other.low:
                return self.include_high and other.include_low
            if other.high == self.low:
                return other.include_high and self.include_low
            return True
        return True

    def _make_key(self) -> Tuple:
        return ("range", self.attribute, self.low, self.high, self.include_low, self.include_high)

    def bounds(self) -> Tuple[float, float]:
        """The (low, high) boundary pair, for segment-bucket index construction.

        Inclusivity is intentionally dropped: an index built from these
        bounds yields a superset of the matching candidates, and the full
        constraint evaluation that follows restores exactness.
        """
        return (self.low, self.high)

    def describe(self) -> str:
        left = "[" if self.include_low else "("
        right = "]" if self.include_high else ")"
        return f"{self.attribute} in {left}{self.low}, {self.high}{right}"


def LessThan(attribute: str, value: float) -> Range:
    """``attribute < value``."""
    return Range(attribute, high=value, include_high=False)


def AtMost(attribute: str, value: float) -> Range:
    """``attribute <= value``."""
    return Range(attribute, high=value, include_high=True)


def GreaterThan(attribute: str, value: float) -> Range:
    """``attribute > value``."""
    return Range(attribute, low=value, include_low=False)


def AtLeast(attribute: str, value: float) -> Range:
    """``attribute >= value``."""
    return Range(attribute, low=value, include_low=True)


class Prefix(Constraint):
    """Matches string values starting with a given prefix."""

    __slots__ = ("prefix",)

    def __init__(self, attribute: str, prefix: str):
        super().__init__(attribute)
        self.prefix = prefix

    def matches_value(self, value: Any) -> bool:
        return isinstance(value, str) and value.startswith(self.prefix)

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return isinstance(other.value, str) and other.value.startswith(self.prefix)
        if isinstance(other, InSet):
            return all(isinstance(v, str) and v.startswith(self.prefix) for v in other.values)
        if isinstance(other, Prefix):
            return other.prefix.startswith(self.prefix)
        return False

    def overlaps(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return True
        if isinstance(other, Prefix):
            return other.prefix.startswith(self.prefix) or self.prefix.startswith(other.prefix)
        if isinstance(other, Equals):
            return self.matches_value(other.value)
        if isinstance(other, InSet):
            return any(self.matches_value(v) for v in other.values)
        return True

    def _make_key(self) -> Tuple:
        return ("prefix", self.attribute, self.prefix)

    def describe(self) -> str:
        return f"{self.attribute} startswith {self.prefix!r}"


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, set)):
        return tuple(sorted(map(repr, value)))
    if isinstance(value, dict):
        return tuple(sorted((k, repr(v)) for k, v in value.items()))
    return value


# --------------------------------------------------------------------------- filters


def _compile_matches(constraints: Tuple[Constraint, ...]):
    """Compile a conjunction of constraints into one ``mapping -> bool`` closure.

    The closure is picked by the conjunction's *shape*: one constraint and
    two constraints are unrolled (no loop, no tuple unpacking), and an
    ``Equals`` in first position is compared inline instead of through its
    ``value_test`` closure; any other shape runs the generic loop.  Each
    constraint's attribute and test are captured once, and a missing
    attribute is detected with a sentinel instead of a containment probe
    followed by a second lookup.  Constraints are evaluated in order in
    every shape.
    """
    if not constraints:
        return _match_everything
    first = constraints[0]
    a = first.attribute
    if len(constraints) == 1:
        if first.__class__ is Equals:

            def matches_equal(notification, _a=a, _e=first.value) -> bool:
                value = notification.get(_a, _MISSING)
                return value is not _MISSING and value == _e

            return matches_equal

        def matches_one(notification, _a=a, _s=first.value_test()) -> bool:
            value = notification.get(_a, _MISSING)
            return value is not _MISSING and _s(value)

        return matches_one

    if len(constraints) == 2:
        b, t = constraints[1].attribute, constraints[1].value_test()
        if first.__class__ is Equals:

            def matches_equal_and(notification, _a=a, _e=first.value, _b=b, _t=t) -> bool:
                value = notification.get(_a, _MISSING)
                if value is _MISSING or not value == _e:
                    return False
                value = notification.get(_b, _MISSING)
                return value is not _MISSING and _t(value)

            return matches_equal_and

        def matches_two(notification, _a=a, _s=first.value_test(), _b=b, _t=t) -> bool:
            value = notification.get(_a, _MISSING)
            if value is _MISSING or not _s(value):
                return False
            value = notification.get(_b, _MISSING)
            return value is not _MISSING and _t(value)

        return matches_two

    tests = tuple((c.attribute, c.value_test()) for c in constraints)

    def matches(notification: Mapping[str, Any], _tests=tests) -> bool:
        get = notification.get
        for attribute, test in _tests:
            value = get(attribute, _MISSING)
            if value is _MISSING or not test(value):
                return False
        return True

    return matches


def _match_everything(notification: Mapping[str, Any]) -> bool:
    return True


class Filter:
    """A conjunction of per-attribute constraints.

    The empty filter matches every notification (it is the unit of the
    conjunction); :func:`match_all` returns it explicitly.

    Filters are immutable: the constraint tuple is fixed at construction, at
    which point ``matches`` — an instance attribute, not a method — is set to
    the closure :func:`_compile_matches` picks for the filter's shape, so
    ``filter.matches(mapping)`` is a single Python frame for any ``Mapping``
    (True iff every constraint matches).  ``key()``/``hash()`` are cached on
    first use.  Every routing-table candidate pays full filter evaluation, so
    this is one of the hottest code paths in the system.
    """

    __slots__ = ("_constraints", "matches", "_key", "_hash", "_attrs", "_wire_bin")

    #: ``matches(mapping) -> bool``: the compiled conjunction
    matches: Callable[[Mapping[str, Any]], bool]

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.matches = _compile_matches(self._constraints)
        self._key: Optional[Tuple] = None
        self._hash: Optional[int] = None
        self._attrs: Optional[frozenset] = None
        # the binary wire fragment, cached by repro.net.wire (filters are
        # immutable); never part of equality or hashing
        self._wire_bin: Optional[bytes] = None

    def __call__(self, notification: Mapping[str, Any]) -> bool:
        return self.matches(notification)

    # ------------------------------------------------------------------ views
    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return self._constraints

    @property
    def attributes(self) -> List[str]:
        """The attribute names constrained by this filter (duplicates removed, ordered)."""
        seen: List[str] = []
        for constraint in self._constraints:
            if constraint.attribute not in seen:
                seen.append(constraint.attribute)
        return seen

    def constraints_on(self, attribute: str) -> List[Constraint]:
        return [c for c in self._constraints if c.attribute == attribute]

    @property
    def attribute_set(self) -> frozenset:
        """Cached frozenset of constrained attribute names.

        ``G.covers(F)`` requires every attribute constrained by ``G`` to also
        be constrained by ``F``, so this set doubles as the covering
        candidate-pruning signature used by the incremental routing index.
        """
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = frozenset(c.attribute for c in self._constraints)
        return attrs

    def is_empty(self) -> bool:
        """True for the match-everything filter."""
        return not self._constraints

    # ---------------------------------------------------------------- algebra
    def covers(self, other: "Filter") -> bool:
        """Conservative implication: True only if every notification matching
        ``other`` also matches ``self``.

        Rule: for each constraint ``c`` of ``self`` there must exist a
        constraint of ``other`` on the same attribute that is covered by
        ``c``.  The empty filter covers everything.
        """
        if not self.attribute_set <= other.attribute_set:
            return False
        for mine in self._constraints:
            others = other.constraints_on(mine.attribute)
            if not others:
                return False
            if not any(mine.covers(theirs) for theirs in others):
                return False
        return True

    def overlaps(self, other: "Filter") -> bool:
        """Conservative satisfiability of ``self AND other``.

        Returns ``False`` only when two constraints on the same attribute are
        provably disjoint.
        """
        for mine in self._constraints:
            for theirs in other.constraints_on(mine.attribute):
                if not mine.overlaps(theirs) and not theirs.overlaps(mine):
                    return False
        return True

    def merge(self, other: "Filter") -> "Filter":
        """Return a filter that covers both ``self`` and ``other``.

        Constraints present (identically) in both filters are kept; all other
        constraints are dropped, which widens the filter — the standard safe
        merge used by merging-based routing.
        """
        mine = {c.key(): c for c in self._constraints}
        theirs = {c.key(): c for c in other._constraints}
        shared = [c for key, c in mine.items() if key in theirs]
        return Filter(shared)

    def conjoin(self, other: "Filter") -> "Filter":
        """Return the conjunction of both filters (all constraints of both)."""
        return Filter(self._constraints + other._constraints)

    # ------------------------------------------------------------------- misc
    def key(self) -> Tuple:
        key = self._key
        if key is None:
            key = self._key = tuple(sorted((c.key() for c in self._constraints), key=repr))
        return key

    def __eq__(self, other: object) -> bool:
        if other is self:  # a memoised template binding meets itself
            return True
        if not isinstance(other, Filter):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        result = self._hash
        if result is None:
            result = self._hash = hash(self.key())
        return result

    def __repr__(self) -> str:
        if not self._constraints:
            return "Filter(<match-all>)"
        return "Filter(" + " AND ".join(c.describe() for c in self._constraints) + ")"

    def estimated_size(self) -> int:
        """Abstract byte size of the filter, for control-message overhead metrics."""
        return 8 + 24 * len(self._constraints)


def match_all() -> Filter:
    """The filter that matches every notification."""
    return Filter(())


def filter_from_dict(spec: Mapping[str, Any]) -> Filter:
    """Build a filter from a simple ``{attribute: value}`` specification.

    Values map to constraints as follows: a set/frozenset/list/tuple becomes
    :class:`InSet`, a 2-tuple tagged ``("range", (low, high))`` becomes
    :class:`Range`, everything else becomes :class:`Equals`.  This is the
    convenience entry point used by the examples.
    """
    constraints: List[Constraint] = []
    for attribute, value in spec.items():
        if isinstance(value, (set, frozenset, list)):
            constraints.append(InSet(attribute, value))
        elif isinstance(value, tuple) and len(value) == 2 and value[0] == "range":
            low, high = value[1]
            constraints.append(Range(attribute, low=low, high=high))
        else:
            constraints.append(Equals(attribute, value))
    return Filter(constraints)


def conjunction(*constraints: Constraint) -> Filter:
    """Build a filter from constraint objects: ``conjunction(Equals("a", 1), Range("b", 0, 5))``."""
    return Filter(constraints)
