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
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .notification import check_value

# --------------------------------------------------------------------------- operators

#: Sentinel distinguishing "attribute absent" from any real attribute value.
_MISSING = object()


def _always_true(value: Any) -> bool:
    return True


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
        self.value = check_value(value, constraint=True)

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
            return other.values == {self.value}
        return False

    def overlaps(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return True
        return other.matches_value(self.value)

    def _make_key(self) -> Tuple:
        return ("eq", self.attribute, self.value)

    def describe(self) -> str:
        return f"{self.attribute} == {self.value!r}"


class NotEquals(Constraint):
    __slots__ = ("value",)

    def __init__(self, attribute: str, value: Any):
        super().__init__(attribute)
        self.value = check_value(value, constraint=True)

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
        return ("ne", self.attribute, self.value)

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
        self.values = frozenset(check_value(tuple(values), constraint=True))

    def matches_value(self, value: Any) -> bool:
        return value in self.values

    def value_test(self):
        return self.values.__contains__

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
        return ("in", self.attribute, self.values)

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
        for bound in (low, high):
            if not isinstance(bound, (int, float)):  # a bool is its int
                raise ValueError(f"non-numeric bound for {attribute}: {bound!r}")
        if low != low or high != high:
            raise ValueError(f"NaN bound for {attribute}: [{low}, {high}]")
        if low > high:
            raise ValueError(f"empty range for {attribute}: [{low}, {high}]")
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def matches_value(self, value: Any) -> bool:
        if not isinstance(value, (int, float)):  # a bool is its int
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
        # ``float`` skips the isinstance call; ``bool`` (compared as its int),
        # subclasses and everything non-numeric take the general line
        if self.include_low:
            if self.include_high:

                def test(value: Any, _low=low, _high=high) -> bool:
                    cls = value.__class__
                    if cls is int or cls is float:
                        return _low <= value <= _high
                    return isinstance(value, (int, float)) and _low <= value <= _high

            else:

                def test(value: Any, _low=low, _high=high) -> bool:
                    cls = value.__class__
                    if cls is int or cls is float:
                        return _low <= value < _high
                    return isinstance(value, (int, float)) and _low <= value < _high

        elif self.include_high:

            def test(value: Any, _low=low, _high=high) -> bool:
                cls = value.__class__
                if cls is int or cls is float:
                    return _low < value <= _high
                return isinstance(value, (int, float)) and _low < value <= _high

        else:

            def test(value: Any, _low=low, _high=high) -> bool:
                cls = value.__class__
                if cls is int or cls is float:
                    return _low < value < _high
                return isinstance(value, (int, float)) and _low < value < _high

        return test

    def covers(self, other: Constraint) -> bool:
        if other.attribute != self.attribute:
            return False
        if isinstance(other, Equals):
            return self.matches_value(other.value)
        if isinstance(other, InSet):
            return all(self.matches_value(v) for v in other.values)
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
            return self.matches_value(other.value)
        if isinstance(other, InSet):
            return all(self.matches_value(v) for v in other.values)
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

    Returns ``(matches, tail)``.  The *tail* is the second constraint's
    ``(attribute, value test)`` of an ``Equals``-first pair: such a filter
    sits in the attribute index's equality bucket for exactly that value
    (every constraint value hashes and equals itself), and a candidate
    handed out from that bucket has passed the ``Equals`` already, so the
    caller may test the tail alone.  Every other shape has no tail.
    """
    if not constraints:
        return _match_everything, None
    first = constraints[0]
    a = first.attribute
    if len(constraints) == 1:
        if first.__class__ is Equals:

            def matches_equal(notification, _a=a, _e=first.value) -> bool:
                value = notification.get(_a, _MISSING)
                return value is not _MISSING and value == _e

            return matches_equal, None

        def matches_one(notification, _a=a, _s=first.value_test()) -> bool:
            value = notification.get(_a, _MISSING)
            return value is not _MISSING and _s(value)

        return matches_one, None

    if len(constraints) == 2:
        b, t = constraints[1].attribute, constraints[1].value_test()
        if first.__class__ is Equals:

            def matches_equal_and(notification, _a=a, _e=first.value, _b=b, _t=t) -> bool:
                value = notification.get(_a, _MISSING)
                if value is _MISSING or not value == _e:
                    return False
                value = notification.get(_b, _MISSING)
                return value is not _MISSING and _t(value)

            return matches_equal_and, (b, t)

        def matches_two(notification, _a=a, _s=first.value_test(), _b=b, _t=t) -> bool:
            value = notification.get(_a, _MISSING)
            if value is _MISSING or not _s(value):
                return False
            value = notification.get(_b, _MISSING)
            return value is not _MISSING and _t(value)

        return matches_two, None

    tests = tuple((c.attribute, c.value_test()) for c in constraints)

    def matches(notification: Mapping[str, Any], _tests=tests) -> bool:
        get = notification.get
        for attribute, test in _tests:
            value = get(attribute, _MISSING)
            if value is _MISSING or not test(value):
                return False
        return True

    return matches, None


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
    first use, and so is the filter's place in an attribute index
    (:func:`repro.pubsub.matching.placement`) and the constraints :meth:`covers`
    reads by attribute.  Every routing-table candidate whose bounds admit the
    value and whose place does not decide it pays filter evaluation — in
    full, or only its ``tail`` when its equality bucket decided the rest —
    so this is one of the hottest code paths in the system.
    """

    __slots__ = (
        "_constraints",
        "matches",
        "tail",
        "_key",
        "_hash",
        "_attrs",
        "_on_attr",
        "_placement",
        "_wire_bin",
    )

    #: ``matches(mapping) -> bool``: the compiled conjunction
    matches: Callable[[Mapping[str, Any]], bool]
    #: ``(attribute, value test)`` left open once the filter's equality
    #: bucket has been probed, or ``None`` (see :func:`_compile_matches`)
    tail: Optional[Tuple[str, Callable[[Any], bool]]]

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.matches, self.tail = _compile_matches(self._constraints)
        self._key: Optional[frozenset] = None
        self._hash: Optional[int] = None
        self._attrs: Optional[frozenset] = None
        self._on_attr: Optional[Dict[str, List[Constraint]]] = None
        self._placement: Optional[Tuple] = None
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

    # ---------------------------------------------------------------- algebra
    def covers(self, other: "Filter") -> bool:
        """Conservative implication: True only if every notification matching
        ``other`` also matches ``self``.

        Rule: for each constraint ``c`` of ``self`` there must exist a
        constraint of ``other`` on the same attribute that is covered by
        ``c``.  The empty filter covers everything.
        """
        # the cached attribute sets, read past the property once computed
        if not (self._attrs or self.attribute_set) <= (other._attrs or other.attribute_set):
            return False
        on_attr = other._on_attr
        if on_attr is None:
            on_attr = other._on_attr = {}
            for constraint in other._constraints:
                on_attr.setdefault(constraint.attribute, []).append(constraint)
        for mine in self._constraints:
            for theirs in on_attr[mine.attribute]:
                if mine.covers(theirs):
                    break
            else:
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
        return Filter([c for key, c in mine.items() if key in other.key()])

    # ------------------------------------------------------------------- misc
    def key(self) -> frozenset:
        """The constraint keys as a set: a conjunction is one, whatever its order."""
        key = self._key
        if key is None:
            key = self._key = frozenset(c.key() for c in self._constraints)
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


def match_all() -> Filter:
    """The filter that matches every notification."""
    return Filter(())


def filter_from_dict(spec: Mapping[str, Any]) -> Filter:
    """Build a filter from a simple ``{attribute: value}`` specification.

    Values map to constraints as follows: a set/frozenset/list becomes
    :class:`InSet`, a 2-tuple tagged ``("range", (low, high))`` becomes
    :class:`Range`, everything else (another tuple too) becomes
    :class:`Equals`.  This is the convenience entry point used by the
    examples.
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
