"""Location-dependent filters: the ``myloc`` marker.

"Location-dependent subscriptions postulate a specific marker *myloc* to be
used in a subscription.  The marker stands for a specific set of locations
that depends on the current location of the client." (Sect. 1)

A :class:`LocationDependentFilter` is a *template*: a content-based filter in
which the constraint on the location attribute is the unbound ``MYLOC``
marker.  Binding the template against a concrete location set (obtained from
a :class:`~repro.core.location.LocationSpace`) yields an ordinary
:class:`~repro.pubsub.filters.Filter` that can be installed in routing
tables.  The logical-mobility machinery re-binds templates whenever the
client's location changes; the replicator binds them against a *broker's*
location set when casting shadows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..pubsub.filters import Constraint, Equals, Filter, InSet
from .location import LOCATION_ATTRIBUTE


class _MyLocMarker:
    """Singleton marker object standing for "the client's current location set"."""

    _instance: Optional["_MyLocMarker"] = None

    def __new__(cls) -> "_MyLocMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MYLOC"


#: The marker used in location-dependent filter templates.
MYLOC = _MyLocMarker()


class UnboundLocationError(ValueError):
    """Raised when a template containing ``MYLOC`` is evaluated without binding."""


@dataclass(frozen=True)
class LocationDependentFilter:
    """A filter template containing the ``myloc`` marker.

    Attributes
    ----------
    static_filter:
        The location-independent part of the subscription, e.g.
        ``service == "temperature"``.
    location_attribute:
        The attribute the location constraint applies to (default
        ``"location"``).
    scope:
        Optional override of the location space's default ``myloc`` scope
        (``"location"``, ``"region"``, ``"neighbourhood"``, ``"broker"``).
    """

    static_filter: Filter
    location_attribute: str = LOCATION_ATTRIBUTE
    scope: Optional[str] = None
    # location set -> its bound filter; not part of equality, hashing, repr
    # or the wire, and bounded by the distinct myloc sets of the space
    _bound: Dict[FrozenSet[str], Filter] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    # ---------------------------------------------------------------- binding
    def bind(self, locations: Iterable[str]) -> Filter:
        """Substitute ``myloc`` with a concrete location set, yielding a routable filter.

        Memoised per location set: an equal set returns the *identical*
        compiled filter, so its key, hash and wire fragments are computed
        once per distinct binding rather than once per move or shadow.
        """
        location_set = frozenset(locations)
        bound = self._bound.get(location_set)
        if bound is None:
            if not location_set:
                raise UnboundLocationError("cannot bind myloc to an empty location set")
            constraint = InSet(self.location_attribute, location_set)
            bound = Filter(tuple(self.static_filter.constraints) + (constraint,))
            self._bound[location_set] = bound
        return bound

    def bind_for_location(self, space: "LocationSpaceLike", location: str) -> Filter:
        """Bind against the myloc set of a concrete client location."""
        return self.bind(space.myloc(location, scope=self.scope))

    def bind_for_broker(self, space: "LocationSpaceLike", broker_name: str) -> Filter:
        """Bind against the location set covered by a broker (shadow binding)."""
        return self.bind(space.myloc_for_broker(broker_name))

    # ------------------------------------------------------------------ misc

    def key(self) -> Tuple:
        return ("myloc-template", self.static_filter.key(), self.location_attribute, self.scope)

    def __repr__(self) -> str:
        return (
            f"LocationDependentFilter({self.static_filter!r} AND "
            f"{self.location_attribute} in MYLOC, scope={self.scope or 'default'})"
        )


class LocationSpaceLike:
    """Structural interface for what templates need from a location space."""

    def myloc(self, location: str, scope: Optional[str] = None) -> FrozenSet[str]:  # pragma: no cover
        raise NotImplementedError

    def myloc_for_broker(self, broker_name: str) -> FrozenSet[str]:  # pragma: no cover
        raise NotImplementedError


def location_dependent(
    static_spec: Mapping[str, Any] | Filter,
    location_attribute: str = LOCATION_ATTRIBUTE,
    scope: Optional[str] = None,
) -> LocationDependentFilter:
    """Build a location-dependent filter template.

    ``static_spec`` is either an already-built :class:`Filter` or a simple
    ``{attribute: value}`` mapping; a value equal to :data:`MYLOC` is also
    accepted and simply ignored for the static part, so the paper's example
    can be written naturally::

        location_dependent({"service": "temperature", "location": MYLOC})
    """
    if isinstance(static_spec, Filter):
        return LocationDependentFilter(static_spec, location_attribute, scope)
    constraints: List[Constraint] = []
    for attribute, value in static_spec.items():
        if value is MYLOC or attribute == location_attribute and isinstance(value, _MyLocMarker):
            continue
        if isinstance(value, (set, frozenset, list)):
            constraints.append(InSet(attribute, value))
        else:
            constraints.append(Equals(attribute, value))
    return LocationDependentFilter(Filter(constraints), location_attribute, scope)
