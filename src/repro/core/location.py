"""Locations and location spaces.

The paper makes *location* a first-class concept of the pub/sub system:
location-dependent subscriptions use a ``myloc`` marker that "stands for a
specific set of locations that depends on the current location of the client"
and whose mapping is *application dependent* (Sect. 1).

Two notions of location coexist (and the paper's key observation is that they
are related):

* the *physical* location granularity is the broker network — which border
  broker covers the client;
* the *logical* location granularity is application defined — a room on an
  office floor, a road segment, a weather region.

A :class:`LocationSpace` captures the application-dependent part: which
logical locations exist, which broker covers each of them, and what set of
locations ``myloc`` binds to for a client sitting at a given location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

#: The attribute name used for locations in notifications and filters.
LOCATION_ATTRIBUTE = "location"


@dataclass(frozen=True)
class Location:
    """A logical location (a room, a cell, a road segment, a region member)."""

    name: str
    region: Optional[str] = None

    def __str__(self) -> str:
        return self.name


class LocationSpace:
    """The application-dependent mapping between locations, brokers and ``myloc``.

    Parameters
    ----------
    broker_of:
        Mapping from location name to the border broker that covers it
        (the physical-mobility granularity).
    regions:
        Optional mapping from location name to a region name.  When a region
        is defined, :meth:`myloc` can be configured to bind to the whole
        region (``scope="region"``) instead of the single location.
    adjacency:
        Optional mapping from location name to neighbouring location names,
        used for ``scope="neighbourhood"`` bindings and by mobility models.
    """

    def __init__(
        self,
        broker_of: Mapping[str, str],
        regions: Optional[Mapping[str, str]] = None,
        adjacency: Optional[Mapping[str, Iterable[str]]] = None,
        myloc_scope: str = "location",
    ):
        self._broker_of: Dict[str, str] = dict(broker_of)
        self._regions: Dict[str, str] = dict(regions or {})
        self._adjacency: Dict[str, Set[str]] = {
            loc: set(neigh) for loc, neigh in (adjacency or {}).items()
        }
        if myloc_scope not in {"location", "region", "neighbourhood", "broker"}:
            raise ValueError(f"unknown myloc scope {myloc_scope!r}")
        self.myloc_scope = myloc_scope

    # ----------------------------------------------------------------- lookup
    @property
    def locations(self) -> List[str]:
        return sorted(self._broker_of.keys())

    def broker_of(self, location: str) -> str:
        """The border broker covering a logical location."""
        return self._broker_of[location]

    def locations_of_broker(self, broker_name: str) -> List[str]:
        """All logical locations covered by a border broker."""
        return sorted(loc for loc, broker in self._broker_of.items() if broker == broker_name)

    def locations_of_region(self, region: str) -> List[str]:
        return sorted(loc for loc, reg in self._regions.items() if reg == region)

    def neighbours_of(self, location: str) -> Set[str]:
        return set(self._adjacency.get(location, set()))

    def brokers(self) -> List[str]:
        return sorted(set(self._broker_of.values()))

    def __contains__(self, location: str) -> bool:
        return location in self._broker_of

    def __len__(self) -> int:
        return len(self._broker_of)

    # ------------------------------------------------------------------ myloc
    def myloc(self, location: str, scope: Optional[str] = None) -> FrozenSet[str]:
        """The set of locations the ``myloc`` marker binds to for a client at ``location``.

        The binding is application dependent (Sect. 1); the supported scopes
        are the ones the paper's examples suggest:

        * ``"location"`` — just the client's own location (the particular
          office in the temperature example);
        * ``"region"`` — every location in the same region (the weather of
          "the region someone is currently located in");
        * ``"neighbourhood"`` — the location plus its adjacent locations
          (restaurant menus "along the route of a car");
        * ``"broker"`` — every location covered by the same border broker
          (the coarsest application-level view).
        """
        effective_scope = scope or self.myloc_scope
        if location not in self._broker_of:
            raise KeyError(f"unknown location {location!r}")
        if effective_scope == "location":
            return frozenset({location})
        if effective_scope == "region":
            region = self._regions.get(location)
            if region is None:
                return frozenset({location})
            return frozenset(self.locations_of_region(region))
        if effective_scope == "neighbourhood":
            return frozenset({location} | self.neighbours_of(location))
        if effective_scope == "broker":
            return frozenset(self.locations_of_broker(self._broker_of[location]))
        raise ValueError(f"unknown myloc scope {effective_scope!r}")

    def myloc_for_broker(self, broker_name: str) -> FrozenSet[str]:
        """The location set a *shadow* virtual client at ``broker_name`` binds ``myloc`` to.

        Shadows do not know the exact location the client will arrive at, so
        they subscribe to everything relevant anywhere in the broker's
        coverage area ("those subscriptions a client arriving at that
        location would have", Sect. 3.1).
        """
        return frozenset(self.locations_of_broker(broker_name))


# ------------------------------------------------------------------- builders


def office_floor_space(
    n_rooms: int,
    rooms_per_broker: int = 4,
    broker_prefix: str = "B",
    room_prefix: str = "room",
    myloc_scope: str = "location",
) -> LocationSpace:
    """An office floor: a corridor of rooms, consecutive rooms share a border broker.

    Adjacency is the corridor order (room-i is adjacent to room-(i±1)), the
    setting of the paper's office-floor example (Fig. 1, right).
    """
    if n_rooms < 1 or rooms_per_broker < 1:
        raise ValueError("n_rooms and rooms_per_broker must be positive")
    broker_of: Dict[str, str] = {}
    adjacency: Dict[str, Set[str]] = {}
    width = max(2, len(str(n_rooms - 1)))
    rooms = [f"{room_prefix}-{i:0{width}d}" for i in range(n_rooms)]
    for i, room in enumerate(rooms):
        broker_of[room] = f"{broker_prefix}{i // rooms_per_broker + 1}"
        neighbours = set()
        if i > 0:
            neighbours.add(rooms[i - 1])
        if i < n_rooms - 1:
            neighbours.add(rooms[i + 1])
        adjacency[room] = neighbours
    return LocationSpace(broker_of, adjacency=adjacency, myloc_scope=myloc_scope)


def cell_grid_space(
    rows: int,
    cols: int,
    broker_for_cell: Optional[Mapping[Tuple[int, int], str]] = None,
    region_rows: int = 0,
    myloc_scope: str = "location",
) -> LocationSpace:
    """A rows x cols grid of cells (GSM-style coverage), 4-neighbourhood adjacency.

    ``broker_for_cell`` maps grid coordinates to broker names; when omitted,
    every cell gets its own broker named ``B_<r>_<c>`` (one base station per
    cell, the GSM example of Sect. 3.2).  If ``region_rows`` is positive,
    cells are grouped into horizontal bands of that many rows, forming the
    regions used by region-scoped ``myloc`` bindings (weather regions).
    """
    broker_of: Dict[str, str] = {}
    regions: Dict[str, str] = {}
    adjacency: Dict[str, Set[str]] = {}
    for r in range(rows):
        for c in range(cols):
            cell = cell_name(r, c)
            if broker_for_cell is not None:
                broker_of[cell] = broker_for_cell[(r, c)]
            else:
                broker_of[cell] = f"B_{r}_{c}"
            if region_rows > 0:
                regions[cell] = f"region-{r // region_rows}"
            neighbours = set()
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    neighbours.add(cell_name(nr, nc))
            adjacency[cell] = neighbours
    return LocationSpace(
        broker_of, regions=regions or None, adjacency=adjacency, myloc_scope=myloc_scope
    )


def route_space(
    n_segments: int,
    segments_per_broker: int = 3,
    broker_prefix: str = "B",
    segment_prefix: str = "km",
    myloc_scope: str = "neighbourhood",
) -> LocationSpace:
    """A linear route (a road) divided into segments; the car example of Sect. 1.

    ``myloc`` defaults to the neighbourhood scope so a car sees "the
    restaurants along the route", i.e. its segment and the adjacent ones.
    """
    broker_of: Dict[str, str] = {}
    adjacency: Dict[str, Set[str]] = {}
    width = max(2, len(str(n_segments - 1)))
    segments = [f"{segment_prefix}-{i:0{width}d}" for i in range(n_segments)]
    for i, segment in enumerate(segments):
        broker_of[segment] = f"{broker_prefix}{i // segments_per_broker + 1}"
        neighbours = set()
        if i > 0:
            neighbours.add(segments[i - 1])
        if i < n_segments - 1:
            neighbours.add(segments[i + 1])
        adjacency[segment] = neighbours
    return LocationSpace(broker_of, adjacency=adjacency, myloc_scope=myloc_scope)


def cell_name(row: int, col: int) -> str:
    """Canonical cell naming used by grid spaces and grid mobility models."""
    return f"cell-{row}-{col}"
