"""Unit tests for location spaces and the myloc binding scopes."""

import pytest

from repro.core.location import (
    LocationSpace,
    cell_grid_space,
    cell_name,
    office_floor_space,
    route_space,
)


class TestLocationSpace:
    def test_basic_lookup(self):
        space = LocationSpace({"r1": "B1", "r2": "B1", "r3": "B2"})
        assert space.broker_of("r1") == "B1"
        assert space.locations_of_broker("B1") == ["r1", "r2"]
        assert space.brokers() == ["B1", "B2"]
        assert "r1" in space and "nope" not in space
        assert len(space) == 3

    def test_unknown_location_raises(self):
        space = LocationSpace({"r1": "B1"})
        with pytest.raises(KeyError):
            space.myloc("nope")

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            LocationSpace({"r1": "B1"}, myloc_scope="galaxy")
        space = LocationSpace({"r1": "B1"})
        with pytest.raises(ValueError):
            space.myloc("r1", scope="galaxy")

    def test_location_scope(self):
        space = LocationSpace({"r1": "B1", "r2": "B1"})
        assert space.myloc("r1") == frozenset({"r1"})

    def test_region_scope(self):
        space = LocationSpace(
            {"r1": "B1", "r2": "B1", "r3": "B2"},
            regions={"r1": "north", "r2": "north", "r3": "south"},
            myloc_scope="region",
        )
        assert space.myloc("r1") == frozenset({"r1", "r2"})
        assert space.myloc("r3") == frozenset({"r3"})

    def test_region_scope_without_region_falls_back_to_location(self):
        space = LocationSpace({"r1": "B1"}, myloc_scope="region")
        assert space.myloc("r1") == frozenset({"r1"})

    def test_neighbourhood_scope(self):
        space = LocationSpace(
            {"a": "B1", "b": "B1", "c": "B2"},
            adjacency={"a": {"b"}, "b": {"a", "c"}, "c": {"b"}},
            myloc_scope="neighbourhood",
        )
        assert space.myloc("b") == frozenset({"a", "b", "c"})

    def test_broker_scope(self):
        space = LocationSpace({"r1": "B1", "r2": "B1", "r3": "B2"}, myloc_scope="broker")
        assert space.myloc("r1") == frozenset({"r1", "r2"})

    def test_myloc_for_broker(self):
        space = LocationSpace({"r1": "B1", "r2": "B1", "r3": "B2"})
        assert space.myloc_for_broker("B1") == frozenset({"r1", "r2"})
        assert space.myloc_for_broker("B2") == frozenset({"r3"})


class TestBuilders:
    def test_office_floor_mapping(self):
        space = office_floor_space(n_rooms=8, rooms_per_broker=4)
        assert len(space) == 8
        assert space.brokers() == ["B1", "B2"]
        rooms = space.locations
        assert rooms == sorted(rooms)  # zero-padded names sort numerically
        assert space.broker_of(rooms[0]) == "B1"
        assert space.broker_of(rooms[-1]) == "B2"

    def test_office_floor_adjacency_is_corridor(self):
        space = office_floor_space(n_rooms=4, rooms_per_broker=2)
        rooms = space.locations
        assert space.neighbours_of(rooms[0]) == {rooms[1]}
        assert space.neighbours_of(rooms[1]) == {rooms[0], rooms[2]}

    def test_office_floor_rejects_bad_params(self):
        with pytest.raises(ValueError):
            office_floor_space(0)

    def test_route_space_defaults_to_neighbourhood_scope(self):
        space = route_space(n_segments=6, segments_per_broker=3)
        segments = space.locations
        assert space.myloc_scope == "neighbourhood"
        assert segments[1] in space.myloc(segments[0])

    def test_cell_grid_space_adjacency(self):
        space = cell_grid_space(3, 3)
        centre = cell_name(1, 1)
        assert space.neighbours_of(centre) == {
            cell_name(0, 1),
            cell_name(2, 1),
            cell_name(1, 0),
            cell_name(1, 2),
        }
        corner = cell_name(0, 0)
        assert len(space.neighbours_of(corner)) == 2

    def test_cell_grid_space_default_brokers(self):
        space = cell_grid_space(2, 2)
        assert space.broker_of(cell_name(0, 0)) == "B_0_0"

    def test_cell_grid_space_custom_broker_mapping_and_regions(self):
        mapping = {(r, c): f"X{r}" for r in range(2) for c in range(3)}
        space = cell_grid_space(2, 3, broker_for_cell=mapping, region_rows=1, myloc_scope="region")
        assert space.broker_of(cell_name(1, 2)) == "X1"
        assert space.myloc(cell_name(0, 1)) == frozenset({cell_name(0, 0), cell_name(0, 1), cell_name(0, 2)})
