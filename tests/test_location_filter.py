"""Unit tests for location-dependent filter templates (the myloc marker)."""

import pytest

from repro.core.location import LocationSpace
from repro.core.location_filter import (
    MYLOC,
    LocationDependentFilter,
    UnboundLocationError,
    location_dependent,
)
from repro.pubsub.filters import Equals, Filter


@pytest.fixture
def space():
    return LocationSpace(
        {"r1": "B1", "r2": "B1", "r3": "B2"},
        adjacency={"r1": {"r2"}, "r2": {"r1", "r3"}, "r3": {"r2"}},
    )


class TestTemplateConstruction:
    def test_from_dict_spec(self):
        template = location_dependent({"service": "temperature"})
        assert isinstance(template, LocationDependentFilter)
        assert template.static_filter.matches({"service": "temperature"})

    def test_myloc_marker_in_spec_is_tolerated(self):
        template = location_dependent({"service": "temperature", "location": MYLOC})
        assert template.static_filter.attributes == ["service"]

    def test_from_prebuilt_filter(self):
        static = Filter([Equals("service", "menu")])
        template = location_dependent(static)
        assert template.static_filter is static

    def test_scope_override_stored(self):
        template = location_dependent({"service": "weather"}, scope="region")
        assert template.scope == "region"


class TestBinding:
    def test_bind_adds_location_constraint(self, space):
        template = location_dependent({"service": "temperature"})
        bound = template.bind({"r1", "r2"})
        assert bound.matches({"service": "temperature", "location": "r1"})
        assert not bound.matches({"service": "temperature", "location": "r3"})
        assert not bound.matches({"service": "stock", "location": "r1"})
        assert not bound.matches({"service": "temperature"})  # no location attribute

    def test_bind_empty_set_rejected(self):
        template = location_dependent({"service": "temperature"})
        with pytest.raises(UnboundLocationError):
            template.bind([])

    def test_bind_for_location_uses_space_myloc(self, space):
        template = location_dependent({"service": "temperature"})
        bound = template.bind_for_location(space, "r1")
        assert bound.matches({"service": "temperature", "location": "r1"})
        assert not bound.matches({"service": "temperature", "location": "r2"})

    def test_bind_for_location_with_scope_override(self, space):
        template = location_dependent({"service": "temperature"}, scope="neighbourhood")
        bound = template.bind_for_location(space, "r2")
        for room in ("r1", "r2", "r3"):
            assert bound.matches({"service": "temperature", "location": room})

    def test_bind_for_broker_covers_whole_coverage_area(self, space):
        template = location_dependent({"service": "temperature"})
        bound = template.bind_for_broker(space, "B1")
        assert bound.matches({"service": "temperature", "location": "r1"})
        assert bound.matches({"service": "temperature", "location": "r2"})
        assert not bound.matches({"service": "temperature", "location": "r3"})

    def test_custom_location_attribute(self, space):
        template = location_dependent({"service": "t"}, location_attribute="cell")
        bound = template.bind({"r1"})
        assert bound.matches({"service": "t", "cell": "r1"})
        assert not bound.matches({"service": "t", "location": "r1"})


class TestBindMemo:
    """``bind`` returns one shared compiled filter per distinct location set."""

    def test_equal_sets_in_any_order_give_the_identical_filter(self, space):
        template = location_dependent({"service": "temperature"})
        first = template.bind(["r1", "r2", "r3"])
        for locations in (["r3", "r1", "r2"], {"r2", "r3", "r1"}, frozenset({"r1", "r2", "r3"})):
            assert template.bind(locations) is first
        assert template.bind_for_broker(space, "B1") is template.bind(["r2", "r1"])
        assert template.bind_for_location(space, "r1") is template.bind({"r1"})

    def test_different_sets_give_different_filters(self):
        template = location_dependent({"service": "temperature"})
        one, two = template.bind({"r1"}), template.bind({"r1", "r2"})
        assert one is not two and one != two
        assert one.matches({"service": "temperature", "location": "r1"})
        assert not one.matches({"service": "temperature", "location": "r2"})

    def test_equal_templates_do_not_share_filters_but_bind_equal_ones(self):
        a, b = location_dependent({"service": "t"}), location_dependent({"service": "t"})
        assert a.bind({"r1"}) == b.bind({"r1"}) and a.bind({"r1"}) is not b.bind({"r1"})

    def test_an_empty_set_still_raises_and_is_not_cached(self):
        template = location_dependent({"service": "temperature"})
        for _ in range(2):
            with pytest.raises(UnboundLocationError):
                template.bind([])
        assert frozenset() not in template._bound

    def test_the_memo_is_invisible_to_eq_hash_and_repr(self):
        bound, fresh = location_dependent({"service": "t"}), location_dependent({"service": "t"})
        before = (hash(bound), repr(bound))
        bound.bind({"r1"})
        bound.bind({"r2", "r3"})
        assert len(bound._bound) == 2 and not fresh._bound
        assert bound == fresh and hash(bound) == hash(fresh) == before[0]
        assert repr(bound) == repr(fresh) == before[1]
        assert bound.key() == fresh.key()


class TestHelpers:
    def test_key_distinguishes_scopes(self):
        a = location_dependent({"service": "t"})
        b = location_dependent({"service": "t"}, scope="region")
        assert a.key() != b.key()

    def test_myloc_is_singleton(self):
        from repro.core.location_filter import _MyLocMarker

        assert _MyLocMarker() is MYLOC
