"""Unit and property tests for movement graphs and the nlb function."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.location import cell_grid_space
from repro.core.movement_graph import (
    MovementGraph,
    complete_graph,
    from_location_space,
    grid_graph,
    line_graph,
)


def from_edges(edges, brokers=()):
    graph = MovementGraph(brokers)
    for a, b in edges:
        graph.add_edge(a, b)
    return graph


@pytest.fixture
def triangle_plus_tail():
    """A - B - C - D with an extra A-C edge."""
    return from_edges([("A", "B"), ("B", "C"), ("C", "D"), ("A", "C")])


class TestNlb:
    def test_nlb_excludes_self(self, triangle_plus_tail):
        assert triangle_plus_tail.nlb("A") == frozenset({"B", "C"})

    def test_nlb_unknown_broker_raises(self, triangle_plus_tail):
        with pytest.raises(KeyError):
            triangle_plus_tail.nlb("Z")

    def test_nlb_k_zero_is_empty(self, triangle_plus_tail):
        assert triangle_plus_tail.nlb_k("A", 0) == frozenset()

    def test_nlb_k_one_equals_nlb(self, triangle_plus_tail):
        assert triangle_plus_tail.nlb_k("A", 1) == triangle_plus_tail.nlb("A")

    def test_nlb_k_grows_monotonically(self, triangle_plus_tail):
        one = triangle_plus_tail.nlb_k("D", 1)
        two = triangle_plus_tail.nlb_k("D", 2)
        three = triangle_plus_tail.nlb_k("D", 3)
        assert one <= two <= three
        assert three == frozenset({"A", "B", "C"})

    def test_nlb_k_negative_rejected(self, triangle_plus_tail):
        with pytest.raises(ValueError):
            triangle_plus_tail.nlb_k("A", -1)

    def test_callable_syntax(self, triangle_plus_tail):
        assert triangle_plus_tail("A") == triangle_plus_tail.nlb("A")

    def test_self_edge_ignored(self):
        graph = MovementGraph(["A"])
        graph.add_edge("A", "A")
        assert graph.nlb("A") == frozenset()


class TestAnalysis:
    def test_degree_and_average(self, triangle_plus_tail):
        assert len(triangle_plus_tail.nlb("C")) == 3
        assert triangle_plus_tail.average_degree() == pytest.approx((2 + 2 + 3 + 1) / 4)


class TestBuilders:
    def test_line_graph(self):
        graph = line_graph(["A", "B", "C"])
        assert graph.nlb("B") == frozenset({"A", "C"})
        assert graph.nlb("A") == frozenset({"B"})

    def test_grid_graph_degrees(self):
        graph = grid_graph(3, 3)
        assert len(graph.nlb("B_1_1")) == 4
        assert len(graph.nlb("B_0_0")) == 2
        diagonal = grid_graph(3, 3, diagonal=True)
        assert len(diagonal.nlb("B_1_1")) == 8

    def test_complete_graph(self):
        graph = complete_graph(["A", "B", "C", "D"])
        assert all(len(graph.nlb(b)) == 3 for b in graph.brokers)

    def test_from_location_space(self):
        space = cell_grid_space(2, 2)
        graph = from_location_space(space)
        assert set(graph.brokers) == {"B_0_0", "B_0_1", "B_1_0", "B_1_1"}
        assert "B_0_1" in graph.nlb("B_0_0")
        assert "B_1_1" not in graph.nlb("B_0_0")  # diagonal cells are not adjacent

    def test_from_location_space_multi_cell_brokers(self):
        from repro.core.location import office_floor_space

        space = office_floor_space(n_rooms=8, rooms_per_broker=4)
        graph = from_location_space(space)
        assert "B2" in graph.nlb("B1")
        assert len(graph.edges()) == 1

    def test_edges_listing_is_deduplicated(self):
        graph = from_edges([("A", "B"), ("B", "A")])
        assert graph.edges() == [("A", "B")]


# ------------------------------------------------------------------ properties

broker_lists = st.lists(
    st.sampled_from([f"B{i}" for i in range(8)]), min_size=2, max_size=8, unique=True
)


@settings(max_examples=100, deadline=None)
@given(brokers=broker_lists, data=st.data())
def test_nlb_symmetry(brokers, data):
    """The movement graph is undirected: b2 in nlb(b1) iff b1 in nlb(b2)."""
    edges = data.draw(
        st.lists(st.tuples(st.sampled_from(brokers), st.sampled_from(brokers)), max_size=12)
    )
    graph = from_edges(edges, brokers=brokers)
    for a in graph.brokers:
        for b in graph.nlb(a):
            assert a in graph.nlb(b)
            assert a != b


@settings(max_examples=60, deadline=None)
@given(brokers=broker_lists, data=st.data(), k=st.integers(1, 4))
def test_nlb_k_monotone_in_k(brokers, data, k):
    edges = data.draw(
        st.lists(st.tuples(st.sampled_from(brokers), st.sampled_from(brokers)), max_size=12)
    )
    graph = from_edges(edges, brokers=brokers)
    for broker in graph.brokers:
        assert graph.nlb_k(broker, k) <= graph.nlb_k(broker, k + 1)


@settings(max_examples=60, deadline=None)
@given(brokers=broker_lists)
def test_complete_graph_nlb_is_everyone_else(brokers):
    graph = complete_graph(brokers)
    for broker in brokers:
        assert graph.nlb(broker) == frozenset(set(brokers) - {broker})
