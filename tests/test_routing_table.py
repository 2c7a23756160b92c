"""Unit tests for the (filter, link) routing table."""

from repro.pubsub.filters import filter_from_dict
from repro.pubsub.routing_table import RoutingTable
from repro.pubsub.subscription import subscription


def temperature(sub_id, link="L1"):
    return filter_from_dict({"service": "temperature"}), link, sub_id


class TestRoutingTable:
    def test_add_and_match_destinations(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "temperature"}), "L1", "s1")
        table.add(filter_from_dict({"service": "stock"}), "L2", "s2")
        assert table.destinations({"service": "temperature"}) == ["L1"]
        assert table.destinations({"service": "stock"}) == ["L2"]
        assert table.destinations({"service": "news"}) == []

    def test_exclude_incoming_link(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "t"}), "L1", "s1")
        table.add(filter_from_dict({"service": "t"}), "L2", "s2")
        assert table.destinations({"service": "t"}, exclude=["L1"]) == ["L2"]

    def test_destinations_deduplicated(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "t"}), "L1", "s1")
        table.add(filter_from_dict({}), "L1", "s2")
        assert table.destinations({"service": "t"}) == ["L1"]

    def test_add_subscription_helper(self):
        table = RoutingTable()
        sub = subscription(filter_from_dict({"service": "t"}), "alice", sub_id="s1")
        table.add_subscription(sub, "client-link")
        assert table.has_subscription("s1", "client-link")

    def test_replace_same_sub_same_link(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "t"}), "L1", "s1")
        table.add(filter_from_dict({"service": "stock"}), "L1", "s1")
        assert len(table) == 1
        assert table.destinations({"service": "stock"}) == ["L1"]
        assert table.destinations({"service": "t"}) == []

    def test_remove_by_sub_and_link(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "t"}), "L1", "s1")
        table.add(filter_from_dict({"service": "t"}), "L2", "s1")
        removed = table.remove("s1", link="L1")
        assert len(removed) == 1
        assert table.destinations({"service": "t"}) == ["L2"]
        table.remove("s1")
        assert len(table) == 0

    def test_remove_link(self):
        table = RoutingTable()
        table.add(filter_from_dict({"service": "t"}), "L1", "s1")
        table.add(filter_from_dict({"service": "t"}), "L1", "s2")
        table.add(filter_from_dict({"service": "t"}), "L2", "s3")
        removed = table.remove_link("L1")
        assert {entry.sub_id for entry in removed} == {"s1", "s2"}
        assert table.links() == ["L2"]
        assert table.subscription_ids() == {"s3"}

    def test_len_counts_entries_on_every_link(self):
        table = RoutingTable()
        table.add(filter_from_dict({"a": 1}), "L1", "s1")
        table.add(filter_from_dict({"a": 2}), "L1", "s2")
        table.add(filter_from_dict({"a": 3}), "L2", "s3")
        assert len(table) == 3
        assert table.links() == ["L1", "L2"]

    def test_clear(self):
        table = RoutingTable()
        table.add(filter_from_dict({"a": 1}), "L1", "s1")
        table.clear()
        assert len(table) == 0
        assert table.links() == []
