"""Tests for brokers, the broker network and the routing strategies.

These are integration-style unit tests: small broker networks are built on
the simulator and subscriptions/publications flow end to end.  The key
correctness property — every strategy delivers exactly the notifications the
subscribers' filters match, no more, no fewer — is also checked
property-style in ``test_routing_equivalence.py``.
"""

import pytest

from repro.pubsub.broker_network import (
    BrokerNetwork,
    TopologyError,
    balanced_tree_topology,
    grid_border_topology,
    line_topology,
    random_tree_topology,
)
from repro.pubsub.filters import Equals, Filter, filter_from_dict
from repro.pubsub.routing import STRATEGIES, make_strategy


@pytest.fixture
def line3():
    net = line_topology(3)
    sim = net.sim
    return sim, net


class TestTopologies:
    def test_line_topology_structure(self, line3):
        _sim, net = line3
        assert net.broker_names() == ["B1", "B2", "B3"]
        assert net.broker_edges() == [("B1", "B2"), ("B2", "B3")]

    def test_balanced_tree(self):
        net = balanced_tree_topology(branching=2, depth=2)
        assert len(net.broker_names()) == 7

    def test_random_tree_is_valid(self):
        net = random_tree_topology(12, seed=3)
        net.validate()
        assert len(net.broker_edges()) == 11

    def test_grid_border_topology(self):
        net, cells = grid_border_topology(2, 3)
        assert len(cells) == 6
        net.validate()

    def test_validation_rejects_cycle(self):
        net = BrokerNetwork()
        for name in ("A", "B", "C"):
            net.add_broker(name)
        net.connect_brokers("A", "B")
        net.connect_brokers("B", "C")
        net.connect_brokers("C", "A")
        with pytest.raises(TopologyError):
            net.validate()

    def test_validation_rejects_disconnected(self):
        net = BrokerNetwork()
        for name in ("A", "B", "C", "D"):
            net.add_broker(name)
        net.connect_brokers("A", "B")
        net.connect_brokers("C", "D")
        with pytest.raises(TopologyError):
            net.validate()

    def test_connect_unknown_broker_rejected(self):
        net = BrokerNetwork()
        net.add_broker("A")
        with pytest.raises(KeyError):
            net.connect_brokers("A", "nope")

    def test_add_client_to_unknown_broker_rejected(self, line3):
        _sim, net = line3
        with pytest.raises(KeyError):
            net.add_client("c", "B99")


class TestBrokerBasics:
    def test_broker_neighbors_are_registered_peers_with_a_link(self, line3):
        """Registration and attachment move independently: a neighbour is a
        peer that is both registered and linked, whatever order they came in.
        A client's link is never a neighbour."""
        _sim, net = line3
        net.add_client("alice", "B2")
        broker = net.brokers["B2"]
        assert broker.has_link("alice")
        endpoint = broker.links["B1"]

        def check():
            expected = sorted(p for p in broker._broker_peers if broker.has_link(p))
            assert broker.broker_neighbors() == expected
            return expected

        assert check() == ["B1", "B3"]
        broker.register_broker_peer("B9")  # registered, no link yet
        assert check() == ["B1", "B3"]
        broker.attach_link("B9", endpoint)
        assert check() == ["B1", "B3", "B9"]
        broker.detach_link("B1")
        assert check() == ["B3", "B9"]
        broker.attach_link("B1", endpoint)
        assert check() == ["B1", "B3", "B9"]

    def test_stats_snapshot(self, line3):
        sim, net = line3
        alice = net.add_client("alice", "B1")
        bob = net.add_client("bob", "B3")
        bob.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        alice.publish({"service": "t"})
        sim.run_until_idle()
        counters = net.transport.metrics_snapshot()["brokers"]["B2"]["counters"]
        assert counters["broker.matches"] == 1
        assert counters["broker.subscriptions"] >= 1


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestEndToEndDelivery:
    def test_matching_notification_delivered_across_network(self, strategy):
        net = line_topology(4, routing=strategy)
        sim = net.sim
        publisher = net.add_client("pub", "B1")
        subscriber = net.add_client("sub", "B4")
        subscriber.subscribe(filter_from_dict({"service": "temperature"}))
        sim.run_until_idle()
        publisher.publish({"service": "temperature", "value": 1})
        publisher.publish({"service": "stock", "value": 2})
        sim.run_until_idle()
        received = [d.notification["service"] for d in subscriber.deliveries]
        assert received == ["temperature"]

    def test_no_delivery_to_publisher_itself(self, strategy):
        net = line_topology(2, routing=strategy)
        sim = net.sim
        client = net.add_client("both", "B1")
        client.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        client.publish({"service": "t"})
        sim.run_until_idle()
        # REBECA semantics: the notification is routed back only via the broker,
        # and the broker never forwards a message back over the link it came from.
        assert len(client.deliveries) == 0

    def test_multiple_subscribers_all_served(self, strategy):
        # a star: hub B1, leaves B2..B5
        net = balanced_tree_topology(branching=4, depth=1, routing=strategy)
        sim = net.sim
        publisher = net.add_client("pub", "B2")
        subscribers = [net.add_client(f"s{i}", f"B{i}") for i in range(3, 6)]
        for sub in subscribers:
            sub.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        publisher.publish({"service": "t"})
        sim.run_until_idle()
        assert all(len(sub.deliveries) == 1 for sub in subscribers)

    def test_unsubscribe_stops_delivery(self, strategy):
        net = line_topology(3, routing=strategy)
        sim = net.sim
        publisher = net.add_client("pub", "B1")
        subscriber = net.add_client("sub", "B3")
        sub = subscriber.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        publisher.publish({"service": "t"})
        sim.run_until_idle()
        subscriber.unsubscribe(sub)
        sim.run_until_idle()
        publisher.publish({"service": "t"})
        sim.run_until_idle()
        assert len(subscriber.deliveries) == 1

    def test_unsubscribe_does_not_break_other_subscribers(self, strategy):
        net = line_topology(3, routing=strategy)
        sim = net.sim
        publisher = net.add_client("pub", "B1")
        keep = net.add_client("keep", "B3")
        leave = net.add_client("leave", "B3")
        keep.subscribe(filter_from_dict({"service": "t"}))
        leave_sub = leave.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        leave.unsubscribe(leave_sub)
        sim.run_until_idle()
        publisher.publish({"service": "t"})
        sim.run_until_idle()
        assert len(keep.deliveries) == 1
        assert len(leave.deliveries) == 0


class TestRoutingStrategyBehaviour:
    def test_simple_routing_traffic_lower_than_flooding(self):
        results = {}
        for strategy in ("flooding", "simple"):
            net = line_topology(6, routing=strategy)
            sim = net.sim
            publisher = net.add_client("pub", "B1")
            subscriber = net.add_client("sub", "B2")
            subscriber.subscribe(filter_from_dict({"service": "t"}))
            sim.run_until_idle()
            for _ in range(5):
                publisher.publish({"service": "other"})
            sim.run_until_idle()
            results[strategy] = net.broker_link_messages("publish")
        assert results["simple"] < results["flooding"]

    def test_covering_suppresses_redundant_forwarding(self):
        def setup(strategy):
            net = line_topology(4, routing=strategy)
            sim = net.sim
            broad = net.add_client("broad", "B1")
            narrow = net.add_client("narrow", "B1")
            broad.subscribe(filter_from_dict({"service": "t"}))
            sim.run_until_idle()
            narrow.subscribe(filter_from_dict({"service": "t", "location": "r1"}))
            sim.run_until_idle()
            return net

        simple = setup("simple")
        covering = setup("covering")
        assert covering.broker_link_messages("subscribe") < simple.broker_link_messages("subscribe")

    def test_covering_unsubscribe_reforwards_uncovered(self):
        net = line_topology(3, routing="covering")
        sim = net.sim
        broad = net.add_client("broad", "B1")
        narrow = net.add_client("narrow", "B1")
        publisher = net.add_client("pub", "B3")
        broad_sub = broad.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        narrow.subscribe(filter_from_dict({"service": "t", "location": "r1"}))
        sim.run_until_idle()
        # Remove the covering subscription; the covered one must be re-advertised
        # so that its notifications still arrive.
        broad.unsubscribe(broad_sub)
        sim.run_until_idle()
        publisher.publish({"service": "t", "location": "r1"})
        sim.run_until_idle()
        assert len(narrow.deliveries) == 1
        assert len(broad.deliveries) == 0

    def test_identity_suppresses_duplicate_filters(self):
        net = line_topology(3, routing="identity")
        sim = net.sim
        clients = [net.add_client(f"c{i}", "B1") for i in range(4)]
        for client in clients:
            client.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        # Only the first identical filter needs to travel to B2 and B3.
        assert net.broker_link_messages("subscribe") == 2

    def test_unknown_strategy_rejected(self):
        net = line_topology(2)
        with pytest.raises(ValueError):
            make_strategy("nonsense", net.brokers["B1"])

    def test_merging_still_delivers(self):
        net = line_topology(3, routing="merging")
        sim = net.sim
        publisher = net.add_client("pub", "B3")
        subscribers = []
        for i in range(8):
            client = net.add_client(f"c{i}", "B1")
            client.subscribe(filter_from_dict({"service": "t", "value": i}))
            subscribers.append(client)
        sim.run_until_idle()
        for i in range(8):
            publisher.publish({"service": "t", "value": i})
        sim.run_until_idle()
        assert all(len(c.deliveries) == 1 for c in subscribers)

    def test_detach_message_cleans_routing_state(self):
        net = line_topology(3, routing="simple")
        sim = net.sim
        subscriber = net.add_client("sub", "B1")
        subscriber.subscribe(filter_from_dict({"service": "t"}))
        sim.run_until_idle()
        assert net.total_routing_table_size() > 0
        subscriber.disconnect(notify_broker=True)
        sim.run_until_idle()
        assert "sub" not in net.brokers["B1"].routing_table.links()
