"""One broker subscription per distinct filter (``Replicator.issue_subscribe``).

A replicator shares an issued broker subscription among every virtual client
(and every template or plain filter of one client) whose bound filter is
equal: the first holder sends one ``subscribe`` under an id the replicator
owns, the last one to leave sends the one ``unsubscribe``.
"""

from helpers import assert_one_subscription_per_filter, entries_on_link

from repro.core.buffering import REFERENCE_SIZE
from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.middleware import MobilePubSub
from repro.core.replicator import Replicator
from repro.net.link import Link
from repro.net.process import Process
from repro.net.simulator import Simulator
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.subscription import Subscription


class RecordingBroker(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append((message.kind, message.payload))


def bare_replicator(linked=True):
    sim = Simulator()
    space = office_floor_space(n_rooms=4, rooms_per_broker=2)
    broker = RecordingBroker(sim, "B1")
    replicator = Replicator(sim, "R@B1", "B1", space)
    if linked:
        Link(sim, replicator, broker)
    return sim, broker, replicator


def sub(sub_id, value="temperature"):
    return Subscription(sub_id=sub_id, filter=Filter([Equals("service", value)]), subscriber="x")


class TestIssueTable:
    def test_first_holder_subscribes_last_holder_unsubscribes(self):
        sim, broker, replicator = bare_replicator()
        replicator.issue_subscribe(sub("a:t@B1"))
        sim.run_until_idle()
        [(kind, issued)] = broker.received  # 0 -> 1: exactly one subscribe
        assert kind == "subscribe"
        assert issued.sub_id == "R@B1#1" and issued.subscriber == "R@B1"
        assert issued.filter == sub("_").filter
        assert issued.template is None and not issued.location_dependent

        replicator.issue_subscribe(sub("b:t@B1"))  # 1 -> 2
        replicator.issue_subscribe(sub("c:t@B1"))  # 2 -> 3
        replicator.issue_unsubscribe(sub("b:t@B1"))  # 3 -> 2
        replicator.issue_unsubscribe(sub("a:t@B1"))  # 2 -> 1: the first holder is no carrier
        sim.run_until_idle()
        assert len(broker.received) == 1

        replicator.issue_unsubscribe(sub("c:t@B1"))  # 1 -> 0
        sim.run_until_idle()
        assert broker.received[1:] == [
            ("unsubscribe", {"sub_id": "R@B1#1", "filter": issued.filter})
        ]
        assert replicator._issued == {}
        assert (replicator.subscriptions_issued, replicator.subscriptions_shared) == (1, 2)

    def test_non_holder_and_double_withdraw_send_nothing(self):
        sim, broker, replicator = bare_replicator()
        replicator.issue_subscribe(sub("a:t@B1"))
        replicator.issue_unsubscribe(sub("stranger:t@B1"))  # holds nothing
        replicator.issue_unsubscribe(sub("a:t@B1", "weather"))  # holds another filter
        sim.run_until_idle()
        assert [kind for kind, _ in broker.received] == ["subscribe"]
        replicator.issue_unsubscribe(sub("a:t@B1"))
        replicator.issue_unsubscribe(sub("a:t@B1"))  # already gone
        sim.run_until_idle()
        assert [kind for kind, _ in broker.received] == ["subscribe", "unsubscribe"]

    def test_same_holder_twice_is_one_holder(self):
        sim, broker, replicator = bare_replicator()
        replicator.issue_subscribe(sub("a:t@B1"))
        replicator.issue_subscribe(sub("a:t@B1"))
        assert replicator.subscriptions_shared == 0
        replicator.issue_unsubscribe(sub("a:t@B1"))
        sim.run_until_idle()
        assert [kind for kind, _ in broker.received] == ["subscribe", "unsubscribe"]

    def test_distinct_filters_get_distinct_replicator_ids(self):
        sim, broker, replicator = bare_replicator()
        replicator.issue_subscribe(sub("a:t@B1"))
        replicator.issue_subscribe(sub("a:u@B1", "weather"))
        replicator.issue_unsubscribe(sub("a:t@B1"))
        replicator.issue_subscribe(sub("a:t@B1"))  # re-issued: a fresh id, never reused
        sim.run_until_idle()
        ids = [p.sub_id for kind, p in broker.received if kind == "subscribe"]
        assert ids == ["R@B1#1", "R@B1#2", "R@B1#3"]

    def test_without_a_broker_link_nothing_is_recorded(self):
        sim, broker, replicator = bare_replicator(linked=False)
        replicator.issue_subscribe(sub("a:t@B1"))
        replicator.issue_unsubscribe(sub("a:t@B1"))
        sim.run_until_idle()
        assert replicator._issued == {} and broker.received == []
        assert (replicator.subscriptions_issued, replicator.subscriptions_shared) == (0, 0)


def build_system():
    space = office_floor_space(n_rooms=6, rooms_per_broker=3)
    network = line_topology(len(space.brokers()))
    sim = network.sim
    return sim, space, MobilePubSub(network, space)


class TestSharedAcrossClients:
    def test_co_hosted_shadows_buffer_the_one_dispatched_notification(self):
        sim, space, system = build_system()
        rooms = space.locations  # rooms[0..2] are B1's, rooms[3..5] B2's
        template = location_dependent({"service": "temperature"})
        clients = [system.add_mobile_client(name) for name in ("alice", "bob")]
        for client in clients:
            client.subscribe_location(template)
            system.attach(client, location=rooms[0])
        sim.run_until_idle()
        replicator = system.replicators["B2"]
        shadows = [replicator.virtual_clients[client.name] for client in clients]
        assert not any(shadow.is_active for shadow in shadows)

        sensor = system.add_publisher("sensor", rooms[3])
        sensor.publish({"service": "temperature", "location": rooms[3], "value": 21})
        sim.run_until_idle()
        [held] = shadows[0].buffer.contents()
        assert [n is held for n in shadows[1].buffer.contents()] == [True]
        assert replicator.total_buffer_memory() == held.estimated_size() + 2 * REFERENCE_SIZE

        for client in clients:
            system.move(client, rooms[3])
        sim.run_until_idle()
        for client in clients:
            replayed = [d.notification for d in client.deliveries if d.replayed]
            assert [n is held for n in replayed] == [True]
        assert replicator.total_buffer_memory() == 0

    def test_rebind_of_one_holder_keeps_the_shared_filter_at_the_broker(self):
        # the trap: had the subscription been issued under the first holder's own
        # id, its re-bind (same id, new filter) would replace, at the broker,
        # the filter the other holder still needs
        sim, space, system = build_system()
        rooms = space.locations  # rooms[0..2] are B1's
        template = location_dependent({"service": "temperature"})
        alice, bob = system.add_mobile_client("alice"), system.add_mobile_client("bob")
        for client in (alice, bob):
            client.subscribe_location(template)
            system.attach(client, location=rooms[0])
        sim.run_until_idle()
        replicator = system.replicators["B1"]
        shared = replicator.virtual_clients["bob"].bound_filters()[0]
        # one template, one location set: the memoised binding is one object
        [alice_filter] = replicator.virtual_clients["alice"].bound_filters()
        assert alice_filter is shared
        table = system.network.brokers["B1"].routing_table
        assert [e.filter for e in entries_on_link(table, replicator.name)] == [shared]

        system.move(alice, rooms[1])  # within B1: alice re-binds, bob does not
        sim.run_until_idle()
        assert shared in [e.filter for e in entries_on_link(table, replicator.name)]
        assert len([e.filter for e in entries_on_link(table, replicator.name)]) == 2
        assert_one_subscription_per_filter(system)
        assert replicator.virtual_clients["bob"].bound_filters() == [shared]

        sensor = system.add_publisher("sensor", rooms[0])
        before = len(alice.deliveries), len(bob.deliveries)
        sensor.publish({"service": "temperature", "location": rooms[0], "value": 21})
        sim.run_until_idle()
        assert (len(alice.deliveries), len(bob.deliveries)) == (before[0], before[1] + 1)

        system.move(alice, rooms[0])  # back: the re-bind hands out the shared filter again
        sim.run_until_idle()
        assert replicator.virtual_clients["alice"].bound_filters()[0] is shared
        assert [e.filter for e in entries_on_link(table, replicator.name)] == [shared]
        assert_one_subscription_per_filter(system)

    def test_identical_plain_filters_of_two_clients_are_shared(self):
        sim, space, system = build_system()
        stock = Filter([Equals("service", "stock")])
        alice, bob = system.add_mobile_client("alice"), system.add_mobile_client("bob")
        for client in (alice, bob):
            client.subscribe(stock)
            system.attach(client, location=space.locations[0])
        sim.run_until_idle()
        replicator = system.replicators["B1"]
        table = system.network.brokers["B1"].routing_table
        assert [e.filter for e in entries_on_link(table, replicator.name)] == [stock]
        assert replicator.subscriptions_shared == 1
        [(issued, holders)] = replicator._issued.values()
        assert issued.sub_id.startswith("R@B1#") and len(holders) == 2

        ticker = system.add_publisher("ticker", space.locations[4])
        ticker.publish({"service": "stock", "symbol": "X", "price": 1})
        sim.run_until_idle()
        assert len(alice.deliveries) == len(bob.deliveries) == 1

        system.remove_client(alice)
        sim.run_until_idle()
        assert [e.filter for e in entries_on_link(table, replicator.name)] == [stock]
        system.remove_client(bob)
        sim.run_until_idle()
        assert all(b.routing_table_size() == 0 for b in system.network.brokers.values())
