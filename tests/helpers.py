"""Shared test helpers (importable from any test module).

The test directory is not a package, so cross-module imports must go through
this plain module (``from helpers import FakeHost``) instead of relative
imports, which break pytest collection.
"""

#: the two shapes a socket link's writes take: a dispatch burst coalesced into
#: one socket write (up to ``SocketNode.FLUSH_CAP`` bytes), or every frame
#: written the moment it is sent (a cap of one byte)
WRITE_PATHS = ("batched", "per-frame")


def with_write_path(transport, write_path):
    """Make the sends of a socket ``transport`` take ``write_path``."""
    if write_path == "per-frame":
        transport.FLUSH_CAP = 1
    return transport


class FakeHost:
    """Records what the virtual client asks the replicator to do."""

    def __init__(self):
        self.time = 0.0
        self.subscribed = {}
        self.unsubscribed = []
        self.delivered = []

    @property
    def now(self):
        return self.time

    def issue_subscribe(self, subscription):
        self.subscribed[subscription.sub_id] = subscription

    def issue_unsubscribe(self, subscription):
        self.unsubscribed.append(subscription.sub_id)
        self.subscribed.pop(subscription.sub_id, None)

    def deliver_to_device(self, client_id, notification, replayed):
        self.delivered.append((client_id, notification, replayed))


def assert_one_subscription_per_filter(system):
    """Each replicator holds one broker subscription per distinct bound filter.

    What its border broker's table holds on the replicator's link == the
    distinct ``bound_filters()`` of the virtual clients it hosts == the keys of
    its issue table.  Call it on a quiescent system.
    """
    for broker_name, replicator in system.replicators.items():
        table = system.network.brokers[broker_name].routing_table
        at_broker = [f.key() for f in table.filters_for_link(replicator.name)]
        hosted = {
            f.key() for vc in replicator.virtual_clients.values() for f in vc.bound_filters()
        }
        assert len(at_broker) == len(set(at_broker)), (broker_name, at_broker)
        assert set(at_broker) == hosted == set(replicator._issued), broker_name
        for issued, holders in replicator._issued.values():
            assert holders and issued.sub_id.startswith(f"{replicator.name}#")
