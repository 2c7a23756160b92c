"""Regression tests for bounded duplicate suppression in the broker."""

from repro.net.process import Message
from repro.net.simulator import Simulator
from repro.pubsub.broker import Broker
from repro.pubsub.notification import Notification


def publish(broker, notification_id):
    n = Notification({"service": "t"}, notification_id=notification_id)
    broker.on_message(Message(kind="publish", payload=n, sender=""))


class TestDuplicateSuppression:
    def test_duplicates_dropped(self):
        broker = Broker(Simulator(), "B1")
        broker.deduplicate = True
        publish(broker, 1)
        publish(broker, 1)
        assert broker.duplicate_publishes_dropped == 1
        assert broker.notifications_routed == 1

    def test_memory_is_bounded(self):
        broker = Broker(Simulator(), "B1")
        broker.deduplicate = True
        broker.duplicates_capacity = 3
        for notification_id in range(100):
            publish(broker, notification_id)
        assert len(broker._seen_notification_ids) <= 3

    def test_fifo_eviction_forgets_oldest_first(self):
        broker = Broker(Simulator(), "B1")
        broker.deduplicate = True
        broker.duplicates_capacity = 2
        publish(broker, 1)
        publish(broker, 2)
        publish(broker, 3)  # evicts id 1
        publish(broker, 3)  # genuine duplicate, still remembered
        assert broker.duplicate_publishes_dropped == 1
        publish(broker, 1)  # id 1 was evicted: routed again, not dropped
        assert broker.duplicate_publishes_dropped == 1
        assert broker.notifications_routed == 4

    def test_default_capacity(self):
        broker = Broker(Simulator(), "B1")
        assert broker.duplicates_capacity == Broker.duplicates_capacity == 65536

    def test_dedup_off_keeps_no_state(self):
        broker = Broker(Simulator(), "B1")
        publish(broker, 1)
        publish(broker, 1)
        assert broker.duplicate_publishes_dropped == 0
        assert len(broker._seen_notification_ids) == 0
