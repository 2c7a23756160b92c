"""Unit tests for the QoS metrics helpers."""

import pytest

from repro.core.location import office_floor_space
from repro.core.location_filter import location_dependent
from repro.core.metrics import (
    DeliveryOutcome,
    evaluate_plain_delivery,
    handover_latencies,
    value_at_factory,
    mean,
    percentile,
    relevant_notification_ids,
)
from repro.core.mobile_client import AttachmentRecord, MobileClient, MobileDelivery
from repro.net.transport import SimTransport
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification


def make_notification(room, at, service="temperature"):
    return Notification({"service": service, "location": room}, published_at=at)


class TestLocationAt:
    def test_lookup_between_trace_points(self):
        location_at = value_at_factory([(0.0, "r1"), (10.0, "r2"), (20.0, "r3")])
        assert location_at(-1.0) is None
        assert location_at(0.0) == "r1"
        assert location_at(9.9) == "r1"
        assert location_at(10.0) == "r2"
        assert location_at(99.0) == "r3"

    def test_empty_trace(self):
        assert value_at_factory([])(5.0) is None

    def test_the_last_value_recorded_at_a_time_wins(self):
        battery_at = value_at_factory([(0.0, 100), (10.0, 85), (10.0, 70), (20.0, 55)])
        assert battery_at(10.0) == 70
        assert battery_at(19.9) == 70


class TestRelevance:
    def test_relevant_ids_follow_the_trace(self):
        space = office_floor_space(n_rooms=4, rooms_per_broker=4)
        rooms = space.locations
        template = location_dependent({"service": "temperature"})
        location_at = value_at_factory([(0.0, rooms[0]), (10.0, rooms[1])])
        published = [
            make_notification(rooms[0], 5.0),   # relevant (client in rooms[0])
            make_notification(rooms[1], 5.0),   # not relevant yet
            make_notification(rooms[1], 15.0),  # relevant (client moved)
            make_notification(rooms[0], 15.0),  # no longer relevant
            make_notification(rooms[0], 5.0, service="stock"),  # wrong service
        ]
        relevant = relevant_notification_ids(published, location_at, template, space)
        assert relevant == {published[0].notification_id, published[2].notification_id}

    def test_unstamped_or_unknown_location_ignored(self):
        space = office_floor_space(n_rooms=2, rooms_per_broker=2)
        template = location_dependent({"service": "temperature"})
        published = [
            Notification({"service": "temperature", "location": space.locations[0]}),  # no timestamp
            make_notification(space.locations[0], 100.0),  # before the trace starts
        ]
        relevant = relevant_notification_ids(
            published, value_at_factory([(200.0, space.locations[0])]), template, space
        )
        assert relevant == set()


class TestOutcomes:
    def test_plain_delivery_outcome(self):
        published = [Notification({"service": "stock", "seq": i}, published_at=float(i)) for i in range(5)]
        stock_filter = Filter([Equals("service", "stock")])
        delivered_ids = [published[0].notification_id, published[1].notification_id, published[1].notification_id]
        outcome = evaluate_plain_delivery(delivered_ids, published, stock_filter)
        assert outcome.relevant == 5
        assert outcome.delivered_relevant == 2
        assert outcome.missed == 3
        assert outcome.duplicates == 1
        assert outcome.miss_rate == pytest.approx(0.6)
        assert outcome.delivery_rate == pytest.approx(0.4)

    def test_outcome_with_no_relevant_notifications(self):
        outcome = DeliveryOutcome(
            relevant=0, delivered_relevant=0, missed=0, duplicates=0, extraneous=0, replayed=0, live=0
        )
        assert outcome.miss_rate == 0.0
        assert outcome.delivery_rate == 1.0
        assert "miss_rate" in outcome.as_row()


class TestHandoverLatencies:
    def test_first_delivery_assigned_to_the_right_attachment(self):
        client = MobileClient("alice", transport=SimTransport())
        client.attachments.extend(
            [
                AttachmentRecord(broker="B1", requested_at=0.0, welcomed_at=0.1),
                AttachmentRecord(broker="B2", requested_at=10.0, welcomed_at=10.2),
            ]
        )
        client.deliveries.extend(
            [
                MobileDelivery(Notification({"a": 1}), received_at=0.5, replayed=False, location=None),
                MobileDelivery(Notification({"a": 2}), received_at=11.0, replayed=True, location=None),
            ]
        )
        latencies = handover_latencies(client)
        assert len(latencies) == 2
        assert latencies[0].first_delivery_latency == pytest.approx(0.5)
        assert latencies[1].first_delivery_latency == pytest.approx(1.0)
        assert latencies[0].setup_latency == pytest.approx(0.1)

    def test_attachment_without_delivery(self):
        client = MobileClient("alice", transport=SimTransport())
        client.attachments.append(AttachmentRecord(broker="B1", requested_at=0.0))
        (latency,) = handover_latencies(client)
        assert latency.first_delivery_latency is None
        assert latency.setup_latency is None


class TestStatistics:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([1.0, None, 3.0]) == pytest.approx(2.0)

    def test_percentile(self):
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 10.0
        assert percentile(values, 50) == pytest.approx(5.5)
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 90) == 7.0
