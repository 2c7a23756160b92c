"""Round-trip and framing tests for the wire codec (repro.net.wire)."""

import math

import pytest

from repro.net.process import Message
from repro.net.wire import (
    FrameDecoder,
    WireError,
    decode_control,
    decode_message,
    encode_control,
    encode_message,
    frame,
    frame_message,
)
from repro.pubsub.filters import (
    Equals,
    Exists,
    Filter,
    InSet,
    NotEquals,
    Prefix,
    Range,
)
from repro.pubsub.notification import Notification
from repro.pubsub.subscription import Subscription


def roundtrip(message: Message) -> Message:
    return decode_message(encode_message(message))


class TestMessageRoundTrip:
    def test_notify_message(self):
        notification = Notification(
            {"service": "temperature", "value": 21.5, "room": "r4"},
            published_at=12.5,
            publisher="c1",
        )
        message = Message(kind="notify", payload=notification, sender="B1", meta={"hops": 2})
        message2 = roundtrip(message)
        assert message2.kind == "notify"
        assert message2.sender == "B1"
        assert message2.msg_id == message.msg_id
        assert message2.meta == {"hops": 2}
        assert message2.payload == notification
        assert message2.payload.published_at == 12.5
        assert message2.payload.publisher == "c1"

    def test_subscribe_message_with_every_constraint_kind(self):
        filter = Filter(
            [
                Exists("service"),
                Equals("room", "r4"),
                NotEquals("state", "off"),
                InSet("zone", {"a", "b", "c"}),
                Range("value", 0, 100, include_low=False),
                Prefix("name", "temp-"),
            ]
        )
        sub = Subscription(sub_id="s1", filter=filter, subscriber="c1", meta={"app": "demo"})
        message2 = roundtrip(Message(kind="subscribe", payload=sub, sender="c1"))
        assert message2.payload.sub_id == "s1"
        assert message2.payload.subscriber == "c1"
        assert message2.payload.meta == {"app": "demo"}
        assert message2.payload.filter == filter

    def test_unsubscribe_control_payload(self):
        filter = Filter([Equals("service", "x")])
        message2 = roundtrip(
            Message(kind="unsubscribe", payload={"sub_id": "s9", "filter": filter}, sender="c1")
        )
        assert message2.payload["sub_id"] == "s9"
        assert message2.payload["filter"] == filter

    def test_half_open_range_uses_json_infinity(self):
        filter = Filter([Range("value", low=10)])  # high defaults to +inf
        decoded = roundtrip(Message(kind="subscribe", payload=filter)).payload
        (constraint,) = decoded.constraints
        assert constraint.high == math.inf
        assert decoded == filter

    def test_containers_round_trip_with_types_preserved(self):
        payload = {
            "list": [1, 2.5, "x", None, True],
            "tuple": (1, "a"),
            "set": {3, 1, 2},
            "frozenset": frozenset({"a", "b"}),
            "nested": {"deep": [{"k": (False,)}]},
        }
        decoded = roundtrip(Message(kind="ctl", payload=payload)).payload
        assert decoded["list"] == [1, 2.5, "x", None, True]
        assert decoded["tuple"] == (1, "a")
        assert isinstance(decoded["tuple"], tuple)
        # mutability round-trips: set stays set, frozenset stays frozenset
        assert decoded["set"] == {1, 2, 3} and type(decoded["set"]) is set
        assert decoded["frozenset"] == frozenset({"a", "b"})
        assert type(decoded["frozenset"]) is frozenset
        assert decoded["nested"] == {"deep": [{"k": (False,)}]}

    def test_encoding_is_deterministic(self):
        notification = Notification({"b": 1, "a": 2}, published_at=1.0, publisher="p")
        one = Message(kind="notify", payload=notification, sender="B1", msg_id=7)
        two = Message(kind="notify", payload=notification, sender="B1", msg_id=7)
        assert encode_message(one) == encode_message(two)

    def test_unknown_payload_type_rejected(self):
        class Opaque:
            pass

        with pytest.raises(WireError):
            encode_message(Message(kind="x", payload=Opaque()))

    def test_unbound_template_rejected(self):
        sub = Subscription(sub_id="s1", filter=Filter(()), subscriber="c", template=object())
        with pytest.raises(WireError):
            encode_message(Message(kind="subscribe", payload=sub))

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(WireError):
            encode_message(Message(kind="x", payload={1: "a"}))

    def test_non_string_meta_and_attribute_keys_rejected(self):
        # json.dumps would silently stringify these, diverging from the sim
        # backend's by-reference delivery — the codec must refuse instead
        with pytest.raises(WireError):
            encode_message(Message(kind="x", meta={1: "hop"}))
        with pytest.raises(WireError):
            encode_message(Message(kind="notify", payload=Notification({2: "v"})))

    def test_malformed_body_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"{not json")

    def test_control_codec(self):
        handshake = {"target": "B2", "link": 4, "direction": ("a", "b")}
        assert decode_control(encode_control(handshake)) == handshake


class TestFraming:
    def test_frame_round_trips_through_the_decoder(self):
        bodies = [b"alpha", b"", b"gamma" * 100]
        stream = b"".join(frame(b) for b in bodies)
        decoder = FrameDecoder()
        assert decoder.feed(stream) == bodies
        assert decoder.pending_bytes == 0

    def test_decoder_handles_arbitrary_chunking(self):
        message = Message(kind="notify", payload=Notification({"v": 1}), sender="B1")
        stream = frame_message(message) * 3
        for chunk_size in (1, 2, 5, 7, len(stream)):
            decoder = FrameDecoder()
            bodies = []
            for start in range(0, len(stream), chunk_size):
                bodies.extend(decoder.feed(stream[start : start + chunk_size]))
            assert len(bodies) == 3
            assert decoder.pending_bytes == 0
            assert all(decode_message(b).payload == message.payload for b in bodies)

    def test_partial_frame_stays_buffered(self):
        decoder = FrameDecoder()
        stream = frame(b"hello")
        assert decoder.feed(stream[:3]) == []
        assert decoder.pending_bytes == 3
        assert decoder.feed(stream[3:]) == [b"hello"]

    def test_oversized_frame_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", 1 << 30))

    def test_many_frames_on_one_connection_compact_buffer(self):
        """Regression: a long-lived connection must not pay per-frame slicing.

        Feeds thousands of frames through one decoder — in bursts, split at
        hostile chunk boundaries — and asserts that every body comes out in
        order and that the internal buffer only ever retains the partial
        tail, i.e. consumed frames are compacted away each feed.
        """
        decoder = FrameDecoder()
        bodies = [f"frame-{i}".encode() * (1 + i % 7) for i in range(3000)]
        stream = b"".join(frame(b) for b in bodies)
        out = []
        # bursts of ~100 frames per feed, with a boundary-straddling remainder
        chunk = 4096
        for start in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[start : start + chunk]))
            # the buffer holds exactly the bytes of the incomplete tail frame
            assert len(decoder._buffer) == decoder.pending_bytes
            assert decoder.pending_bytes < chunk + 4
        assert out == bodies
        assert decoder.pending_bytes == 0

    def test_single_feed_burst_returns_all_frames(self):
        decoder = FrameDecoder()
        bodies = [b"x" * i for i in range(200)]
        assert decoder.feed(b"".join(frame(b) for b in bodies)) == bodies
        assert decoder.pending_bytes == 0
