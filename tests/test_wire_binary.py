"""Binary wire codec: round-trips, codec negotiation, and batched framing.

Four concerns, matching what swapping the socket backends onto the binary
codec demands:

1. **Round-trips under both codecs** — every payload type in the closed wire
   set must satisfy encode → decode → encode *byte equality* under the JSON
   reference codec and the binary codec, and a binary round-trip must decode
   to a byte-identical JSON re-encoding (JSON stays the golden-trace
   reference, so the binary codec may never lose information it pins);
2. **Determinism across hash seeds** — the binary bytes must not depend on
   ``PYTHONHASHSEED`` any more than the JSON bytes do (subprocess
   cross-check, same pattern as the mobility wire tests);
3. **Loud codec negotiation** — a codec, wire-revision or string-table skew
   fails at the handshake (:class:`CodecMismatchError`, distinct from the
   :class:`WireError` raised for truncation), an armed
   :class:`FrameDecoder` rejects foreign frames, and an out-of-range
   string-table reference is rejected instead of silently misread;
4. **Batched framing boundaries** — a dispatch burst exactly at, one byte
   over, and one byte under the asyncio flush cap must flush (or defer)
   correctly and deliver every message intact.
"""

import hashlib
import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro.net.wire as wire
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport
from repro.net.wire import (
    BINARY_CODEC,
    JSON_CODEC,
    CodecMismatchError,
    FrameDecoder,
    WireError,
    check_handshake_codec,
    decode_message,
    decode_message_binary,
    encode_message,
    encode_message_binary,
    frame,
    frame_message_binary,
    handshake_fields,
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

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_wire_mobility import _sample_payloads  # noqa: E402


def _all_payloads():
    """Every payload type the wire set is closed over.

    The mobility control payloads (hello, templates, handover request/reply,
    stats, templated subscriptions) come from the PR-5 sample set; the rest
    covers notifications with every attribute value type, every constraint
    kind, plain subscriptions, and the tagged containers.
    """
    payloads = dict(_sample_payloads())
    payloads["notification"] = Notification(
        {
            "topic": "t",
            "value": 21.5,
            "seq": 3,
            "neg": -7,
            "wide": 2**40,
            "big": -(2**80),
            "flag": True,
            "off": False,
            "none": None,
            "text": "héllo ✓",
            "pad": "x" * 300,
        },
        published_at=1.5,
        publisher="p",
        notification_id=9,
    )
    payloads["every_constraint_filter"] = Filter(
        [
            Exists("service"),
            Equals("room", "r4"),
            NotEquals("state", "off"),
            InSet("zone", {"a", "b", "c"}),
            Range("value", 0, 100, include_low=False),
            Prefix("name", "temp-"),
        ]
    )
    payloads["half_open_range"] = Filter([Range("value", low=10)])
    payloads["plain_subscription"] = Subscription(
        sub_id="s2", filter=Filter([Equals("a", 1)]), subscriber="c", meta={"app": "demo"}
    )
    payloads["containers"] = {
        "list": [1, 2.5, "x", None, True],
        "tuple": (1, "a"),
        "set": {3, 1, 2},
        "frozenset": frozenset({"a", "b"}),
        "nested": {"deep": [{"k": (False,)}]},
    }
    payloads["unsubscribe"] = {"sub_id": "s9", "filter": Filter([Equals("service", "x")])}
    return payloads


_CODECS = {"json": JSON_CODEC, "binary": BINARY_CODEC}


def _canonical_bytes(codec_name: str) -> bytes:
    encode = _CODECS[codec_name].encode_message
    chunks = []
    for name, payload in sorted(_all_payloads().items()):
        chunks.append(encode(Message(kind=name, payload=payload, sender="x", msg_id=1)))
    return b"".join(chunks)


# ----------------------------------------------------------------- round-trips


class TestRoundTripsUnderBothCodecs:
    @pytest.mark.parametrize("name", sorted(_all_payloads()))
    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_encode_decode_encode_byte_equality(self, codec_name, name):
        codec = _CODECS[codec_name]
        payload = _all_payloads()[name]
        first = codec.encode_message(Message(kind=name, payload=payload, sender="x", msg_id=1))
        decoded = codec.decode_message(first)
        second = codec.encode_message(
            Message(kind=name, payload=decoded.payload, sender="x", msg_id=1)
        )
        assert first == second

    @pytest.mark.parametrize("name", sorted(_all_payloads()))
    def test_binary_roundtrip_decodes_to_byte_identical_json_reencoding(self, name):
        # the acceptance bar for keeping JSON as the golden-trace reference:
        # whatever crosses the wire in binary re-encodes to the exact JSON
        # bytes the reference codec would have produced
        payload = _all_payloads()[name]
        message = Message(kind=name, payload=payload, sender="x", msg_id=1)
        reference = encode_message(message)
        decoded = decode_message_binary(encode_message_binary(message))
        assert encode_message(decoded) == reference

    def test_frame_message_binary_matches_frame_of_encode(self):
        # the single-buffer sender fast path must be byte-identical to the
        # compositional framing it shortcuts
        for name, payload in sorted(_all_payloads().items()):
            message = Message(kind=name, payload=payload, sender="x", msg_id=1)
            assert frame_message_binary(message) == frame(encode_message_binary(message))

    def test_binary_envelope_fields_survive(self):
        message = Message(
            kind="notify",
            payload=_all_payloads()["notification"],
            sender="B1",
            msg_id=12345,
            meta={"hops": 2, "sub": "s1"},
        )
        decoded = decode_message_binary(encode_message_binary(message))
        assert decoded.kind == "notify"
        assert decoded.sender == "B1"
        assert decoded.msg_id == 12345
        assert decoded.meta == {"hops": 2, "sub": "s1"}
        assert decoded.payload == message.payload


class TestHashSeedDeterminism:
    def test_both_codecs_identical_under_two_hash_seeds(self):
        """Encode the payload set under PYTHONHASHSEED=0 and =1; digests must match."""
        digests = {}
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            src = str(Path(wire.__file__).resolve().parents[2])
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            script = (
                "import sys; sys.path.insert(0, 'tests');"
                "import hashlib, test_wire_binary as t;"
                "print(hashlib.sha256(t._canonical_bytes('json')).hexdigest(),"
                " hashlib.sha256(t._canonical_bytes('binary')).hexdigest())"
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                cwd=str(Path(__file__).resolve().parents[1]),
                capture_output=True,
                text=True,
                check=True,
            )
            digests[seed] = output.stdout.split()
        assert digests["0"] == digests["1"]
        # and the parent process (whatever its seed) agrees too
        assert [
            hashlib.sha256(_canonical_bytes("json")).hexdigest(),
            hashlib.sha256(_canonical_bytes("binary")).hexdigest(),
        ] == digests["0"]


# ----------------------------------------------------- loud codec negotiation


class TestCodecMismatchIsDistinctFromTruncation:
    def test_json_decoder_names_a_binary_body(self):
        body = encode_message_binary(Message(kind="x", payload=1, msg_id=1))
        with pytest.raises(CodecMismatchError, match="binary frame on a JSON-codec"):
            decode_message(body)

    def test_binary_decoder_names_a_json_body(self):
        body = encode_message(Message(kind="x", payload=1, msg_id=1))
        with pytest.raises(CodecMismatchError, match="JSON frame on a binary-codec"):
            decode_message_binary(body)

    def test_binary_decoder_names_an_unknown_wire_version(self):
        with pytest.raises(CodecMismatchError, match="version"):
            decode_message_binary(bytes([wire.BINARY_VERSION + 1, 0x00]))

    def test_truncation_is_a_plain_wire_error(self):
        # a truncated binary body is corruption, not negotiation failure:
        # it must NOT be reported as a codec mismatch
        body = encode_message_binary(Message(kind="x", payload="y" * 50, msg_id=1))
        with pytest.raises(WireError) as excinfo:
            decode_message_binary(body[:10])
        assert not isinstance(excinfo.value, CodecMismatchError)

    def test_armed_decoder_rejects_foreign_frames(self):
        json_frame = JSON_CODEC.frame_message(Message(kind="x", payload=1, msg_id=1))
        binary_frame = frame_message_binary(Message(kind="x", payload=1, msg_id=1))
        with pytest.raises(CodecMismatchError, match="negotiated the 'binary' codec"):
            FrameDecoder(codec="binary").feed(json_frame)
        with pytest.raises(CodecMismatchError, match="negotiated the 'json' codec"):
            FrameDecoder(codec="json").feed(binary_frame)

    def test_armed_decoder_still_buffers_partial_frames_silently(self):
        # truncation (an incomplete frame) is not a mismatch: the armed
        # decoder must keep buffering, and only a *complete* foreign body
        # raises
        decoder = FrameDecoder(codec="binary")
        binary_frame = frame_message_binary(Message(kind="x", payload="z" * 20, msg_id=1))
        assert decoder.feed(binary_frame[:7]) == []
        assert decoder.pending_bytes == 7
        (body,) = decoder.feed(binary_frame[7:])
        assert decode_message_binary(body).payload == "z" * 20

    def test_armed_decoder_oversize_is_a_plain_wire_error(self):
        decoder = FrameDecoder(codec="binary")
        with pytest.raises(WireError) as excinfo:
            decoder.feed(struct.pack(">I", wire.MAX_FRAME_SIZE + 1))
        assert not isinstance(excinfo.value, CodecMismatchError)


class TestHandshakeVersionNegotiation:
    def test_codec_name_mismatch_rejected(self):
        with pytest.raises(CodecMismatchError, match="peer negotiated codec 'binary'"):
            check_handshake_codec(handshake_fields(BINARY_CODEC), JSON_CODEC)
        with pytest.raises(CodecMismatchError, match="peer negotiated codec 'json'"):
            check_handshake_codec(handshake_fields(JSON_CODEC), BINARY_CODEC)

    def test_matching_handshakes_accepted(self):
        check_handshake_codec(handshake_fields(JSON_CODEC), JSON_CODEC)
        check_handshake_codec(handshake_fields(BINARY_CODEC), BINARY_CODEC)

    def test_pre_codec_handshake_is_treated_as_json(self):
        check_handshake_codec({"peer": "B1"}, JSON_CODEC)
        with pytest.raises(CodecMismatchError):
            check_handshake_codec({"peer": "B1"}, BINARY_CODEC)

    def test_binary_wire_revision_skew_rejected(self):
        fields = handshake_fields(BINARY_CODEC)
        fields["wire"] = wire.WIRE_VERSION + 1
        with pytest.raises(CodecMismatchError, match="wire revision"):
            check_handshake_codec(fields, BINARY_CODEC)

    def test_binary_string_table_skew_rejected(self):
        fields = handshake_fields(BINARY_CODEC)
        fields["table"] = wire._TABLE_LEN + 1
        with pytest.raises(CodecMismatchError, match="string table"):
            check_handshake_codec(fields, BINARY_CODEC)


class TestStringTableHardening:
    def test_last_table_entry_is_readable(self):
        buf = bytes([wire._B_SREF, wire._TABLE_LEN - 1])
        value, pos = wire._b_read(buf, 0)
        assert value == wire.STRING_TABLE[-1] and pos == 2

    def test_out_of_range_index_rejected(self):
        body = bytes([wire.BINARY_VERSION, wire._B_SREF, wire._TABLE_LEN])
        with pytest.raises(WireError, match="out of range"):
            decode_message_binary(body)

    def test_out_of_range_index_rejected_inside_notification_attrs(self):
        # the notification decode inlines its attrs-dict read; the bounds
        # check must hold on that fast path too, not only in the generic
        # reader
        body = bytearray([wire.BINARY_VERSION, wire._B_MESSAGE])
        wire._w_str(body, "notify")
        body += bytes([wire._B_NOTIFICATION, wire._B_DICT, 1, wire._B_SREF, 254])
        with pytest.raises(WireError, match="out of range"):
            decode_message_binary(bytes(body))


class TestMixedCodecHandshakeOverSockets:
    @pytest.mark.parametrize("server_codec,client_codec", [("json", "binary"), ("binary", "json")])
    def test_foreign_codec_client_fails_loudly(self, server_codec, client_codec):
        """A client that negotiated the other codec is rejected at the
        handshake — surfacing CodecMismatchError to the driver instead of
        feeding garbage frames to the decoder later.

        The raw socket is a connection the transport never opened, so its
        bytes are not counted work and ``run_until_idle`` would return at
        once; outside peers are served by driving the loop by time."""
        transport = AsyncioTransport(codec=server_codec)
        try:
            a = Recorder(transport.clock, "a")
            b = Recorder(transport.clock, "b")
            transport.make_link(a, b, latency=0.0)
            host, port = transport._addresses["b"]
            handshake = {
                "link": 999,
                "source": "z",
                "target": "b",
                **handshake_fields(_CODECS[client_codec]),
            }
            with socket.create_connection((host, port)) as raw:
                raw.sendall(frame(wire.encode_control(handshake)))
                with pytest.raises(CodecMismatchError):
                    transport.run(until=transport.clock.now + 0.2)
        finally:
            transport.close()


# ------------------------------------------------------ batched-frame boundary


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def binary_pair():
    transport = AsyncioTransport(codec="binary")
    a = Recorder(transport.clock, "a")
    b = Recorder(transport.clock, "b")
    link = transport.make_link(a, b, latency=0.0)
    yield transport, a, b, link
    transport.close()


class TestBatchedFrameBoundary:
    """A send burst against the flush cap: at the cap and one byte over must
    flush immediately; one byte under must stay buffered until the event
    loop spins.  Every case must deliver all messages intact."""

    def _burst(self, transport):
        # two equal-sized messages with pinned msg_ids, so the framed burst
        # size is exact and reproducible
        messages = [
            Message("burst", payload="a" * 32, msg_id=1),
            Message("burst", payload="b" * 32, msg_id=2),
        ]
        total = 0
        for message in messages:
            probe = Message(
                message.kind, payload=message.payload, sender="a", msg_id=message.msg_id
            )
            total += len(transport.codec.frame_message(probe))
        return messages, total

    def test_burst_exactly_at_cap_flushes_immediately(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst(transport)
        transport.FLUSH_CAP = total
        a.send_many("b", messages)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == 0, "a burst at the cap must flush synchronously"
        assert endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_burst_one_byte_over_cap_flushes_immediately(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst(transport)
        transport.FLUSH_CAP = total - 1
        a.send_many("b", messages)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == 0, "a burst over the cap must flush synchronously"
        assert endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_burst_one_byte_under_cap_defers_to_the_loop(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst(transport)
        transport.FLUSH_CAP = total + 1
        a.send_many("b", messages)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == total, "an under-cap burst must buffer"
        assert endpoint in transport._dirty
        assert b.received == []
        transport.run_until_idle()
        assert len(endpoint._buffer) == 0
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_sequential_sends_cross_the_cap_mid_burst(self, binary_pair):
        # the cap check runs per _send_frames call: the send that crosses
        # the cap flushes everything buffered so far, frames never split
        transport, a, b, link = binary_pair
        messages, total = self._burst(transport)
        transport.FLUSH_CAP = total
        first, second = messages
        a.send("b", first)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) > 0 and endpoint in transport._dirty
        a.send("b", second)
        assert len(endpoint._buffer) == 0 and endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_json_codec_never_buffers(self):
        transport = AsyncioTransport(codec="json")
        try:
            a = Recorder(transport.clock, "a")
            b = Recorder(transport.clock, "b")
            link = transport.make_link(a, b, latency=0.0)
            a.send_many("b", [Message("x", payload=1), Message("x", payload=2)])
            assert len(link._a_to_b._buffer) == 0
            assert not transport._dirty
            transport.run_until_idle()
            assert [m.payload for m in b.received] == [1, 2]
        finally:
            transport.close()
