"""Wire-codec coverage for the mobility payload types and codec hardening.

Three concerns, matching what running the replicated-handover protocol over
real sockets demands of the codec:

1. **Round-trips** — every replication control payload (client hello,
   location templates, handover request/reply, replicator stats, templated
   subscriptions) must satisfy encode → decode → encode *byte equality*;
2. **Determinism across hash seeds** — the canonical bytes must not depend
   on ``PYTHONHASHSEED`` (sets and dicts are iteration-order hazards), so a
   subprocess under a different seed must produce the identical digest;
3. **Frame-size hardening** — a corrupt length prefix must raise
   :class:`WireError` at the boundary instead of attempting a multi-GB
   allocation, on both the encode (``frame``) and decode (``FrameDecoder``)
   sides.
"""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro.net.wire as wire
from repro.core.location_filter import MYLOC, location_dependent
from repro.core.physical_mobility import HandoverReply, HandoverRequest
from repro.core.replicator import ClientHello, ReplicatorStats
from repro.net.process import Message
from repro.net.wire import (
    FrameDecoder,
    WireError,
    decode_message,
    encode_message,
    frame,
)
from repro.pubsub.filters import Equals, Filter, InSet, Range
from repro.pubsub.notification import Notification
from repro.pubsub.subscription import Subscription


def _sample_template():
    return location_dependent(
        {"service": "news", "zone": {"a", "b"}, "location": MYLOC}, scope="region"
    )


def _sample_payloads():
    """The canonical payload set shared by round-trip and hash-seed tests."""
    template = _sample_template()
    hello = ClientHello(
        client_id="c1",
        location="l1",
        templates={"t1": template, "t2": location_dependent({"service": "temp"})},
        plain_filters={"p1": Filter([Equals("service", "alerts"), Range("level", 1, 5)])},
        previous_broker="B9",
        reissue=True,
    )
    reply = HandoverReply(
        client_id="c1",
        old_broker="B1",
        plain_filters={"p1": Filter([InSet("zone", {"x", "y", "z"})])},
        buffered_plain=[Notification({"v": 1}, published_at=0.5, publisher="p", notification_id=11)],
        buffered_location=[Notification({"v": 2}, notification_id=12)],
    )
    return {
        "hello": hello,
        "template": template,
        "request": HandoverRequest(client_id="c1", new_broker="B2", new_replicator="R@B2"),
        "reply": reply,
        "stats": ReplicatorStats(shadows_created=3, handovers=2, notifications_buffered=17),
        "templated_subscription": Subscription(
            sub_id="s1",
            filter=template.bind(["l1", "l2"]),
            subscriber="c1",
            location_dependent=True,
            template=template,
        ),
    }


def _canonical_bytes() -> bytes:
    chunks = []
    for name, payload in sorted(_sample_payloads().items()):
        chunks.append(encode_message(Message(kind=name, payload=payload, sender="x", msg_id=1)))
    return b"".join(chunks)


class TestReplicationPayloadRoundTrips:
    @pytest.mark.parametrize("name", sorted(_sample_payloads()))
    def test_encode_decode_encode_byte_equality(self, name):
        payload = _sample_payloads()[name]
        first = encode_message(Message(kind=name, payload=payload, sender="x", msg_id=1))
        decoded = decode_message(first)
        second = encode_message(
            Message(kind=name, payload=decoded.payload, sender="x", msg_id=1)
        )
        assert first == second

    def test_client_hello_content_survives(self):
        hello = _sample_payloads()["hello"]
        decoded = decode_message(
            encode_message(Message(kind="client_hello", payload=hello, msg_id=1))
        ).payload
        assert isinstance(decoded, ClientHello)
        assert decoded.client_id == "c1" and decoded.previous_broker == "B9"
        assert decoded.templates == hello.templates
        assert decoded.plain_filters == hello.plain_filters

    def test_handover_reply_buffers_survive(self):
        reply = _sample_payloads()["reply"]
        decoded = decode_message(
            encode_message(Message(kind="handover_reply", payload=reply, msg_id=1))
        ).payload
        assert decoded.buffered_plain == reply.buffered_plain
        assert decoded.buffered_plain[0].published_at == 0.5
        assert decoded.buffered_location == reply.buffered_location
        assert decoded.plain_filters == reply.plain_filters

    def test_templated_subscription_keeps_its_template(self):
        sub = _sample_payloads()["templated_subscription"]
        decoded = decode_message(
            encode_message(Message(kind="subscribe", payload=sub, msg_id=1))
        ).payload
        assert decoded.template == sub.template
        assert decoded.filter == sub.filter and decoded.location_dependent

    def test_replicator_stats_roundtrip(self):
        stats = _sample_payloads()["stats"]
        decoded = decode_message(
            encode_message(Message(kind="stats", payload=stats, msg_id=1))
        ).payload
        assert decoded == stats

    def test_plain_subscription_encoding_unchanged(self):
        # the "template" key only appears when a template rides along, so
        # pre-mobility encodings (and the golden traces hashing them) are
        # byte-stable
        sub = Subscription(sub_id="s1", filter=Filter([Equals("a", 1)]), subscriber="c")
        assert b'"template"' not in encode_message(Message(kind="subscribe", payload=sub, msg_id=1))

    def test_opaque_template_still_rejected(self):
        sub = Subscription(sub_id="s1", filter=Filter(()), subscriber="c", template=object())
        with pytest.raises(WireError):
            encode_message(Message(kind="subscribe", payload=sub, msg_id=1))


class TestHashSeedDeterminism:
    def test_canonical_bytes_identical_under_two_hash_seeds(self):
        """Encode the payload set under PYTHONHASHSEED=0 and =1; digests must match."""
        digests = {}
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            src = str(Path(wire.__file__).resolve().parents[2])
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            script = (
                "import hashlib, tests.test_wire_mobility as t;"
                "print(hashlib.sha256(t._canonical_bytes()).hexdigest())"
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                cwd=str(Path(__file__).resolve().parents[1]),
                capture_output=True,
                text=True,
                check=True,
            )
            digests[seed] = output.stdout.strip()
        assert digests["0"] == digests["1"]
        # and the parent process (whatever its seed) agrees too
        assert hashlib.sha256(_canonical_bytes()).hexdigest() == digests["0"]


class TestNotificationEncodingCache:
    def test_fragment_cached_and_bytes_identical(self):
        notification = Notification({"b": 1, "a": 2.5}, published_at=1.0, publisher="p",
                                    notification_id=7)
        assert notification._wire_json is None
        first = encode_message(Message(kind="notify", payload=notification, sender="B1", msg_id=3))
        assert notification._wire_json is not None
        cached_fragment = notification._wire_json
        second = encode_message(Message(kind="notify", payload=notification, sender="B1", msg_id=3))
        assert first == second
        assert notification._wire_json is cached_fragment, "the cache must be reused, not rebuilt"

    def test_forwarded_copy_shares_the_cache(self):
        notification = Notification({"v": 9}, notification_id=21)
        message = Message(kind="notify", payload=notification, sender="B1", msg_id=1)
        encode_message(message)
        forwarded = message.copy()
        assert forwarded.payload is notification, "immutable payloads stay shared"
        assert forwarded.payload._wire_json is notification._wire_json

    def test_decode_primes_the_cache_for_the_next_hop(self):
        notification = Notification({"v": 1, "w": "x"}, published_at=2.0, publisher="p",
                                    notification_id=5)
        encoded = encode_message(Message(kind="notify", payload=notification, sender="B1", msg_id=2))
        decoded = decode_message(encoded)
        assert decoded.payload._wire_json is not None, "decoding must prime the fragment cache"
        re_encoded = encode_message(
            Message(kind="notify", payload=decoded.payload, sender="B1", msg_id=2)
        )
        assert re_encoded == encoded

    def test_decode_primes_every_cached_record_it_builds(self):
        # not only a top-level payload: a filter inside an ``unsubscribe`` dict
        # and the notifications inside a ``handover_reply``'s buffers are
        # forwarded by the next hop too
        unsubscribe = {"sub_id": "s9", "filter": Filter([Equals("service", "x")])}
        reply = _sample_payloads()["reply"]
        for kind, payload in (("unsubscribe", unsubscribe), ("handover_reply", reply)):
            encoded = encode_message(Message(kind=kind, payload=payload, sender="B1", msg_id=2))
            decoded = decode_message(encoded).payload
            if kind == "unsubscribe":
                built = [decoded["filter"]]
                sent = [unsubscribe["filter"]]
            else:
                built = [*decoded.plain_filters.values(), *decoded.buffered_plain,
                         *decoded.buffered_location]
                sent = [*reply.plain_filters.values(), *reply.buffered_plain,
                        *reply.buffered_location]
            assert len(built) == len(sent) >= 1
            for mine, theirs in zip(built, sent):
                assert mine._wire_json is not None, f"{mine!r} was decoded but not primed"
                assert mine._wire_json == theirs._wire_json
            assert encode_message(
                Message(kind=kind, payload=decoded, sender="B1", msg_id=2)
            ) == encoded

    def test_mutation_paths_get_a_fresh_cache(self):
        notification = Notification({"v": 1}, notification_id=5)
        encode_message(Message(kind="notify", payload=notification, msg_id=1))
        mutated = notification.with_attributes(v=2)
        assert mutated._wire_json is None
        stamped = notification.stamped(published_at=3.0, publisher="p")
        assert stamped._wire_json is None
        one = encode_message(Message(kind="notify", payload=mutated, msg_id=1))
        assert one != encode_message(Message(kind="notify", payload=notification, msg_id=1))

    def test_cache_never_leaks_into_equality(self):
        plain = Notification({"v": 1}, notification_id=5)
        cached = Notification({"v": 1}, notification_id=5)
        encode_message(Message(kind="notify", payload=cached, msg_id=1))
        assert plain == cached
        assert hash(plain) == hash(cached)


class TestFrameSizeBoundary:
    def test_frame_accepts_exactly_max_and_rejects_one_more(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_SIZE", 64)
        assert len(frame(b"x" * 64)) == 68
        with pytest.raises(WireError):
            frame(b"x" * 65)

    def test_decoder_accepts_exactly_max_length(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_SIZE", 64)
        decoder = FrameDecoder()
        body = b"y" * 64
        assert decoder.feed(struct.pack(">I", 64) + body) == [body]

    def test_decoder_rejects_corrupt_length_without_buffering_it(self):
        # a real corrupt prefix: one byte over the actual limit.  The decoder
        # must raise from the 4 header bytes alone — before any attempt to
        # buffer (or worse, allocate) the advertised multi-MB body
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", wire.MAX_FRAME_SIZE + 1))
        assert decoder.pending_bytes <= 4

    def test_decoder_boundary_split_across_feeds(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_SIZE", 8)
        decoder = FrameDecoder()
        stream = struct.pack(">I", 8) + b"z" * 8
        assert decoder.feed(stream[:6]) == []
        assert decoder.feed(stream[6:]) == [b"z" * 8]
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", 9))
