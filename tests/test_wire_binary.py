"""Binary wire codec: round-trips, the fragment cache, negotiation, batched framing.

Sockets speak only the binary codec; JSON is the reference codec the golden
traces and corpus digests hash.  The concerns:

1. **Round-trips under both codecs** — every payload type in the closed wire
   set must satisfy encode → decode → encode *byte equality* under the JSON
   reference codec and the binary codec, and a binary round-trip must decode
   to a byte-identical JSON re-encoding (JSON stays the golden-trace
   reference, so the binary codec may never lose information it pins);
2. **Determinism across hash seeds** — the binary bytes must not depend on
   ``PYTHONHASHSEED`` any more than the JSON bytes do (subprocess
   cross-check, same pattern as the mobility wire tests);
3. **The fragment cache** — an immutable payload is encoded once, shared by
   forwarded copies and primed by the decoder, and never enters equality;
4. **Loud negotiation** — a wire-revision or string-table skew fails the
   cluster's handshake check (:class:`CodecMismatchError`, distinct from the
   :class:`WireError` raised for truncation), a body that is not binary is
   refused on a live link, an armed :class:`FrameDecoder` rejects foreign
   frames, and an out-of-range string-table reference is rejected instead
   of silently misread;
5. **Batched framing boundaries** — a dispatch burst exactly at, one byte
   over, and one byte under the asyncio flush cap must flush (or defer)
   correctly and deliver every message intact;
6. **Declared once** — the bytes of the payload corpus are pinned by digest
   under both codecs, the record table equals a literal schema (editing it
   without bumping ``WIRE_VERSION`` fails), each hand-written specialisation
   equals the generic walker it shortcuts — its inline fast paths over every
   envelope shape they take or decline, byte for byte and object for object —
   and no mutation of a valid body (corpus or hot-path shape) gets anything
   but a value or a :class:`WireError` out of the decoders, nor anything but
   an aborted connection out of a live receiver.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.net.wire as wire
from repro.cli import main
from repro.config import SystemConfig
from repro.core.location_filter import LocationDependentFilter
from repro.core.replicator import ClientHello
from repro.mobility.handover_workload import WorkloadSpec, run_handover_workload
from repro.net.process import Message, Process
from repro.net.transport import AsyncioTransport, _AsyncioDirectedEndpoint
from repro.obs.metrics import Counter
from repro.net.wire import (
    BINARY_CODEC,
    JSON_CODEC,
    CodecMismatchError,
    FrameDecoder,
    WireError,
    check_handshake_codec,
    decode_control,
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
from repro.pubsub.broker_network import line_topology
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


def _canonical_bytes(codec_name: str, payloads=None) -> bytes:
    encode = _CODECS[codec_name].encode_message
    chunks = []
    for name, payload in sorted((payloads or _all_payloads()).items()):
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
        # the joined frame must be byte-identical to the compositional
        # framing of the message as a link carries it: no sender, no id
        for name, payload in sorted(_all_payloads().items()):
            message = Message(kind=name, payload=payload, sender="x", msg_id=1)
            link = Message(name, payload, None, 0, {})
            assert frame_message_binary(message) == frame(encode_message_binary(link))

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


# -------------------------------------------------------------- fragment cache


def _notify(payload, msg_id=1):
    return Message(kind="notify", payload=payload, sender="B1", msg_id=msg_id)


def _cached_records(reply):
    return [*reply.plain_filters.values(), *reply.buffered_plain, *reply.buffered_location]


class TestBinaryFragmentCache:
    """``_wire_bin``: an immutable payload's binary fragment, encoded once."""

    def test_a_re_encode_reuses_the_fragment(self):
        notification = Notification(
            {"b": 1, "a": 2.5}, published_at=1.0, publisher="p", notification_id=7
        )
        assert notification._wire_bin is None
        first = encode_message_binary(_notify(notification, msg_id=3))
        cached_fragment = notification._wire_bin
        assert cached_fragment is not None
        assert encode_message_binary(_notify(notification, msg_id=3)) == first
        assert notification._wire_bin is cached_fragment, "the cache must be reused, not rebuilt"

    def test_the_next_hop_reuses_the_decoded_notification(self):
        # a broker forwards what it decoded in a new message; the node that
        # decoded it reads the spliced fragment back as the same object
        memo = _memo()
        notification = Notification({"v": 9}, notification_id=21)
        body = frame_message_binary(_notify(notification))[4:]
        decoded = decode_message_binary(body, memo).payload
        assert decoded == notification and decoded is not notification
        forwarded = Message("notify", decoded, sender="B2", msg_id=2)
        again = decode_message_binary(frame_message_binary(forwarded)[4:], memo).payload
        assert again is decoded, "the next hop reuses the decoded notification"
        assert decoded._wire_bin == notification._wire_bin is not None
        assert memo.reused.value == 1

    def test_decode_primes_the_fragment_for_the_next_hop(self):
        notification = Notification(
            {"v": 1, "w": "x"}, published_at=2.0, publisher="p", notification_id=5
        )
        encoded = encode_message_binary(_notify(notification, msg_id=2))
        decoded = decode_message_binary(encoded).payload
        assert decoded._wire_bin == notification._wire_bin is not None
        assert encode_message_binary(_notify(decoded, msg_id=2)) == encoded

    def test_decode_primes_every_cached_record_it_builds(self):
        # not only a top-level payload: a filter inside an ``unsubscribe`` dict
        # and the filters and notifications inside a ``handover_reply`` are
        # forwarded by the next hop too
        unsubscribe = {"sub_id": "s9", "filter": Filter([Equals("service", "x")])}
        reply = _sample_payloads()["reply"]
        for payload in (unsubscribe, reply):
            encoded = encode_message_binary(_notify(payload, msg_id=2))
            decoded = decode_message_binary(encoded).payload
            if payload is unsubscribe:
                built, sent = [decoded["filter"]], [unsubscribe["filter"]]
            else:
                built, sent = _cached_records(decoded), _cached_records(reply)
            assert len(built) == len(sent) >= 1
            for mine, theirs in zip(built, sent):
                assert mine._wire_bin is not None, f"{mine!r} was decoded but not primed"
                assert mine._wire_bin == theirs._wire_bin
            assert encode_message_binary(_notify(decoded, msg_id=2)) == encoded

    def test_mutation_paths_start_with_an_empty_cache(self):
        notification = Notification({"v": 1}, notification_id=5)
        encode_message_binary(_notify(notification))
        mutated = notification.with_attributes(v=2)
        stamped = notification.stamped(published_at=3.0, publisher="p")
        assert mutated._wire_bin is None and stamped._wire_bin is None
        original = encode_message_binary(_notify(notification))
        assert encode_message_binary(_notify(mutated)) != original

    def test_the_cache_never_enters_equality_or_hashing(self):
        plain = Notification({"v": 1}, notification_id=5)
        cached = Notification({"v": 1}, notification_id=5)
        encode_message_binary(_notify(cached))
        assert cached._wire_bin is not None and plain._wire_bin is None
        assert plain == cached
        assert hash(plain) == hash(cached)
        plain_filter, cached_filter = Filter([Equals("a", 1)]), Filter([Equals("a", 1)])
        encode_message_binary(_notify(cached_filter))
        assert plain_filter == cached_filter and hash(plain_filter) == hash(cached_filter)


# ---------------------------------------------------------- notification memo


def _memo():
    return wire.NotificationMemo(Counter("transport.notifications_reused"))


def _link_body(message):
    """The body a link carries for ``message``."""
    return frame_message_binary(message)[4:]


def _held_cost(memo):
    """``memo.size`` recounted: each body, its entry's overhead, and a tuple
    entry's own and per meta item."""
    total = 0
    for body, held in memo.items():
        total += len(body) + wire._ENTRY
        if type(held) is tuple:
            total += wire._TUPLE + wire._ITEM * len(held[2])
    return total


def _own_bytes(body, held):
    """What one memo entry holds of its own, by ``sys.getsizeof``: the body and,
    for a tuple entry, the tuple, its meta items and their pairs (the payload
    is the sender's or the receiver's, not the memo's)."""
    size = sys.getsizeof(body)
    if type(held) is tuple:
        size += sys.getsizeof(held) + sys.getsizeof(held[2]) + sum(map(sys.getsizeof, held[2]))
    return size


def _footprint(memo):
    """The memo's own bytes: its two tables and every entry's (``_own_bytes``)."""
    entries = sum(_own_bytes(body, held) for body, held in memo.items())
    return sys.getsizeof(memo) + sys.getsizeof(memo.known) + entries


def _fingerprint(message):
    """A decoded message as bytes: its JSON walks every decoded value (NaN
    included, which ``==`` would refuse), and the fragment it primed."""
    return encode_message(message), message.payload._wire_bin


def _outcome(decode, body):
    """What a decode gives: the message's fingerprint, or the error it raised."""
    try:
        return _fingerprint(decode(body))
    except WireError as exc:
        return type(exc), str(exc)


_DOMAIN_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)


@st.composite
def _domain_notifications(draw):
    """A notification over the value domain, under interned and uninterned keys."""
    keys = st.sampled_from(["topic", "value", "pad", "k", "ключ"])
    values = _DOMAIN_SCALARS | st.tuples(_DOMAIN_SCALARS, _DOMAIN_SCALARS)
    return Notification(
        draw(st.dictionaries(keys, values, max_size=4)),
        published_at=draw(st.sampled_from([None, 1.5, 3])),
        publisher=draw(st.sampled_from([None, "P1", "p" * 300])),
        notification_id=draw(st.sampled_from(_EDGE_INTS)),
    )


_KINDS = st.sampled_from(["notify", "publish", "x", "kind-é"])
_METAS = st.sampled_from([{}, {"replayed": True}, {"replayed": False}])


@st.composite
def _memo_streams(draw):
    """Bodies carrying a few notifications again and again: ``(body, held)``,
    a link body, or one that names a sender and an id, which is never held."""
    pool = draw(st.lists(_domain_notifications(), min_size=1, max_size=4))
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        message = Message(draw(_KINDS), draw(st.sampled_from(pool)), meta=draw(_METAS))
        if draw(st.integers(0, 3)):
            stream.append((_link_body(message), True))
        else:
            message.sender = draw(st.sampled_from([None, "B1", "x" * 255]))
            message.msg_id = draw(st.sampled_from([5, 70_000, 2**40]))
            stream.append((encode_message_binary(message), False))
    return stream


class TestNotificationMemo:
    """``NotificationMemo``: a node parses each link body carrying a
    notification once, and the memo changes no result, no error and no
    byte — only which object."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stream=_memo_streams())
    def test_a_stream_through_one_memo_equals_the_memo_free_decode(self, stream):
        memo = _memo()
        bodies, objects = set(), {}  # the bodies held; fragment -> its one object
        for body, held in stream:
            want = decode_message_binary(body)
            fragment = want.payload._wire_bin
            # a held body, or a held notification ahead of the link's empty tail
            unparsed = body in bodies or (
                held and body.endswith(wire._LINK_TAIL) and fragment in objects
            )
            reused = memo.reused.value
            got = decode_message_binary(body, memo)
            assert _fingerprint(got) == _fingerprint(want)
            assert type(got.payload) is Notification
            assert memo.reused.value == reused + unparsed
            if held:
                bodies.add(body)
                assert got.payload is objects.setdefault(fragment, got.payload)
            else:
                assert all(got.payload is not known for known in objects.values())
        assert memo.keys() == bodies and memo.known.keys() == objects.keys()
        assert memo.size == _held_cost(memo)

    def test_one_notification_is_one_object_whatever_kind_or_meta_it_comes_under(self):
        memo = _memo()
        notification = Notification({"topic": "t"}, notification_id=3)
        publish = decode_message_binary(_link_body(Message("publish", notification)), memo)
        assert memo.reused.value == 0
        notify = decode_message_binary(_link_body(Message("notify", notification)), memo)
        assert memo.reused.value == 1, "the empty tail spans the held fragment: no parse"
        replayed = Message("notify", notification, meta={"replayed": True})
        assert decode_message_binary(_link_body(replayed), memo).payload is publish.payload
        assert notify.payload is publish.payload and len(memo) == 3 and len(memo.known) == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        notification=_domain_notifications(),
        kind=_KINDS,
        meta=_METAS,
        cut=st.integers(0, 200),
        flip=st.integers(1, 255),
        operation=st.sampled_from(["truncate", "corrupt", "extend"]),
    )
    def test_a_mutated_held_body_raises_as_without_a_memo(
        self, notification, kind, meta, cut, flip, operation
    ):
        body = _link_body(Message(kind, notification, meta=meta))
        memo = _memo()
        decode_message_binary(body, memo)
        if operation == "truncate":
            hostile = body[: cut % len(body)]
        elif operation == "corrupt":
            at = cut % len(body)
            hostile = body[:at] + bytes([body[at] ^ flip]) + body[at + 1 :]
        else:
            hostile = body + bytes([flip]) * (cut % 5 + 1)
        outcome = _outcome(lambda body: decode_message_binary(body, memo), hostile)
        assert outcome == _outcome(decode_message_binary, hostile)

    @pytest.mark.parametrize("meta", [{}, {"replayed": True}], ids=["empty", "replayed"])
    def test_a_receiver_that_mutates_meta_cannot_change_the_next_read(self, meta):
        memo = _memo()
        notification = Notification({"topic": "t"}, notification_id=1)
        body = _link_body(Message("notify", notification, meta=dict(meta)))
        for _ in range(3):
            message = decode_message_binary(body, memo)
            assert message.meta == meta
            message.meta["replayed"] = "changed"
            message.meta["extra"] = 1
        assert memo.reused.value == 2

    @pytest.mark.parametrize(
        "message",
        [
            Message("subscribe", {"sub_id": "s9", "n": 1}),
            Message("notify", Notification({"v": 1}), sender="B1", msg_id=5),
            Message("notify", Notification({"v": 1}), meta={"path": ["B1"]}),
        ],
        ids=["no-notification", "a-sender-and-an-id", "a-list-in-meta"],
    )
    def test_only_a_link_body_carrying_a_notification_with_a_flat_meta_is_held(self, message):
        memo = _memo()
        body = encode_message_binary(message) if message.sender else _link_body(message)
        first, again = (decode_message_binary(body, memo) for _ in range(2))
        assert len(memo) == len(memo.known) == memo.size == memo.reused.value == 0
        assert encode_message(again) == encode_message(first)
        assert again.payload is not first.payload and again.meta is not first.meta

    @staticmethod
    def _padded(size, notification_id):
        """A link body about ``size`` bytes long, carrying a notification."""
        notification = Notification({"pad": "x" * size}, notification_id=notification_id)
        return _link_body(_notify(notification))

    def test_bodies_past_the_budget_leave_the_memo_within_it(self):
        memo = _memo()
        held = []
        for i in range(7):  # a little over a quarter of the budget each
            decode_message_binary(self._padded(wire.MEMO_BUDGET // 4, i), memo)
            assert memo.size == _held_cost(memo) <= wire.MEMO_BUDGET
            held.append(len(memo))
        assert held == [1, 2, 3, 1, 2, 3, 1], "emptied by the body that would exceed it"

    def test_a_body_larger_than_the_budget_is_never_held(self):
        memo = _memo()
        body = self._padded(wire.MEMO_BUDGET, 1)
        assert len(body) > wire.MEMO_BUDGET
        first = decode_message_binary(body, memo).payload
        assert len(memo) == len(memo.known) == memo.size == 0
        again = decode_message_binary(body, memo).payload
        assert again == first and again is not first

    def test_a_notification_decoded_after_the_memo_emptied_is_equal_and_fresh(self):
        memo = _memo()
        body = self._padded(100, 1)
        first = decode_message_binary(body, memo).payload
        assert decode_message_binary(body, memo).payload is first
        for i in range(2, 5):
            decode_message_binary(self._padded(wire.MEMO_BUDGET // 3, i), memo)
        assert body not in memo, "the memo was emptied"
        again = decode_message_binary(body, memo).payload
        assert again == first and again is not first

    def test_the_held_footprint_stays_within_the_budget(self):
        # what a link carries most: fresh publishes, replayed notifies (a
        # tuple entry with its meta) and subscriptions, held as they are
        # framed, past the budget; the footprint is read at every step, so
        # also just after each table grows and just before the memo empties
        memo, own, emptied = _memo(), 0, 0
        for i in range(25_000):
            notification = Notification({"topic": "t", "value": i, "pad": "x" * (i % 64)})
            if i % 3 == 0:
                message = _notify(notification)
            elif i % 3 == 1:
                message = Message("notify", notification, meta={"replayed": True})
            else:
                filter = Filter([Equals("topic", "t"), Range("value", 0, i)])
                message = Message("subscribe", Subscription(f"s{i}", filter, "c"))
            body = _link_body(message)
            before = len(memo)
            memo.hold(body, message.kind, message.payload, message.meta)
            if len(memo) < before:
                emptied += 1
                own = sum(_own_bytes(key, held) for key, held in memo.items())
            else:
                own += _own_bytes(body, memo[body])
            footprint = sys.getsizeof(memo) + sys.getsizeof(memo.known) + own
            assert footprint <= wire.MEMO_BUDGET and memo.size <= wire.MEMO_BUDGET
        assert emptied >= 2 and footprint == _footprint(memo)

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_three_clients_on_one_node_get_one_object(self, backend):
        # the simulator hands every subscriber the object the broker routed;
        # a socket node parses the one notify body once and does the same
        net = line_topology(n_brokers=3, link_latency=0.0, config=SystemConfig(transport=backend))
        try:
            clients = [net.add_client(f"c{i}", f"B{i}") for i in (1, 2, 3)]
            for client in clients:
                client.subscribe(Filter([Equals("topic", "t")]))
            net.run_until_idle()
            publisher = net.add_client("pub", "B1")
            for value in (1, 2):
                publisher.publish(Notification({"topic": "t", "value": value}))
                net.run_until_idle()
            delivered = [[d.notification for d in client.deliveries] for client in clients]
            counters = net.transport.metrics_snapshot()["transport"]["counters"]
        finally:
            net.close()
        for first, second, third in zip(*delivered, strict=True):
            assert first is second is third
        assert len(delivered[0]) == 2 and delivered[0][0] is not delivered[0][1]
        if backend == "asyncio":
            # the node frames every body it reads, so it parses none: nine
            # subscribe frames (c1..c3 to their brokers, then each filter on
            # down the line both ways: 2 + 2 + 2) and, per notification, six
            # frames (pub to B1, B1 to B2, B2 to B3, and a notify to each client)
            reused = counters["transport.notifications_reused"]
            assert reused == counters["transport.frames_sent"] == 9 + 2 * 6


# ------------------------------------------------------------- declared once

#: sha256 of ``_canonical_bytes`` per codec.  The golden traces hash JSON only;
#: this is what pins the binary bytes.  A change here is a wire change: bump
#: ``WIRE_VERSION`` (and expect every deployed peer to refuse the handshake).
_CORPUS_DIGESTS = {
    "json": (4728, "985cb75586827c3737d9fc4e15fa90529428dea72823c41a7a1c9fcaf42156b8"),
    "binary": (1463, "ba45fc7230db1b1ce59544b6be505bc2ae6532b9b84a7f8a79578963a6cdb694"),
}

#: the record table as ``{binary tag byte: (JSON tag, fields)}``, a field being
#: its JSON key, suffixed with its kind unless that is ``value``; fields are in
#: binary order.  Pinned for ``WIRE_VERSION`` 1, and kept by 2.
_SCHEMA = {
    0x0B: ("tuple", "items:items"),
    0x0C: ("set", "items:sorted"),
    0x0D: ("frozenset", "items:sorted"),
    0x0F: ("notification", "attrs id published_at publisher"),
    0x10: ("filter", "constraints:items"),
    0x11: ("c:exists", "attr"),
    0x12: ("c:eq", "attr value"),
    0x13: ("c:ne", "attr value"),
    0x14: ("c:in", "attr values:sorted"),
    0x15: ("c:range", "attr low high include_low:flag include_high:flag"),
    0x16: ("c:prefix", "attr prefix"),
    0x17: (
        "subscription",
        "sub_id filter subscriber location_dependent:flag template:optional meta",
    ),
    0x18: ("message", "kind payload sender msg_id meta"),
    0x19: ("loctemplate", "static attr scope"),
    0x1A: (
        "client_hello",
        "client_id location templates plain_filters previous_broker reissue",
    ),
    0x1B: ("handover_request", "client_id new_broker new_replicator"),
    0x1C: (
        "handover_reply",
        "client_id old_broker plain_filters buffered_plain:items buffered_location:items found",
    ),
    0x1D: ("replicator_stats", "stats"),
}


def _walk(obj):
    """Every object nested in an encodable value, the value itself included."""
    yield obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        record = wire._BY_CLASS.get(type(obj))
        children = [getter(obj) for _, _, _, getter, _ in record.fields] if record else []
    for child in children:
        yield from _walk(child)


class _NotificationSubclass(Notification):
    __slots__ = ()


#: each side of the int8, int32 and int64 edges, and a bigint
_EDGE_INTS = [0, 127, -128, 128, -129, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1]
_EDGE_INTS += [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**100]

_NON_ASCII = st.characters(min_codepoint=128, blacklist_categories=("Cs",))
#: a str the sender fast path takes (under 255 UTF-8 bytes, not interned) ...
_SHORT_STRS = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=30),
    st.text(_NON_ASCII, min_size=1, max_size=40),
    st.just("x" * 254),
)
#: ... and one it declines
_LONG_STRS = st.sampled_from(["x" * 255, "é" * 128, "y" * 300])


@st.composite
def _envelopes(draw):
    """A message of every envelope shape the fast paths take or fall back from."""
    kind = draw(st.one_of(st.sampled_from(wire.STRING_TABLE), st.sampled_from(["x", "kind-é"])))
    payload = draw(st.sampled_from(["notification", "subclass", "subscription", "dict", "none"]))
    if payload == "subscription":
        payload = Subscription(draw(st.sampled_from(["s1", "s2"])), Filter([Equals("t", 1)]), "c")
    elif payload in ("notification", "subclass"):
        cls = Notification if payload == "notification" else _NotificationSubclass
        payload = cls(
            {"topic": "t", "seq": draw(st.sampled_from(_EDGE_INTS))},
            published_at=draw(st.sampled_from([None, 1.5, -0.0, 3, 2**40])),
            publisher=draw(st.one_of(st.none(), _SHORT_STRS, _LONG_STRS)),
            notification_id=draw(st.sampled_from(_EDGE_INTS)),
        )
        if draw(st.booleans()):  # primed, as a decoded or already-sent one is
            wire._b_write(bytearray(), payload)
    else:
        payload = {"sub_id": "s9", "n": 1} if payload == "dict" else None
    return Message(
        kind,
        payload,
        sender=draw(
            st.one_of(st.none(), st.sampled_from(wire.STRING_TABLE), _SHORT_STRS, _LONG_STRS)
        ),
        msg_id=draw(st.sampled_from(_EDGE_INTS)),
        # None is falsy but no empty dict: the walker must write it
        meta=draw(st.sampled_from([{}, {"replayed": True}, {"hops": 2, "sub": "s1"}, None])),
    )


def _shape(message):
    """Every field of a decoded message, with the types ``==`` would let slide."""
    payload = message.payload
    if isinstance(payload, Notification):
        payload = (
            type(payload),
            payload._attributes,
            payload.notification_id,
            repr(payload.published_at),
            payload.publisher,
            payload._wire_bin,
        )
    fields = (message.kind, payload, message.sender, message.msg_id, message.meta)
    return [(type(value), value) for value in fields] + [message._frame_bin]


class TestDeclaredOnce:
    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_corpus_bytes_are_pinned(self, codec_name):
        data = _canonical_bytes(codec_name)
        assert (len(data), hashlib.sha256(data).hexdigest()) == _CORPUS_DIGESTS[codec_name]

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_a_bound_template_encodes_as_before(self, codec_name):
        # a template memoises its bindings; the memo is no field of the record
        payloads = _all_payloads()
        templates = [
            obj
            for payload in payloads.values()
            for obj in _walk(payload)
            if isinstance(obj, LocationDependentFilter)
        ]
        assert templates
        for template in templates:
            template.bind({"r1"})
            template.bind(["r2", "r1"])
        data = _canonical_bytes(codec_name, payloads)
        assert (len(data), hashlib.sha256(data).hexdigest()) == _CORPUS_DIGESTS[codec_name]

    def test_record_table_equals_the_pinned_schema(self):
        # revision 2 kept revision 1's layout: its link frames leave out the
        # sender and the id, which a revision-1 reader would route as written
        assert wire.WIRE_VERSION == 2 and wire.BINARY_VERSION == 1
        wire._load_table()
        table = {}
        for code, record in wire._BY_CODE.items():
            fields = " ".join(
                key if kind == wire.VALUE else f"{key}:{kind}" for _, key, kind, _, _ in record.fields
            )
            table[code] = (record.tag, fields)
            assert wire._BY_TAG[record.tag] is record and wire._BY_CLASS[record.cls] is record
        assert table == _SCHEMA
        assert len(wire._BY_TAG) == len(_SCHEMA), "two records share a JSON tag"

    def test_every_record_has_a_sample_in_the_corpus(self):
        wire._load_table()
        sampled = {type(obj) for payload in _all_payloads().values() for obj in _walk(payload)}
        sampled.add(Message)  # the envelope of every corpus entry
        missing = [r.tag for r in set(wire._BY_CODE.values()) if r.cls not in sampled]
        assert not missing, f"no sample payload exercises {missing}"

    @pytest.mark.parametrize("name", sorted(_all_payloads()))
    def test_fragment_walker_equals_the_structure_walker(self, name, monkeypatch):
        # _b_write splices a cached record's ``_wire_bin``; with no record
        # cached it walks every field inline: one declaration, so the two
        # must write the same bytes
        def encode(payload):
            return encode_message_binary(Message(kind=name, payload=payload, sender="x", msg_id=1))

        payload = _all_payloads()[name]
        spliced = encode(payload)
        assert encode(payload) == spliced, "and again, from the caches"
        wire._load_table()
        for record in set(wire._BY_CODE.values()):
            monkeypatch.setattr(record, "cached", False)
        assert encode(_all_payloads()[name]) == spliced

    def test_unrolled_notification_reader_equals_the_walker(self):
        wire._load_table()
        record = wire._BY_CODE[wire._B_NOTIFICATION]
        assert record.read is wire._r_notification
        notifications = [
            obj
            for payload in _all_payloads().values()
            for obj in _walk(payload)
            if isinstance(obj, Notification)
        ]
        assert len(notifications) >= 3
        for notification in notifications:
            buf = bytearray()
            wire._b_write(buf, notification)
            buf = bytes(buf) + b"\x00"  # something must follow: end positions are compared
            fast, fast_end = wire._r_notification(record, buf, 1)
            slow, slow_end = wire._r_record(record, buf, 1)
            assert fast == slow == notification
            assert fast_end == slow_end == len(buf) - 1
            assert fast._wire_bin == slow._wire_bin == buf[:-1]
            assert (fast.published_at, fast.publisher) == (slow.published_at, slow.publisher)
            assert fast._attributes == slow._attributes

    def test_inlined_envelope_read_equals_the_walker(self):
        wire._load_table()
        for name, payload in sorted(_all_payloads().items()):
            message = Message(kind=name, payload=payload, sender="x", msg_id=7, meta={"hops": 1})
            body = encode_message_binary(message)
            fast = decode_message_binary(body)
            slow, end = wire._r_record(wire._BY_CODE[wire._B_MESSAGE], body, 2)
            assert end == len(body)
            assert fast == slow
            assert fast._frame_bin is None and slow._frame_bin is None

    @pytest.mark.parametrize("name", ["stamped-publish", "shadow_create"] + sorted(_all_payloads()))
    def test_the_decoder_builds_the_dataclass_fields_and_no_more(self, name):
        # decode_message_binary hand-builds the __dict__: it must hold what
        # Message.__init__ sets, no more (a cache field keeps its class
        # default). A stamped publish takes every inline branch; the rest
        # carry a wide msg_id and a meta, so their fields go to the walker
        if name == "stamped-publish":
            notification = Notification({"topic": "t"}).stamped(1.5, "P1")
            message = Message("publish", notification, sender="B1", msg_id=3)
        else:
            payloads = dict(_all_payloads(), shadow_create={"client_id": "c1", "templates": []})
            message = Message(
                name, payloads[name], sender="R@B1", msg_id=2**40, meta={"replayed": True}
            )
        decoded = decode_message_binary(frame_message_binary(message)[4:])
        assert vars(decoded).keys() == vars(Message("x")).keys()

    def test_the_joined_frame_with_a_meta_equals_the_walker(self):
        for name, payload in sorted(_all_payloads().items()):
            message = Message(kind=name, payload=payload, sender="x", msg_id=1, meta={"hops": 1})
            link = Message(name, payload, None, 0, {"hops": 1})
            assert encode_message_binary(link) == frame_message_binary(message)[4:]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(message=_envelopes())
    def test_fast_paths_equal_the_walker_over_every_envelope_shape(self, message):
        # framed first, so an unprimed payload reaches the framer unprimed;
        # the link body and the one that names a sender and an id
        link_body = frame_message_binary(message)[4:]
        for body in (link_body, encode_message_binary(message)):
            fast = decode_message_binary(body)
            notification_record = wire._BY_CODE[wire._B_NOTIFICATION]
            notification_record.read = wire._r_record  # the walker all the way down
            try:
                slow, end = wire._r_record(wire._BY_CODE[wire._B_MESSAGE], body, 2)
            finally:
                notification_record.read = wire._r_notification
            assert end == len(body)
            assert _shape(fast) == _shape(slow)
            assert fast._frame_bin is None
            if isinstance(message.payload, Notification):
                assert fast.payload._wire_bin == message.payload._wire_bin is not None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(message=_envelopes())
    def test_a_link_frame_is_the_message_without_sender_or_id(self, message):
        link = Message(message.kind, message.payload, None, 0, message.meta)
        framed = frame_message_binary(message)
        assert framed == frame(encode_message_binary(link))
        memo = _memo()
        memo_free = decode_message_binary(framed[4:])
        for decoded in [memo_free] + [decode_message_binary(framed[4:], memo) for _ in range(2)]:
            # the JSON reference: a subclass payload encodes as its record
            assert encode_message(decoded) == encode_message(link)
            assert _shape(decoded) == _shape(memo_free)

    def test_an_object_outside_the_table_is_refused_despite_a_fragment(self):
        class Impostor:
            _wire_bin = bytes([wire._B_NONE])

        with pytest.raises(WireError, match="cannot encode Impostor"):
            frame_message_binary(Message("publish", Impostor(), sender="x", msg_id=1))


# ---------------------------------------------------------------- hostile bytes


def _nested(depth, kind="x"):
    head = bytearray([wire.BINARY_VERSION, wire._B_MESSAGE])
    wire._w_str(head, kind)
    return bytes(head) + bytes([wire._B_LIST, 1]) * depth


def _binary_message(kind_bytes, payload_bytes):
    """A binary body written by hand: kind, payload, sender None, msg_id 1, meta {}."""
    return (
        bytes([wire.BINARY_VERSION, wire._B_MESSAGE])
        + kind_bytes
        + payload_bytes
        + bytes([wire._B_NONE, wire._B_INT8, 1, wire._B_DICT, 0])
    )


_SREF_X = bytes([wire._B_STR, 1, ord("x")])
_INVERTED_RANGE = (  # c:range, attr "a", low 5, high 1, both bounds included
    bytes([0x15, wire._B_STR, 1, ord("a"), wire._B_INT8, 5, wire._B_INT8, 1, 3])
)

#: well-framed bodies that the seed's decoders answered with something other
#: than WireError (or accepted although no encoder could have written them),
#: each with the entry point it was reproduced on; the unhashable tag did raise
#: WireError there and is kept because a dict lookup is where it now lands
_REPRODUCED = {
    "json message without its keys": (decode_message, b'{"__t__":"message","kind":"x"}'),
    "json inverted range": (
        decode_message,
        b'{"__t__":"message","kind":"x","meta":{},"msg_id":1,"sender":null,"payload":'
        b'{"__t__":"c:range","attr":"a","low":5,"high":1,"include_low":true,"include_high":true}}',
    ),
    "binary inverted range": (decode_message_binary, _binary_message(_SREF_X, _INVERTED_RANGE)),
    "json tuple without items": (decode_control, b'{"__t__":"tuple"}'),
    "json stats with an unknown counter": (
        decode_control,
        b'{"__t__":"replicator_stats","stats":{"bogus":1}}',
    ),
    "json runaway nesting": (decode_message, b"[" * 100_000),
    "json runaway nesting, control": (decode_control, b"[" * 100_000),
    "binary runaway nesting": (decode_message_binary, _nested(100_000)),
    "binary int dict key": (
        decode_message_binary,
        _binary_message(_SREF_X, bytes([wire._B_DICT, 1, wire._B_INT8, 5, wire._B_NONE])),
    ),
    "binary int kind": (
        decode_message_binary,
        _binary_message(bytes([wire._B_INT8, 5]), bytes([wire._B_NONE])),
    ),
    "json int kind": (
        decode_message,
        b'{"__t__":"message","kind":5,"meta":{},"msg_id":1,"payload":null,"sender":null}',
    ),
    "json unhashable tag": (decode_control, b'{"__t__":[1]}'),
    "json filter of non-constraints": (decode_control, b'{"__t__":"filter","constraints":[1]}'),
}

_DECODERS = (decode_message, decode_message_binary, decode_control)


#: every corpus payload in an envelope, under the binary codec then the JSON one
_CORPUS_BODIES = [
    codec.encode_message(Message(kind=name, payload=payload, sender="x", msg_id=1))
    for codec in (BINARY_CODEC, JSON_CODEC)
    for name, payload in sorted(_all_payloads().items())
]

#: the shapes the envelope fast paths take: a stamped notification under an
#: interned kind, a str sender, an int32 msg_id and an empty meta — and a
#: replayed notify, whose meta falls back to the walker (binary only, and
#: kept out of the corpus so its digests stay pinned)
_HOT_BODIES = [
    encode_message_binary(
        Message(
            kind,
            Notification({"topic": "bench", "seq": 70000, "value": 21.5}, notification_id=70001)
            .stamped(published_at=1.5, publisher="P1"),
            sender="B2",
            msg_id=2**20,
            meta=meta,
        )
    )
    for kind, meta in (("publish", {}), ("notify", {}), ("notify", {"replayed": True}))
]


def _hostile_hot_body():
    """A publish whose sender claims 200 bytes the body does not hold."""
    body = bytearray(_HOT_BODIES[0])
    body[body.rindex(b"B2") - 1] = 200  # the sender's length byte
    return bytes(body)


@st.composite
def _mutated_bodies(draw):
    """A valid corpus body after one truncation, byte flip, splice or count/tag overwrite."""
    bodies = _CORPUS_BODIES + _HOT_BODIES
    body = draw(st.sampled_from(bodies))
    position = draw(st.integers(0, len(body) - 1))
    operation = draw(st.sampled_from(["truncate", "flip", "splice", "overwrite"]))
    if operation == "truncate":
        return body[:position]
    if operation == "flip":
        return body[:position] + bytes([body[position] ^ draw(st.integers(1, 255))]) + body[position + 1 :]
    if operation == "splice":
        other = draw(st.sampled_from(bodies))
        start = draw(st.integers(0, len(other) - 1))
        piece = other[start : start + draw(st.integers(1, 64))]
        return body[:position] + piece + body[position + draw(st.integers(0, 8)) :]
    # a tag byte of the closed set (or just outside it), or the widest count
    patch = draw(st.sampled_from([bytes([tag]) for tag in range(0x22)] + [b"\xff" * 5, b"\xfe"]))
    return body[:position] + patch + body[position + len(patch) :]


class TestDecodersRaiseOnlyWireError:
    """``decode_message``, ``decode_message_binary`` and ``decode_control`` are
    the receive side of a socket: whatever the (well-framed) bytes, they hand
    back a value or raise ``WireError`` — a receiver has one type to catch."""

    @pytest.mark.parametrize("name", sorted(_REPRODUCED))
    def test_reproduced_bodies(self, name):
        decode, body = _REPRODUCED[name]
        with pytest.raises(WireError):
            decode(body)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(body=_mutated_bodies())
    @example(body=_REPRODUCED["json message without its keys"][1])
    @example(body=_REPRODUCED["binary inverted range"][1])
    @example(body=_REPRODUCED["json stats with an unknown counter"][1])
    @example(body=_REPRODUCED["binary int dict key"][1])
    @example(body=_REPRODUCED["binary int kind"][1])
    @example(body=_nested(5_000))
    @example(body=_hostile_hot_body())
    @example(body=b"")
    def test_any_mutation_of_a_valid_body(self, body):
        for decode in _DECODERS:
            try:
                decoded = decode(body)
            except WireError:
                continue
            if decode is not decode_control:
                assert isinstance(decoded, Message) and isinstance(decoded.kind, str)

    def test_a_hostile_count_allocates_nothing(self):
        # the widest count (0xFF + u32 max) written over every position of every
        # binary corpus body: a reader that sized a buffer from it would ask for
        # gigabytes; ours reads item by item and runs off the end of the body
        patch = b"\xff" * 5
        tracemalloc.start()
        try:
            for body in _CORPUS_BODIES + _HOT_BODIES:
                if body[0] != wire.BINARY_VERSION:
                    continue
                for position in range(1, len(body)):
                    hostile = body[:position] + patch + body[position + len(patch) :]
                    try:
                        decode_message_binary(hostile)
                    except WireError:
                        pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < wire.MAX_FRAME_SIZE

    @pytest.mark.parametrize("value", [[1], {1}, frozenset({1}), {"k": 1}], ids=repr)
    def test_a_notification_value_outside_the_domain_is_refused(self, value):
        """The encoders can write a list- or set-valued notification; every
        notification read refuses it, as a publish would have: the binary
        fast path, the JSON decoder and the walker."""
        outside = Message("notify", Notification({"v": value}), msg_id=1)
        walked = bytearray()
        wire._b_write(walked, outside.payload)
        record = wire._BY_CODE[wire._B_NOTIFICATION]
        reads = [
            lambda: decode_message_binary(encode_message_binary(outside)),
            lambda: decode_message(encode_message(outside)),
            lambda: wire._r_record(record, bytes(walked), 1),
        ]
        for read in reads:
            with pytest.raises(WireError, match="outside the value domain"):
                read()
        # a tuple, None, a bool and a long string leave the fast path and pass
        inside = {"t": (1, "a"), "n": None, "b": True, "s": "x" * 300}
        message = Message("notify", Notification(inside), msg_id=1)
        for encode, decode in (
            (encode_message_binary, decode_message_binary),
            (encode_message, decode_message),
        ):
            assert dict(decode(encode(message)).payload) == inside


# ----------------------------------------------------- loud codec negotiation


def _json_with_extra_key(level):
    """A JSON ``subscribe`` body with one unknown key added at ``level``."""
    subscription = Subscription(
        sub_id="s1", filter=Filter([Equals("service", "t")]), subscriber="c"
    )
    body = json.loads(encode_message(Message(kind="subscribe", payload=subscription, msg_id=1)))
    record = {
        "message": body,
        "subscription": body["payload"],
        "filter": body["payload"]["filter"],
        "constraint": body["payload"]["filter"]["constraints"][0],
    }[level]
    record["x"] = 2
    return json.dumps(body).encode("utf-8")


class TestJsonRecordsCarryOnlyTheirKeys:
    """A tagged JSON record holds ``__t__`` and its declared field keys, nothing else."""

    @pytest.mark.parametrize("level", ["message", "subscription", "filter", "constraint"])
    def test_an_extra_key_is_a_wire_error(self, level):
        with pytest.raises(WireError, match="unknown keys"):
            decode_message(_json_with_extra_key(level))

    def test_the_same_body_without_it_decodes(self):
        body = _json_with_extra_key("constraint").replace(b', "x": 2', b"")
        assert decode_message(body).payload.filter == Filter([Equals("service", "t")])

    def test_a_control_record_too(self):
        with pytest.raises(WireError, match="unknown keys"):
            decode_control(b'{"__t__":"c:eq","attr":"a","value":1,"x":2}')
        assert decode_control(b'{"__t__":"c:eq","attr":"a","value":1}') == Equals("a", 1)

    def test_an_absent_optional_key_is_still_accepted(self):
        subscription = Subscription(sub_id="s", filter=Filter(), subscriber="c")
        body = encode_message(Message(kind="k", payload=subscription, msg_id=1))
        assert b'"template"' not in body  # the encoder omits a None template
        assert decode_message(body).payload == subscription


class TestCodecMismatchIsDistinctFromTruncation:
    def test_binary_decoder_refuses_a_json_body(self):
        body = encode_message(Message(kind="x", payload=1, msg_id=1))
        with pytest.raises(CodecMismatchError, match="version byte 0x7b"):
            decode_message_binary(body)

    def test_json_reference_decoder_refuses_a_binary_body(self):
        body = encode_message_binary(Message(kind="x", payload=1, msg_id=1))
        with pytest.raises(WireError, match="malformed wire body"):
            decode_message(body)

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
    def test_matching_handshakes_accepted(self):
        assert handshake_fields() == {"wire": wire.WIRE_VERSION, "table": wire._TABLE_LEN}
        check_handshake_codec(handshake_fields())

    def test_a_peer_that_still_names_its_codec_is_judged_by_revision_alone(self):
        # earlier revisions also sent ``"codec": "binary"``; a binary peer of
        # the same wire revision and string table speaks this wire
        check_handshake_codec({**handshake_fields(), "codec": "binary"})
        with pytest.raises(CodecMismatchError, match="wire revision"):
            check_handshake_codec({**handshake_fields(), "codec": "binary", "wire": 0})

    def test_handshake_without_wire_fields_is_refused(self):
        with pytest.raises(CodecMismatchError):
            check_handshake_codec({"peer": "B1"})

    def test_binary_wire_revision_skew_rejected(self):
        fields = handshake_fields()
        fields["wire"] = wire.WIRE_VERSION + 1
        with pytest.raises(CodecMismatchError, match="wire revision"):
            check_handshake_codec(fields)

    def test_binary_string_table_skew_rejected(self):
        fields = handshake_fields()
        fields["table"] = wire._TABLE_LEN + 1
        with pytest.raises(CodecMismatchError, match="string table"):
            check_handshake_codec(fields)


class TestStringTableHardening:
    def test_last_table_entry_is_readable(self):
        buf = bytes([wire._B_SREF, wire._TABLE_LEN - 1])
        value, pos = wire._b_read(buf, 0)
        assert value == wire.STRING_TABLE[-1] and pos == 2

    def test_out_of_range_index_rejected(self):
        body = bytes([wire.BINARY_VERSION, wire._B_SREF, wire._TABLE_LEN])
        with pytest.raises(WireError, match="out of range"):
            decode_message_binary(body)

    def test_out_of_range_index_rejected_as_the_kind(self):
        # the envelope reads an interned kind inline; an index past the table
        # must still be named as one, not surface as a bare IndexError
        body = _binary_message(bytes([wire._B_SREF, wire._TABLE_LEN]), bytes([wire._B_NONE]))
        with pytest.raises(WireError, match="string-table index .* out of range"):
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


class TestHostileBytesOnALiveLink:
    """Bytes no binary peer writes, fed to a real asyncio socket.

    The far end writes them past the send path, so they are not counted work
    and ``run_until_idle`` would return at once; they are served by driving
    the loop by time."""

    def _from_the_far_end(self, hostile, error=None, match=None):
        """``b`` writes ``hostile`` onto its born-connected link to ``a``, past
        the framing: nothing but a ``WireError`` escapes a bounded ``run``
        (``error`` matching ``match``, when given; bytes that stop inside a
        frame raise nothing), a raise closes that connection only, and
        another link of the same transport still delivers."""
        transport = AsyncioTransport()
        try:
            a, b, c = (Recorder(transport.clock, name) for name in "abc")
            other = transport.make_link(a, c, latency=0.0)
            link = transport.make_link(a, b, latency=0.0)
            link._b_to_a._writer.write(hostile)
            try:
                transport.run(until=transport.clock.now + 0.2)
            except WireError as exc:
                escaped = exc
            else:
                escaped = None
            if error is not None:
                assert isinstance(escaped, error) and re.search(match, str(escaped))
            if escaped is not None:
                # both ends of the offending connection are gone, the other link's are not
                assert not link._a_to_b.is_open and not link._b_to_a.is_open
            assert other._a_to_b.is_open and other._b_to_a.is_open
            # hang up; the EOF reconciles what a whole hostile frame delivered uncounted
            transport.close_dynamic_link(link)
            transport.run_until_idle(timeout=2.0)
            a.send("c", Message("x", payload="still delivered"))
            transport.run_until_idle(timeout=2.0)
            assert [m.payload for m in c.received] == ["still delivered"]
        finally:
            transport.close()

    def test_a_json_body_aborts_only_its_connection(self):
        json_frame = JSON_CODEC.frame_message(Message("x", payload=1, sender="b"))
        self._from_the_far_end(json_frame, CodecMismatchError, "version byte 0x7b")

    def test_an_oversized_length_header_aborts_only_its_connection(self):
        header = struct.pack(">I", wire.MAX_FRAME_SIZE + 1)
        self._from_the_far_end(header, WireError, "exceeds MAX_FRAME_SIZE")

    def test_a_mutated_hot_shape_body_aborts_only_its_connection(self):
        # the sender's length byte overruns the body: the inline sender read
        # must keep the walker's truncation check
        body = _hostile_hot_body()
        self._from_the_far_end(frame(body), WireError, "truncated binary string")

    def test_a_range_bound_that_is_no_number_aborts_only_its_connection(self):
        # no sender builds such a range: its bounds are set past the constructor
        bad = Range("v", 0, 10)
        bad.low, bad.high = "a", "b"
        body = encode_message_binary(
            Message("subscribe", Subscription("s1", Filter([bad]), "c1"))
        )
        with pytest.raises(WireError, match="non-numeric bound"):
            decode_message_binary(body)
        self._from_the_far_end(frame(body), WireError, "non-numeric bound")

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        hostile=st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(frame),
            _mutated_bodies().map(frame),
        )
    )
    @example(hostile=frame(_HOT_BODIES[1]) + b"\xff" * 8)  # a good frame, then a bad header
    def test_random_bytes_abort_only_their_connection(self, hostile):
        self._from_the_far_end(hostile)

    def test_json_is_no_socket_codec_choice(self, capsys):
        with pytest.raises(ValueError, match="unknown codec 'json'; allowed: binary"):
            SystemConfig(codec="json")
        assert main(["demo", "line", "--set", "codec=json"]) == 2
        assert "allowed: binary" in capsys.readouterr().err


# ------------------------------------------------------ batched-frame boundary


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


@pytest.fixture
def binary_pair():
    transport = AsyncioTransport()
    a = Recorder(transport.clock, "a")
    b = Recorder(transport.clock, "b")
    link = transport.make_link(a, b, latency=0.0)
    yield transport, a, b, link
    transport.close()


class TestBatchedFrameBoundary:
    """A send burst against the flush cap: at the cap and one byte over must
    flush immediately; one byte under must stay buffered until the event
    loop spins.  Every case must deliver all messages intact."""

    def _burst(self):
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
            total += len(frame_message_binary(probe))
        return messages, total

    def test_burst_exactly_at_cap_flushes_immediately(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst()
        transport.FLUSH_CAP = total
        for message in messages:
            a.send("b", message)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == 0, "a burst at the cap must flush synchronously"
        assert endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_burst_one_byte_over_cap_flushes_immediately(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst()
        transport.FLUSH_CAP = total - 1
        for message in messages:
            a.send("b", message)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == 0, "a burst over the cap must flush synchronously"
        assert endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_burst_one_byte_under_cap_defers_to_the_loop(self, binary_pair):
        transport, a, b, link = binary_pair
        messages, total = self._burst()
        transport.FLUSH_CAP = total + 1
        for message in messages:
            a.send("b", message)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) == total, "an under-cap burst must buffer"
        assert endpoint in transport._dirty
        assert b.received == []
        transport.run_until_idle()
        assert len(endpoint._buffer) == 0
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]

    def test_sequential_sends_cross_the_cap_mid_burst(self, binary_pair):
        # the cap check runs per _send_frame call: the send that crosses
        # the cap flushes everything buffered so far, frames never split
        transport, a, b, link = binary_pair
        messages, total = self._burst()
        transport.FLUSH_CAP = total
        first, second = messages
        a.send("b", first)
        endpoint = link._a_to_b
        assert len(endpoint._buffer) > 0 and endpoint in transport._dirty
        a.send("b", second)
        assert len(endpoint._buffer) == 0 and endpoint not in transport._dirty
        transport.run_until_idle()
        assert [m.payload for m in b.received] == ["a" * 32, "b" * 32]


# ------------------------------------------------------------ held at send

#: the payload types a node holds as it frames them: immutable records
_HELD_AT_SEND = (Notification, Subscription)


class _Received(Recorder):
    """A recorder that notes, with each message, how many parses the node skipped."""

    def __init__(self, sim, name, memo):
        super().__init__(sim, name)
        self.memo = memo
        self.reused = []

    def on_message(self, message):
        super().on_message(message)
        self.reused.append(self.memo.reused.value)


class TestHeldAtSend:
    """A node that owns both ends of a link holds each body carrying an
    immutable record as it frames it, so the reading end parses none; a
    mutable payload is parsed, a fresh object for each receiver.  Either way
    a receiver is handed what the memo-free decode of the body reads."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(messages=st.lists(_envelopes(), min_size=1, max_size=6))
    def test_a_link_hands_over_what_the_memo_free_decode_reads(self, messages):
        transport = AsyncioTransport()
        try:
            a = Recorder(transport.clock, "a")
            b = _Received(transport.clock, "b", transport._memo)
            transport.make_link(a, b, latency=0.0)
            bodies, kept, first = [], [], {}  # first: what the first hold of a key kept
            for message in messages:
                payload = message.payload
                a.send("b", message)
                bodies.append(message._frame_bin[4:])
                if type(payload) in _HELD_AT_SEND and type(message.meta) is dict:
                    # a notification is one object per fragment, whatever the body
                    key = payload._wire_bin if type(payload) is Notification else bodies[-1]
                    kept.append(first.setdefault(key, payload))
                else:
                    kept.append(None)
            transport.run_until_idle()
        finally:
            transport.close()
        assert len(b.received) == len(messages)
        reused = [0, *b.reused]
        for i, (sent, got, body) in enumerate(zip(messages, b.received, bodies)):
            assert got.sender == "a"
            got.sender, got.msg_id = None, 0  # the link names the sender and draws the id
            want = decode_message_binary(body)
            assert _shape(got) == _shape(want) and encode_message(got) == encode_message(want)
            if kept[i] is not None:
                assert got.payload is kept[i] and reused[i + 1] == reused[i] + 1, "unparsed"
            elif sent.payload is not None:
                assert got.payload is not sent.payload

    def test_a_mutable_payload_arrives_as_a_fresh_object(self):
        hello = ClientHello("d1", location="l1", plain_filters={"p": Filter([Equals("t", 1)])})
        sent = [{"sub_id": "s9", "n": 1}, hello, hello]
        transport = AsyncioTransport()
        try:
            a, b = Recorder(transport.clock, "a"), Recorder(transport.clock, "b")
            transport.make_link(a, b, latency=0.0)
            for payload in sent:
                a.send("b", Message("client_hello", payload))
            transport.run_until_idle()
            memo = transport._memo
        finally:
            transport.close()
        got = [message.payload for message in b.received]
        assert got == sent and all(g is not s for g, s in zip(got, sent))
        assert got[1] is not got[2]
        assert len(memo) == len(memo.known) == memo.reused.value == 0

    def test_a_handover_run_reads_what_the_memo_free_decode_reads(self, monkeypatch):
        decode = wire.decode_message_binary
        answered = mismatched = 0

        def checking_decode(body, memo):
            nonlocal answered, mismatched
            reused = memo.reused.value
            got = decode(body, memo)
            if memo.reused.value > reused:  # the memo answered: compare with a parse
                want = decode(body)
                answered += 1
                mismatched += _shape(got) != _shape(want)
                mismatched += encode_message(got) != encode_message(want)
            return got

        monkeypatch.setattr(wire, "decode_message_binary", checking_decode)
        for i in range(10):
            run_handover_workload("asyncio", spec=WorkloadSpec.draw(i))
        assert answered > 0 and mismatched == 0

    def test_a_handover_run_parses_no_notification_or_subscription(self, monkeypatch):
        carried, counters = [], {}
        receive, close = _AsyncioDirectedEndpoint.receive, AsyncioTransport.close

        def counting_receive(self, message):
            carried.append(type(message.payload) in _HELD_AT_SEND)
            receive(self, message)

        def reading_close(self):
            counters.update(self.metrics_snapshot()["transport"]["counters"])
            close(self)

        monkeypatch.setattr(_AsyncioDirectedEndpoint, "receive", counting_receive)
        monkeypatch.setattr(AsyncioTransport, "close", reading_close)
        result = run_handover_workload("asyncio", spec=WorkloadSpec.draw(0))
        assert result.handovers > 0 and not all(carried), "mutable payloads ran too"
        assert counters["transport.frames_sent"] == len(carried)
        assert counters["transport.notifications_reused"] == sum(carried)
