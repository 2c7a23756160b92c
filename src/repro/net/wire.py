"""Wire serialization for the socket transport backends.

The deterministic simulator hands :class:`~repro.net.process.Message` objects
between processes as plain Python references; real sockets need bytes.  This
module is the codec between the two worlds: every message the pub/sub and
mobility layers exchange — notifications, filters, subscriptions, location
templates, the ``client_hello`` and ``handover_request``/``handover_reply``
payloads of the replicated-handover protocol, replicator stats — can be
encoded to a length-prefixed frame and decoded back to an equal object, which
is what lets ``MobilePubSub`` run on real sockets.  The payload set is
declared once, in :func:`_load_table`; both encodings are derived from it.

Design notes
------------
* **Framing** is a 4-byte big-endian length prefix followed by the body
  (:func:`frame`/:class:`FrameDecoder`), the standard way to delimit messages
  on a TCP stream.
* **Sockets speak the binary codec**: a version byte, one tag byte per
  value, compact (varint-style) lengths, and protocol strings interned
  through a static :data:`STRING_TABLE`.  The same message always encodes
  to the same bytes; a link frames it with no sender (the link names it).
* **JSON is the reference codec** (:func:`encode_message`/
  :func:`decode_message`): domain objects become ``{"__t__": tag, ...}``
  dictionaries, emitted with sorted keys and no whitespace.  The golden
  traces and corpus digests hash it, and every binary round-trip decodes to
  an object whose JSON encoding is byte-identical to the original's.
  Non-finite floats (``Range`` uses ``±inf`` bounds) rely on Python's JSON
  ``Infinity`` extension, symmetric between ``dumps`` and ``loads``.
* The codec is deliberately closed: encoding an object it does not know about
  raises :class:`WireError` instead of silently pickling arbitrary state
  (``pickle`` would turn every broker into a remote code execution endpoint).

Handshakes are JSON control frames (:func:`encode_control`) carrying the
binary wire revision and string-table length (:func:`handshake_fields`), so
a skewed peer is refused loudly at connection setup
(:class:`CodecMismatchError`) instead of surfacing as garbage frames.
"""

from __future__ import annotations

import json
import struct
from operator import attrgetter
from typing import Any, Dict, List, Tuple

from .process import Message

_LENGTH = struct.Struct(">I")

#: frames larger than this are rejected as corrupt (16 MiB)
MAX_FRAME_SIZE = 16 * 1024 * 1024

_TAG = "__t__"


class WireError(ValueError):
    """Raised when a value cannot be encoded, or a frame cannot be decoded."""


class CodecMismatchError(WireError):
    """A peer speaks a different wire revision than this endpoint.

    Distinct from plain :class:`WireError` so transports can tell a
    negotiation failure (a skewed wire revision or string table, a body
    that does not lead with the binary version byte) apart from truncation
    or corruption of an otherwise agreed stream.
    """


# -------------------------------------------------------------------- records
#
# The payload set is declared ONCE: each type is one _Record in _load_table()
# (class, JSON tag, binary tag byte, fields) and the generic walkers derive
# both codecs from it.  A field is ``(attribute, JSON key, kind[, getter])``;
# ``(attribute, kind)`` when the key is the attribute name; the bare name when
# the kind is VALUE too.  ``attribute`` is the constructor keyword and, unless
# a getter is given, what is read on encode.
# Binary writes the fields in declaration order, JSON under their keys.

VALUE = "value"  # any encodable value
ITEMS = "items"  # a sequence: a JSON list; in binary a bare count + items (no list tag)
SORTED = "sorted"  # ITEMS of an unordered collection, sorted by repr (hash-seed independent)
# A bool / a value that may be None.  A record's FLAG and OPTIONAL fields own
# one bit each (declaration order, from bit 0) of ONE byte, written in binary
# where the first of them stands; an absent optional is then not written, and
# JSON omits its key (so plain subscriptions keep their golden-traced bytes).
FLAG = "flag"
OPTIONAL = "optional"


class _Record:
    """One payload type of the closed wire set.

    ``fields`` holds ``(attribute, key, kind, getter, bit)`` in binary order
    (``bit``: 0 unless FLAG/OPTIONAL), ``keys`` every key its JSON form may
    carry; ``build(**values)`` makes the decoded object and ``read`` is the
    binary reader (default :func:`_r_record`).  ``cached`` types are
    immutable by contract and remember their binary fragment in
    ``_wire_bin`` (never part of equality or hashing; set with
    ``object.__setattr__``, which serves ``Notification``/``Filter`` slots
    and the ``__dict__`` of the frozen ``Subscription`` dataclass alike).
    Computed by the first encode, or primed by the decoder from the bytes it
    just read, it is spliced by every later encode: a broker fanning a
    notification out to K links serializes it once, a hop forwards what it
    decoded without re-walking it (the same link body, which
    :class:`NotificationMemo` parses once), and ``rebound``/``for_subscriber``
    copies of a subscription share one filter's fragment.  Every mutation path
    (``with_attributes``, ``stamped``, ``dataclasses.replace``) builds an
    object with an empty one.
    """

    __slots__ = ("cls", "tag", "code", "fields", "keys", "cached", "build", "read")

    def __init__(self, cls, tag, code, fields, cached=False, build=None, read=None):
        self.cls, self.tag, self.code, self.cached = cls, tag, code, cached
        self.build = build or cls
        self.read = read or _r_record
        normalised = []
        next_bit = 1
        for field in fields:
            if field.__class__ is str:
                field = (field, VALUE)
            if len(field) == 2:  # keyed by the attribute name
                field = (field[0], *field)
            attribute, key, kind, *getter = field
            bit = 0
            if kind is FLAG or kind is OPTIONAL:
                bit, next_bit = next_bit, next_bit << 1
            getter = getter[0] if getter else attrgetter(attribute)
            normalised.append((attribute, key, kind, getter, bit))
        self.fields = tuple(normalised)
        self.keys = frozenset(key for _, key, _, _, _ in normalised) | {_TAG}


_BY_CLASS: Dict[type, _Record] = {}
_BY_TAG: Dict[str, _Record] = {}
_BY_CODE: Dict[int, _Record] = {}


def _load_table() -> None:
    """Fill the three indexes of the record table.

    Lazy only because ``net`` must import without ``pubsub``/``core`` (they
    import ``net``); the first lookup that misses loads it, so no hot path
    tests for it.  Any edit here changes the bytes: bump :data:`WIRE_VERSION`.
    """
    from dataclasses import asdict

    from ..core.location_filter import LocationDependentFilter
    from ..core.physical_mobility import HandoverReply, HandoverRequest
    from ..core.replicator import ClientHello, ReplicatorStats
    from ..pubsub import filters as f
    from ..pubsub.notification import Notification, check_value
    from ..pubsub.subscription import Subscription

    def add(*row: Any, **options: Any) -> None:
        record = _Record(*row, **options)
        _BY_CLASS[record.cls] = _BY_TAG[record.tag] = _BY_CODE[record.code] = record

    # distinct container tags so mutability round-trips: a receiver must see
    # the type the sim backend would have handed over by reference
    for cls, code, kind in ((tuple, 0x0B, ITEMS), (set, 0x0C, SORTED), (frozenset, 0x0D, SORTED)):
        items = ("items", "items", kind, lambda obj: obj)
        add(cls, cls.__name__, code, (items,), build=lambda items, cls=cls: cls(items))
    def notification(attributes: Any, **fields: Any) -> Notification:
        # the JSON decoder and the walker build here, so each value read must
        # lie in the value domain, as at publish; _r_notification's inline
        # read checks what it reads itself
        for value in attributes.values():
            check_value(value)
        return Notification(attributes, **fields)

    attr = ("attribute", "attr", VALUE)
    add(
        Notification,
        "notification",
        _B_NOTIFICATION,
        (
            # the backing dict: the ``attributes`` property copies it
            ("attributes", "attrs", VALUE, attrgetter("_attributes")),
            ("notification_id", "id", VALUE),
            "published_at",
            "publisher",
        ),
        cached=True,
        build=notification,
        read=_r_notification,
    )
    add(f.Filter, "filter", 0x10, (("constraints", ITEMS),), cached=True)
    add(f.Exists, "c:exists", 0x11, (attr,))
    add(f.Equals, "c:eq", 0x12, (attr, "value"))
    add(f.NotEquals, "c:ne", 0x13, (attr, "value"))
    add(f.InSet, "c:in", 0x14, (attr, ("values", SORTED)))
    add(
        f.Range,
        "c:range",
        0x15,
        (attr, "low", "high", ("include_low", FLAG), ("include_high", FLAG)),
    )
    add(f.Prefix, "c:prefix", 0x16, (attr, "prefix"))
    add(
        Subscription,
        "subscription",
        0x17,
        (
            "sub_id",
            "filter",
            "subscriber",
            ("location_dependent", FLAG),
            # a location template is itself a payload type; any other
            # (opaque application) object fails the closed-set check
            ("template", OPTIONAL),
            "meta",
        ),
        cached=True,
    )
    add(Message, "message", _B_MESSAGE, ("kind", "payload", "sender", "msg_id", "meta"))
    add(
        LocationDependentFilter,
        "loctemplate",
        0x19,
        (("static_filter", "static", VALUE), ("location_attribute", "attr", VALUE), "scope"),
    )
    add(
        ClientHello,
        "client_hello",
        0x1A,
        ("client_id", "location", "templates", "plain_filters", "previous_broker", "reissue"),
    )
    add(HandoverRequest, "handover_request", 0x1B, ("client_id", "new_broker", "new_replicator"))
    add(
        HandoverReply,
        "handover_reply",
        0x1C,
        (
            "client_id",
            "old_broker",
            "plain_filters",
            ("buffered_plain", ITEMS),
            ("buffered_location", ITEMS),
            "found",
        ),
    )
    add(
        ReplicatorStats,
        "replicator_stats",
        0x1D,
        # one dict of every counter, so a new counter is no wire change
        (("stats", "stats", VALUE, asdict),),
        build=lambda stats: ReplicatorStats(**stats),
    )


def _lookup(index: Dict[Any, _Record], key: Any) -> "_Record | None":
    """What ``index.get(key)`` just missed: load the table on first use, look again.

    A class is looked up along its MRO (memoised), so that a subclass of a
    payload type encodes as that type.  ``None``: outside the closed set.
    """
    if not _BY_CODE:
        _load_table()
    for candidate in key.__mro__ if index is _BY_CLASS else (key,):
        record = index.get(candidate)
        if record is not None:
            index[key] = record
            return record
    return None


def _check_keys(obj: Dict[Any, Any]) -> None:
    # json.dumps would silently stringify a non-string key, diverging from the
    # sim backend's by-reference delivery — both codecs refuse instead
    if any(not isinstance(key, str) for key in obj):
        raise WireError(f"only string dict keys are encodable, got {obj!r}")
    if _TAG in obj:
        raise WireError(f"dict key {_TAG!r} is reserved for the codec")


# ----------------------------------------------------------------------- JSON

#: one encoder for every call (``json.dumps`` with these arguments would
#: construct this same encoder each time, so the text is identical)
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=True).encode

#: what a well-framed but hostile body raises below a decode entry point (a
#: missing key, a constructor refusing its arguments, a read past the end,
#: runaway nesting); all three turn these into WireError, whatever the bytes
_DECODE_ERRORS = (
    LookupError, TypeError, ValueError, AttributeError, OverflowError, RecursionError, struct.error
)


def _encode_value(obj: Any) -> Any:
    """Transform ``obj`` into a JSON-serialisable structure with type tags."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_encode_value(item) for item in obj]
    if isinstance(obj, dict):
        _check_keys(obj)
        return {key: _encode_value(value) for key, value in obj.items()}
    record = _BY_CLASS.get(type(obj)) or _lookup(_BY_CLASS, type(obj))
    if record is None:
        raise WireError(f"cannot encode {type(obj).__name__} value {obj!r}")
    encoded = {_TAG: record.tag}
    for _, key, kind, getter, _ in record.fields:
        value = getter(obj)
        if kind is VALUE:
            encoded[key] = _encode_value(value)
        elif kind is ITEMS:
            encoded[key] = [_encode_value(item) for item in value]
        elif kind is SORTED:
            encoded[key] = sorted((_encode_value(item) for item in value), key=repr)
        elif kind is FLAG:
            encoded[key] = bool(value)
        elif value is not None:
            encoded[key] = _encode_value(value)
    return encoded


def _decode_value(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_decode_value(item) for item in obj]
    tag = obj.get(_TAG)  # json only yields a dict beyond the above
    if tag is None:
        return {key: _decode_value(value) for key, value in obj.items()}
    record = _BY_TAG.get(tag) or _lookup(_BY_TAG, tag)
    if record is None:
        raise WireError(f"unknown wire tag {tag!r}")
    if not obj.keys() <= record.keys:
        raise WireError(f"unknown keys in a {tag!r} record: {sorted(obj.keys() - record.keys)}")
    values = {}
    for attribute, key, kind, _, _ in record.fields:
        # an absent optional key decodes as None, like an explicit null
        values[attribute] = _decode_value(obj.get(key) if kind is OPTIONAL else obj[key])
    return record.build(**values)


def encode_message(message: Message) -> bytes:
    """Serialize a message to its canonical (deterministic) JSON body."""
    return encode_control(message)


def _decode_json(data: bytes) -> Any:
    try:
        return _decode_value(json.loads(data.decode("utf-8")))
    except WireError:
        raise
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed wire body: {exc!r}") from exc


def decode_message(data: bytes) -> Message:
    """Parse a body from :func:`encode_message`; any failure is a :class:`WireError`."""
    return _envelope(_decode_json(data))


def _envelope(decoded: Any) -> Message:
    # receivers dispatch on ``kind``, and no encoder ever wrote anything but a str
    if not isinstance(decoded, Message) or decoded.kind.__class__ is not str:
        raise WireError(f"wire body is not a message with a string kind: {decoded!r}")
    return decoded


def encode_control(obj: Any) -> bytes:
    """Serialize a non-message control payload (handshakes, diagnostics)."""
    return _dumps(_encode_value(obj)).encode("utf-8")


def decode_control(data: bytes) -> Any:
    """Parse a control payload; any failure is a :class:`WireError`."""
    return _decode_json(data)


# --------------------------------------------------------------- binary codec
#
# Body layout: one version byte (BINARY_VERSION, which can never collide with
# a JSON body — those start with "{" = 0x7B) followed by one tagged value.
# Every value is a tag byte plus a fixed- or length-prefixed encoding; counts
# and lengths use a compact form (one byte 0..254, or 0xFF + 4-byte >I).
# Protocol strings (message kinds, common payload keys and workload attribute
# names) are interned through the static STRING_TABLE: a 2-byte reference
# instead of the spelled-out string.  The table is part of the wire revision:
# handshakes carry (WIRE_VERSION, table length) and a skew is rejected loudly
# at connection setup, so indices are connection-independent and the
# per-object binary fragments below are globally cacheable.
#
# Determinism mirrors the JSON codec: dict keys are emitted sorted,
# set/frozenset items are emitted sorted by repr, so the same object always
# encodes to the same bytes regardless of hash seed.

BINARY_VERSION = 1

#: revision of the binary format *and* the string table; negotiated in the
#: connection handshake.  Bump whenever tags, layouts or STRING_TABLE change,
#: or what a link leaves out of its frames (2: the sender and the id, which
#: a revision-1 reader would have routed as written)
WIRE_VERSION = 2

#: static interned protocol strings (message kinds, wire payload keys, common
#: workload attribute names).  Append-only; any change bumps WIRE_VERSION.
STRING_TABLE: Tuple[str, ...] = (
    # message kinds (broker + mobility protocol)
    "publish",
    "notify",
    "subscribe",
    "unsubscribe",
    "detach",
    "resync",
    "shadow_create",
    "shadow_delete",
    "shadow_sub",
    "shadow_unsub",
    "client_hello",
    "client_bye",
    "client_leaving",
    "client_subscribe",
    "client_unsubscribe",
    "location_update",
    "welcome",
    "handover_request",
    "handover_reply",
    # common wire payload keys
    "sub_id",
    "filter",
    "client_id",
    "subscription",
    "templates",
    "location",
    "broker",
    "had_shadow",
    "replayed",
    "new_broker",
    "old_broker",
    "found",
    "reissue",
    # common workload attribute names and topic values
    "topic",
    "value",
    "pad",
    "service",
    "room",
    "seq",
    "phase",
    "bench",
    "demo",
)

_STRING_IDS: Dict[str, int] = {s: i for i, s in enumerate(STRING_TABLE)}
_TABLE_LEN = len(STRING_TABLE)

_PACK_D = struct.Struct(">d")
_PACK_I32 = struct.Struct(">i")
_PACK_I64 = struct.Struct(">q")
_PACK_U32 = struct.Struct(">I")

# value tags
_B_NONE = 0x00
_B_TRUE = 0x01
_B_FALSE = 0x02
_B_INT8 = 0x03
_B_INT32 = 0x04
_B_INT64 = 0x05
_B_BIGINT = 0x06
_B_FLOAT = 0x07
_B_STR = 0x08
_B_SREF = 0x09
_B_LIST = 0x0A
_B_DICT = 0x0E
# the other tags (0x0B up) are rows of the record table; only the two codes
# that the hand-written specialisations name have constants
_B_NOTIFICATION = 0x0F
_B_MESSAGE = 0x18


def _w_count(out: bytearray, n: int) -> None:
    if n < 255:
        out.append(n)
    else:
        out.append(255)
        out += _PACK_U32.pack(n)


def _w_str(out: bytearray, s: str) -> None:
    idx = _STRING_IDS.get(s)
    if idx is not None:
        out.append(_B_SREF)
        out.append(idx)
    else:
        data = s.encode("utf-8")
        out.append(_B_STR)
        _w_count(out, len(data))
        out += data


def _w_int(out: bytearray, v: int) -> None:
    if -128 <= v <= 127:
        out.append(_B_INT8)
        out.append(v & 0xFF)
    elif -2147483648 <= v <= 2147483647:
        out.append(_B_INT32)
        out += _PACK_I32.pack(v)
    elif -(1 << 63) <= v < 1 << 63:
        out.append(_B_INT64)
        out += _PACK_I64.pack(v)
    else:
        data = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        if len(data) > 254:
            raise WireError(f"integer too large for the binary codec: {v!r}")
        out.append(_B_BIGINT)
        out.append(len(data))
        out += data


def _b_write(out: bytearray, obj: Any) -> None:
    if obj is None:
        out.append(_B_NONE)
        return
    t = type(obj)
    if t is str:
        _w_str(out, obj)
        return
    if t is bool:
        out.append(_B_TRUE if obj else _B_FALSE)
        return
    if t is int:
        _w_int(out, obj)
        return
    if t is float:
        out.append(_B_FLOAT)
        out += _PACK_D.pack(obj)
        return
    if t is dict:
        _check_keys(obj)
        out.append(_B_DICT)
        _w_count(out, len(obj))
        for key in sorted(obj):
            _w_str(out, key)
            _b_write(out, obj[key])
        return
    if t is list:
        out.append(_B_LIST)
        _w_items(out, obj)
        return
    record = _BY_CLASS.get(t) or _lookup(_BY_CLASS, t)
    if record is not None:
        if record.cached:
            # the traffic that matters: five of a delivery's six transmissions
            # splice a fragment that the reader primed or an earlier link wrote
            fragment = getattr(obj, "_wire_bin", None)
            if fragment is None:
                tmp = bytearray((record.code,))
                _w_fields(tmp, record, obj)
                fragment = bytes(tmp)
                object.__setattr__(obj, "_wire_bin", fragment)
            out += fragment
        else:
            out.append(record.code)
            _w_fields(out, record, obj)
        return
    # subclass fallbacks, mirroring the JSON codec's isinstance dispatch
    if isinstance(obj, int):  # (``bool`` cannot be subclassed)
        _w_int(out, obj)
        return
    if isinstance(obj, float):
        out.append(_B_FLOAT)
        out += _PACK_D.pack(obj)
        return
    if isinstance(obj, str):
        _w_str(out, obj)
        return
    raise WireError(f"cannot encode {type(obj).__name__} value {obj!r}")


def _w_items(out: bytearray, items: Any) -> None:
    _w_count(out, len(items))
    for item in items:
        _b_write(out, item)


def _w_fields(out: bytearray, record: _Record, obj: Any) -> None:
    """Write the fields of ``obj`` (the tag byte is the caller's) in declaration order."""
    for _, _, kind, getter, bit in record.fields:
        value = getter(obj)
        if kind is VALUE:
            _b_write(out, value)
        elif kind is ITEMS:
            _w_items(out, value)
        elif kind is SORTED:
            _w_items(out, sorted(value, key=repr))
        else:
            if bit == 1:  # the first of them: the byte all their bits pack into
                flags = 0
                for _, _, its_kind, get, its_bit in record.fields:
                    if its_bit and (get(obj) if its_kind is FLAG else get(obj) is not None):
                        flags |= its_bit
                out.append(flags)
            if kind is OPTIONAL and value is not None:
                _b_write(out, value)


def _r_count(buf: bytes, pos: int) -> Tuple[int, int]:
    n = buf[pos]
    pos += 1
    if n == 255:
        n = _PACK_U32.unpack_from(buf, pos)[0]
        pos += 4
    return n, pos


def _r_items(buf: bytes, pos: int) -> Tuple[List[Any], int]:
    # no pre-allocation from the (hostile) count: a count larger than the
    # body runs off the end of the buffer after at most len(buf) items
    n, pos = _r_count(buf, pos)
    items = []
    for _ in range(n):
        item, pos = _b_read(buf, pos)
        items.append(item)
    return items, pos


def _bad_sref(idx: int) -> WireError:
    return WireError(
        f"string-table index {idx} out of range (table has {_TABLE_LEN} entries); "
        f"the peer speaks an incompatible wire revision"
    )


def _b_read(buf: bytes, pos: int) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _B_SREF:
        idx = buf[pos]
        if idx >= _TABLE_LEN:
            raise _bad_sref(idx)
        return STRING_TABLE[idx], pos + 1
    if tag == _B_STR:
        n, pos = _r_count(buf, pos)
        end = pos + n
        if end > len(buf):
            raise WireError("truncated binary string")
        return buf[pos:end].decode("utf-8"), end
    if tag == _B_INT8:
        v = buf[pos]
        return (v - 256 if v >= 128 else v), pos + 1
    if tag == _B_INT32:
        return _PACK_I32.unpack_from(buf, pos)[0], pos + 4
    if tag == _B_DICT:
        n, pos = _r_count(buf, pos)
        obj: Dict[str, Any] = {}
        for _ in range(n):
            key, pos = _b_read(buf, pos)
            if key.__class__ is not str:
                raise WireError(f"only string dict keys are decodable, got {key!r}")
            obj[key], pos = _b_read(buf, pos)
        return obj, pos
    if tag > _B_LIST:  # every tag above it, _B_DICT apart, is a row of the record table
        record = _BY_CODE.get(tag) or _lookup(_BY_CODE, tag)
        if record is None:
            raise WireError(f"unknown binary wire tag 0x{tag:02x}")
        return record.read(record, buf, pos)
    if tag == _B_FLOAT:
        return _PACK_D.unpack_from(buf, pos)[0], pos + 8
    if tag == _B_NONE:
        return None, pos
    if tag == _B_TRUE:
        return True, pos
    if tag == _B_FALSE:
        return False, pos
    if tag == _B_INT64:
        return _PACK_I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _B_BIGINT:
        n = buf[pos]
        pos += 1
        end = pos + n
        if end > len(buf):
            raise WireError("truncated binary integer")
        return int.from_bytes(buf[pos:end], "big", signed=True), end
    return _r_items(buf, pos)  # _B_LIST, the one tag left


def _r_record(record: _Record, buf: bytes, pos: int) -> Tuple[Any, int]:
    """Read the fields of one record (its tag byte is at ``pos - 1``) and build it."""
    start = pos - 1
    values = {}
    flags = 0
    for attribute, _, kind, _, bit in record.fields:
        if kind is VALUE:
            values[attribute], pos = _b_read(buf, pos)
        elif kind is ITEMS or kind is SORTED:
            values[attribute], pos = _r_items(buf, pos)
        else:
            if bit == 1:
                flags = buf[pos]
                pos += 1
            if kind is FLAG:
                values[attribute] = bool(flags & bit)
            else:
                values[attribute], pos = _b_read(buf, pos) if flags & bit else (None, pos)
    obj = record.build(**values)
    if record.cached:
        # prime the binary fragment cache from the received span, so the
        # next hop forwards the payload without re-encoding it
        object.__setattr__(obj, "_wire_bin", buf[start:pos])
    return obj, pos


def _r_notification(record: _Record, buf: bytes, pos: int) -> Tuple[Any, int]:
    """Specialisation 1 of 3: :func:`_r_record` for a notification, unrolled.

    Same bytes, an equal object, the same primed fragment (the tests hold the
    two together); a node reads each notification once (its first body
    through it: :class:`NotificationMemo` serves the rest).  Inline: interned
    keys and int/short-str/float values, an int32 id, a float or None
    ``published_at``, a short-str or None ``publisher``; any other tag is
    read by :func:`_b_read`, with all its checks, and an attribute value so
    read must lie in the value domain (``check_value``).
    """
    start = pos - 1
    if buf[pos] != _B_DICT:  # never what an encoder wrote: the walker's checks decide
        return _r_record(record, buf, pos)
    # inlined attrs read: a notification body is always a small dict of
    # interned-or-short keys with scalar values, so the generic dispatch
    # (one _b_read call per key and value) is mostly call overhead
    n, pos = _r_count(buf, pos + 1)
    attrs = {}
    for _ in range(n):
        t = buf[pos]
        if t == _B_SREF:
            idx = buf[pos + 1]
            if idx >= _TABLE_LEN:
                raise _bad_sref(idx)
            key = STRING_TABLE[idx]
            pos += 2
        else:
            key, pos = _b_read(buf, pos)
            if key.__class__ is not str:
                raise WireError(f"only string dict keys are decodable, got {key!r}")
        t = buf[pos]
        if t == _B_INT8:
            v = buf[pos + 1]
            value = v - 256 if v >= 128 else v
            pos += 2
        elif t == _B_INT32:
            value = _PACK_I32.unpack_from(buf, pos + 1)[0]
            pos += 5
        elif t == _B_STR and buf[pos + 1] < 255:
            end = pos + 2 + buf[pos + 1]
            if end > len(buf):
                raise WireError("truncated binary string")
            value = buf[pos + 2:end].decode("utf-8")
            pos = end
        elif t == _B_FLOAT:
            value = _PACK_D.unpack_from(buf, pos + 1)[0]
            pos += 9
        else:
            from ..pubsub.notification import check_value  # net imports without pubsub

            value, pos = _b_read(buf, pos)
            check_value(value)
        attrs[key] = value
    if buf[pos] == _B_INT32:
        nid = _PACK_I32.unpack_from(buf, pos + 1)[0]
        pos += 5
    else:
        nid, pos = _b_read(buf, pos)
    t = buf[pos]
    if t == _B_FLOAT:
        published_at = _PACK_D.unpack_from(buf, pos + 1)[0]
        pos += 9
    elif t == _B_NONE:
        published_at = None
        pos += 1
    else:
        published_at, pos = _b_read(buf, pos)
    t = buf[pos]
    if t == _B_STR and buf[pos + 1] < 255:
        end = pos + 2 + buf[pos + 1]
        if end > len(buf):
            raise WireError("truncated binary string")
        publisher = buf[pos + 2:end].decode("utf-8")
        pos = end
    elif t == _B_NONE:
        publisher = None
        pos += 1
    else:
        publisher, pos = _b_read(buf, pos)
    # build without __init__: ``attrs`` is a freshly decoded dict this
    # notification can own outright, so the defensive copy is waste
    notification = record.cls.__new__(record.cls)
    notification._attributes = attrs
    notification.notification_id = nid
    notification.published_at = published_at
    notification.publisher = publisher
    notification._esize = None
    notification._wire_bin = buf[start:pos]
    return notification, pos


#: the bytes a :class:`NotificationMemo` holds, entry overheads counted, before
#: it is emptied: one ``line_sat_tcp`` repetition (2.4 MB so counted) fits
MEMO_BUDGET = 3 << 20
#: an entry's cost beside its body, by ``sys.getsizeof``: the key's header, a slot
#: in each table (60 at most, just grown); a tuple entry adds itself and its meta
_ENTRY, _TUPLE, _ITEM = 33 + 2 * 60, 64 + 40, 8 + 56
#: the meta values a held body may carry (a hit copies ``meta`` one level deep)
_FLAT = frozenset((bool, int, float, str, type(None)))


class NotificationMemo(dict):
    """The link bodies carrying an immutable record that a socket node decoded or framed.

    A link frame names no sender and no id, and a sender splices the payload's
    ``_wire_bin``: each hop or delivery through a node brings the same body again
    (on a link whose ends it owns, one it framed).  A held body maps to ``(kind,
    payload, meta items)`` (the bare notification if kind is interned and meta
    empty), handed out unparsed, as the simulator shares one object, with a fresh
    ``meta``.  Held only: what :func:`frame_message_binary` writes (sender None,
    id 0, a flat meta).  ``known`` maps a held notification's fragment to it (one
    object under every kind; unparsed before the link's empty tail).  ``size``
    counts bodies and overheads: one past :data:`MEMO_BUDGET` empties the memo.
    """

    __slots__ = ("size", "reused", "known")

    def __init__(self, reused: Any) -> None:
        super().__init__()
        self.size = 0
        self.reused = reused  # a counter of the parses skipped
        self.known: Dict[bytes, Any] = {}

    def notification(self, body: bytes, pos: int) -> Any:
        """The held notification from ``pos`` to the link's empty tail, or None."""
        if body.endswith(_LINK_TAIL):  # then the fragment ends where it begins
            return self.known.get(body[pos : len(body) - len(_LINK_TAIL)])
        return None

    def hold(self, body: bytes, kind: str, payload: Any, meta: Any) -> Any:
        """Hold a link body that carries a cached record: the payload to hand out."""
        if meta.__class__ is not dict or meta and not _FLAT.issuperset(map(type, meta.values())):
            return payload
        note = payload._wire_bin[0] == _B_NOTIFICATION
        bare = note and not meta and body[2] == _B_SREF
        cost = len(body) + _ENTRY if bare else len(body) + _ENTRY + _TUPLE + _ITEM * len(meta)
        if cost > MEMO_BUDGET:
            return payload
        self.size += cost
        if self.size > MEMO_BUDGET:  # emptied, not evicted one by one
            self.clear()
            self.known.clear()
            self.size = cost
        if note:
            payload = self.known.setdefault(payload._wire_bin, payload)
        self[body] = payload if bare else (kind, payload, tuple(meta.items()))
        return payload


def encode_message_binary(message: Message) -> bytes:
    """Serialize a message to its binary byte body (version byte + value)."""
    # through the walker, so tests can hold frame_message_binary against it
    out = bytearray((BINARY_VERSION,))
    _b_write(out, message)
    return bytes(out)


def decode_message_binary(data: bytes, memo: "NotificationMemo | None" = None) -> Message:
    """Parse a body from :func:`encode_message_binary`; any failure is a :class:`WireError`.

    A body that ``memo`` holds is not parsed; any other is parsed and checked
    as without one (an equal result, the same errors) and held if it may be.
    """
    held = memo.get(data) if memo is not None else None
    if held is not None:
        memo.reused.inc()
        if held.__class__ is tuple:  # a kind outside the string table, or a meta
            kind, payload, meta = held[0], held[1], dict(held[2])
        else:
            kind, payload, meta = STRING_TABLE[data[3]], held, {}
        obj: Any = Message.__new__(Message)
        obj.__dict__ = {"kind": kind, "payload": payload, "sender": None, "msg_id": 0}
        obj.meta = meta
        return obj
    if not data:
        raise WireError("empty binary wire body")
    if data[0] != BINARY_VERSION:
        raise CodecMismatchError(
            f"unsupported binary wire version byte 0x{data[0]:02x} "
            f"(this endpoint speaks version {BINARY_VERSION})"
        )
    try:
        if len(data) > 1 and data[1] == _B_MESSAGE:
            # specialisation 2 of 3, the envelope read inlined: every
            # well-formed body is a Message, so skip the tag dispatch, the
            # values dict and __init__ (fields in the Message record's order).
            # Inline: an interned kind, a notification payload, the link's
            # sender None and id 0, an empty meta; any other tag goes to
            # _b_read, with all its checks
            if data[2] == _B_SREF and data[3] < _TABLE_LEN:
                kind, pos = STRING_TABLE[data[3]], 4
            else:
                kind, pos = _b_read(data, 2)
            if data[pos] != _B_NOTIFICATION:
                payload, pos = _b_read(data, pos)
                memo = None  # only a notification is held
            elif memo is not None and (payload := memo.notification(data, pos)) is not None:
                memo.reused.inc()
                pos = len(data) - len(_LINK_TAIL)
            else:
                record = _BY_CODE.get(_B_NOTIFICATION) or _lookup(_BY_CODE, _B_NOTIFICATION)
                payload, pos = record.read(record, data, pos + 1)
            if data.startswith(_ANONYMOUS, pos):
                sender, msg_id, pos = None, 0, pos + len(_ANONYMOUS)
            else:
                sender, pos = _b_read(data, pos)
                msg_id, pos = _b_read(data, pos)
                memo = None  # a hit answers sender None, id 0
            if data[pos] == _B_DICT and data[pos + 1] == 0:
                meta, pos = {}, pos + 2
            else:
                meta, pos = _b_read(data, pos)
            obj = Message.__new__(Message)
            obj.__dict__ = {"kind": kind, "payload": payload, "sender": sender, "msg_id": msg_id}
            obj.meta = meta
        else:
            obj, pos = _b_read(data, 1)
            memo = None
    except WireError:
        raise
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed binary wire body: {exc!r}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after the binary message")
    _envelope(obj)
    if memo is not None:
        obj.payload = memo.hold(data, kind, payload, meta)
    return obj


#: the head of a link body with an interned kind: version, message tag, kind
_HEADS = {k: bytes((BINARY_VERSION, _B_MESSAGE, _B_SREF, i)) for i, k in enumerate(STRING_TABLE)}
#: a link body's sender (None) and id (0): the link that reads it names the sender
_ANONYMOUS = bytes((_B_NONE, _B_INT8, 0))
#: ... and an empty meta after them: the tail of nearly every link body
_LINK_TAIL = _ANONYMOUS + bytes((_B_DICT, 0))


def frame_message_binary(message: Message) -> bytes:
    """Frame a message as a link carries it: ``frame(encode_message_binary(
    Message(kind, payload, None, 0, meta)))``, the socket send path.

    No sender (the receiving link names it) and no id, so a notification's
    body is the same bytes on every hop.  Specialisation 3 of 3: a join of
    the length, the kind's head (held if interned), the payload's
    ``_wire_bin`` and the tail (held if meta is empty); any other value goes
    to :func:`_b_write`, which also refuses an object outside the closed
    set.  Memoized on the message: a broker fanning one notification out to
    N socket links frames it once.
    """
    framed = message._frame_bin
    if framed is not None:
        return framed
    head = _HEADS.get(message.kind)
    if head is None:
        head = bytearray((BINARY_VERSION, _B_MESSAGE))
        _w_str(head, message.kind)
    payload = message.payload
    record = _BY_CLASS.get(payload.__class__)
    fragment = getattr(payload, "_wire_bin", None) if record is not None and record.cached else None
    if fragment is None:
        fragment = bytearray()
        _b_write(fragment, payload)
    meta = message.meta
    if meta.__class__ is dict and not meta:
        tail = _LINK_TAIL
    else:
        tail = bytearray(_ANONYMOUS)
        _b_write(tail, meta)
    body_len = len(head) + len(fragment) + len(tail)
    if body_len > MAX_FRAME_SIZE:
        raise WireError(f"frame body of {body_len} bytes exceeds MAX_FRAME_SIZE")
    framed = message._frame_bin = b"".join((_LENGTH.pack(body_len), head, fragment, tail))
    return framed


# --------------------------------------------------------------------- codecs


class Codec:
    """A named message codec: the reference interface over both encodings.

    ``encode_message``/``decode_message``/``frame_message`` are the per-codec
    entry points; ``body_first`` is the one byte every message body of this
    codec starts with, which an armed :class:`FrameDecoder` checks.  Sockets
    call the binary functions directly; this seam serves measurements and
    tests that hold the two encodings side by side.
    """

    __slots__ = ("name", "encode_message", "decode_message", "frame_message", "body_first")

    def __init__(self, name, encode, decode, frame_one, body_first):
        self.name = name
        self.encode_message = encode
        self.decode_message = decode
        self.frame_message = frame_one
        self.body_first = body_first

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Codec({self.name!r})"


def get_codec(spec: "str | Codec") -> Codec:
    """Resolve ``"json"``, ``"binary"`` (or a :class:`Codec`) to a :class:`Codec`."""
    if isinstance(spec, Codec):
        return spec
    if spec == "json":
        return JSON_CODEC
    if spec == "binary":
        return BINARY_CODEC
    raise WireError(f"unknown codec {spec!r} (choose from json, binary)")


def handshake_fields() -> Dict[str, Any]:
    """The wire-negotiation fields a connection handshake must carry."""
    return {"wire": WIRE_VERSION, "table": _TABLE_LEN}


def check_handshake_codec(handshake: Dict[str, Any]) -> None:
    """Validate a peer's handshake against this endpoint's wire revision.

    Raises :class:`CodecMismatchError` when the peer speaks a different
    binary wire revision or string table — the loud failure mode, instead
    of garbage frames later.
    """
    peer_wire = handshake.get("wire")
    peer_table = handshake.get("table")
    if peer_wire != WIRE_VERSION or peer_table != _TABLE_LEN:
        raise CodecMismatchError(
            f"peer speaks binary wire revision {peer_wire!r} with a "
            f"{peer_table!r}-entry string table; this endpoint speaks "
            f"revision {WIRE_VERSION} with {_TABLE_LEN} entries"
        )


# -------------------------------------------------------------------- framing


def frame(body: bytes) -> bytes:
    """Wrap a body in the 4-byte big-endian length prefix."""
    if len(body) > MAX_FRAME_SIZE:
        raise WireError(f"frame body of {len(body)} bytes exceeds MAX_FRAME_SIZE")
    return _LENGTH.pack(len(body)) + body


def frame_message(message: Message) -> bytes:
    """Encode a message as JSON and frame it (the reference codec)."""
    return frame(encode_message(message))


class FrameDecoder:
    """Incremental splitter of a TCP byte stream into frame bodies.

    Feed arbitrary chunks in the order they arrive; complete bodies come out
    in order.  Partial frames are buffered until their remainder shows up.

    Completed frames are scanned with a moving offset and the buffer is
    compacted once per :meth:`feed` call (one memmove per burst, not per frame).
    When :attr:`codec` is set, every completed body's first byte is checked
    against the codec's leading byte and a foreign frame raises
    :class:`CodecMismatchError`, not the plain :class:`WireError` of a
    truncated or oversized frame.  Socket receivers leave it unset:
    :func:`decode_message_binary` checks the version byte itself.
    """

    __slots__ = ("_buffer", "codec")

    def __init__(self, codec: "Codec | str | None" = None) -> None:
        self._buffer = bytearray()
        self.codec = get_codec(codec) if codec is not None else None

    def feed(self, data: bytes) -> List[bytes]:
        """Add received bytes; return every frame body completed by them."""
        self._buffer.extend(data)
        bodies: List[bytes] = []
        buffer = self._buffer
        codec = self.codec
        expected_first = codec.body_first if codec is not None else None
        offset = 0
        available = len(buffer)
        while available - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            if length > MAX_FRAME_SIZE:
                raise WireError(f"incoming frame of {length} bytes exceeds MAX_FRAME_SIZE")
            end = offset + _LENGTH.size + length
            if available < end:
                break
            body = bytes(buffer[offset + _LENGTH.size:end])
            if expected_first is not None and body and body[0] != expected_first:
                raise CodecMismatchError(
                    f"frame body begins with 0x{body[0]:02x} but this connection "
                    f"negotiated the {codec.name!r} codec "
                    f"(expected 0x{expected_first:02x})"
                )
            bodies.append(body)
            offset = end
        if offset:
            del buffer[:offset]  # the partial tail (if any) stays for the next feed
        return bodies

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


#: the tagged-JSON reference codec — what golden traces and corpus digests pin
JSON_CODEC = Codec("json", encode_message, decode_message, frame_message, 0x7B)

#: the binary codec every socket speaks — interned strings, memoized frames
BINARY_CODEC = Codec(
    "binary", encode_message_binary, decode_message_binary, frame_message_binary, BINARY_VERSION
)
