"""Notifications: the messages conveyed by the notification service.

A *notification* is "a message that reifies and describes an occurred event"
(Sect. 2).  REBECA is a content-based system, so a notification is simply a
set of named attributes; filters are predicates over those attributes.

Notifications in this reproduction are immutable mappings from attribute
names to values, with a publication timestamp and a unique id so that the
mobility layer can detect duplicates and measure delivery latency.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, ItemsView, Iterator, KeysView, Mapping, Optional, ValuesView

_notification_ids = itertools.count(1)


class Notification(Mapping[str, Any]):
    """An immutable, content-addressable event description.

    Parameters
    ----------
    attributes:
        The event content, e.g. ``{"service": "temperature", "location": "room-4", "value": 21.5}``.
    published_at:
        Simulated publication time, filled in by the publishing client.
    publisher:
        Name of the publishing client (informational; routing never uses it).
    """

    __slots__ = (
        "_attributes",
        "notification_id",
        "published_at",
        "publisher",
        "_wire_bin",
        "_esize",
    )

    def __init__(
        self,
        attributes: Mapping[str, Any],
        published_at: Optional[float] = None,
        publisher: Optional[str] = None,
        notification_id: Optional[int] = None,
    ):
        self._attributes: Dict[str, Any] = dict(attributes)
        self.notification_id = (
            notification_id if notification_id is not None else next(_notification_ids)
        )
        self.published_at = published_at
        self.publisher = publisher
        # The binary wire fragment, filled in lazily by repro.net.wire so
        # forwarding hops don't re-serialize an immutable payload once per
        # outgoing link.  Never part of equality or hashing.
        self._wire_bin: Optional[bytes] = None
        self._esize: Optional[int] = None

    # ------------------------------------------------------------- Mapping API
    def __getitem__(self, key: str) -> Any:
        return self._attributes[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def get(self, key: str, default: Any = None) -> Any:
        return self._attributes.get(key, default)

    # the dict's own views and containment test: the ``Mapping`` mixins would
    # build them from ``__iter__`` and ``__getitem__``, one Python call per item
    def __contains__(self, key: object) -> bool:
        return key in self._attributes

    def keys(self) -> KeysView[str]:
        return self._attributes.keys()

    def values(self) -> ValuesView[Any]:
        return self._attributes.values()

    def items(self) -> ItemsView[str, Any]:
        return self._attributes.items()

    # ---------------------------------------------------------------- helpers
    @property
    def attributes(self) -> Dict[str, Any]:
        """A copy of the attribute dictionary."""
        return dict(self._attributes)

    def with_attributes(self, **updates: Any) -> "Notification":
        """Return a copy with some attributes replaced (new notification id)."""
        merged = dict(self._attributes)
        merged.update(updates)
        return Notification(merged, published_at=self.published_at, publisher=self.publisher)

    def stamped(self, published_at: float, publisher: str) -> "Notification":
        """Return a copy carrying publication metadata (same id and content)."""
        return Notification(
            self._attributes,
            published_at=published_at,
            publisher=publisher,
            notification_id=self.notification_id,
        )

    def digest(self) -> int:
        """A stable digest of the notification identity.

        Used by the shared-buffer scheme of Sect. 4 ("virtual clients can keep
        only the digest (e.g., IDs or hash) of the events").
        """
        return hash(
            (self.notification_id, tuple(sorted(self._attributes.items(), key=lambda kv: kv[0])))
        )

    def estimated_size(self) -> int:
        """Abstract size in bytes, used for buffer-memory metrics.

        Memoized: attributes are immutable, and every forwarding hop wraps
        the same notification in a fresh envelope whose size estimate walks
        the payload again.
        """
        total = self._esize
        if total is None:
            total = 24
            for key, value in self._attributes.items():
                total += len(key)
                if isinstance(value, str):
                    total += len(value)
                else:
                    total += 8
            self._esize = total
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Notification):
            return NotImplemented
        return (
            self.notification_id == other.notification_id
            and self._attributes == other._attributes
        )

    def __hash__(self) -> int:
        return self.digest()

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self._attributes.items()))
        return f"Notification(#{self.notification_id}, {attrs})"


def attribute_dict(mapping: Mapping[str, Any]) -> Mapping[str, Any]:
    """The dict behind a :class:`Notification` (read-only!); any other mapping as is.

    The matching loops unwrap once per notification with this and evaluate
    every candidate filter on the plain ``dict``, whose ``get`` is a C call.
    The test is on the exact class: ``isinstance`` against an ABC costs more
    than the unwrapping saves, and a subclass still answers as a ``Mapping``.
    """
    return mapping._attributes if mapping.__class__ is Notification else mapping


def notification(**attributes: Any) -> Notification:
    """Convenience constructor: ``notification(service="temperature", value=21)``."""
    return Notification(attributes)
