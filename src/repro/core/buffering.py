"""Buffering policies and notification buffers.

Unconnected (shadow) virtual clients "buffer all delivered notifications
according to some application-specific buffering policy" (Sect. 3.1), and the
paper's research agenda (Sect. 4, "Embedding event histories") enumerates the
policy space reproduced here:

* **time-based** — "all notifications published more than t seconds ago are
  deleted from the buffer" (:class:`TimeBasedPolicy`);
* **history-based** — "the buffer always keeps the last n notifications"
  (:class:`CountBasedPolicy`);
* **combined** — "both schemes can be combined" (:class:`CombinedPolicy`);
* **semantic-based** — "new events can nullify old events"
  (:class:`SemanticPolicy`);
* **shared buffer** — "a shared buffer at the border broker can be used and
  virtual clients can keep only the digest (e.g., IDs or hash) of the
  events": a replicator hands one notification object to every matching
  shadow, so the per-client buffers hold references to it and that is the
  shared buffer, collected once no shadow holds it; :func:`shared_footprint`
  is its accounting (E8, E13).

Buffers never drop notifications silently: every eviction is counted so the
experiments can report the memory/recall trade-off (E7, E8).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from ..pubsub.notification import Notification

SemanticKeyFunction = Callable[[Notification], Optional[Hashable]]


@dataclass
class BufferedNotification:
    """A notification held in a buffer, with the time it was buffered."""

    notification: Notification
    buffered_at: float

    def age(self, now: float) -> float:
        return now - self.buffered_at


class BufferPolicy:
    """Decides which buffered notifications must be evicted.

    Policies are stateless with respect to the buffer contents: they receive
    the current entries and return the entries to evict, which keeps them
    composable (see :class:`CombinedPolicy`).
    """

    name = "abstract"

    def select_evictions(
        self, entries: List[BufferedNotification], now: float
    ) -> List[BufferedNotification]:
        """Return the entries that should be removed from the buffer."""
        raise NotImplementedError  # pragma: no cover - interface

    def describe(self) -> str:
        return self.name


class UnboundedPolicy(BufferPolicy):
    """Never evict anything (useful as a ground-truth reference in experiments)."""

    name = "unbounded"

    def select_evictions(self, entries, now):
        return []


class TimeBasedPolicy(BufferPolicy):
    """Evict notifications buffered more than ``ttl`` seconds ago."""

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = ttl
        self.name = f"time({ttl}s)"

    def select_evictions(self, entries, now):
        return [entry for entry in entries if entry.age(now) > self.ttl]


class CountBasedPolicy(BufferPolicy):
    """Keep only the last ``max_entries`` notifications (FIFO eviction)."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.name = f"count({max_entries})"

    def select_evictions(self, entries, now):
        overflow = len(entries) - self.max_entries
        if overflow <= 0:
            return []
        # entries are kept in insertion order by NotificationBuffer
        return entries[:overflow]


class CombinedPolicy(BufferPolicy):
    """Evict anything that *any* member policy would evict."""

    def __init__(self, policies: Iterable[BufferPolicy]):
        self.policies = list(policies)
        if not self.policies:
            raise ValueError("CombinedPolicy needs at least one member policy")
        self.name = "combined(" + "+".join(p.name for p in self.policies) + ")"

    def select_evictions(self, entries, now):
        to_evict: "OrderedDict[int, BufferedNotification]" = OrderedDict()
        for policy in self.policies:
            for entry in policy.select_evictions(entries, now):
                to_evict[id(entry)] = entry
        return list(to_evict.values())


class SemanticPolicy(BufferPolicy):
    """Newer events nullify older events with the same semantic key.

    ``key_function`` maps a notification to a hashable key (for example
    ``lambda n: (n.get("service"), n.get("location"))`` so that a new
    temperature reading for a room replaces the previous one).  Returning
    ``None`` exempts a notification from nullification.
    """

    def __init__(self, key_function: SemanticKeyFunction):
        self.key_function = key_function
        self.name = "semantic"

    def select_evictions(self, entries, now):
        latest: Dict[Hashable, BufferedNotification] = {}
        for entry in entries:
            key = self.key_function(entry.notification)
            if key is None:
                continue
            latest[key] = entry  # entries are in insertion order; the last one wins
        to_evict = []
        for entry in entries:
            key = self.key_function(entry.notification)
            if key is None:
                continue
            if latest[key] is not entry:
                to_evict.append(entry)
        return to_evict


class NotificationBuffer:
    """A per-virtual-client buffer applying a :class:`BufferPolicy`.

    Notifications are kept in insertion (delivery) order; :meth:`drain`
    returns them in that order, which is what makes the replay after handover
    look like "a subscription in the past" (Sect. 1).
    """

    def __init__(self, policy: Optional[BufferPolicy] = None):
        self.policy = policy or UnboundedPolicy()
        self._entries: List[BufferedNotification] = []
        self.added = 0
        self.evicted = 0
        self.replayed = 0

    # ------------------------------------------------------------------- core
    def add(self, notification: Notification, now: float) -> None:
        """Buffer a notification and apply the eviction policy."""
        self._entries.append(BufferedNotification(notification, buffered_at=now))
        self.added += 1
        self._apply_policy(now)

    def drain(self, now: Optional[float] = None) -> List[Notification]:
        """Return all live notifications in order and empty the buffer (the replay)."""
        if now is not None:
            self._apply_policy(now)
        notifications = [entry.notification for entry in self._entries]
        self.replayed += len(notifications)
        self._entries = []
        return notifications

    def contents(self, now: Optional[float] = None) -> List[Notification]:
        """Return live notifications without draining."""
        if now is not None:
            self._apply_policy(now)
        return [entry.notification for entry in self._entries]

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries = []
        return dropped

    def _apply_policy(self, now: float) -> None:
        evictions = self.policy.select_evictions(self._entries, now)
        if not evictions:
            return
        evicted_ids = {id(entry) for entry in evictions}
        self._entries = [entry for entry in self._entries if id(entry) not in evicted_ids]
        self.evicted += len(evictions)

    # ------------------------------------------------------------------ stats
    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Abstract memory footprint: sum of buffered notification sizes."""
        return sum(entry.notification.estimated_size() for entry in self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NotificationBuffer({len(self._entries)} entries, policy={self.policy.name})"


# ----------------------------------------------------------- shared buffering

#: abstract size of one buffer entry: the reference a shadow keeps to a notification
REFERENCE_SIZE = 16


def shared_footprint(buffers: Iterable[NotificationBuffer]) -> int:
    """Abstract memory of co-located buffers: each notification once, plus a reference per entry.

    A replicator dispatches one :class:`Notification` object to every matching
    shadow, so the buffers already share it; counting by identity charges its
    size once however many shadows hold it.
    """
    held = [notification for buffer in buffers for notification in buffer.contents()]
    distinct = {id(notification): notification for notification in held}
    return sum(n.estimated_size() for n in distinct.values()) + REFERENCE_SIZE * len(held)


def make_policy(spec: str, **kwargs) -> BufferPolicy:
    """Create a policy from a short textual spec: ``"time"``, ``"count"``, ``"combined"``, ...

    Convenience used by the experiment harness and the examples; programmatic
    users should instantiate the policy classes directly.
    """
    if spec == "unbounded":
        return UnboundedPolicy()
    if spec == "time":
        return TimeBasedPolicy(ttl=kwargs.get("ttl", 60.0))
    if spec == "count":
        return CountBasedPolicy(max_entries=kwargs.get("max_entries", 100))
    if spec == "combined":
        return CombinedPolicy(
            [
                TimeBasedPolicy(ttl=kwargs.get("ttl", 60.0)),
                CountBasedPolicy(max_entries=kwargs.get("max_entries", 100)),
            ]
        )
    if spec == "semantic":
        key_function = kwargs.get("key_function")
        if key_function is None:
            key_function = lambda n: (n.get("service"), n.get("location"))  # noqa: E731
        return SemanticPolicy(key_function)
    raise ValueError(f"unknown buffer policy spec {spec!r}")
