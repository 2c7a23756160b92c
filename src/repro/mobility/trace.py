"""Movement traces: the broker-level attachment sequence of a mobility model.

The uncertainty analysis of Sect. 4 is about *sequences of attachments*: does
the next broker lie inside ``nlb`` of the previous one?  This module provides
the trace plumbing the experiments need — extracting the broker trace a
mobility model's location waypoints produce, and its handovers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.location import LocationSpace
from .models import MobilityModel, Waypoint


@dataclass(frozen=True)
class TraceEntry:
    """One attachment event in a broker-level trace."""

    time: float
    broker: str
    location: Optional[str] = None


class MovementTrace:
    """An ordered sequence of attachment events for one client."""

    def __init__(self, entries: Iterable[TraceEntry] = ()):
        self.entries: List[TraceEntry] = sorted(entries, key=lambda e: e.time)

    # ------------------------------------------------------------------ build
    @classmethod
    def from_waypoints(cls, waypoints: Sequence[Waypoint], space: LocationSpace) -> "MovementTrace":
        entries = [
            TraceEntry(time=w.time, broker=space.broker_of(w.location), location=w.location)
            for w in waypoints
        ]
        return cls(entries)

    # ------------------------------------------------------------------ views
    def brokers(self) -> List[str]:
        """The broker sequence (consecutive duplicates kept)."""
        return [entry.broker for entry in self.entries]

    def handovers(self) -> List[Tuple[str, str]]:
        """The (from, to) pairs of actual broker changes."""
        result = []
        brokers = self.brokers()
        for previous, current in zip(brokers, brokers[1:]):
            if previous != current:
                result.append((previous, current))
        return result

    def handover_count(self) -> int:
        return len(self.handovers())

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def trace_from_model(
    model: MobilityModel, space: LocationSpace, duration: float, seed: int = 0
) -> MovementTrace:
    """Generate the broker-level trace a mobility model would produce."""
    rng = random.Random(seed)
    return MovementTrace.from_waypoints(model.waypoints(duration, rng), space)
