"""Movement traces: recording, replaying and synthesising broker-level traces.

The uncertainty analysis of Sect. 4 is about *sequences of attachments*: does
the next broker lie inside ``nlb`` of the previous one?  This module provides
the trace plumbing the experiments need — extracting broker traces from
location waypoints, recording the attachments a client actually performed,
replaying a recorded trace deterministically, and generating the synthetic
commuter traces used to evaluate the Markov predictor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    def append(self, entry: TraceEntry) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.time)

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

    def broker_at(self, time: float) -> Optional[str]:
        broker = None
        for entry in self.entries:
            if entry.time <= time:
                broker = entry.broker
            else:
                break
        return broker

    def duration(self) -> float:
        if not self.entries:
            return 0.0
        return self.entries[-1].time - self.entries[0].time

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# -------------------------------------------------------------- synthesising


def synthetic_commuter_trace(
    home_broker: str,
    office_broker: str,
    via: Sequence[str] = (),
    days: int = 5,
    day_length: float = 100.0,
    rng: Optional[random.Random] = None,
    detour_brokers: Sequence[str] = (),
    detour_probability: float = 0.1,
) -> MovementTrace:
    """A home -> (via...) -> office -> (via...) -> home pattern, repeated daily.

    With probability ``detour_probability`` a commute inserts a detour broker,
    which gives the Markov predictor something non-trivial to learn while a
    static ``nlb`` keeps paying for neighbours that are almost never used.
    """
    rng = rng or random.Random(11)
    entries: List[TraceEntry] = []
    time = 0.0
    for _day in range(days):
        morning_path = [home_broker, *via, office_broker]
        evening_path = [office_broker, *reversed(list(via)), home_broker]
        for path in (morning_path, evening_path):
            path = list(path)
            if detour_brokers and rng.random() < detour_probability:
                position = rng.randrange(1, len(path))
                path.insert(position, rng.choice(list(detour_brokers)))
            for broker in path:
                entries.append(TraceEntry(time=time, broker=broker))
                time += day_length / (2 * len(path))
    return MovementTrace(entries)


def trace_from_model(
    model: MobilityModel, space: LocationSpace, duration: float, seed: int = 0
) -> MovementTrace:
    """Generate the broker-level trace a mobility model would produce."""
    rng = random.Random(seed)
    return MovementTrace.from_waypoints(model.waypoints(duration, rng), space)


def coverage_against_graph(trace: MovementTrace, graph) -> float:
    """Fraction of the trace's handovers covered by a movement graph's ``nlb``."""
    handovers = trace.handovers()
    if not handovers:
        return 1.0
    covered = sum(1 for previous, current in handovers if current in graph.nlb(previous))
    return covered / len(handovers)
