"""Open-loop load generator: a due-time schedule that never slows for the system.

Independent publishers do not wait for each other's deliveries, so the paced
workload sends on a schedule fixed beforehand from the seed.  When the event
loop stalls, everything that fell due meanwhile is sent on the next tick —
nothing is skipped — and latency is timed from the *due* time, so the wait a
stall imposes on later notifications is counted instead of hidden.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence


def uniform_schedule(rng: random.Random, count: int, start: float, end: float) -> List[float]:
    """``count`` sorted due times, independent and uniform over ``[start, end)``.

    This is a Poisson arrival process conditioned on its count, so every seed
    offers exactly the same load with different gaps and bursts.
    """
    return sorted(rng.uniform(start, end) for _ in range(count))


class OpenLoopGenerator:
    """Calls ``send(i)`` once ``due[i]`` has passed on ``clock``, in order.

    ``clock`` is any transport clock (``now`` + ``schedule(delay, callback)``).
    One self-rescheduling callback does all the sending; while it is pending
    the transport does not count as idle, so ``run_until_idle`` returns only
    after the whole schedule has been sent and drained.
    """

    def __init__(self, clock, send: Callable[[int], None], due: Sequence[float]) -> None:
        self.clock = clock
        self.send = send
        self.due = due
        #: clock time at which each item was actually sent
        self.sent_at: List[float] = []

    def start(self) -> None:
        self.clock.schedule(max(0.0, self.due[0] - self.clock.now), self._tick)

    def _tick(self) -> None:
        due, sent_at = self.due, self.sent_at
        now = self.clock.now
        while len(sent_at) < len(due) and due[len(sent_at)] <= now:
            self.send(len(sent_at))
            sent_at.append(now)
        if len(sent_at) < len(due):
            self.clock.schedule(max(0.0, due[len(sent_at)] - self.clock.now), self._tick)

    def lateness(self) -> List[float]:
        """Seconds each item was sent after it fell due."""
        return [sent - due for sent, due in zip(self.sent_at, self.due)]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]
