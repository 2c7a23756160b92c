"""Deterministic discrete-event simulator.

The original REBECA middleware runs as a set of Java processes connected by
TCP links.  For the reproduction we replace the physical deployment with a
deterministic discrete-event simulation: every broker, client and replicator
is a :class:`~repro.net.process.Process` attached to a single
:class:`Simulator`, and every message exchange is an event scheduled on the
simulator's queue.  This preserves the only properties the paper's algorithms
rely on — per-link FIFO delivery, known (simulated) latencies and explicit
connect/disconnect events — while making every run reproducible.

Typical usage::

    sim = Simulator()
    sim.schedule(5.0, lambda: print("five seconds in"))
    sim.run()
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


# Heap entries have one shape, ``(time, seq, callback, args, handle)``: ``seq``
# is unique, so comparisons never reach past it, and tuple ordering avoids a
# ``__lt__`` dispatch per push/pop.  ``handle`` is the :class:`EventHandle` of
# an event scheduled through the public API, or ``None`` for a link delivery —
# nothing can cancel those, so a simulated message allocates no handle.


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable for cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "executed", "_sim", "_epoch")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Simulator" = None,
        epoch: int = 0,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.executed = False
        self._sim = sim
        self._epoch = epoch

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Cancelling an event that already ran (or was already cancelled) is a
        no-op — the handle is no longer in the queue, so there is nothing to
        account for.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled(self._epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("executed" if self.executed else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"EventHandle(t={self.time:.3f}, {name}, {state})"


class Simulator:
    """A single-threaded discrete-event scheduler.

    Events are callables executed at a simulated timestamp.  Events scheduled
    for the same timestamp run in insertion order, which gives deterministic
    behaviour and preserves FIFO semantics for same-latency links.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Callable[..., Any], tuple, Optional[EventHandle]]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        self.events_scheduled = 0
        # count of cancelled-but-not-yet-popped events, so ``pending`` is O(1);
        # the epoch guards the counter against handles cancelled after clear()
        self._cancelled_in_queue = 0
        self._epoch = 0

    def _note_cancelled(self, epoch: int) -> None:
        if epoch == self._epoch:
            self._cancelled_in_queue += 1

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute simulated ``time``."""
        self._check_not_past(time)
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self, self._epoch)
        heapq.heappush(self._queue, (time, seq, callback, args, handle))
        self.events_scheduled += 1
        return handle

    def push_uncancellable(self, time: float, callback: Callable[..., Any], args: tuple) -> None:
        """Queue ``callback(*args)`` at absolute ``time`` without an :class:`EventHandle`.

        For events nothing will ever cancel (a link delivery): ordering and
        counters are those of :meth:`schedule_at`, minus the handle allocation.
        """
        self._check_not_past(time)
        heapq.heappush(self._queue, (time, next(self._seq), callback, args, None))
        self.events_scheduled += 1

    def _check_not_past(self, time: float) -> None:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, which is before now={self._now:.6f}"
            )

    def call_now(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback`` to run at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, *args)

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time when the run stopped.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, callback, args, handle = queue[0]
            if handle is not None and handle.cancelled:
                pop(queue)
                self._cancelled_in_queue -= 1
                if not queue:  # only cancelled events were left: time stays put
                    break
                continue
            if until is not None and time > until:
                self._now = until
                break
            pop(queue)
            if handle is not None:
                handle.executed = True
            self._now = time
            self.events_processed += 1
            callback(*args)
            processed += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (bounded by ``max_events`` as a safety net)."""
        return self.run(max_events=max_events)

    # ------------------------------------------------------------------ misc
    @property
    def pending(self) -> int:
        """Number of non-cancelled events still in the queue (O(1))."""
        return len(self._queue) - self._cancelled_in_queue

    def clear(self) -> None:
        """Drop all pending events (useful between experiment repetitions)."""
        self._queue.clear()
        self._cancelled_in_queue = 0
        # cancelling a handle from before the clear must not skew the counter
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.3f}, pending={self.pending})"


class PeriodicTask:
    """Helper that re-schedules a callback at a fixed period until stopped.

    Used by workload generators (periodic publishers) and by mobility models
    (periodic movement steps).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        start_delay: float = 0.0,
        jitter: Callable[[], float] | None = None,
        until: Optional[float] = None,
    ):
        if period <= 0:
            raise SimulationError("period must be positive")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.jitter = jitter
        self.until = until
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        self.fired = 0
        self._handle = sim.schedule(start_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        if self.until is not None and self.sim.now > self.until:
            self._stopped = True
            return
        self.fired += 1
        self.callback()
        if self._stopped:
            return
        delay = self.period
        if self.jitter is not None:
            delay = max(1e-9, delay + self.jitter())
        next_time = self.sim.now + delay
        if self.until is not None and next_time > self.until:
            self._stopped = True
            return
        self._handle = self.sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the task; the pending occurrence (if any) is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped


def drain(sim: Simulator, rounds: Iterable[float]) -> None:
    """Run the simulator to each timestamp in ``rounds`` in order.

    Convenience for tests that want to interleave external actions with
    simulated time progression.
    """
    for t in rounds:
        sim.run(until=t)
