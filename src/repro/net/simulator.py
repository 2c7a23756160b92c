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

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


# The queue is one FIFO per timestamp plus a heap of the distinct pending
# times.  Entries are appended to their time's deque in scheduling order, so
# each deque is already in the order events at that time must run, and the
# heap is sifted once per distinct time, not once per event: a blast of
# thousands of same-time deliveries is thousands of ``popleft`` calls, each
# freeing its entry (and the message it carries) as it runs.  An entry is
# ``(callback, args, handle)`` for an event scheduled through the public API,
# or ``(receiver, payload, _DELIVER)`` for a link delivery, run as
# ``receiver.deliver(payload)``: nothing cancels a delivery, so it has no
# handle, and ``deliver`` is looked up when it runs (a ``deliver`` replaced
# on the instance after its link was built still fires).
_DELIVER = object()


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable for cancellation."""

    __slots__ = ("time", "callback", "args", "cancelled", "executed", "_sim", "_epoch")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Simulator" = None,
        epoch: int = 0,
    ):
        self.time = time
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

    def __init__(self):
        self._now = 0.0
        self._buckets: dict[float, deque[tuple]] = {}
        self._times: list[float] = []  # heap of the keys of ``_buckets``
        self.events_processed = 0
        self.events_scheduled = 0
        # events that left the queue unrun (cancelled ones popped, all that
        # clear() dropped) and cancelled ones still queued, so ``pending`` is
        # O(1); the epoch guards the latter against a cancel after clear()
        self._discarded = 0
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
        handle = EventHandle(time, callback, args, self, self._epoch)
        self._bucket(time).append((callback, args, handle))
        self.events_scheduled += 1
        return handle

    def push_delivery(self, time: float, receiver: Any, payload: Any) -> None:
        """Queue ``receiver.deliver(payload)`` at absolute ``time``, with no :class:`EventHandle`.

        For a link delivery, which nothing cancels: ordering and counters are
        those of :meth:`schedule_at`, and ``deliver`` is looked up when the
        event runs, not now.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._bucket(time)
        bucket.append((receiver, payload, _DELIVER))
        self.events_scheduled += 1

    def _bucket(self, time: float) -> deque[tuple]:
        """The FIFO of ``time``; a time that has one is never before now, so only opening checks."""
        bucket = self._buckets.get(time)
        if bucket is None:
            if not time >= self._now:  # not ``time < now``: that is false for NaN
                raise SimulationError(
                    "cannot schedule at t=nan: an event needs a time to run at"
                    if time != time
                    else f"cannot schedule at t={time:.6f}, which is before now={self._now:.6f}"
                )
            bucket = self._buckets[time] = deque()
            heappush(self._times, time)
        return bucket

    def call_now(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback`` to run at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, *args)

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time when the run stopped.
        """
        buckets = self._buckets
        times = self._times
        delivery = _DELIVER  # a local: it is read twice per event
        processed = 0
        dropped = False  # whether the last entry taken was a cancelled one
        while times:
            time = times[0]
            bucket = buckets[time]
            late = until is not None and time > until
            while bucket:
                if max_events is not None and processed >= max_events:
                    return self._now
                first, second, handle = entry = bucket.popleft()  # either shape
                if handle is not delivery and handle.cancelled:
                    self._cancelled_in_queue -= 1
                    self._discarded += 1
                    dropped = True
                    continue
                if late:
                    bucket.appendleft(entry)
                    self._now = until
                    return until
                self._now = time
                self.events_processed += 1
                dropped = False
                if handle is delivery:
                    first.deliver(second)
                else:
                    handle.executed = True
                    first(*second)
                processed += 1
            if buckets.get(time) is bucket:  # else a callback cleared or ran the queue
                heappop(times)
                del buckets[time]
        # the queue ran dry; if only cancelled events were left, time stays put
        if not dropped and until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (bounded by ``max_events`` as a safety net)."""
        return self.run(max_events=max_events)

    # ------------------------------------------------------------------ misc
    @property
    def pending(self) -> int:
        """Number of non-cancelled events still in the queue (O(1), from the counters)."""
        queued = self.events_scheduled - self.events_processed - self._discarded
        return queued - self._cancelled_in_queue

    def clear(self) -> None:
        """Drop all pending events (useful between experiment repetitions)."""
        for bucket in self._buckets.values():  # a run in progress sees them go
            bucket.clear()
        self._buckets.clear()
        self._times.clear()
        self._discarded = self.events_scheduled - self.events_processed
        self._cancelled_in_queue = 0
        # cancelling a handle from before the clear must not skew the counter
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(now={self.now:.3f}, pending={self.pending})"


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
        until: Optional[float] = None,
    ):
        if period <= 0:
            raise SimulationError("period must be positive")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.until = until
        self._stopped = False
        self._handle = sim.schedule(start_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        if self.until is not None and self.sim.now > self.until:
            self._stopped = True
            return
        self.callback()
        if self._stopped:
            return
        if self.until is not None and self.sim.now + self.period > self.until:
            self._stopped = True
            return
        self._handle = self.sim.schedule(self.period, self._fire)

    def stop(self) -> None:
        """Stop the task; the pending occurrence (if any) is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


def drain(sim: Simulator, rounds: Iterable[float]) -> None:
    """Run the simulator to each timestamp in ``rounds`` in order.

    Convenience for tests that want to interleave external actions with
    simulated time progression.
    """
    for t in rounds:
        sim.run(until=t)
