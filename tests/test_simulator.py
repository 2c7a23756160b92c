"""Unit tests for the discrete-event simulator."""

import dataclasses
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.simulator as simulator_module
from repro.net.link import Link
from repro.net.process import Message, Process
from repro.net.simulator import PeriodicTask, SimulationError, Simulator, drain


class TestScheduling:
    def test_starts_at_time_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_custom_start_time(self):
        sim = Simulator(start_time=5.0)
        assert sim.now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, order.append, label)
        sim.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        """``nan < now`` is false, so a NaN time once slipped past the check and
        ran out of order, with the clock reading NaN while it ran."""
        sim = Simulator()
        order = []
        for delay in (3.0, 1.0, 2.0, 0.5):
            sim.schedule(delay, lambda: order.append(sim.now))
        with pytest.raises(SimulationError, match="t=nan"):
            sim.schedule(float("nan"), lambda: order.append(sim.now))
        with pytest.raises(SimulationError, match="t=nan"):
            sim.schedule_at(float("nan"), lambda: order.append(sim.now))
        assert (sim.events_scheduled, sim.pending) == (4, 4)
        sim.run_until_idle()
        assert order == [0.5, 1.0, 2.0, 3.0]
        with pytest.raises(SimulationError, match="t=nan"):
            sim.schedule_at(float("nan"), lambda: None)

    def test_call_now_runs_after_pending_same_time_events(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, order.append, "scheduled")
        sim.call_now(order.append, "called-now")
        sim.run_until_idle()
        assert order == ["scheduled", "called-now"]

    def test_events_scheduled_from_within_events(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append(True))
        handle.cancel()
        sim.run_until_idle()
        assert ran == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.cancelled is False

    def test_clear_drops_everything(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.clear()
        assert sim.pending == 0
        assert sim.run_until_idle() == 0.0

    def test_clear_inside_a_callback_drops_the_rest_of_its_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, sim.clear)
        sim.schedule(1.0, order.append, "same time")
        sim.schedule(2.0, order.append, "later")
        sim.run_until_idle()
        assert order == [] and sim.pending == 0 and sim.now == 1.0
        sim.call_now(order.append, "after")
        sim.run_until_idle()
        assert order == ["after"] and sim.pending == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(10.0, seen.append, "late")
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run_until_idle()
        assert seen == ["early", "late"]

    def test_run_respects_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.pending == 7

    def test_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        assert sim.events_scheduled == 2
        assert sim.events_processed == 2

    def test_drain_helper_advances_in_steps(self):
        sim = Simulator()
        times = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: times.append(t))
        drain(sim, [1.5, 2.5])
        assert times == [1.0, 2.0]
        assert sim.now == 2.5


class TestPeriodicTask:
    def test_fires_at_fixed_period(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, period=2.0, callback=lambda: times.append(sim.now), until=10.0)
        sim.run_until_idle()
        assert times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_start_delay(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, period=5.0, callback=lambda: times.append(sim.now), start_delay=1.0, until=12.0)
        sim.run_until_idle()
        assert times == [1.0, 6.0, 11.0]

    def test_stop_prevents_further_firing(self):
        sim = Simulator()
        count = []
        task = PeriodicTask(sim, period=1.0, callback=lambda: count.append(1), until=100.0)
        sim.run(until=3.5)
        task.stop()
        sim.run_until_idle()
        assert len(count) == 4  # t = 0, 1, 2, 3

    def test_until_bound_terminates_queue(self):
        sim = Simulator()
        PeriodicTask(sim, period=1.0, callback=lambda: None, until=5.0)
        sim.run_until_idle()
        assert sim.pending == 0

    def test_rejects_non_positive_period(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, period=0.0, callback=lambda: None)

    def test_jitter_applied(self):
        sim = Simulator()
        times = []
        PeriodicTask(
            sim, period=2.0, callback=lambda: times.append(sim.now), jitter=lambda: 0.5, until=9.0
        )
        sim.run_until_idle()
        assert times == pytest.approx([0.0, 2.5, 5.0, 7.5])


class TestPendingAccounting:
    """`pending` is maintained as an O(1) counter, not a queue rescan."""

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_clear_does_not_corrupt_counter(self):
        sim = Simulator()
        stale = sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.pending == 0
        stale.cancel()
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1

    def test_counter_survives_run(self):
        sim = Simulator()
        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        keep[2].cancel()
        sim.run_until_idle()
        assert sim.pending == 0
        assert sim.events_processed == 4

    def test_cancel_after_execution_is_noop(self):
        """Cancelling a handle whose event already ran must not skew `pending`."""
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        handle.cancel()
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1

    def test_periodic_task_stop_after_until_expiry(self):
        """PeriodicTask.stop() after its `until` bound fired its last event."""
        sim = Simulator()
        task = PeriodicTask(sim, period=1.0, callback=lambda: None, until=2.5)
        sim.run_until_idle()
        task.stop()
        assert sim.pending == 0

    def test_callback_cancelling_own_handle(self):
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.run_until_idle()
        assert sim.pending == 0


# ----------------------------------------------------- the queue, as a model
#
# A reference for the queue: every event ever queued sits in one list, the
# next to run is ``min`` over it by ``(time, seq)``, and a cancelled event
# stays in the list until it would have run -- the lazy deletion the queue
# does.  Link deliveries share the list and its ``seq`` counter but carry no
# handle.  The simulator keeps no ``seq``: a time's FIFO is its order.

LATENCY = 0.25
OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # a coarse grid: same-time collisions
#: one link per sink: the grid's latency, zero (a send lands in the time that
#: is running), and another on the grid (two arrival streams interleave)
LATENCIES = {"b": LATENCY, "c": 0.0, "d": 0.5}


class _Raised(Exception):
    """What a ``raise`` action throws; ``_drive`` catches it and resumes."""


class _Handle:
    def __init__(self, entry):
        self.entry = entry

    def cancel(self):
        if self.entry[4] == "queued":
            self.entry[4] = "cancelled"


class _ReferenceQueue:
    def __init__(self):
        self.now = 0.0
        self.entries = []  # [time, seq, callback, args, state]
        self.seq = itertools.count()
        self.events_processed = 0
        self.events_scheduled = 0
        self.executed = []  # (time, seq) of every event run, in order

    @property
    def pending(self):
        return sum(entry[4] == "queued" for entry in self.entries)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        entry = [time, next(self.seq), callback, args, "queued"]
        self.entries.append(entry)
        self.events_scheduled += 1
        return _Handle(entry)

    def run(self, until=None, max_events=None):
        processed = 0
        while True:
            live = [e for e in self.entries if e[4] in ("queued", "cancelled")]
            if not live:
                if until is not None and until > self.now:
                    self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if entry[4] == "cancelled":
                entry[4] = "dropped"
                if len(live) == 1:  # only cancelled events were left: time stays put
                    break
                continue
            if until is not None and entry[0] > until:
                self.now = until
                break
            entry[4] = "done"
            self.executed.append((entry[0], entry[1]))
            self.now = entry[0]
            self.events_processed += 1
            entry[2](*entry[3])
            processed += 1

    def run_until_idle(self):
        self.run()


class _Sink(Process):
    def __init__(self, sim, name, log):
        super().__init__(sim, name)
        self.log = log

    def on_message(self, message):
        self.log.append(message.payload)


_SENDS = st.tuples(st.sampled_from(sorted(LATENCIES)), st.integers(1, 3))
#: what an event does when it runs: nothing, cancel a handle (its own
#: included), schedule a follow-up, send a burst over a link, or raise
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("spawn"), OFFSETS),
    st.tuples(st.just("send"), _SENDS),
    st.tuples(st.just("raise"), st.none()),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, _ACTIONS),
        st.tuples(st.just("schedule_at"), OFFSETS, _ACTIONS),
        st.tuples(st.just("send"), _SENDS),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("run_until"), OFFSETS),
        st.tuples(st.just("run_max"), st.integers(0, 3)),
    ),
    max_size=40,
)


def _drive(clock, send, ops, log):
    """Apply ``ops`` to ``clock``, events and deliveries appending to ``log``;
    return a snapshot ``(now, processed, scheduled, pending, logged)`` per op.
    A ``raise`` escapes the run that fired it; it is logged and the ops go on."""
    handles = []
    labels = itertools.count()

    def fire(label, action):
        log.append(label)
        if action is None:
            return
        kind, argument = action
        if kind == "cancel" and handles:
            handles[argument % len(handles)].cancel()
        elif kind == "spawn":
            handles.append(clock.schedule(argument, fire, f"e{next(labels)}", None))
        elif kind == "send":
            burst(*argument)
        elif kind == "raise":
            raise _Raised(label)

    def burst(sink, count):
        send(sink, [f"m{next(labels)}" for _ in range(count)])

    def run(**bounds):
        try:
            clock.run(**bounds)
        except _Raised as raised:
            log.append(f"raised {raised}")
            return True
        return False

    snapshots = []
    for kind, argument, *action in ops:
        if kind == "schedule":
            handles.append(clock.schedule(argument, fire, f"e{next(labels)}", action[0]))
        elif kind == "schedule_at":
            time = clock.now + argument
            handles.append(clock.schedule_at(time, fire, f"e{next(labels)}", action[0]))
        elif kind == "send":
            burst(*argument)
        elif kind == "cancel" and handles:
            handles[argument % len(handles)].cancel()
        elif kind == "run_until":
            run(until=clock.now + argument)
        elif kind == "run_max":
            run(max_events=argument)
        snapshots.append(
            (clock.now, clock.events_processed, clock.events_scheduled, clock.pending, len(log))
        )
    while run():  # run_until_idle, resumed after every raise
        pass
    snapshots.append((clock.now, clock.events_processed, clock.events_scheduled, clock.pending))
    return snapshots


def _simulator_and_model_agree(ops):
    """Drive the simulator (deliveries over real links) and the model on
    ``ops``; assert they agree step by step and return the simulator's log."""
    sim = Simulator()
    sim_log = []
    a = Process(sim, "a")
    for name, latency in LATENCIES.items():
        Link(sim, a, _Sink(sim, name, sim_log), latency=latency)

    def sim_send(sink, payloads):
        if len(payloads) == 1:  # Link.transmit
            a.send(sink, Message("m", payload=payloads[0]))
        else:  # Link.transmit_many: one event for the burst
            a.send_many(sink, [Message("m", payload=p) for p in payloads])

    model = _ReferenceQueue()
    model_log = []

    def model_send(sink, payloads):
        model.schedule_at(model.now + LATENCIES[sink], model_log.extend, payloads)

    assert _drive(sim, sim_send, ops, sim_log) == _drive(model, model_send, ops, model_log)
    assert sim_log == model_log
    # execution order is the (time, seq) order, minus what was cancelled
    assert model.executed == sorted(model.executed)
    assert len(model.executed) == sim.events_processed
    assert sim.pending == 0 and sim._cancelled_in_queue == 0
    return sim_log


class TestQueueAgainstAReferenceModel:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_random_schedules_sends_cancels_and_slices(self, ops):
        _simulator_and_model_agree(ops)

    def test_a_zero_latency_send_lands_in_the_running_time(self):
        log = _simulator_and_model_agree(
            [
                ("schedule", 0.25, ("send", ("c", 2))),
                ("schedule", 0.25, ("send", ("c", 1))),
                ("schedule", 0.25, None),
                ("run_until", 0.25),
                ("send", ("c", 1)),  # between runs: opens a time at now
                ("schedule", 0.0, None),
            ]
        )
        # the sends join the back of t=0.25, behind e2, in the order sent
        assert log == ["e0", "e1", "e2", "m3", "m4", "m5", "m6", "e7"]

    def test_two_arrival_streams_interleave(self):
        log = _simulator_and_model_agree(
            [
                ("send", ("d", 1)),  # arrives at 0.5
                ("send", ("b", 2)),  # arrives at 0.25
                ("run_until", 0.25),
                ("send", ("b", 1)),  # arrives at 0.5, behind m0
                ("send", ("d", 1)),  # arrives at 0.75
                ("run_until", 0.25),
                ("send", ("b", 1)),  # arrives at 0.75, behind m4
            ]
        )
        assert log == ["m1", "m2", "m0", "m3", "m4", "m5"]

    def test_a_raising_event_leaves_the_rest_of_its_time_queued(self):
        log = _simulator_and_model_agree(
            [
                ("schedule", 0.25, None),
                ("schedule", 0.25, ("raise", None)),
                ("schedule", 0.25, ("send", ("c", 1))),
                ("schedule", 0.5, None),
                ("run_until", 1.0),  # e1 raises: e2 and e3 stay queued
                ("run_max", 1),  # the next to run is e2, at the same time
                ("schedule", 0.0, ("raise", None)),  # the last event of t=0.25 raises
            ]
        )
        assert log == ["e0", "e1", "raised e1", "e2", "m4", "e5", "raised e5", "e3"]

    def test_a_link_delivery_allocates_no_handle(self, monkeypatch):
        created = []

        class CountingHandle(simulator_module.EventHandle):
            def __init__(self, *args):
                created.append(self)
                super().__init__(*args)

        monkeypatch.setattr(simulator_module, "EventHandle", CountingHandle)
        sim = Simulator()
        log = []
        a, b = Process(sim, "a"), _Sink(sim, "b", log)
        Link(sim, a, b, latency=LATENCY)
        for i in range(5):
            a.send("b", Message("m", payload=i))
        a.send_many("b", [Message("m", payload=i) for i in range(5, 8)])
        sim.run_until_idle()
        assert log == list(range(8)) and created == []
        assert (sim.events_scheduled, sim.events_processed) == (6, 6)
        sim.schedule(1.0, lambda: None)
        assert len(created) == 1  # the public API still hands out a handle

    def test_a_deliver_replaced_after_the_link_was_built_sees_every_message(self):
        # a delivery entry names its receiver, not a bound ``deliver``: the
        # method is looked up when the entry runs, so a hook installed on the
        # instance after the link exists (as a trace capture does) sees every
        # single send and every burst message, in order
        sim = Simulator()
        log, seen = [], []
        a, b = Process(sim, "a"), _Sink(sim, "b", log)
        Link(sim, a, b, latency=LATENCY)
        a.send("b", Message("m", payload=0))
        original = b.deliver

        def hook(message):
            seen.append((sim.now, message.payload))
            original(message)

        b.deliver = hook
        a.send("b", Message("m", payload=1))
        a.send_many("b", [Message("m", payload=i) for i in (2, 3, 4)])
        sim.run(until=LATENCY)
        a.send_many("b", [Message("m", payload=i) for i in (5, 6)])
        a.send("b", Message("m", payload=7))
        sim.run_until_idle()
        assert log == list(range(8))
        assert seen == [(LATENCY, n) for n in range(5)] + [(2 * LATENCY, n) for n in (5, 6, 7)]
        assert (sim.events_scheduled, sim.events_processed) == (5, 5)


class _Payload:
    __slots__ = ("n", "__weakref__")

    def __init__(self, n):
        self.n = n


class _CountingSink(Process):
    """Logs each payload's number and, every 500 deliveries, checks the queue
    and how many payloads delivered so far are still alive."""

    def __init__(self, sim, name, refs, checks):
        super().__init__(sim, name)
        self.refs = refs
        self.checks = checks
        self.log = []

    def on_message(self, message):
        self.log.append(message.payload.n)
        delivered = len(self.log)
        if delivered % 500 == 0:
            alive = sum(ref() is not None for ref in self.refs[:delivered])
            self.checks.append((delivered, self.sim.events_processed, self.sim.pending, alive))


def _counters(sim):
    return sim.events_scheduled, sim.events_processed, sim.pending


class TestSameTimeBlast:
    BLAST = 5_000

    def test_a_blast_runs_in_order_and_frees_each_delivery_as_it_runs(self):
        sim = Simulator()
        refs, checks = [], []
        a, c = Process(sim, "a"), Process(sim, "c")
        sink = _CountingSink(sim, "b", refs, checks)
        Link(sim, a, sink, latency=LATENCY)
        Link(sim, c, sink, latency=LATENCY)
        for n in range(self.BLAST):  # alternate the two links
            payload = _Payload(n)
            refs.append(weakref.ref(payload))
            (a if n % 2 == 0 else c).send("b", Message("m", payload=payload))
        del payload
        assert _counters(sim) == (self.BLAST, 0, self.BLAST)

        sim.run_until_idle()

        assert sink.log == list(range(self.BLAST))
        assert sim.now == LATENCY
        assert _counters(sim) == (self.BLAST, self.BLAST, 0)
        # mid-blast the rest of the time is still queued, yet at most the
        # delivery that is running is alive: a run does not keep what it ran
        assert [(k, processed, pending) for k, processed, pending, _ in checks] == [
            (k, k, self.BLAST - k) for k in range(500, self.BLAST + 1, 500)
        ]
        assert max(alive for *_, alive in checks) <= 2
        assert all(ref() is None for ref in refs)

    def test_a_blast_of_bursts_runs_in_order_and_frees_each_burst_as_it_runs(self):
        # the same blast sent as ``send_many`` bursts: one entry per burst,
        # whose messages are alive while it runs and freed once it has
        burst = 10
        sim = Simulator()
        refs, checks = [], []
        a, c = Process(sim, "a"), Process(sim, "c")
        sink = _CountingSink(sim, "b", refs, checks)
        Link(sim, a, sink, latency=LATENCY)
        Link(sim, c, sink, latency=LATENCY)
        for start in range(0, self.BLAST, burst):  # alternate the two links
            payloads = [_Payload(n) for n in range(start, start + burst)]
            refs.extend(weakref.ref(payload) for payload in payloads)
            messages = [Message("m", payload=payload) for payload in payloads]
            (a if start // burst % 2 == 0 else c).send_many("b", messages)
        del payloads, messages
        entries = self.BLAST // burst
        assert _counters(sim) == (entries, 0, entries)

        sim.run_until_idle()

        assert sink.log == list(range(self.BLAST))
        assert sim.now == LATENCY
        assert _counters(sim) == (entries, entries, 0)
        # every check lands on the last message of a burst, whose entry is
        # the one running: it alone (plus the message in hand) may be alive
        assert [(k, processed, pending) for k, processed, pending, _ in checks] == [
            (k, k // burst, entries - k // burst) for k in range(500, self.BLAST + 1, 500)
        ]
        assert max(alive for *_, alive in checks) <= burst + 1
        assert all(ref() is None for ref in refs)


class TestMessageConstruction:
    """``Message`` writes its own ``__init__``; it keeps the dataclass's contract."""

    def test_an_omitted_meta_is_a_fresh_dict_per_message(self):
        first, second = Message("m"), Message("m")
        assert first.meta == {} and second.meta == {}
        assert first.meta is not second.meta
        meta = {"hops": 1}
        assert Message("m", meta=meta).meta is meta  # a given one is kept, not copied

    def test_a_msg_id_is_drawn_only_when_omitted(self):
        before = Message("m").msg_id
        assert Message("m", msg_id=before + 100).msg_id == before + 100
        assert Message("m").msg_id == before + 1  # the explicit id drew nothing
        # an explicit None is a value like any other (a decoder may pass it)
        assert Message("m", msg_id=None, meta=None).msg_id is None

    def test_positional_fields_equality_and_repr(self):
        message = Message("k", 1, "s", 7, {"a": 1})
        assert (message.kind, message.payload, message.sender) == ("k", 1, "s")
        assert (message.msg_id, message.meta) == (7, {"a": 1})
        assert repr(message) == "Message(kind='k', payload=1, sender='s', msg_id=7, meta={'a': 1})"
        twin = Message(kind="k", payload=1, sender="s", msg_id=7, meta={"a": 1})
        twin._frame_bin = b"cached"  # the frame cache is not compared
        assert message == twin
        assert message != Message("k", 1, "s", 8, {"a": 1})
        assert message != Message("k", 1, "t", 7, {"a": 1})

    def test_the_instance_holds_the_five_fields_and_no_cache(self):
        message = Message("k")
        assert list(vars(message)) == ["kind", "payload", "sender", "msg_id", "meta"]
        assert message._frame_bin is None  # the class default
        assert [f.name for f in dataclasses.fields(Message)] == [
            "kind",
            "payload",
            "sender",
            "msg_id",
            "meta",
            "_frame_bin",
        ]
