"""The chaos engine: fault schedules as plans, executed against explicit oracles.

A :class:`ChaosPlan` is a covering line topology plus a round-indexed
schedule of crash / restart / sever / restore / link-flap / handover /
covering-churn / publish-spike events.  :func:`generate_plan` draws one as a
pure function of an integer seed, so the same seed produces a byte-identical
schedule on every machine and every backend; :data:`STORYLINE` is the one
pinned plan the ``repro demo chaos`` workload and the cluster fault tests
run (crash and restart a mid-line broker, sever and restore the edge behind
it, then flip the covering relationship across the recovered state).

:func:`execute_plan` replays a plan through the transport-agnostic
:meth:`~repro.net.transport.Transport.inject_fault` seam (simulator, asyncio
sockets or the multi-process cluster) and checks the invariant library of
:mod:`repro.pubsub.invariants` as it goes; :func:`judge_plan` adds the
cross-backend convergence check against the simulator oracle.  The oracle
stays computable because the scenario family is built for it:

* the topology is a broker line ``B1 — B2 — … — BN`` and the publisher sits
  on ``B1``, so a subscriber on ``Bk`` is reachable iff every broker and
  every edge on the ``B1..Bk`` prefix is healthy;
* every subscriber owns a *unique* probe filter, so a replayed burst matches
  exactly the subscriber that provably missed it (brokers do not deduplicate,
  so a replay under its old id is routed again — replaying a shared filter
  would double-deliver);
* a roaming subscription (``probe == "roam"``) hops between brokers on
  handover events, interleaving subscription movement with faults;
* shared-temperature bursts (the covering-churn traffic) run only in fully
  healthy rounds, so covering flips never race a partitioned routing layer;
* every mutation runs to exact quiescence before the next one, which is what
  makes the delivered sets backend-invariant.

On an invariant violation :func:`judge_plan` *shrinks* the schedule —
binary-searching the minimal failing prefix, then greedily dropping and
advancing events — and reports a one-line repro command
(``repro chaos-fuzz --seed N --backend cluster``) that replays the original
draw deterministically.  :func:`run_soak` loops seeded plans under a time
budget and asserts that file descriptors, RSS and every transport/routing
resource return to their post-warmup plateau.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..net.faults import FaultInjector
from .broker_network import line_topology
from .filters import Equals, Filter, Range
from .invariants import (
    Violation,
    check_conservation,
    check_convergence,
    check_exactly_once,
    check_no_duplicates,
    check_non_growth,
    check_provable_loss,
    resource_snapshot,
)
from .notification import Notification

#: deliberate executor bugs for fuzzer self-tests: the oracle keeps believing
#: the schedule while the execution silently deviates from it
INJECTABLE_BUGS = ("skip_sever", "skip_replay")

#: notification-id layout: ``ROUND_BASE + round * ROUND_SPAN + slot * SLOT_SPAN``
ROUND_BASE = 100_000
ROUND_SPAN = 10_000
SLOT_SPAN = 100
TEMP_SLOT = 90  # temperature bursts use the last slot of each round


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled event: what happens, to which target, in which round."""

    round: int
    action: str
    #: broker name (``crash``/``restart``/``handover``), edge name
    #: ``"Bi-Bj"`` (``sever``/``restore``/``flap``), or ``""``
    target: str

    def describe(self) -> str:
        return (
            f"r{self.round}:{self.action}:{self.target}"
            if self.target
            else f"r{self.round}:{self.action}"
        )


@dataclass(frozen=True)
class ScenarioParams:
    """The topology/traffic shape a plan runs against (drawn from the seed)."""

    seed: int
    brokers: int
    rounds: int
    temps: int
    probes: int
    spike_factor: int
    roam_start: str


@dataclass(frozen=True)
class ChaosPlan:
    """A scenario plus its fault schedule — a pure function of the seed."""

    params: ScenarioParams
    events: Tuple[ChaosEvent, ...]

    def events_in_round(self, round_index: int) -> List[ChaosEvent]:
        return [event for event in self.events if event.round == round_index]

    def describe(self) -> str:
        """A stable one-line description; equal seeds give equal strings."""
        p = self.params
        head = (
            f"seed={p.seed} brokers={p.brokers} rounds={p.rounds} "
            f"temps={p.temps} probes={p.probes} spike_factor={p.spike_factor} "
            f"roam={p.roam_start}"
        )
        return head + " | " + " ".join(event.describe() for event in self.events)


def generate_plan(seed: int) -> ChaosPlan:
    """Draw a :class:`ChaosPlan` from ``seed`` — deterministically.

    The family keeps at most one outstanding fault (a down broker *or* a
    severed edge) at any time, which is the regime the paper's recovery
    machinery is specified for; the interleaving of fault placement, heal
    delay, roaming handovers, covering churn and publish spikes is what the
    seed varies.  ``B1`` (the publisher's broker) is never crashed, so the
    reachability oracle stays a prefix predicate on the line.
    """
    rng = random.Random(seed)
    brokers = rng.randint(3, 5)
    rounds = rng.randint(4, 7)
    params = ScenarioParams(
        seed=seed,
        brokers=brokers,
        rounds=rounds,
        temps=rng.randint(2, 4),
        probes=rng.randint(1, 3),
        spike_factor=rng.randint(2, 3),
        roam_start=f"B{rng.randint(1, brokers)}",
    )
    edges = [f"B{i}-B{i + 1}" for i in range(1, brokers)]
    buckets: Dict[int, List[ChaosEvent]] = {r: [] for r in range(rounds)}
    down: Optional[str] = None
    severed: Optional[str] = None
    heal_round: Optional[int] = None
    roam_at = params.roam_start
    drew_fault = False

    for r in range(rounds):
        if heal_round == r:
            down = severed = heal_round = None  # the heal event sits in the bucket already
        outstanding = down is not None or severed is not None
        if not outstanding and rng.random() < 0.6:
            kind = rng.choice(("crash", "sever", "flap"))
            drew_fault = True
            if kind == "crash":
                down = f"B{rng.randint(2, brokers)}"
                buckets[r].append(ChaosEvent(r, "crash", down))
            elif kind == "sever":
                severed = rng.choice(edges)
                buckets[r].append(ChaosEvent(r, "sever", severed))
            else:
                buckets[r].append(ChaosEvent(r, "flap", rng.choice(edges)))
            if kind in ("crash", "sever"):
                delay = rng.randint(1, 2)
                if r + delay < rounds:
                    heal_round = r + delay
                    heal = "restart" if kind == "crash" else "restore"
                    buckets[heal_round].append(
                        ChaosEvent(heal_round, heal, down if kind == "crash" else severed)
                    )
                # past the last round the executor's end-of-plan heal takes over
        healthy = down is None and severed is None
        if healthy and rng.random() < 0.4:
            neighbours = _line_neighbours(roam_at, brokers)
            target = rng.choice(neighbours)
            buckets[r].append(ChaosEvent(r, "handover", target))
            roam_at = target
        if healthy and rng.random() < 0.3:
            buckets[r].append(ChaosEvent(r, "churn", ""))
        if rng.random() < 0.25:
            buckets[r].append(ChaosEvent(r, "spike", ""))

    if not drew_fault:
        # a fault-free plan would make every provable-loss check vacuous;
        # pin a flap mid-schedule so each plan exercises the fault plane
        middle = rounds // 2
        buckets[middle].insert(0, ChaosEvent(middle, "flap", rng.choice(edges)))

    events = tuple(event for r in range(rounds) for event in buckets[r])
    return ChaosPlan(params=params, events=events)


def _line_neighbours(broker: str, brokers: int) -> List[str]:
    index = int(broker[1:])
    return [f"B{k}" for k in (index - 1, index + 1) if 1 <= k <= brokers]


#: the pinned chaos storyline on a 3-broker line: a healthy round with the
#: broad subscription on, then B2 crashes (``kill -9`` on the cluster) and
#: restarts, the B2-B3 edge is severed and restored, and the broad
#: subscription is withdrawn so the covering relationship flips across the
#: recovered state; both fault windows lose probes provably, and five
#: temperatures (15..35) put one value outside the covered ``Range(10, 30)``
STORYLINE = ChaosPlan(
    params=ScenarioParams(
        seed=0, brokers=3, rounds=4, temps=5, probes=4, spike_factor=1, roam_start="B1"
    ),
    events=(
        ChaosEvent(1, "crash", "B2"),
        ChaosEvent(2, "restart", "B2"),
        ChaosEvent(2, "sever", "B2-B3"),
        ChaosEvent(3, "restore", "B2-B3"),
        ChaosEvent(3, "churn", ""),
    ),
)


# ----------------------------------------------------------------- execution


@dataclass
class ExecutionResult:
    """Everything one plan execution observed, invariant verdicts included."""

    backend: str
    seed: int
    #: subscriber name -> sorted delivered notification ids
    delivered: Dict[str, Tuple[int, ...]]
    violations: List[Violation] = field(default_factory=list)
    lost: int = 0
    replayed: int = 0
    published: int = 0
    events_applied: int = 0
    events_skipped: int = 0
    resources_baseline: Dict[str, int] = field(default_factory=dict)
    resources_final: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: ``resync`` markers received across all brokers (0 on warm crashes)
    resync_markers: int = 0
    #: wall seconds per applied scheduled event (reporting only, never judged)
    event_sec: Dict[ChaosEvent, float] = field(default_factory=dict)
    wall_sec: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


class _PlanRun:
    """Mutable execution state for one plan on one backend."""

    def __init__(self, plan: ChaosPlan, backend: str, inject_bug: Optional[str], config=None):
        if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
            raise ValueError(f"unknown injectable bug {inject_bug!r}; know {INJECTABLE_BUGS}")
        self.plan = plan
        self.params = plan.params
        self.inject_bug = inject_bug
        self.net = line_topology(
            n_brokers=self.params.brokers,
            routing="covering",
            config=(config or SystemConfig()).replace(transport=backend),
        )
        self.injector = FaultInjector(self.net)
        self.down: set = set()
        self.severed: set = set()
        self.roam_at = self.params.roam_start
        self.broad_on = True
        self.broad_serial = 0
        #: subscription key ("s3", "roam") -> lost probe ids awaiting replay
        self.pending: Dict[str, List[int]] = {}
        #: client name -> expected delivered ids (the exactly-once oracle)
        self.expected: Dict[str, set] = {}
        self.result = ExecutionResult(backend=backend, seed=self.params.seed, delivered={})

    # -------------------------------------------------------------- topology
    def setup(self) -> None:
        net, params = self.net, self.params
        self.pub = net.add_client("pub", "B1")
        self.subscribers: Dict[str, object] = {}
        self.roamers: Dict[str, object] = {}
        for k in range(1, params.brokers + 1):
            name = f"s{k}"
            client = net.add_client(name, f"B{k}")
            client.subscribe(Filter([Equals("probe", name)]), sub_id=f"g-probe-{name}")
            self.subscribers[name] = client
            self.expected[name] = set()
            roamer = net.add_client(f"roam{k}", f"B{k}")
            self.roamers[f"B{k}"] = roamer
            self.expected[f"roam{k}"] = set()
        self.subscribers["s1"].subscribe(Filter([Equals("service", "temp")]), sub_id="g-broad-0")
        self.subscribers["s2"].subscribe(
            Filter([Equals("service", "temp"), Range("value", 10, 30)]), sub_id="g-covered"
        )
        self.roamers[self.roam_at].subscribe(Filter([Equals("probe", "roam")]), sub_id="g-roam")
        net.run_until_idle()
        self.result.resources_baseline = resource_snapshot(net)

    # ------------------------------------------------------------ primitives
    def reachable(self, broker: str) -> bool:
        """Prefix reachability on the line: publisher sits on B1."""
        index = int(broker[1:])
        if any(f"B{k}" in self.down for k in range(1, index + 1)):
            return False
        return not any(f"B{k}-B{k + 1}" in self.severed for k in range(1, index))

    def healthy(self) -> bool:
        return not self.down and not self.severed

    def quiesce(self) -> None:
        self.net.run_until_idle()

    def all_delivered_ids(self) -> List[int]:
        return [nid for client in self.all_clients() for nid in _ids(client)]

    def all_clients(self) -> List[object]:
        return list(self.subscribers.values()) + list(self.roamers.values())

    # ---------------------------------------------------------------- events
    def apply_event(self, event: ChaosEvent) -> bool:
        """Apply one event; unapplicable events (after shrinking) are no-ops."""
        action, target = event.action, event.target
        if action == "crash":
            if target == "B1" or target in self.down or not self.healthy():
                return False
            self.injector.crash_now(target)
            self.down.add(target)
        elif action == "restart":
            if target not in self.down:
                return False
            self.injector.restart_now(target)
            self.down.discard(target)
            self.quiesce()
        elif action == "sever":
            if target in self.severed or not self.healthy():
                return False
            if self.inject_bug != "skip_sever":
                a, b = target.split("-")
                self.injector.link_down_now(a, b)
            self.severed.add(target)
        elif action == "restore":
            if target not in self.severed:
                return False
            if self.inject_bug != "skip_sever":
                a, b = target.split("-")
                self.injector.link_up_now(a, b)
            self.severed.discard(target)
            self.quiesce()
        elif action == "flap":
            if target in self.severed:
                return False
            a, b = target.split("-")
            self.injector.link_down_now(a, b)
            self.injector.link_up_now(a, b)
            self.quiesce()
        elif action == "handover":
            if not self.healthy() or target == self.roam_at:
                return False
            self.roamers[self.roam_at].unsubscribe("g-roam")
            self.quiesce()
            self.roamers[target].subscribe(Filter([Equals("probe", "roam")]), sub_id="g-roam")
            self.quiesce()
            self.roam_at = target
        elif action == "churn":
            if not self.healthy():
                return False
            if self.broad_on:
                self.subscribers["s1"].unsubscribe(f"g-broad-{self.broad_serial}")
            else:
                self.broad_serial += 1
                self.subscribers["s1"].subscribe(
                    Filter([Equals("service", "temp")]),
                    sub_id=f"g-broad-{self.broad_serial}",
                )
            self.broad_on = not self.broad_on
            self.quiesce()
        elif action == "spike":
            return True  # consumed by the publish phase of this round
        else:  # pragma: no cover - generator never emits unknown actions
            raise ValueError(f"unknown chaos action {action!r}")
        return True

    # --------------------------------------------------------------- traffic
    def publish_probes(self, round_index: int, burst: int) -> None:
        """One probe burst per subscription; lost ones are remembered for replay."""
        res = self.result
        targets: List[Tuple[str, str, str]] = [
            (f"s{k}", f"s{k}", f"B{k}") for k in range(1, self.params.brokers + 1)
        ]
        targets.append(("roam", f"roam{int(self.roam_at[1:])}", self.roam_at))
        for slot, (key, client_name, broker) in enumerate(targets):
            base = ROUND_BASE + round_index * ROUND_SPAN + slot * SLOT_SPAN
            ids = [base + i for i in range(burst)]
            for nid in ids:
                self.pub.publish(Notification({"probe": key}, notification_id=nid))
            res.published += burst
            if self.reachable(broker):
                self.expected[client_name].update(ids)
            else:
                self.pending.setdefault(key, []).extend(ids)
                res.lost += burst
        self.quiesce()
        for slot, (key, client_name, broker) in enumerate(targets):
            if self.reachable(broker):
                continue
            base = ROUND_BASE + round_index * ROUND_SPAN + slot * SLOT_SPAN
            res.violations.extend(
                check_provable_loss(
                    key,
                    range(base, base + burst),
                    self.all_delivered_ids(),
                    context=f"round {round_index}",
                )
            )

    def replay_pending(self) -> None:
        """Republish lost probes whose subscriber is reachable again."""
        res = self.result
        for key in sorted(self.pending):
            if key == "roam":
                client_name, broker = f"roam{int(self.roam_at[1:])}", self.roam_at
            else:
                client_name, broker = key, f"B{key[1:]}"
            if not self.reachable(broker):
                continue
            ids = self.pending.pop(key)
            self.expected[client_name].update(ids)
            res.replayed += len(ids)
            if self.inject_bug == "skip_replay":
                continue
            for nid in ids:
                self.pub.publish(Notification({"probe": key}, notification_id=nid))
            res.published += len(ids)
        self.quiesce()

    def publish_temps(self, round_index: int) -> None:
        """Shared temperature burst — healthy rounds only, so covering churn
        and the Range-covered subscriber see a consistent routing layer."""
        base = ROUND_BASE + round_index * ROUND_SPAN + TEMP_SLOT * SLOT_SPAN
        values = [15 + 5 * i for i in range(self.params.temps)]
        for i, value in enumerate(values):
            self.pub.publish(
                Notification({"service": "temp", "value": value}, notification_id=base + i)
            )
        self.result.published += len(values)
        if self.broad_on:
            self.expected["s1"].update(base + i for i in range(len(values)))
        self.expected["s2"].update(base + i for i, value in enumerate(values) if 10 <= value <= 30)
        self.quiesce()

    # ------------------------------------------------------------------- run
    def run(self) -> ExecutionResult:
        started = time.perf_counter()
        res = self.result
        try:
            self.setup()
            for r in range(self.params.rounds):
                spike = False
                for event in self.plan.events_in_round(r):
                    event_started = time.perf_counter()
                    applied = self.apply_event(event)
                    if applied:
                        res.event_sec[event] = time.perf_counter() - event_started
                    res.events_applied += applied
                    res.events_skipped += not applied
                    spike = spike or (applied and event.action == "spike")
                self.quiesce()
                self.replay_pending()
                burst = self.params.probes * (self.params.spike_factor if spike else 1)
                self.publish_probes(r, burst)
                if self.healthy():
                    self.publish_temps(r)
            self._heal_and_settle()
            self._final_checks()
            res.recovery = dict(getattr(self.net.transport, "recovery", {}))
            brokers = self.net.transport.metrics_snapshot()["brokers"]
            res.resync_markers = sum(
                broker["counters"]["broker.resyncs_received"] for broker in brokers.values()
            )
            res.wall_sec = time.perf_counter() - started
            return res
        finally:
            self.net.close()

    def _heal_and_settle(self) -> None:
        """Return to the exact setup state so non-growth gating is strict."""
        for broker in sorted(self.down):
            self.injector.restart_now(broker)
        self.down.clear()
        for edge in sorted(self.severed):
            a, b = edge.split("-")
            if self.inject_bug != "skip_sever":
                self.injector.link_up_now(a, b)
        self.severed.clear()
        self.quiesce()
        if self.roam_at != self.params.roam_start:
            self.apply_event(ChaosEvent(self.params.rounds, "handover", self.params.roam_start))
        if not self.broad_on:
            self.apply_event(ChaosEvent(self.params.rounds, "churn", ""))
        self.replay_pending()
        self.quiesce()

    def _final_checks(self) -> None:
        res = self.result
        res.delivered = {client.name: _ids(client) for client in self.all_clients()}
        res.violations.extend(
            check_no_duplicates(
                {client.name: client.duplicate_deliveries() for client in self.all_clients()}
            )
        )
        for client in self.all_clients():
            res.violations.extend(
                check_exactly_once(client.name, self.expected[client.name], _ids(client))
            )
        expected_total = sum(len(ids) for ids in self.expected.values())
        received_total = sum(
            len(set(_ids(client)) & self.expected[client.name]) for client in self.all_clients()
        )
        res.violations.extend(check_conservation("healthy-paths", expected_total, received_total))
        res.resources_final = resource_snapshot(self.net)
        # covering advertisement order may legitimately differ by one entry
        # per broker across fault cycles (a covered subscription is forwarded
        # or suppressed depending on interleaving); one entry of slack absorbs
        # that while still catching actual growth — transport resources
        # (links, writers, timers, registries) are gated exactly
        slack = {key: 1 for key in res.resources_baseline if key.startswith("routing:")}
        res.violations.extend(
            check_non_growth(res.resources_baseline, res.resources_final, slack=slack)
        )


def _ids(client) -> Tuple[int, ...]:
    return tuple(sorted(d.notification.notification_id for d in client.deliveries))


def execute_plan(
    plan: ChaosPlan,
    backend: str = "sim",
    inject_bug: Optional[str] = None,
    config=None,
) -> ExecutionResult:
    """Execute ``plan`` on ``backend`` and return observations + verdicts.

    ``inject_bug`` deliberately de-synchronises execution from the oracle
    (see :data:`INJECTABLE_BUGS`) so tests can prove the fuzzer catches and
    shrinks real invariant violations.  ``config`` is the
    :class:`~repro.config.SystemConfig` the brokers run under (the defaults
    when omitted; its ``transport`` field is overridden by ``backend``).
    """
    return _PlanRun(plan, backend, inject_bug, config=config).run()


# ------------------------------------------------------------------ shrinking


def shrink_plan(
    plan: ChaosPlan,
    fails: Callable[[ChaosPlan], bool],
    max_executions: int = 64,
) -> ChaosPlan:
    """Find a smaller schedule that still fails, classic two-stage shrink.

    First binary-search the minimal failing *prefix* of the event list, then
    greedily try dropping each remaining event and advancing events to
    earlier rounds.  ``fails`` must be deterministic (run the sim backend);
    every candidate plan is executable because the executor treats unpaired
    events — a restart with nobody down, a restore of a live link — as no-ops
    and heals all outstanding faults at the end of the schedule.
    """
    budget = [max_executions]

    def failing(candidate: ChaosPlan) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return fails(candidate)

    def with_events(events: Sequence[ChaosEvent]) -> ChaosPlan:
        return ChaosPlan(params=plan.params, events=tuple(events))

    best = plan
    # stage 1: minimal failing prefix (binary search)
    lo, hi = 0, len(plan.events)
    while lo < hi:
        mid = (lo + hi) // 2
        if failing(with_events(plan.events[:mid])):
            hi = mid
        else:
            lo = mid + 1
    if hi <= len(plan.events) and failing(with_events(plan.events[:hi])):
        best = with_events(plan.events[:hi])
    # stage 2: greedy single-event removal, last to first
    events = list(best.events)
    for index in range(len(events) - 1, -1, -1):
        candidate = events[:index] + events[index + 1 :]
        if failing(with_events(candidate)):
            events = candidate
    # stage 3: advance events to earlier rounds while still failing
    changed = True
    while changed:
        changed = False
        for index, event in enumerate(events):
            if event.round == 0:
                continue
            advanced = ChaosEvent(event.round - 1, event.action, event.target)
            candidate = sorted(
                events[:index] + [advanced] + events[index + 1 :],
                key=lambda e: e.round,
            )
            if failing(with_events(candidate)):
                events = candidate
                changed = True
    return with_events(events)


# -------------------------------------------------------------------- fuzzing


@dataclass
class FuzzReport:
    """One plan's verdict: plan, violations, shrunk repro if failing."""

    backend: str
    plan: ChaosPlan
    result: ExecutionResult
    violations: List[Violation] = field(default_factory=list)
    shrunk: Optional[ChaosPlan] = None
    #: the seed the plan was drawn from; ``None`` for a pinned plan
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def repro_command(self) -> Optional[str]:
        """The CLI line that replays this plan, if the CLI can name it."""
        if self.seed is not None:
            return f"repro chaos-fuzz --seed {self.seed} --backend {self.backend}"
        if self.plan == STORYLINE:
            return f"repro demo chaos --backend {self.backend}"
        return None

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"FAIL ({len(self.violations)} violations)"
        origin = "pinned plan" if self.seed is None else f"seed={self.seed}"
        line = (
            f"[{verdict}] {origin} backend={self.backend} "
            f"events={len(self.plan.events)} published={self.result.published} "
            f"lost={self.result.lost} replayed={self.result.replayed}"
        )
        if self.shrunk is not None:
            line += f" shrunk_events={len(self.shrunk.events)}"
        if not self.ok and self.repro_command:
            line += f"  repro: {self.repro_command}"
        return line


def judge_plan(
    plan: ChaosPlan,
    backend: str = "sim",
    shrink: bool = True,
    inject_bug: Optional[str] = None,
    config=None,
) -> FuzzReport:
    """Execute and judge ``plan`` on ``backend``.

    On a non-sim backend the identical plan also runs on the simulator and
    the per-subscriber delivered sets must converge (the sim is the oracle).
    The sim oracle always runs on the *default* ``SystemConfig()``, so a
    plan judged under a non-default ``config`` cross-checks its metrics
    choice against the reference implementation.
    On any violation the schedule is shrunk on the failing backend and the
    minimal failing schedule is attached to the report.
    """
    result = execute_plan(plan, backend, inject_bug=inject_bug, config=config)
    violations = list(result.violations)
    if backend != "sim":
        oracle = execute_plan(plan, "sim", inject_bug=inject_bug)
        violations.extend(
            check_convergence(oracle.delivered, result.delivered, candidate_name=backend)
        )
    report = FuzzReport(backend=backend, plan=plan, result=result, violations=violations)
    if violations and shrink:
        report.shrunk = shrink_plan(
            plan,
            lambda candidate: _candidate_fails(candidate, backend, inject_bug, config),
            max_executions=64 if backend == "sim" else 24,
        )
    return report


def run_chaos_fuzz(
    seed: int,
    backend: str = "sim",
    shrink: bool = True,
    inject_bug: Optional[str] = None,
    config=None,
) -> FuzzReport:
    """Draw the plan for ``seed`` and judge it on ``backend``."""
    report = judge_plan(
        generate_plan(seed), backend, shrink=shrink, inject_bug=inject_bug, config=config
    )
    report.seed = seed
    return report


def _candidate_fails(plan: ChaosPlan, backend: str, inject_bug: Optional[str], config=None) -> bool:
    """Shrink predicate: the candidate must fail on the *failing* backend —
    a cluster-only divergence can never be reproduced by a sim-only check."""
    result = execute_plan(plan, backend, inject_bug=inject_bug, config=config)
    if result.violations:
        return True
    if backend == "sim":
        return False
    oracle = execute_plan(plan, "sim", inject_bug=inject_bug)
    return bool(check_convergence(oracle.delivered, result.delivered, candidate_name=backend))


# ----------------------------------------------------------------------- soak


def process_resources() -> Dict[str, int]:
    """Open fds and current RSS of this process (Linux; empty elsewhere)."""
    sizes: Dict[str, int] = {}
    try:
        sizes["fds"] = len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        sizes["rss_kb"] = pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    return sizes


@dataclass
class SoakResult:
    """Outcome of a soak loop: iterations run and plateau verdicts."""

    backend: str
    iterations: int = 0
    seeds: List[int] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    #: process-level plateau baseline (after warmup) and final snapshot
    plateau_baseline: Dict[str, int] = field(default_factory=dict)
    plateau_final: Dict[str, int] = field(default_factory=dict)
    wall_sec: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


#: absolute slack for process-level plateaus: RSS may wiggle by allocator
#: arena churn; fds must stay exactly flat
SOAK_SLACK = {"rss_kb": 4096}

#: every this many soak iterations also runs a drawn handover workload
SOAK_MOBILITY_EVERY = 3


def run_soak(
    backend: str = "sim",
    budget_sec: float = 10.0,
    seed: int = 0,
    min_iterations: int = 2,
    config=None,
) -> SoakResult:
    """Loop seeded chaos plans under a time budget, gating resource plateaus.

    The first iteration is warmup (interpreters allocate lazily: selectors,
    import caches, socket machinery); the plateau baseline is taken after it,
    and every later iteration must return to it — open fds exactly, RSS
    within :data:`SOAK_SLACK`.  Every :data:`SOAK_MOBILITY_EVERY`-th iteration
    also runs a seed-drawn member of the mobility handover family
    (:class:`repro.mobility.handover_workload.WorkloadSpec`) on the same
    backend, so roaming/replication state is part of the plateau too (skipped
    on the cluster backend, which hosts plain pub/sub only).  Any invariant
    violation aborts the loop with the failing seed recorded, so the repro is
    one ``chaos-fuzz`` away.  ``config`` is the
    :class:`~repro.config.SystemConfig` both families run under.
    """
    started = time.perf_counter()
    result = SoakResult(backend=backend)
    next_seed = seed
    while True:
        elapsed = time.perf_counter() - started
        if result.iterations >= min_iterations and elapsed >= budget_sec:
            break
        report = run_chaos_fuzz(next_seed, backend=backend, shrink=False, config=config)
        if (
            backend in ("sim", "asyncio")
            and result.iterations % SOAK_MOBILITY_EVERY == SOAK_MOBILITY_EVERY - 1
        ):
            # deferred import: mobility sits above pubsub in the layering
            from ..mobility.handover_workload import WorkloadSpec, run_handover_workload

            outcome = run_handover_workload(
                backend, spec=WorkloadSpec.draw(next_seed), config=config
            )
            duplicates = {c.name: c.duplicates for c in outcome.clients}
            result.violations.extend(check_no_duplicates(duplicates))
        result.iterations += 1
        result.seeds.append(next_seed)
        next_seed += 1
        if not report.ok:
            result.violations.extend(report.violations)
            break
        if result.violations:
            break
        gc.collect()
        snapshot = process_resources()
        if result.iterations == 1:
            result.plateau_baseline = snapshot
        else:
            result.plateau_final = snapshot
            result.violations.extend(
                check_non_growth(result.plateau_baseline, snapshot, slack=SOAK_SLACK)
            )
            if result.violations:
                break
    result.plateau_final = result.plateau_final or dict(result.plateau_baseline)
    result.wall_sec = time.perf_counter() - started
    return result
