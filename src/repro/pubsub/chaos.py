"""Chaos scenario: a covering-churn workload under injected faults.

The paper's research agenda (Sect. 4) assumes an infrastructure where links
fail and brokers disappear and return while the subscription set churns.
:func:`run_chaos_scenario` scripts exactly that storyline on a 3-broker
covering line and *checks its own invariants as it goes*:

1. **baseline** — temperature publications flow to a broad subscriber on B1
   and a covered subscriber on B2;
2. **crash** — B2 is crashed (``kill -9`` + loss of all state on the cluster
   backend, a frozen process on the simulator); publications routed through
   it are lost, and the scenario asserts they are;
3. **recover** — B2 is restarted under supervision, re-links, re-syncs
   routing state, clients re-attach; the lost publications are replayed and
   must now arrive exactly once;
4. **sever/restore** — the B2–B3 link is severed and restored with the same
   publish-lost/replay-delivered check;
5. **churn** — the broad subscription is withdrawn, so the covering
   relationship that suppressed the covered subscriber's advertisement
   flips *across the recovered state*, and a final temperature burst must
   reach only the covered subscriber.

Because every fault goes through the transport-agnostic
:meth:`~repro.net.transport.Transport.inject_fault` seam, the same scenario
runs unchanged on the simulator, the in-process asyncio sockets and the
multi-process cluster — and the delivered-notification *sets* must agree
across all three, which is the cross-backend convergence assertion of
``tests/test_faults_cluster.py`` and the ``repro chaos-demo`` CLI.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..net.faults import FaultInjector
from .broker_network import line_topology
from .filters import Equals, Filter, Range
from .notification import Notification

#: notification-id bases per phase, so delivered sets are self-describing
TEMP_BASE = 1000
KILL_BASE = 2000
SEVER_BASE = 3000
FINAL_BASE = 4000


class ChaosError(AssertionError):
    """An invariant of the chaos scenario was violated mid-run."""


@dataclass
class ChaosResult:
    """Outcome of one chaos run; all counts are deterministic per backend."""

    backend: str
    #: subscriber name -> sorted delivered notification ids
    delivered: Dict[str, Tuple[int, ...]]
    #: duplicate deliveries across all subscribers (must be 0)
    duplicates: int
    #: publications that went into a fault window and were provably lost
    lost: int
    #: replayed publications that arrived after recovery (== lost)
    replayed: int
    #: ``resync`` markers received across all brokers
    resync_markers: int
    #: subscriptions re-forwarded by resyncs (timing-dependent on cluster)
    resync_forwards: int
    #: the transport's recovery-action counters (empty on sim/asyncio)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds per phase (reporting only, never gated)
    phase_sec: Dict[str, float] = field(default_factory=dict)
    #: the seed that drew this run's publication values (None = the pinned
    #: storyline values); always reported so a failing log is replayable
    seed: Optional[int] = None

    def delivered_total(self) -> int:
        return sum(len(ids) for ids in self.delivered.values())


def run_chaos_scenario(
    backend="sim",
    temps: int = 8,
    deep: int = 4,
    kill: bool = True,
    sever: bool = True,
    seed: Optional[int] = None,
    config=None,
) -> ChaosResult:
    """Run the chaos storyline on ``backend`` and return its metrics.

    ``temps``/``deep`` size the publication bursts; ``kill``/``sever``
    toggle the crash-recovery and link-sever phases (both on by default).
    ``seed`` draws the temperature values from a private ``Random(seed)``
    instead of the pinned storyline values — same seed, same values, on any
    backend — so CI can vary the scenario while staying replayable from the
    logged seed alone.  ``config`` is the :class:`~repro.config.SystemConfig`
    the brokers run under (the defaults when omitted; its ``transport``
    field is overridden by ``backend``).  Raises :class:`ChaosError` as
    soon as any invariant breaks, and :class:`ValueError` for degenerate
    burst sizes: a zero-length fault window would make the "publications
    provably lost" checks pass vacuously, so it is rejected up front.
    """
    if temps < 2:
        raise ValueError(
            f"chaos scenario needs temps >= 2 (one in-range, one out-of-range value), got {temps}"
        )
    if deep < 1 and (kill or sever):
        raise ValueError(
            f"chaos scenario needs a non-empty fault window: deep >= 1, got {deep} "
            "(a zero-length window would pass the provable-loss checks vacuously)"
        )
    config = (config or SystemConfig()).replace(transport=backend)
    net = line_topology(n_brokers=3, routing="covering", config=config)
    phase_sec: Dict[str, float] = {}
    try:
        s1 = net.add_client("s1", "B1")
        c2 = net.add_client("c2", "B2")
        s3 = net.add_client("s3", "B3")
        pub = net.add_client("pub", "B1")
        s1.subscribe(Filter([Equals("service", "temp")]), sub_id="g-broad")
        c2.subscribe(
            Filter([Equals("service", "temp"), Range("value", 10, 30)]), sub_id="g-covered"
        )
        s3.subscribe(Filter([Equals("service", "deep")]), sub_id="g-deep")
        net.run_until_idle()
        injector = FaultInjector(net.sim, net.network)

        if seed is None:
            temp_values = [5 + 5 * i for i in range(temps)]
        else:
            # Draw from a private Random(seed) so the values are replayable
            # from the seed alone.  Pin one value inside and one outside the
            # covered Range(10, 30) so neither covering check is vacuous.
            rng = random.Random(seed)
            temp_values = [rng.randrange(-20, 80) for _ in range(temps)]
            temp_values[rng.randrange(temps)] = rng.randrange(10, 31)
            outside = rng.choice([rng.randrange(-20, 10), rng.randrange(31, 80)])
            candidates = [i for i, value in enumerate(temp_values) if not 10 <= value <= 30]
            temp_values[candidates[0] if candidates else 0] = outside
        in_range = tuple(
            TEMP_BASE + i for i, value in enumerate(temp_values) if 10 <= value <= 30
        )

        def ids(client) -> Tuple[int, ...]:
            return tuple(sorted(d.notification.notification_id for d in client.deliveries))

        def publish_temps(base: int) -> None:
            for i, value in enumerate(temp_values):
                pub.publish(
                    Notification({"service": "temp", "value": value}, notification_id=base + i)
                )
            net.run_until_idle()

        def publish_deep(base: int) -> None:
            for i in range(deep):
                pub.publish(
                    Notification({"service": "deep", "seq": i}, notification_id=base + i)
                )
            net.run_until_idle()

        def expect(condition: bool, detail: str) -> None:
            if not condition:
                raise ChaosError(f"[{net.transport.name}] {detail}")

        lost = replayed = 0

        # ------------------------------------------------------- 1. baseline
        t0 = time.perf_counter()
        publish_temps(TEMP_BASE)
        expect(
            ids(s1) == tuple(TEMP_BASE + i for i in range(temps)),
            f"broad subscriber missed baseline temps: {ids(s1)}",
        )
        expect(ids(c2) == in_range, f"covered subscriber got {ids(c2)}, wanted {in_range}")
        phase_sec["baseline"] = time.perf_counter() - t0

        # -------------------------------------------- 2+3. crash and recover
        if kill:
            t0 = time.perf_counter()
            injector.crash_now("B2")
            publish_deep(KILL_BASE)
            expect(
                not any(KILL_BASE <= nid < KILL_BASE + deep for nid in ids(s3)),
                "publications routed through the dead broker were delivered",
            )
            lost += deep
            phase_sec["crash"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            injector.restart_now("B2")
            net.run_until_idle()  # let resyncs and re-subscriptions settle
            publish_deep(KILL_BASE)  # replay the lost ids
            expect(
                tuple(nid for nid in ids(s3) if KILL_BASE <= nid < KILL_BASE + deep)
                == tuple(KILL_BASE + i for i in range(deep)),
                f"replay after restart not delivered exactly once: {ids(s3)}",
            )
            replayed += deep
            phase_sec["recover"] = time.perf_counter() - t0

        # ------------------------------------------- 4+5. sever and restore
        if sever:
            t0 = time.perf_counter()
            injector.link_down_now("B2", "B3")
            publish_deep(SEVER_BASE)
            expect(
                not any(SEVER_BASE <= nid < SEVER_BASE + deep for nid in ids(s3)),
                "publications crossed a severed link",
            )
            lost += deep
            phase_sec["sever"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            injector.link_up_now("B2", "B3")
            net.run_until_idle()
            publish_deep(SEVER_BASE)
            expect(
                tuple(nid for nid in ids(s3) if SEVER_BASE <= nid < SEVER_BASE + deep)
                == tuple(SEVER_BASE + i for i in range(deep)),
                f"replay after link restore not delivered exactly once: {ids(s3)}",
            )
            replayed += deep
            phase_sec["restore"] = time.perf_counter() - t0

        # -------------------------------------------------- 6. covering churn
        t0 = time.perf_counter()
        s1.unsubscribe("g-broad")
        net.run_until_idle()
        publish_temps(FINAL_BASE)
        expect(
            not any(nid >= FINAL_BASE for nid in ids(s1)),
            "unsubscribed broad subscriber still receives",
        )
        expect(
            tuple(nid for nid in ids(c2) if nid >= FINAL_BASE)
            == tuple(nid - TEMP_BASE + FINAL_BASE for nid in in_range),
            f"covered subscriber wrong after covering churn: {ids(c2)}",
        )
        phase_sec["churn"] = time.perf_counter() - t0

        duplicates = sum(c.duplicate_deliveries() for c in (s1, c2, s3))
        expect(duplicates == 0, f"{duplicates} duplicate deliveries")
        broker_stats = [net.brokers[name].stats() for name in net.broker_names()]
        return ChaosResult(
            backend=net.transport.name,
            delivered={"s1": ids(s1), "c2": ids(c2), "s3": ids(s3)},
            duplicates=duplicates,
            lost=lost,
            replayed=replayed,
            resync_markers=sum(stats.get("resyncs", 0) for stats in broker_stats),
            resync_forwards=sum(stats.get("resync_forwards", 0) for stats in broker_stats),
            recovery=dict(getattr(net.transport, "recovery", {})),
            phase_sec=phase_sec,
            seed=seed,
        )
    finally:
        net.close()
