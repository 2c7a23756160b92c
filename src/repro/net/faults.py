"""Fault injection for dynamic environments.

The paper's research agenda (Sect. 4, "Scalability and dynamic environments")
points out that pervasive deployments are not static: links fail, brokers
disappear and come back, the infrastructure itself changes while clients
roam.  The tooling below injects exactly those events into a running
simulation so tests and experiments can observe how the mobility layer
degrades and recovers:

* :class:`FaultInjector` — schedule link outages, broker crashes/restarts and
  (acyclic-graph) partitions at chosen simulated times, or fire them
  immediately with the ``*_now`` variants;
* :class:`FaultLog` — a record of every injected event for post-hoc analysis.

Faults are deliberately *mechanical*: every injection goes through
:meth:`~repro.net.transport.Transport.inject_fault`, the same seam
operational tooling would use, so no component gets magical knowledge that a
fault happened.  On the simulator that flips :meth:`Link.set_up` /
``Process.alive`` with byte-identical scheduling; on the cluster backend the
very same calls become a real ``kill -9`` + supervised respawn and TCP-level
link severing (see :mod:`repro.net.cluster`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .link import Link
from .process import Process


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or repair), as recorded by the :class:`FaultLog`."""

    time: float
    kind: str
    target: str


class FaultLog:
    """Chronological record of injected faults and repairs."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(self, time: float, kind: str, target: str) -> None:
        self.events.append(FaultEvent(time=time, kind=kind, target=target))

    def of_kind(self, kind: str) -> List[FaultEvent]:
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class FaultInjector:
    """Schedules faults against a :class:`~repro.pubsub.broker_network.BrokerNetwork`.

    All methods accept absolute times on the network's own clock
    (``network.sim``); scheduling in the past raises (through the
    simulator), which keeps experiment scripts honest.

    Randomized fault decisions (the chaos fuzzer's flap repetitions, jittered
    schedules) draw from :attr:`rng`, a *private* ``random.Random(seed)`` —
    never the module-level ``random`` — so two injectors with the same seed
    make bit-identical draws regardless of what the rest of the process does
    with the global RNG.  :meth:`snapshot`/:meth:`restore` expose the RNG
    state so a shrinking run can replay a schedule suffix exactly as the
    original run drew it.
    """

    def __init__(self, network, *, seed: Optional[int] = None):
        self.sim = network.sim
        self.network = network
        self.transport = network.transport
        self.log = FaultLog()
        #: private seeded RNG; all randomized fault decisions come from here
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------- rng
    def snapshot(self) -> object:
        """Capture the private RNG state (for deterministic suffix replay)."""
        return self.rng.getstate()

    def restore(self, state: object) -> None:
        """Rewind the private RNG to a state from :meth:`snapshot`."""
        self.rng.setstate(state)

    # ------------------------------------------------------------------ links
    def link_down_now(self, a: str, b: str) -> None:
        """Sever the link between ``a`` and ``b`` immediately (any backend)."""
        self._set_link(self._require_link(a, b), False, f"{a}<->{b}")

    def link_up_now(self, a: str, b: str) -> None:
        """Restore the link between ``a`` and ``b`` immediately (any backend)."""
        self._set_link(self._require_link(a, b), True, f"{a}<->{b}")

    def _set_link(self, link: Link, up: bool, label: str) -> None:
        self.transport.inject_fault("link_up" if up else "link_down", link=link)
        self.log.record(self.sim.now, "link_up" if up else "link_down", label)

    def _require_link(self, a: str, b: str) -> Link:
        link = self.network.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r}")
        return link

    # ---------------------------------------------------------------- brokers
    def crash_process(self, name: str, at: float) -> None:
        """Crash a process (it stops handling messages) at time ``at``."""
        process = self._require_process(name)
        self.sim.schedule_at(at, self._set_process_alive, process, False)

    def restart_process(self, name: str, at: float) -> None:
        """Restart a previously crashed process at time ``at``.

        State held by the process (routing tables, buffers) is preserved —
        this models a transient freeze/restart, not a cold reboot; cold-start
        recovery is an explicit non-goal of the paper's algorithms.
        """
        process = self._require_process(name)
        self.sim.schedule_at(at, self._set_process_alive, process, True)

    def crash_now(self, name: str) -> None:
        """Crash a process immediately (``kill -9`` on the cluster backend)."""
        self._set_process_alive(self._require_process(name), False)

    def restart_now(self, name: str) -> None:
        """Restart a crashed process immediately (supervised respawn on cluster)."""
        self._set_process_alive(self._require_process(name), True)

    def _set_process_alive(self, process: Process, alive: bool) -> None:
        self.transport.inject_fault("restart" if alive else "crash", process=process)
        self.log.record(self.sim.now, "process_up" if alive else "process_down", process.name)

    def _require_process(self, name: str) -> Process:
        if name not in self.network.processes:
            raise KeyError(f"unknown process {name!r}")
        return self.network.processes[name]

    # -------------------------------------------------------------- partitions
    def partition(self, side_a: List[str], side_b: List[str], start: float, duration: float) -> int:
        """Disable every link that crosses the two process groups for ``duration`` seconds.

        Returns the number of links affected.  In an acyclic broker network a
        partition of the broker graph corresponds to taking down the (single)
        tree edge between the two sides, but the helper works for any split,
        including replicator-to-replicator links.

        Raises :class:`ValueError` when either side is empty or the sides
        overlap — a process cannot be on both sides of a partition.
        """
        group_a, group_b = set(side_a), set(side_b)
        if not group_a or not group_b:
            raise ValueError("both sides of a partition must be non-empty")
        overlap = group_a & group_b
        if overlap:
            raise ValueError(
                f"partition sides must be disjoint; both contain: {sorted(overlap)}"
            )
        affected = 0
        for link in self.network.links:
            names = {link.a.name, link.b.name}
            if names & group_a and names & group_b:
                label = f"{link.a.name}<->{link.b.name}"
                self.sim.schedule_at(start, self._set_link, link, False, label)
                self.sim.schedule_at(start + duration, self._set_link, link, True, label)
                affected += 1
        return affected
