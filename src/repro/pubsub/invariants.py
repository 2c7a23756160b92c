"""Explicit invariant checkers for chaos and soak runs.

Every chaos plan of :mod:`repro.pubsub.chaosgen` — the pinned storyline and
the seed-drawn schedules alike — is judged by the checkers below.  Each takes
plain observations (delivered id sets, duplicate counters, resource-size
snapshots) and returns a list of :class:`Violation` records — empty means
the invariant held.

The library encodes what "self-repairing" means for the paper's middleware:

* **zero duplicates** — no notification is ever delivered twice to the same
  subscriber, across any interleaving of faults and recoveries;
* **exactly-once delivery** of an expected id set — used both for healthy
  traffic (a burst published on a fully-up path must arrive completely) and
  for post-recovery replays of buffered/lost publications;
* **provable loss** — publications routed into a fault window must *not*
  arrive; a zero-sized expectation set is rejected loudly so a degenerate
  window can never pass the check vacuously;
* **cross-backend convergence** — the delivered sets of a real-socket run
  must equal the deterministic simulator oracle under the identical
  schedule;
* **resource non-growth** — routing tables, transport registries, dynamic
  links, timers and file descriptors must return to their baseline after
  fault/recovery cycles (the gated soak metric);
* **conservation** — on paths that saw no fault, every message sent is
  received.

Checkers never raise on violation; callers aggregate the returned lists and
decide (the fuzzer shrinks the schedule, the soak loop aborts, tests
assert).  :func:`require` converts a non-empty violation list into an
:class:`InvariantError` for callers that do want an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Violation:
    """One invariant violation: which invariant, where, and what happened."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.invariant}] {self.subject}: {self.detail}"


class InvariantError(AssertionError):
    """Raised by :func:`require` when at least one invariant was violated."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(violation) for violation in self.violations)
        super().__init__(f"{len(self.violations)} invariant violation(s):\n  {lines}")


def require(violations: Sequence[Violation]) -> None:
    """Raise :class:`InvariantError` unless ``violations`` is empty."""
    if violations:
        raise InvariantError(violations)


# ------------------------------------------------------------------ delivery


def check_no_duplicates(duplicates_by_client: Mapping[str, int]) -> List[Violation]:
    """Zero duplicate deliveries, per subscriber."""
    return [
        Violation("no-duplicates", name, f"{count} duplicate deliveries")
        for name, count in sorted(duplicates_by_client.items())
        if count
    ]


def check_exactly_once(
    subject: str, expected: Iterable[int], delivered: Iterable[int]
) -> List[Violation]:
    """Every expected id delivered exactly once, nothing unexpected.

    ``delivered`` is the subscriber's *full* delivered id sequence; only ids
    in ``expected`` are judged, so the checker composes per publish burst.
    """
    expected_set = set(expected)
    violations: List[Violation] = []
    seen: Dict[int, int] = {}
    for nid in delivered:
        if nid in expected_set:
            seen[nid] = seen.get(nid, 0) + 1
    missing = sorted(expected_set - set(seen))
    if missing:
        violations.append(Violation("exactly-once", subject, f"never delivered: {missing[:8]}"))
    repeated = sorted(nid for nid, count in seen.items() if count > 1)
    if repeated:
        violations.append(
            Violation("exactly-once", subject, f"delivered more than once: {repeated[:8]}")
        )
    return violations


def check_provable_loss(
    subject: str,
    window: Iterable[int],
    delivered: Iterable[int],
    context: str = "",
) -> List[Violation]:
    """Publications routed into a fault window must not arrive.

    A zero-length window would make the check pass vacuously — the scripted
    chaos scenario once had exactly that hole — so an empty ``window`` is
    itself a violation: the caller asserted "provably lost" about nothing.
    """
    window_set = set(window)
    note = f" ({context})" if context else ""
    if not window_set:
        return [
            Violation(
                "provable-loss",
                subject,
                f"empty fault window: nothing was published into the fault{note}",
            )
        ]
    leaked = sorted(window_set & set(delivered))
    if leaked:
        return [
            Violation(
                "provable-loss",
                subject,
                f"publications into the fault window were delivered: {leaked[:8]}{note}",
            )
        ]
    return []


def check_convergence(
    reference: Mapping[str, Sequence[Tuple]],
    candidate: Mapping[str, Sequence[Tuple]],
    candidate_name: str = "candidate",
) -> List[Violation]:
    """Per-subscriber delivered sets must equal the simulator's ``reference``."""
    violations: List[Violation] = []
    for name in sorted(set(reference) | set(candidate)):
        expected = list(reference.get(name, ()))
        actual = list(candidate.get(name, ()))
        if expected == actual:
            continue
        missing = [item for item in expected if item not in actual]
        extra = [item for item in actual if item not in expected]
        violations.append(
            Violation(
                "convergence",
                name,
                f"{candidate_name} delivered {len(actual)} vs sim "
                f"{len(expected)} (missing {missing[:5]}, extra {extra[:5]})",
            )
        )
    return violations


# ------------------------------------------------------------------ resources


def check_non_growth(
    baseline: Mapping[str, int],
    current: Mapping[str, int],
    slack: Mapping[str, int] | None = None,
) -> List[Violation]:
    """No tracked resource may exceed its baseline (plus optional slack).

    ``baseline`` and ``current`` are size snapshots — routing-table entries,
    held listeners, live dynamic links, pending timers, open file
    descriptors — taken at comparable quiesced points.  Shrinking is fine
    (recovery may prune); growth is the leak signal.  ``slack`` grants named
    keys a small absolute allowance (e.g. one or two fds for a lazily
    created pipe).
    """
    slack = slack or {}
    violations: List[Violation] = []
    for key in sorted(current):
        if key not in baseline:
            continue  # a resource that appeared later has no baseline to hold
        allowed = baseline[key] + slack.get(key, 0)
        if current[key] > allowed:
            violations.append(
                Violation(
                    "non-growth",
                    key,
                    f"grew from {baseline[key]} to {current[key]} (allowed {allowed})",
                )
            )
    return violations


def check_conservation(subject: str, sent: int, received: int) -> List[Violation]:
    """On a path that saw no fault, every message sent must be received."""
    if sent != received:
        return [Violation("conservation", subject, f"sent {sent} != received {received}")]
    return []


# ------------------------------------------------------------------ snapshots


def resource_snapshot(net) -> Dict[str, int]:
    """Size snapshot of a :class:`~repro.pubsub.broker_network.BrokerNetwork`.

    Merges per-broker routing-table sizes with whatever the transport
    reports through :meth:`~repro.net.transport.Transport.resource_sizes`
    (links, listeners, timers, writers).  Comparable before/after fault
    cycles via :func:`check_non_growth`.
    """
    sizes: Dict[str, int] = {}
    for name in net.broker_names():
        sizes[f"routing:{name}"] = net.brokers[name].routing_table_size()
    for key, value in net.transport.resource_sizes().items():
        sizes[f"transport:{key}"] = value
    return sizes
