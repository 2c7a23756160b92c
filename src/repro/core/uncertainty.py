"""Movement prediction: where should shadow virtual clients be cast?

The replicator's job is to place shadow virtual clients at "every broker to
which the client may connect in the 'near' future" (Sect. 3.1).  The paper's
baseline answer is the 1-hop ``nlb`` neighbourhood, but Sect. 4 explicitly
frames this as a trade-off ("as large as necessary ... as small as
possible") and calls the extreme case degenerate flooding.

A :class:`MovementPredictor` encapsulates one policy for choosing the shadow
set, so experiment E6 can sweep the whole spectrum:

* :class:`NeighbourhoodPredictor` — the paper's ``nlb`` (optionally k-hop);
* :class:`FloodingPredictor` — shadows everywhere (maximal coverage, maximal
  cost);
* :class:`NoPredictionPredictor` — no shadows at all (the reactive baseline);
* :class:`MarkovPredictor` — learns transition frequencies from the client's
  observed handover history and keeps only neighbours whose estimated
  transition probability exceeds a threshold.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .movement_graph import MovementGraph


class MovementPredictor:
    """Policy interface: given the current broker and history, predict the shadow set."""

    name = "abstract"

    def predict(self, current_broker: str, history: Sequence[str] = ()) -> FrozenSet[str]:
        """Return the brokers (excluding the current one) that should host shadows."""
        raise NotImplementedError  # pragma: no cover - interface

    def observe_handover(self, from_broker: str, to_broker: str) -> None:
        """Feed an observed handover to adaptive predictors (no-op by default)."""

    def describe(self) -> str:
        return self.name


class NeighbourhoodPredictor(MovementPredictor):
    """The paper's ``nlb``: the (k-hop) movement-graph neighbourhood."""

    def __init__(self, graph: MovementGraph, hops: int = 1):
        if hops < 1:
            raise ValueError("hops must be >= 1")
        self.graph = graph
        self.hops = hops
        self.name = f"nlb-{hops}hop"

    def predict(self, current_broker: str, history: Sequence[str] = ()) -> FrozenSet[str]:
        if self.hops == 1:
            return self.graph.nlb(current_broker)
        return self.graph.nlb_k(current_broker, self.hops)


class FloodingPredictor(MovementPredictor):
    """Shadows at every broker — the degenerate case the paper warns against."""

    name = "flooding"

    def __init__(self, brokers: Iterable[str]):
        self.brokers = frozenset(brokers)

    def predict(self, current_broker: str, history: Sequence[str] = ()) -> FrozenSet[str]:
        return frozenset(b for b in self.brokers if b != current_broker)


class NoPredictionPredictor(MovementPredictor):
    """No shadows: the reactive re-subscription baseline."""

    name = "none"

    def predict(self, current_broker: str, history: Sequence[str] = ()) -> FrozenSet[str]:
        return frozenset()


class MarkovPredictor(MovementPredictor):
    """First-order Markov prediction learned from observed handovers.

    The predictor counts transitions ``from -> to``; the predicted shadow set
    for broker ``b`` is every broker whose estimated transition probability
    from ``b`` is at least ``threshold``.  Until enough observations exist
    (fewer than ``min_observations`` transitions out of ``b``), it falls back
    to the movement-graph neighbourhood, so coverage never starts worse than
    the paper's baseline.
    """

    def __init__(
        self,
        graph: MovementGraph,
        threshold: float = 0.15,
        min_observations: int = 5,
        max_candidates: Optional[int] = None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.graph = graph
        self.threshold = threshold
        self.min_observations = min_observations
        self.max_candidates = max_candidates
        self._counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._totals: Dict[str, int] = defaultdict(int)
        self.name = f"markov(p>={threshold})"

    def observe_handover(self, from_broker: str, to_broker: str) -> None:
        if from_broker == to_broker:
            return
        self._counts[from_broker][to_broker] += 1
        self._totals[from_broker] += 1

    def predict(self, current_broker: str, history: Sequence[str] = ()) -> FrozenSet[str]:
        total = self._totals.get(current_broker, 0)
        if total < self.min_observations:
            if current_broker in self.graph:
                return self.graph.nlb(current_broker)
            return frozenset()
        candidates: List[Tuple[float, str]] = []
        for target, count in self._counts[current_broker].items():
            probability = count / total
            if probability >= self.threshold:
                candidates.append((probability, target))
        candidates.sort(reverse=True)
        if self.max_candidates is not None:
            candidates = candidates[: self.max_candidates]
        predicted = frozenset(target for _, target in candidates)
        if not predicted and current_broker in self.graph:
            # Never predict an empty set while movement knowledge exists:
            # degrade gracefully to the movement-graph neighbourhood.
            return self.graph.nlb(current_broker)
        return predicted


# ----------------------------------------------------------------- evaluation


def coverage_and_cost(
    predictor: MovementPredictor,
    trace: Sequence[str],
    learn: bool = True,
) -> Tuple[float, float]:
    """Replay a broker-level trace through a predictor.

    Returns ``(coverage, mean_shadow_count)`` where *coverage* is the
    fraction of handovers whose target broker was in the predicted shadow
    set at the time of the move, and *mean_shadow_count* is the average
    number of shadows that would have been maintained — the two axes of the
    paper's "as large as necessary, as small as possible" trade-off.
    """
    transitions = [
        (previous, current)
        for previous, current in zip(trace, trace[1:])
        if previous != current
    ]
    if not transitions:
        return 1.0, 0.0
    covered = 0
    shadow_counts: List[int] = []
    for from_broker, to_broker in transitions:
        predicted = predictor.predict(from_broker)
        shadow_counts.append(len(predicted))
        if to_broker in predicted:
            covered += 1
        if learn:
            predictor.observe_handover(from_broker, to_broker)
    return covered / len(transitions), sum(shadow_counts) / len(shadow_counts)
