"""Unit tests for movement predictors (shadow-placement policies)."""

import pytest

from repro.core.movement_graph import grid_graph, line_graph
from repro.core.uncertainty import (
    FloodingPredictor,
    MarkovPredictor,
    NeighbourhoodPredictor,
    NoPredictionPredictor,
    coverage_and_cost,
)


@pytest.fixture
def line():
    return line_graph(["A", "B", "C", "D", "E"])


class TestNeighbourhoodPredictor:
    def test_one_hop_is_nlb(self, line):
        predictor = NeighbourhoodPredictor(line)
        assert predictor.predict("B") == frozenset({"A", "C"})

    def test_k_hop(self, line):
        predictor = NeighbourhoodPredictor(line, hops=2)
        assert predictor.predict("A") == frozenset({"B", "C"})

    def test_invalid_hops(self, line):
        with pytest.raises(ValueError):
            NeighbourhoodPredictor(line, hops=0)


class TestTrivialPredictors:
    def test_none_predicts_nothing(self):
        assert NoPredictionPredictor().predict("anywhere") == frozenset()

    def test_flooding_predicts_everyone_else(self):
        predictor = FloodingPredictor(["A", "B", "C"])
        assert predictor.predict("A") == frozenset({"B", "C"})


class TestMarkovPredictor:
    def test_falls_back_to_nlb_without_observations(self, line):
        predictor = MarkovPredictor(line)
        for _ in range(MarkovPredictor.MIN_OBSERVATIONS - 1):
            predictor.observe_handover("B", "C")
        assert predictor.predict("B") == line.nlb("B")

    def test_learns_dominant_transition(self, line):
        predictor = MarkovPredictor(line, threshold=0.5)
        for _ in range(9):
            predictor.observe_handover("B", "C")
        predictor.observe_handover("B", "A")
        assert predictor.predict("B") == frozenset({"C"})
        # B -> C holds 9 of the 10 observations: kept at 0.9, dropped above it
        predictor.threshold = 0.9
        assert predictor.predict("B") == frozenset({"C"})
        predictor.threshold = 0.95
        assert predictor.predict("B") == line.nlb("B")

    def test_threshold_keeps_multiple_candidates(self, line):
        predictor = MarkovPredictor(line, threshold=0.2)
        for _ in range(5):
            predictor.observe_handover("B", "C")
        for _ in range(5):
            predictor.observe_handover("B", "A")
        assert predictor.predict("B") == frozenset({"A", "C"})

    def test_never_predicts_empty_when_graph_known(self, line):
        predictor = MarkovPredictor(line, threshold=0.99)
        for _ in range(3):
            predictor.observe_handover("B", "C")
            predictor.observe_handover("B", "A")
        # No single transition reaches 0.99, but the predictor degrades to nlb.
        assert predictor.predict("B") == line.nlb("B")

    def test_self_transition_ignored(self, line):
        predictor = MarkovPredictor(line)
        for _ in range(MarkovPredictor.MIN_OBSERVATIONS):
            predictor.observe_handover("B", "B")
        assert predictor.predict("B") == line.nlb("B")  # nothing observed yet
        for _ in range(MarkovPredictor.MIN_OBSERVATIONS):
            predictor.observe_handover("B", "C")
        assert predictor.predict("B") == frozenset({"C"})  # B -> B never counted

    def test_invalid_threshold(self, line):
        with pytest.raises(ValueError):
            MarkovPredictor(line, threshold=1.5)


class TestCoverageAndCost:
    def test_perfect_coverage_on_respecting_trace(self, line):
        trace = ["A", "B", "C", "D", "E", "D", "C"]
        coverage, shadows = coverage_and_cost(NeighbourhoodPredictor(line), trace)
        assert coverage == 1.0
        assert 1.0 <= shadows <= 2.0

    def test_zero_coverage_with_no_prediction(self, line):
        coverage, shadows = coverage_and_cost(NoPredictionPredictor(), ["A", "B", "C"])
        assert coverage == 0.0
        assert shadows == 0.0

    def test_flooding_always_covers(self, line):
        predictor = FloodingPredictor(line.brokers)
        coverage, shadows = coverage_and_cost(predictor, ["A", "E", "B", "D"])
        assert coverage == 1.0
        assert shadows == pytest.approx(4.0)

    def test_empty_trace(self, line):
        coverage, shadows = coverage_and_cost(NeighbourhoodPredictor(line), ["A", "A"])
        assert coverage == 1.0
        assert shadows == 0.0

    def test_markov_learns_during_replay(self):
        graph = grid_graph(3, 3)
        trace = ["B_0_0", "B_0_1", "B_0_0", "B_0_1", "B_0_0", "B_0_1"] * 5
        predictor = MarkovPredictor(graph, threshold=0.5)
        coverage, shadows = coverage_and_cost(predictor, trace)
        assert coverage == 1.0
        # once learned, the predictor maintains a single shadow instead of the
        # whole grid neighbourhood
        assert shadows < graph.average_degree() + 1
