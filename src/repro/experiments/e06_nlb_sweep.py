"""E6 — Coverage vs overhead as ``nlb`` grows (Sect. 4, "Dealing with further uncertainty").

The paper frames the central tension of the design: ``nlb`` instances must be
"as 'large' as necessary (to cater for a lot of different forms of user
movement) but ... as 'small' as possible (to not waste too much bandwidth)",
and the extreme of covering every broker "would degenerate to flooding, a
very unpleasant situation".

This experiment replays broker-level movement traces through the whole
predictor spectrum and reports both axes of the trade-off:

* ``coverage`` — fraction of handovers whose target broker already hosted a
  shadow when the move happened (no setup gap, no missed notifications);
* ``mean_shadows`` — average number of shadow virtual clients that had to be
  maintained to achieve it (bandwidth/memory proxy).

Two movement workloads are used: a neighbourhood-respecting random walk (the
paper's assumption) and a teleporting power-off workload (its stated failure
mode).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..core.location import cell_grid_space, cell_name
from ..core.movement_graph import grid_graph
from ..core.uncertainty import (
    FloodingPredictor,
    MarkovPredictor,
    MovementPredictor,
    NeighbourhoodPredictor,
    NoPredictionPredictor,
    coverage_and_cost,
)
from ..mobility.models import MobilityModel, RandomWalkMobility, TeleportMobility
from .harness import Table

PREDICTORS = ("none", "nlb-1", "nlb-2", "nlb-3", "markov", "flooding")
WORKLOADS = ("random-walk", "teleport")


def run(
    predictors: Sequence[str] = PREDICTORS,
    workloads: Sequence[str] = WORKLOADS,
    rows: int = 5,
    cols: int = 5,
    duration: float = 2000.0,
    dwell_time: float = 10.0,
    seed: int = 6,
) -> Table:
    """Run the predictor sweep and return the result table."""
    table = Table(
        "E6: shadow-set coverage vs cost across the nlb spectrum",
        columns=["workload", "predictor", "handovers", "coverage", "mean_shadows", "broker_count"],
        description="Coverage of the next attachment vs number of shadows maintained.",
    )
    space = cell_grid_space(rows, cols)
    graph = grid_graph(rows, cols)
    broker_names = graph.brokers

    for workload in workloads:
        model = _workload_model(workload, space, dwell_time)
        brokers = model.broker_trace(space, duration, random.Random(seed))
        handovers = sum(1 for previous, current in zip(brokers, brokers[1:]) if previous != current)
        for predictor_name in predictors:
            predictor = _make_predictor(predictor_name, graph, broker_names)
            coverage, mean_shadows = coverage_and_cost(predictor, brokers)
            table.add_row(
                workload=workload,
                predictor=predictor_name,
                handovers=handovers,
                coverage=round(coverage, 4),
                mean_shadows=round(mean_shadows, 2),
                broker_count=len(broker_names),
            )
    return table


def _workload_model(workload: str, space, dwell_time: float) -> MobilityModel:
    start = cell_name(0, 0)
    if workload == "random-walk":
        return RandomWalkMobility(space, start=start, dwell_time=dwell_time)
    if workload == "teleport":
        return TeleportMobility(space, start=start, on_time=dwell_time * 2, off_time=dwell_time)
    raise ValueError(f"unknown workload {workload!r}")


def _make_predictor(name: str, graph, broker_names: List[str]) -> MovementPredictor:
    if name == "none":
        return NoPredictionPredictor()
    if name.startswith("nlb-"):
        return NeighbourhoodPredictor(graph, hops=int(name.split("-")[1]))
    if name == "markov":
        return MarkovPredictor(graph, threshold=0.1)
    if name == "flooding":
        return FloodingPredictor(broker_names)
    raise ValueError(f"unknown predictor {name!r}")
