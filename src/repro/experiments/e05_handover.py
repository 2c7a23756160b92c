"""E5 — Handover control overhead vs movement-graph degree (Sect. 3.2.3, Sect. 4).

Every handover makes the new replicator reconcile the shadow set: create
virtual clients on ``newset \\ oldset``, delete them on ``oldset \\ newset``.
The size of those sets — and therefore the number of control messages and the
number of standing shadows — grows with the degree of the movement graph.
This experiment drives the same client trajectory over the same cellular grid
while only the movement graph changes:

* ``line`` — a 1-D corridor of cells (degree ≤ 2);
* ``grid-4`` — the 4-neighbourhood of the grid (degree ≤ 4);
* ``grid-8`` — the 8-neighbourhood (degree ≤ 8);
* ``complete`` — every broker neighbours every other (the flooding
  degeneration the paper warns about).

Measured per graph: average degree, shadow create/delete messages per
handover, subscription messages per handover, and the mean number of standing
shadow virtual clients.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.location import cell_name
from ..core.location_filter import location_dependent
from ..core.middleware import MobilitySystemConfig
from ..core.movement_graph import MovementGraph, complete_graph, grid_graph, line_graph
from ..core.replicator import SHADOW_CREATE, SHADOW_DELETE
from ..mobility.models import RandomWalkMobility
from ..mobility.scenario import build_grid_scenario
from ..mobility.workload import temperature_workload
from .harness import Table

GRAPHS = ("line", "grid-4", "grid-8", "complete")


def run(
    graphs: Sequence[str] = GRAPHS,
    rows: int = 3,
    cols: int = 3,
    dwell_time: float = 4.0,
    publish_period: float = 2.0,
    duration: float = 60.0,
    seed: int = 5,
) -> Table:
    """Run the degree sweep and return the result table."""
    table = Table(
        "E5: handover overhead vs movement-graph degree",
        columns=[
            "graph",
            "avg_degree",
            "handovers",
            "shadow_msgs_per_handover",
            "sub_msgs",
            "mean_shadows",
            "shadow_deliveries",
            "delivery_rate",
        ],
        description="Same client trajectory, increasingly permissive movement graphs.",
    )
    for graph_name in graphs:
        row = _run_once(graph_name, rows, cols, dwell_time, publish_period, duration, seed)
        table.add_row(graph=graph_name, **row)
    return table


def _movement_graph(name: str, rows: int, cols: int, broker_names: List[str]) -> MovementGraph:
    if name == "line":
        return line_graph(broker_names)
    if name == "grid-4":
        return grid_graph(rows, cols, name_of=_grid_names(rows, cols, broker_names), diagonal=False)
    if name == "grid-8":
        return grid_graph(rows, cols, name_of=_grid_names(rows, cols, broker_names), diagonal=True)
    if name == "complete":
        return complete_graph(broker_names)
    raise ValueError(f"unknown movement graph {name!r}")


def _grid_names(rows: int, cols: int, broker_names: List[str]) -> Dict:
    mapping = {}
    index = 0
    for r in range(rows):
        for c in range(cols):
            mapping[(r, c)] = f"B_{r}_{c}"
            index += 1
    return mapping


def _run_once(
    graph_name: str,
    rows: int,
    cols: int,
    dwell_time: float,
    publish_period: float,
    duration: float,
    seed: int,
) -> Dict[str, object]:
    scenario = build_grid_scenario(rows=rows, cols=cols, config=MobilitySystemConfig())
    broker_names = scenario.network.broker_names()
    graph = _movement_graph(graph_name, rows, cols, broker_names)

    # Rebuild the system's predictor around the chosen movement graph.
    from ..core.uncertainty import NeighbourhoodPredictor

    predictor = NeighbourhoodPredictor(graph, hops=1)
    scenario.system.movement_graph = graph
    scenario.system.predictor = predictor
    for replicator in scenario.system.replicators.values():
        replicator.predictor = predictor

    publishers, recorder = temperature_workload(
        scenario.system, period=publish_period, recorder=scenario.recorder, until=duration
    )

    template = location_dependent({"service": "temperature"})
    start = cell_name(0, 0)
    model = RandomWalkMobility(scenario.space, start=start, dwell_time=dwell_time)
    subscriber = scenario.add_roaming_subscriber("walker", template, model, duration=duration, seed=seed)

    shadow_samples: List[int] = []
    sample_period = max(dwell_time, 1.0)
    sample_times = [t * sample_period for t in range(1, int(duration / sample_period))]
    for t in sample_times:
        scenario.network.sim.schedule_at(t, lambda: shadow_samples.append(scenario.system.total_shadow_count()))

    scenario.run(duration)
    publishers.stop()

    handovers = max(1, len(subscriber.client.attachments) - 1)
    shadow_msgs = scenario.network.total_messages(SHADOW_CREATE) + scenario.network.total_messages(
        SHADOW_DELETE
    )
    outcome = scenario.evaluate(subscriber)
    return {
        "avg_degree": round(graph.average_degree(), 2),
        "handovers": handovers,
        "shadow_msgs_per_handover": round(shadow_msgs / handovers, 3),
        "sub_msgs": scenario.system.subscription_message_count(),
        "mean_shadows": round(sum(shadow_samples) / len(shadow_samples), 2) if shadow_samples else 0.0,
        "shadow_deliveries": scenario.system.total_shadow_deliveries(),
        "delivery_rate": round(outcome.delivery_rate, 4),
    }
