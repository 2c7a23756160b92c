"""E10 — Scalability of the mobility layer (Sect. 4, "Scalability and dynamic environments").

"Pervasive environments ... pose greater challenges both in the number of
clients to support as well as in the dynamics of their behavior.  How
scalable are implementations of logical and physical mobility?"

The experiment sweeps the system size (grid side length → number of border
brokers) and the number of simultaneously roaming clients, with the
replicator layer on and off, and reports:

* ``events`` — simulator events processed (a machine-independent cost proxy);
* ``broker_msgs`` — messages crossing broker-to-broker links;
* ``control_msgs`` — replication control messages;
* ``mean_latency`` — mean end-to-end delivery latency of live notifications;
* ``delivery_rate`` — location-relevant delivery rate averaged over clients;
* ``shared_share`` — share of the virtual clients' subscriptions that joined a
  broker subscription their replicator had already issued for an equal filter
  (``Replicator.subscriptions_shared`` over issued + shared).

A replicator issues one broker subscription per *distinct* bound filter, so
shadow set-up and tear-down no longer flood one (un)subscribe per virtual
client.  Before / after that change (``control_msgs``, ``mean_latency`` and
``delivery_rate`` identical in all twelve rows)::

    brokers clients variant     events        broker_msgs
    4       2       reactive     518 ->  486   126 ->  102
    4       2       replicator   676 ->  540   138 ->   36
    4       6       reactive    1159 ->  811   366 ->  105
    4       6       replicator  1511 ->  991   402 ->   12
    9       2       reactive     900 ->  882   320 ->  304
    9       2       replicator  1399 -> 1129   576 ->  336
    9       6       reactive    2005 -> 1564   992 ->  600
    9       6       replicator  3500 -> 1637  1888 ->  232
    16      2       reactive    1498 -> 1498   630 ->  630
    16      2       replicator  2647 -> 2263  1455 -> 1095
    16      6       reactive    3165 -> 2509  1860 -> 1245
    16      6       replicator  6200 -> 2664  4155 ->  840
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.location import cell_name
from ..core.location_filter import location_dependent
from ..core.metrics import mean
from ..core.middleware import MobilitySystemConfig
from ..core.replicator import ReplicatorConfig
from ..mobility.models import RandomWalkMobility
from ..mobility.scenario import build_grid_scenario
from ..mobility.workload import temperature_workload
from .harness import Table

VARIANTS = ("reactive", "replicator")


def run(
    grid_sides: Sequence[int] = (2, 3, 4),
    client_counts: Sequence[int] = (2, 6),
    variants: Sequence[str] = VARIANTS,
    dwell_time: float = 6.0,
    publish_period: float = 3.0,
    duration: float = 60.0,
    seed: int = 10,
) -> Table:
    """Run the scalability sweep and return the result table."""
    table = Table(
        "E10: scalability with brokers and roaming clients",
        columns=[
            "brokers",
            "clients",
            "variant",
            "events",
            "broker_msgs",
            "control_msgs",
            "mean_latency",
            "delivery_rate",
            "shared_share",
        ],
        description="Cost and quality of service as the deployment grows.",
    )
    for side in grid_sides:
        for n_clients in client_counts:
            for variant in variants:
                row = _run_once(side, n_clients, variant, dwell_time, publish_period, duration, seed)
                table.add_row(brokers=side * side, clients=n_clients, variant=variant, **row)
    return table


def _variant_config(variant: str) -> MobilitySystemConfig:
    if variant == "reactive":
        return MobilitySystemConfig(
            replicator=ReplicatorConfig(pre_subscription=False, physical_relocation=False, exception_mode=False),
            predictor="none",
        )
    return MobilitySystemConfig(replicator=ReplicatorConfig(), predictor="nlb")


def _run_once(
    side: int,
    n_clients: int,
    variant: str,
    dwell_time: float,
    publish_period: float,
    duration: float,
    seed: int,
) -> Dict[str, object]:
    scenario = build_grid_scenario(rows=side, cols=side, config=_variant_config(variant))
    publishers, recorder = temperature_workload(
        scenario.system, period=publish_period, recorder=scenario.recorder, until=duration
    )
    template = location_dependent({"service": "temperature"})

    subscribers = []
    for index in range(n_clients):
        start = cell_name(index % side, (index // side) % side)
        model = RandomWalkMobility(scenario.space, start=start, dwell_time=dwell_time)
        subscribers.append(
            scenario.add_roaming_subscriber(
                f"walker-{index}", template, model, duration=duration, seed=seed + index
            )
        )

    scenario.run(duration)
    publishers.stop()

    latencies: List[float] = []
    rates: List[float] = []
    for subscriber in subscribers:
        latencies.extend(
            d.latency for d in subscriber.client.live_deliveries() if d.latency is not None
        )
        rates.append(scenario.evaluate(subscriber).delivery_rate)
    replicators = scenario.system.replicators.values()
    issued = sum(r.subscriptions_issued for r in replicators)
    shared = sum(r.subscriptions_shared for r in replicators)

    return {
        "events": scenario.network.sim.events_processed,
        "broker_msgs": scenario.network.broker_link_messages(),
        "control_msgs": scenario.system.control_message_count(),
        "mean_latency": round(mean(latencies), 5),
        "delivery_rate": round(mean(rates), 4),
        "shared_share": round(shared / (issued + shared), 4) if issued else 0.0,
    }
