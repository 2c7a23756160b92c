"""E9 — The exception mode: popping up outside the shadow set (Sect. 4).

"One reason for disconnecting from the network is to save power by shutting
down the device.  Combined with client movement, this implies that a client
may always 'pop up' at any place in the broker network, i.e., places which
are not covered by nlb and hence where no virtual client is running."  The
paper proposes an exception mode: start a virtual client on the fly and
retrieve buffered notifications from some other virtual client, accepting
"some form of degraded service".

The experiment runs a teleporting client (power-off, reappear anywhere) on a
cellular grid with the replicator layer enabled and compares exception mode
on vs off, reporting how many of the client's reconnections were uncovered by
the shadow set, how many notifications the exception fetch salvaged, and the
overall delivery rate for location-relevant notifications.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.location import cell_name
from ..core.location_filter import location_dependent
from ..core.middleware import MobilitySystemConfig
from ..core.replicator import ReplicatorConfig
from ..mobility.models import TeleportMobility
from ..mobility.scenario import build_grid_scenario
from ..mobility.workload import weather_workload
from .harness import Table

VARIANTS = ("exception-off", "exception-on")


def run(
    variants: Sequence[str] = VARIANTS,
    rows: int = 3,
    cols: int = 3,
    on_time: float = 12.0,
    off_time: float = 6.0,
    publish_period: float = 2.0,
    duration: float = 90.0,
    seed: int = 9,
) -> Table:
    """Run the exception-mode comparison and return the result table."""
    table = Table(
        "E9: exception mode after power-off teleports",
        columns=[
            "variant",
            "reconnections",
            "uncovered_arrivals",
            "exception_recoveries",
            "relevant",
            "delivered",
            "delivery_rate",
            "replayed",
        ],
        description="Client powers off and pops up at arbitrary cells; the shadow set often does not cover the arrival broker.",
    )
    for variant in variants:
        row = _run_variant(variant, rows, cols, on_time, off_time, publish_period, duration, seed)
        table.add_row(variant=variant, **row)
    return table


def _variant_config(variant: str) -> MobilitySystemConfig:
    exception = variant == "exception-on"
    return MobilitySystemConfig(
        replicator=ReplicatorConfig(
            pre_subscription=True, physical_relocation=True, exception_mode=exception
        ),
        predictor="nlb",
    )


def _run_variant(
    variant: str,
    rows: int,
    cols: int,
    on_time: float,
    off_time: float,
    publish_period: float,
    duration: float,
    seed: int,
) -> Dict[str, object]:
    scenario = build_grid_scenario(
        rows=rows, cols=cols, config=_variant_config(variant), myloc_scope="region", region_rows=1
    )
    publishers, recorder = weather_workload(
        scenario.system, period=publish_period, recorder=scenario.recorder, until=duration
    )

    template = location_dependent({"service": "weather"}, scope="region")
    model = TeleportMobility(scenario.space, start=cell_name(0, 0), on_time=on_time, off_time=off_time)
    subscriber = scenario.add_roaming_subscriber("nomad", template, model, duration=duration, seed=seed)

    scenario.run(duration)
    publishers.stop()

    outcome = scenario.evaluate(subscriber)
    uncovered = sum(r.stats.exception_activations for r in scenario.system.replicators.values())
    recoveries = sum(r.relocation.exception_recoveries for r in scenario.system.replicators.values())
    reconnections = max(0, len(subscriber.client.attachments) - 1)
    return {
        "reconnections": reconnections,
        "uncovered_arrivals": uncovered,
        "exception_recoveries": recoveries,
        "relevant": outcome.relevant,
        "delivered": outcome.delivered_relevant,
        "delivery_rate": round(outcome.delivery_rate, 4),
        "replayed": outcome.replayed,
    }
