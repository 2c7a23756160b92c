"""E2 — Physical mobility: location transparency for roaming clients (Fig. 1 left).

A roaming user monitors stock quotes — a subscription that has nothing to do
with location and therefore must survive every handover untouched ("stock
quote monitoring can be seamlessly transferred from PCs to PDAs", Sect. 1).
Three levels of middleware support are compared:

* ``none`` — the client reconnects but never re-announces its subscriptions
  (no mobility support at all);
* ``resubscribe`` — the client re-issues its subscriptions at every new
  broker (the naive application-level workaround): notifications published
  during the disconnection and setup window are lost;
* ``relocation`` — the physical-mobility relocation of [8]: the old border
  broker buffers for the disconnected client and forwards the buffered
  notifications on reconnection — no loss.

Measured per variant: delivered / missed stock notifications, duplicates, and
the resulting miss rate.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.metrics import evaluate_plain_delivery
from ..core.middleware import MobilitySystemConfig
from ..core.replicator import ReplicatorConfig
from ..mobility.models import RoutePathMobility
from ..mobility.scenario import build_office_scenario
from ..mobility.workload import stock_workload
from ..pubsub.filters import Equals, Filter
from .harness import Table

VARIANTS = ("none", "resubscribe", "relocation")


def run(
    variants: Sequence[str] = VARIANTS,
    n_rooms: int = 12,
    rooms_per_broker: int = 3,
    publish_period: float = 0.25,
    dwell_time: float = 5.0,
    handover_gap: float = 1.0,
    duration: float = 60.0,
) -> Table:
    """Run the physical-mobility comparison and return the result table."""
    table = Table(
        "E2: physical mobility support levels",
        columns=["variant", "published", "delivered", "missed", "miss_rate", "duplicates", "handovers"],
        description="Roaming stock-quote subscriber; relocation should not lose notifications.",
    )
    for variant in variants:
        row = _run_variant(
            variant, n_rooms, rooms_per_broker, publish_period, dwell_time, handover_gap, duration
        )
        table.add_row(variant=variant, **row)
    return table


def _variant_config(variant: str) -> MobilitySystemConfig:
    if variant == "relocation":
        replicator = ReplicatorConfig(
            pre_subscription=False, physical_relocation=True, exception_mode=False
        )
    else:
        replicator = ReplicatorConfig(
            pre_subscription=False, physical_relocation=False, exception_mode=False
        )
    return MobilitySystemConfig(replicator=replicator, predictor="none")


def _run_variant(
    variant: str,
    n_rooms: int,
    rooms_per_broker: int,
    publish_period: float,
    dwell_time: float,
    handover_gap: float,
    duration: float,
) -> Dict[str, object]:
    scenario = build_office_scenario(
        n_rooms=n_rooms, rooms_per_broker=rooms_per_broker, config=_variant_config(variant)
    )
    publisher, recorder = stock_workload(
        scenario.system, period=publish_period, recorder=scenario.recorder, until=duration
    )

    # The roaming user walks the corridor from end to end and back.
    rooms = scenario.space.locations
    path = rooms + list(reversed(rooms))
    model = RoutePathMobility(path, dwell_time=dwell_time, loop=True)
    client = scenario.system.add_mobile_client("roamer", reissue_on_attach=(variant != "none"))
    stock_filter = Filter([Equals("service", "stock")])
    client.subscribe(stock_filter)

    from ..mobility.models import MobilityDriver  # local import to avoid cycle at module load

    driver = MobilityDriver(scenario.system, client, model, duration=duration, handover_gap=handover_gap)
    driver.start()

    scenario.run(duration)
    publisher.stop()

    outcome = evaluate_plain_delivery(client.received_ids(), recorder.published, stock_filter)
    handovers = max(0, len(client.attachments) - 1)
    return {
        "published": len(recorder.published),
        "delivered": outcome.delivered_relevant,
        "missed": outcome.missed,
        "miss_rate": round(outcome.miss_rate, 4),
        "duplicates": client.duplicate_deliveries(),
        "handovers": handovers,
    }
