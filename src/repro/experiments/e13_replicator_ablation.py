"""E13 (ablation) — design choices inside the replicator layer.

Two implementation choices the paper leaves open are ``ReplicatorConfig``
knobs (README, "Every knob and the row that chooses it"); this ablation
measures each of them in the full system on the same car-on-a-route workload
as E4:

* **replay filtering** — on activation, replay only the buffered
  notifications that match the client's precise (newly bound) ``myloc``
  filters (``filter_replay=True``, the default) vs replaying the whole
  broker-scope buffer;
* **buffer policy** — unbounded shadow buffers vs the combined
  time+count policy of Sect. 4.

Measured per configuration: delivery rate for location-relevant
notifications, notifications replayed to the device, replay discarded by the
filter, and peak buffer memory across the system (the one definition,
:func:`~repro.core.buffering.shared_footprint`: co-hosted shadows share the
notification objects their replicator dispatched).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.buffering import CombinedPolicy, CountBasedPolicy, TimeBasedPolicy
from ..core.location_filter import location_dependent
from ..core.middleware import MobilitySystemConfig
from ..core.replicator import ReplicatorConfig
from ..mobility.models import RoutePathMobility
from ..mobility.scenario import build_route_scenario
from ..mobility.workload import restaurant_workload
from .harness import Table

CONFIGURATIONS = (
    "baseline",
    "unfiltered-replay",
    "combined-buffer-policy",
)


def run(
    configurations: Sequence[str] = CONFIGURATIONS,
    n_segments: int = 18,
    segments_per_broker: int = 3,
    publish_period: float = 1.0,
    dwell_time: float = 4.0,
    duration: float = 60.0,
    handover_gap: float = 1.0,
) -> Table:
    """Run the replicator design-choice ablation and return the result table."""
    table = Table(
        "E13: replicator design-choice ablation",
        columns=[
            "configuration",
            "delivery_rate",
            "replayed",
            "replay_discarded",
            "buffer_memory",
            "control_msgs",
        ],
        description="Same workload and movement as E4; only internal replicator choices vary.",
    )
    for configuration in configurations:
        row = _run_once(
            configuration,
            n_segments,
            segments_per_broker,
            publish_period,
            dwell_time,
            duration,
            handover_gap,
        )
        table.add_row(configuration=configuration, **row)
    return table


def _replicator_config(configuration: str) -> ReplicatorConfig:
    if configuration == "baseline":
        return ReplicatorConfig()
    if configuration == "unfiltered-replay":
        return ReplicatorConfig(filter_replay=False)
    if configuration == "combined-buffer-policy":
        return ReplicatorConfig(
            buffer_policy_factory=lambda: CombinedPolicy(
                [TimeBasedPolicy(ttl=20.0), CountBasedPolicy(max_entries=25)]
            )
        )
    raise ValueError(f"unknown configuration {configuration!r}")


def _run_once(
    configuration: str,
    n_segments: int,
    segments_per_broker: int,
    publish_period: float,
    dwell_time: float,
    duration: float,
    handover_gap: float,
) -> Dict[str, object]:
    config = MobilitySystemConfig(replicator=_replicator_config(configuration), predictor="nlb")
    scenario = build_route_scenario(
        n_segments=n_segments, segments_per_broker=segments_per_broker, config=config
    )
    publishers, recorder = restaurant_workload(
        scenario.system, period=publish_period, recorder=scenario.recorder, until=duration
    )
    template = location_dependent({"service": "restaurant-menu"})
    model = RoutePathMobility(scenario.space.locations, dwell_time=dwell_time, loop=True)
    subscriber = scenario.add_roaming_subscriber(
        "car", template, model, duration=duration, handover_gap=handover_gap
    )

    memory_samples: List[int] = []
    for sample_time in range(5, int(duration), 5):
        scenario.network.sim.schedule_at(
            float(sample_time), lambda: memory_samples.append(scenario.system.total_buffer_memory())
        )

    scenario.run(duration)
    publishers.stop()

    outcome = scenario.evaluate(subscriber)
    discarded = sum(r.stats.replay_discarded for r in scenario.system.replicators.values())
    return {
        "delivery_rate": round(outcome.delivery_rate, 4),
        "replayed": outcome.replayed,
        "replay_discarded": discarded,
        "buffer_memory": max(memory_samples) if memory_samples else 0,
        "control_msgs": scenario.system.control_message_count(),
    }
