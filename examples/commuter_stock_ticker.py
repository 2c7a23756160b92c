#!/usr/bin/env python3
"""Physical mobility: a stock ticker that follows a commuter (Fig. 1, left side).

The paper's first motivating example is location *transparency*: "stock quote
monitoring can be seamlessly transferred from PCs to PDAs".  The subscription
``service == "stock" AND symbol == "ACME"`` has nothing to do with location —
it must simply keep working while its owner commutes between the broker at
home and the broker at the office, disconnecting in between.

This example runs one simulated week of commuting (two handovers per day with
a coverage gap on the train) and compares:

* ``resubscribe`` — the PDA re-issues the subscription after every reconnect;
  the quotes published while it was on the train are gone;
* ``relocation``  — the physical-mobility support: the old border broker
  buffers the quotes for the disconnected client and forwards them after the
  reconnection, so the ticker shows an uninterrupted sequence.

It also feeds the observed handovers to a Markov movement predictor and shows
that after a couple of days it has learned the home<->office pattern —
exactly the kind of refined ``nlb`` the paper's research agenda asks for.

Run with::

    python examples/commuter_stock_ticker.py
"""

from __future__ import annotations

from repro.core import (
    MarkovPredictor,
    MobilitySystemConfig,
    ReplicatorConfig,
    evaluate_plain_delivery,
    from_location_space,
)
from repro.mobility import build_office_scenario, stock_workload
from repro.pubsub import Equals, Filter


DAY = 40.0  # simulated seconds per commuting day
TRAIN_RIDE = 3.0  # out-of-coverage gap between home and office


def commute_once(variant: str, days: int = 5) -> dict:
    duration = days * DAY
    if variant == "relocation":
        replicator = ReplicatorConfig(pre_subscription=False, physical_relocation=True, exception_mode=False)
    else:
        replicator = ReplicatorConfig(pre_subscription=False, physical_relocation=False, exception_mode=False)
    config = MobilitySystemConfig(replicator=replicator, predictor="none")

    # Two "rooms": home and office, covered by different border brokers.
    scenario = build_office_scenario(n_rooms=2, rooms_per_broker=1, config=config)
    home, office = scenario.space.locations
    ticker, recorder = stock_workload(scenario.system, period=0.5, recorder=scenario.recorder, until=duration)

    pda = scenario.system.add_mobile_client("pda")
    stock_filter = Filter([Equals("service", "stock"), Equals("symbol", "ACME")])
    pda.subscribe(stock_filter)
    scenario.system.attach(pda, location=home)

    # Morning and evening commute, every day.
    predictor = MarkovPredictor(from_location_space(scenario.space))
    for day in range(days):
        morning = day * DAY + DAY * 0.25
        evening = day * DAY + DAY * 0.75
        scenario.network.sim.schedule_at(morning, _commute, scenario, pda, office, predictor)
        scenario.network.sim.schedule_at(evening, _commute, scenario, pda, home, predictor)

    scenario.run(duration)
    ticker.stop()

    outcome = evaluate_plain_delivery(pda.received_ids(), recorder.published, stock_filter)
    home_broker = scenario.space.broker_of(home)
    learned = predictor.predict(home_broker)
    return {
        "variant": variant,
        "quotes published": outcome.relevant,
        "quotes delivered": outcome.delivered_relevant,
        "quotes missed": outcome.missed,
        "duplicates": pda.duplicate_deliveries(),
        "handovers": max(0, len(pda.attachments) - 1),
        "markov prediction from home": sorted(learned),
    }


def _commute(scenario, pda, destination, predictor) -> None:
    previous = pda.current_broker
    scenario.system.move(pda, destination, gap=TRAIN_RIDE)
    new_broker = scenario.space.broker_of(destination)
    if previous is not None and previous != new_broker:
        predictor.observe_handover(previous, new_broker)


def main() -> None:
    print("One simulated work week of commuting with an ACME stock ticker...\n")
    for variant in ("resubscribe", "relocation"):
        result = commute_once(variant)
        print(f"--- {variant} ---")
        for key, value in result.items():
            if key != "variant":
                print(f"  {key:28s} {value}")
        print()
    print(
        "With relocation the old border broker buffers the quotes published during\n"
        "the train ride and forwards them on reconnection: the ticker never has a gap.\n"
        "The Markov predictor has also learned where the commuter goes next, so the\n"
        "extended-logical-mobility layer could place its shadows only there instead of\n"
        "on the full movement-graph neighbourhood."
    )


if __name__ == "__main__":
    main()
