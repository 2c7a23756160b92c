"""The work of one unsubscription must not grow with the routing table.

Counts, not clocks: the number of ``needs_forwarding`` evaluations and
``covers`` probes one ``handle_unsubscribe`` triggers is measured at 400 and
at 2 000 live subscriptions *at constant covering density* — the number of
topics grows with the number of subscriptions, so the (subscription, link)
pairs one unsubscription can affect stay the same.  Before the witness
record, every suppressed pair on the link was re-probed against its whole
attribute bucket on every unsubscription: five times the subscriptions meant
five times the pairs, each scanning a bucket five times as large.
"""

from __future__ import annotations

import random

import pytest

from repro.pubsub.filters import Equals, Filter, Range
from repro.pubsub.routing import make_strategy
from repro.pubsub.subscription import Subscription
from repro.pubsub.testing import RecordingBroker

PER_TOPIC = 50  # subscriptions per topic: the covering density held constant
CHURN = 200  # unsubscriptions measured, each followed by a fresh admission


def band_filter(rng: random.Random, topics: int) -> Filter:
    """``topic == t AND value in [low, low + width]``: wide bands cover narrow ones."""
    low = 10 * rng.randrange(10)
    width = rng.choice([5, 10, 30, 100])
    return Filter([Equals("topic", f"t{rng.randrange(topics)}"), Range("value", low, low + width)])


def churn_work(strategy_name: str, live: int, seed: int = 7):
    """Mean ``(needs_forwarding calls, covers probes, table walks)`` per unsubscription."""
    rng = random.Random(seed)
    topics = live // PER_TOPIC
    broker = RecordingBroker(["N1", "N2"])
    strategy = make_strategy(strategy_name, broker)
    population = []

    def admit(serial: int) -> None:
        filter, link = band_filter(rng, topics), rng.choice(["c1", "c2"])
        strategy.handle_subscribe(Subscription(f"s{serial:05d}", filter, link), link)
        population.append((f"s{serial:05d}", filter, link))

    def retire() -> None:
        strategy.handle_unsubscribe(*population.pop(rng.randrange(len(population))))

    for serial in range(live):
        admit(serial)
    for serial in range(live, live + 20):  # every link has been re-advertised over once
        retire()
        admit(serial)

    calls = {"needs_forwarding": 0, "covers": 0, "walks": 0}
    unsubscribing = False

    def counted(name, function):
        def wrapper(*args):
            calls[name] += unsubscribing
            return function(*args)

        return wrapper

    table = broker.routing_table
    strategy.needs_forwarding = counted("needs_forwarding", strategy.needs_forwarding)
    table.subscription_ids = counted("walks", table.subscription_ids)
    covers = Filter.covers
    Filter.covers = counted("covers", covers)  # every probe, whoever makes it
    try:
        for serial in range(live + 20, live + 20 + CHURN):
            unsubscribing = True
            retire()
            unsubscribing = False
            admit(serial)
    finally:
        Filter.covers = covers
    return {name: count / CHURN for name, count in calls.items()}


@pytest.mark.parametrize("strategy", ["identity", "covering", "merging"])
def test_unsubscribe_work_is_independent_of_table_size(strategy):
    small = churn_work(strategy, 400)
    large = churn_work(strategy, 2000)
    assert large["walks"] == small["walks"] == 0
    for name in ("needs_forwarding", "covers"):
        assert large[name] <= 2 * small[name] + 0.5, (name, small, large)
    if strategy == "covering":
        # the test has teeth only if unsubscriptions do uncover something
        assert small["needs_forwarding"] > 0.2 and small["covers"] > 0.2


def test_simple_routing_unsubscribe_touches_nothing():
    """Nothing is ever suppressed under simple routing: no forwarding
    decision is re-evaluated and the table is not walked."""
    for live in (400, 2000):
        work = churn_work("simple", live)
        assert work == {"needs_forwarding": 0, "covers": 0, "walks": 0}


def test_first_readvertisement_over_a_link_examines_the_table_once():
    """What the steady state relies on: a link nothing is known about yet is
    seeded by one table walk, after which it is tracked."""
    broker = RecordingBroker(["N1", "N2"])
    strategy = make_strategy("covering", broker)
    rng = random.Random(3)
    subs = [(f"s{i:03d}", band_filter(rng, 4), "c1") for i in range(60)]
    for sub_id, filter, link in subs:
        strategy.handle_subscribe(Subscription(sub_id, filter, link), link)
    assert strategy._pending == {}
    forwarded = next(s for s in subs if strategy._forwarded.get(s[0]))
    strategy.handle_unsubscribe(*forwarded)
    assert set(strategy._pending) == {"N1", "N2"}
