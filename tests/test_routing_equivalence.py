"""Property-based equivalence of routing strategies.

The fundamental correctness property of content-based routing (Sect. 2): no
matter which routing optimisation is used, every subscriber receives exactly
the published notifications its filters match.  Flooding is the trivially
correct reference; the other strategies must agree with it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.pubsub.broker_network import random_tree_topology
from repro.pubsub.filters import Equals, Filter, InSet, Range
from repro.pubsub.routing import STRATEGIES

SERVICES = ["temperature", "stock", "news"]
LOCATIONS = ["r1", "r2", "r3", "r4"]


@st.composite
def subscription_specs(draw):
    """(broker_index, filter) pairs."""
    broker_index = draw(st.integers(0, 5))
    service = draw(st.sampled_from(SERVICES))
    constraints = [Equals("service", service)]
    if draw(st.booleans()):
        constraints.append(InSet("location", draw(st.sets(st.sampled_from(LOCATIONS), min_size=1, max_size=3))))
    if draw(st.booleans()):
        low = draw(st.integers(0, 20))
        constraints.append(Range("value", low, low + draw(st.integers(0, 20))))
    return broker_index, Filter(constraints)


@st.composite
def publication_specs(draw):
    """(broker_index, attributes) pairs."""
    broker_index = draw(st.integers(0, 5))
    attrs = {
        "service": draw(st.sampled_from(SERVICES)),
        "location": draw(st.sampled_from(LOCATIONS)),
        "value": draw(st.integers(0, 40)),
    }
    return broker_index, attrs


def _run(strategy, n_brokers, subs, pubs, seed):
    network = random_tree_topology(n_brokers, routing=strategy, seed=seed)
    sim = network.sim
    brokers = network.broker_names()
    subscribers = []
    for index, (broker_index, filter) in enumerate(subs):
        client = network.add_client(f"sub-{index}", brokers[broker_index % len(brokers)])
        client.subscribe(filter)
        subscribers.append((client, filter))
    sim.run_until_idle()
    publishers = {}
    for broker_index, _attrs in pubs:
        name = brokers[broker_index % len(brokers)]
        if name not in publishers:
            publishers[name] = network.add_client(f"pub-{name}", name)
    sim.run_until_idle()
    published = []
    for seq, (broker_index, attrs) in enumerate(pubs):
        name = brokers[broker_index % len(brokers)]
        published.append(publishers[name].publish({**attrs, "seq": seq}))
    sim.run_until_idle()
    deliveries = {
        client.name: sorted(d.notification["seq"] for d in client.deliveries)
        for client, _filter in subscribers
    }
    return deliveries, subscribers, published


@settings(max_examples=25, deadline=None)
@given(
    subs=st.lists(subscription_specs(), min_size=1, max_size=5),
    pubs=st.lists(publication_specs(), min_size=1, max_size=8),
    n_brokers=st.integers(2, 7),
    seed=st.integers(0, 10),
)
def test_all_strategies_deliver_exactly_the_matching_notifications(subs, pubs, n_brokers, seed):
    reference, subscribers, published = _run("flooding", n_brokers, subs, pubs, seed)

    # Flooding itself must deliver exactly the matching notifications.
    for client, filter in subscribers:
        expected = sorted(
            n["seq"] for n in published if filter.matches(n) and n.publisher != client.name
        )
        assert reference[client.name] == expected

    for strategy in sorted(STRATEGIES):
        if strategy == "flooding":
            continue
        result, _subscribers, _published = _run(strategy, n_brokers, subs, pubs, seed)
        assert result == reference, f"strategy {strategy} disagrees with flooding"
