"""Scan vs incremental subscription-control equivalence.

The incremental forwarded-filter index (``advertising="incremental"``) is a
maintained view of exactly the state the scan baseline recomputes per query,
so both modes must make identical forwarding decisions — byte-identical
control messages up to the generated ids of merged subscriptions.  These
tests drive randomized subscribe/unsubscribe/detach churn through both modes
side by side, at the strategy level (against a fake broker, comparing the
emitted control-message log) and end to end (comparing deliveries, table
contents and broker-link message counts).
"""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.net.simulator import Simulator
from repro.pubsub.broker_network import line_topology, random_tree_topology
from repro.pubsub.filters import (
    Equals,
    Filter,
    InSet,
    Prefix,
    Range,
    match_all,
)
from repro.pubsub.notification import Notification
from repro.pubsub.routing import ADVERTISING_NAMES, STRATEGIES, make_strategy
from repro.pubsub.subscription import Subscription
from repro.pubsub.testing import RecordingBroker as FakeBroker
from repro.pubsub.testing import normalize_merged_ids as normalized

SERVICES = ["temperature", "stock", "news", "traffic"]
LOCATIONS = ["r1", "r2", "r3", "r4"]

#: strategies whose forwarding decisions depend on the forwarded-filter set
INDEXED_STRATEGIES = ("identity", "covering", "merging")


def random_filter(rng: random.Random) -> Filter:
    """Overlap-heavy filters: equality, ranges, prefixes, the empty filter."""
    roll = rng.random()
    if roll < 0.05:
        return match_all()
    constraints = []
    if roll < 0.45:
        constraints.append(Equals("service", rng.choice(SERVICES)))
    elif roll < 0.60:
        constraints.append(InSet("location", rng.sample(LOCATIONS, rng.randint(1, 3))))
    elif roll < 0.75:
        low = rng.randint(0, 30)
        constraints.append(Range("value", low, low + rng.choice([5, 10, 20])))
    else:
        constraints.append(Prefix("service", rng.choice(["t", "s", "ne"])))
    if rng.random() < 0.5:
        low = rng.randint(0, 30)
        constraints.append(Range("value", low, low + rng.choice([10, 25])))
    return Filter(constraints)


def drive(strategy_name: str, advertising: str, seed: int, steps: int = 160):
    """Run a random subscribe/unsubscribe workload; return (log, forwarded state)."""
    rng = random.Random(seed)
    broker = FakeBroker(["N1", "N2", "N3"])
    strategy = make_strategy(strategy_name, broker, advertising=advertising)
    links = ["c1", "c2", "N1", "N2"]  # subscriptions arrive from clients and brokers
    live = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.62 or not live:
            sub_id = f"s{step}"
            filter = random_filter(rng)
            from_link = rng.choice(links)
            strategy.handle_subscribe(
                Subscription(sub_id=sub_id, filter=filter, subscriber=from_link),
                from_link,
            )
            live.append((sub_id, filter, from_link))
        elif roll < 0.70:
            # re-subscribe a live subscription from another link: an
            # already-forwarded sub_id gains a second routing-table entry
            sub_id, filter, from_link = rng.choice(live)
            other_link = rng.choice([l for l in links if l != from_link])
            strategy.handle_subscribe(
                Subscription(sub_id=sub_id, filter=filter, subscriber=other_link),
                other_link,
            )
        else:
            index = rng.randrange(len(live))
            sub_id, filter, from_link = live.pop(index)
            strategy.handle_unsubscribe(sub_id, filter, from_link)
    forwarded = {
        sub_id: sorted(links) for sub_id, links in strategy._forwarded.items() if links
    }
    return broker.log, forwarded


class TestStrategyLevelEquivalence:
    @pytest.mark.parametrize("strategy", INDEXED_STRATEGIES)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_control_messages_under_churn(self, strategy, seed):
        scan_log, scan_fwd = drive(strategy, "scan", seed)
        inc_log, inc_fwd = drive(strategy, "incremental", seed)
        assert normalized(scan_log) == normalized(inc_log)
        assert {k: v for k, v in scan_fwd.items() if not k.startswith("merged-")} == {
            k: v for k, v in inc_fwd.items() if not k.startswith("merged-")
        }

    @pytest.mark.parametrize("strategy", INDEXED_STRATEGIES)
    def test_set_advertising_rebuilds_index_mid_flight(self, strategy):
        rng = random.Random(42)
        broker = FakeBroker(["N1", "N2"])
        strategy_obj = make_strategy(strategy, broker, advertising="scan")
        live = []
        for step in range(40):
            sub_id = f"s{step}"
            filter = random_filter(rng)
            strategy_obj.handle_subscribe(
                Subscription(sub_id=sub_id, filter=filter, subscriber="c1"), "c1"
            )
            live.append((sub_id, filter))
        strategy_obj.set_advertising("incremental")
        assert strategy_obj.advertising == "incremental"
        # decisions after the switch must match a pure-scan twin
        twin_broker = FakeBroker(["N1", "N2"])
        twin = make_strategy(strategy, twin_broker, advertising="scan")
        for sub_id, filter in live:
            twin.handle_subscribe(
                Subscription(sub_id=sub_id, filter=filter, subscriber="c1"), "c1"
            )
        probe_rng = random.Random(7)
        for i in range(60):
            f = random_filter(probe_rng)
            for link in ("N1", "N2"):
                assert strategy_obj.needs_forwarding(f, link) == twin.needs_forwarding(f, link)
        # switching back drops the index and keeps agreeing
        strategy_obj.set_advertising("scan")
        for i in range(20):
            f = random_filter(probe_rng)
            assert strategy_obj.needs_forwarding(f, "N1") == twin.needs_forwarding(f, "N1")

    def test_unknown_advertising_rejected(self):
        broker = FakeBroker(["N1"])
        with pytest.raises(ValueError):
            make_strategy("covering", broker, advertising="magic")
        strategy = make_strategy("covering", broker)
        with pytest.raises(ValueError):
            strategy.set_advertising("magic")

    def test_reforward_dedupes_multi_link_subscriptions(self):
        """A subscription with entries on several links re-forwards once per link."""
        broker = FakeBroker(["N1", "N2"])
        strategy = make_strategy("covering", broker, advertising="incremental")
        broad = Filter([Equals("service", "t")])
        narrow = Filter([Equals("service", "t"), Equals("location", "r1")])
        strategy.handle_subscribe(Subscription("cover", broad, "c1"), "c1")
        # the same narrow subscription arrives over two client links: its
        # forwarding is suppressed by the broad cover on both broker links
        strategy.handle_subscribe(Subscription("multi", narrow, "c1"), "c1")
        strategy.handle_subscribe(Subscription("multi", narrow, "c2"), "c2")
        broker.log.clear()
        strategy.handle_unsubscribe("cover", broad, "c1")
        shadow_forwards = [
            entry for entry in broker.log if entry[0] == "subscribe" and entry[2] == "multi"
        ]
        assert sorted(e[1] for e in shadow_forwards) == ["N1", "N2"]
        assert len(shadow_forwards) == len(set(shadow_forwards))

    @pytest.mark.parametrize("advertising", ADVERTISING_NAMES)
    def test_reforward_tries_every_entry_filter(self, advertising):
        """A multi-link subscription whose entries carry *different* filters:
        if the first entry's filter is still covered but the second's is not,
        the second must be re-advertised (regression: the dedupe pass used to
        keep only the first entry)."""
        broker = FakeBroker(["N1"])
        strategy = make_strategy("covering", broker, advertising=advertising)
        f1 = Filter([Equals("service", "t")])
        f2 = Filter([Equals("service", "s")])
        everything = match_all()
        # 'mid' advertises f1; 'broad' advertises match-all (covers f1, f2)
        strategy.handle_subscribe(Subscription("mid", f1, "c1"), "c1")
        strategy.handle_subscribe(Subscription("broad", everything, "c2"), "c2")
        # 'multi' has entry f1 on c1 and entry f2 on c3 — both suppressed
        strategy.handle_subscribe(Subscription("multi", f1, "c1"), "c1")
        strategy.handle_subscribe(Subscription("multi", f2, "c3"), "c3")
        broker.log.clear()
        strategy.handle_unsubscribe("broad", everything, "c2")
        # f1 stays covered by 'mid'; f2 is uncovered and must come back
        multi_forwards = [
            entry for entry in broker.log if entry[0] == "subscribe" and entry[2] == "multi"
        ]
        assert [entry[3] for entry in multi_forwards] == [f2.key()]

    def test_nan_equality_filter_is_not_self_covering(self):
        """covers() is not reflexive for NaN-valued equality constraints
        (nan != nan), so a second identical NaN subscription must still be
        forwarded in both modes (regression: the incremental exact-key
        shortcut used to suppress it)."""
        nan = float("nan")
        logs = {}
        for advertising in ADVERTISING_NAMES:
            broker = FakeBroker(["N1"])
            strategy = make_strategy("covering", broker, advertising=advertising)
            strategy.handle_subscribe(Subscription("a", Filter([Equals("x", nan)]), "c1"), "c1")
            strategy.handle_subscribe(Subscription("b", Filter([Equals("x", nan)]), "c1"), "c1")
            logs[advertising] = broker.log
        assert logs["scan"] == logs["incremental"]
        assert [entry[2] for entry in logs["scan"]] == ["a", "b"]

    def test_scan_merging_refolds_after_resubscription(self):
        """Scan-mode merging must re-fold when an already-forwarded sub_id
        gains a table entry from a second link (regression: the dirty flag
        was only set in incremental mode, silencing the merge)."""
        logs = {}
        for advertising in ADVERTISING_NAMES:
            broker = FakeBroker(["N1"])
            strategy = make_strategy("merging", broker, advertising=advertising)
            for i in range(strategy.merge_threshold):
                strategy.handle_subscribe(
                    Subscription(f"s{i}", Filter([Equals("value", i)]), "c1"), "c1"
                )
            # the threshold-crossing advert comes from a second link of s0
            strategy.handle_subscribe(
                Subscription("s0", Filter([Equals("value", 0)]), "c2"), "c2"
            )
            logs[advertising] = normalized(broker.log)
        assert logs["scan"] == logs["incremental"]
        assert any(sub_id.startswith("merged#") for _k, _l, sub_id, _f in logs["scan"])


def run_network(strategy: str, advertising: str, seed: int):
    """End-to-end churn: subscribe, unsubscribe, detach, publish."""
    rng = random.Random(seed)
    sim = Simulator()
    network = random_tree_topology(
        sim, 6, routing=strategy, seed=seed, config=SystemConfig(advertising=advertising)
    )
    brokers = network.broker_names()
    clients = []
    subs = []
    for i in range(14):
        client = network.add_client(f"sub-{i}", brokers[i % len(brokers)])
        # explicit ids keep the two runs comparable (the default ids come
        # from a process-global counter)
        subs.append(client.subscribe(random_filter(rng), sub_id=f"s{i}"))
        clients.append(client)
    sim.run_until_idle()
    # churn: some unsubscribe, one client detaches entirely
    for client, sub in zip(clients[10:12], subs[10:12]):
        client.unsubscribe(sub)
    sim.run_until_idle()
    clients[12].disconnect(notify_broker=True)
    sim.run_until_idle()
    publisher = network.add_client("pub", brokers[0])
    for i in range(60):
        attrs = {
            "service": rng.choice(SERVICES),
            "location": rng.choice(LOCATIONS),
            "value": rng.randint(0, 50),
        }
        publisher.publish(Notification(attrs, notification_id=5000 + i))
    sim.run_until_idle()
    deliveries = {
        c.name: sorted(d.notification.notification_id for d in c.deliveries)
        for c in clients[:10]
    }
    tables = {
        name: {
            (e.sub_id, e.link, e.filter.key())
            for e in (
                entry
                for link in broker.routing_table.links()
                for entry in broker.routing_table.entries_for_link(link)
            )
            if not e.sub_id.startswith("merged-")
        }
        for name, broker in network.brokers.items()
    }
    control = network.broker_link_messages("subscribe") + network.broker_link_messages(
        "unsubscribe"
    )
    return deliveries, tables, control


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("strategy", INDEXED_STRATEGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_deliveries_tables_and_traffic(self, strategy, seed):
        scan = run_network(strategy, "scan", seed)
        incremental = run_network(strategy, "incremental", seed)
        assert scan[0] == incremental[0]  # deliveries
        assert scan[1] == incremental[1]  # routing-table contents
        assert scan[2] == incremental[2]  # control traffic volume


class TestKnobThreading:
    def test_broker_exposes_advertising(self):
        sim = Simulator()
        net = line_topology(sim, 2, routing="covering", config=SystemConfig(advertising="scan"))
        assert all(b.advertising == "scan" for b in net.brokers.values())
        net.brokers["B1"].set_advertising("incremental")
        assert net.brokers["B1"].advertising == "incremental"

    def test_advertising_names_registry(self):
        assert ADVERTISING_NAMES == ("scan", "incremental")
        assert set(INDEXED_STRATEGIES) < set(STRATEGIES)

    def test_middleware_config_none_keeps_network_choice(self):
        from repro.core.location import LocationSpace
        from repro.core.middleware import MobilePubSub, MobilitySystemConfig

        sim = Simulator()
        net = line_topology(sim, 2, routing="covering", config=SystemConfig(advertising="scan"))
        space = LocationSpace({"r1": "B1", "r2": "B2"})
        MobilePubSub(sim, net, space, config=MobilitySystemConfig())
        assert all(b.advertising == "scan" for b in net.brokers.values())


# ------------------------------------------------- witnesses and pin groups

#: two distinct NaN objects, shared by the runs being compared (a filter key
#: holding a NaN equals only a key holding the same object)
NANS = [float("nan"), float("nan")]


def rich_filter(rng: random.Random) -> Filter:
    """Filters that stress the pin partition and the witness memo: the paper's
    ``service == x AND location in {…}`` shape, singleton and empty sets,
    equal-but-differently-typed pins, unhashable values, NaN."""
    roll = rng.random()
    if roll < 0.04:
        return match_all()
    constraints = []
    if roll < 0.40:
        service = rng.choice(SERVICES)
        pin = Equals("service", service) if rng.random() < 0.7 else InSet("service", [service])
        constraints.append(pin)
        if rng.random() < 0.6:
            constraints.append(InSet("location", rng.sample(LOCATIONS, rng.randint(0, 3))))
    elif roll < 0.60:
        constraints.append(Equals("level", rng.choice([1, 1.0, True, 2, 2.0, "1"])))
    elif roll < 0.72:
        constraints.append(
            Equals("tags", rng.choice([["a", "b"], {1}, frozenset({1}), ("a", "b"), {"k": 1}]))
        )
    elif roll < 0.82:
        constraints.append(Equals("x", rng.choice(NANS + [0.5])))
    else:
        constraints.append(Prefix("service", rng.choice(["t", "s", "ne"])))
    if rng.random() < 0.5:
        low = rng.randint(0, 30)
        constraints.append(Range("value", low, low + rng.choice([10, 25])))
    return Filter(constraints)


def drive_transitions(strategy_name: str, flips: bool, seed: int, steps: int = 220):
    """Churn plus every transition that can strand a witness or a pin group.

    ``flips=False`` is the oracle — scan mode throughout.  ``flips=True``
    starts incremental and flips the mode whenever the schedule says so; the
    schedule itself is drawn identically in both runs.
    """
    rng = random.Random(seed)
    broker = FakeBroker(["N1", "N2", "N3"])
    strategy = make_strategy(
        strategy_name, broker, advertising="incremental" if flips else "scan"
    )
    table = broker.routing_table
    links = ["c1", "c2", "c3", "N1", "N2"]
    live = {}  # sub_id -> {link: filter}

    def subscribe(sub_id, filter, link):
        strategy.handle_subscribe(Subscription(sub_id, filter, link), link)
        live.setdefault(sub_id, {})[link] = filter

    for step in range(steps):
        roll = rng.random()
        if roll < 0.50 or not live:
            subscribe(f"s{step:03d}", rich_filter(rng), rng.choice(links))
        elif roll < 0.58:
            # relocation overlap: a live sub_id becomes known on a second link
            sub_id = rng.choice(sorted(live))
            filter = rng.choice(list(live[sub_id].values()))
            if rng.random() < 0.3:
                filter = rich_filter(rng)  # ... possibly re-bound on the way
            subscribe(sub_id, filter, rng.choice(links))
        elif roll < 0.80:
            sub_id = rng.choice(sorted(live))
            link = rng.choice(sorted(live[sub_id]))
            strategy.handle_unsubscribe(sub_id, live[sub_id].pop(link), link)
            if not live[sub_id]:
                del live[sub_id]
        elif roll < 0.84:
            # stale: this (sub_id, link) has no table entry
            sub_id = rng.choice(sorted(live))
            link = rng.choice([l for l in links + ["N3"] if l not in live[sub_id]])
            strategy.handle_unsubscribe(sub_id, rng.choice(list(live[sub_id].values())), link)
        elif roll < 0.88:
            link = rng.choice(["c1", "c2", "c3"])  # the client link detaches
            strategy.on_entries_removed(table.remove_link(link))
            for sub_id in [s for s in live if live[s].pop(link, None) and not live[s]]:
                del live[sub_id]
        elif roll < 0.91:
            strategy.resync_link(rng.choice(["N1", "N2", "N3", "N4"]))
        elif roll < 0.94:
            # a neighbour appears after subscriptions exist, or one drops out
            # (staying known to the strategy) and later returns, unresynced
            name = rng.choice(["N3", "N4"])
            if name in broker._neighbors:
                broker._neighbors.remove(name)
            else:
                broker._neighbors.append(name)
        elif flips:
            other = {"scan": "incremental", "incremental": "scan"}[strategy.advertising]
            strategy.set_advertising(other)
    forwarded = {
        sub_id: sorted(links)
        for sub_id, links in strategy._forwarded.items()
        if links and not sub_id.startswith("merged-")
    }
    return normalized(broker.log), forwarded, strategy


class TestWitnessAndPinStructures:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_logs_across_every_transition(self, strategy, seed):
        oracle_log, oracle_fwd, _ = drive_transitions(strategy, False, seed)
        log, fwd, _ = drive_transitions(strategy, True, seed)
        assert log == oracle_log
        assert fwd == oracle_fwd

    @pytest.mark.parametrize("strategy", INDEXED_STRATEGIES)
    def test_waiting_record_is_consistent_and_bounded(self, strategy):
        """Whoever waits, waits behind a live witness; and once everything is
        unsubscribed nothing is left waiting, memoised or due."""
        for seed in range(4):
            _log, _fwd, strategy_obj = drive_transitions(strategy, False, seed)
            strategy_obj.set_advertising("incremental")
            rng = random.Random(seed)
            for step in range(60):
                fresh = Subscription(f"x{step}", rich_filter(rng), "c1")
                strategy_obj.handle_subscribe(fresh, "c1")
                table = strategy_obj.broker.routing_table
                victim = rng.choice(sorted(table.subscription_ids()))
                if step % 3 == 0:
                    for entry in table.entries_for_sub(victim):
                        strategy_obj.handle_unsubscribe(victim, entry.filter, entry.link)
                elif step % 3 == 1:
                    link = table.entries_for_sub(victim)[0].link  # re-bound in place
                    rebound = Subscription(victim, rich_filter(rng), link)
                    strategy_obj.handle_subscribe(rebound, link)
                known = strategy_obj.broker.routing_table.subscription_ids()
                for state in strategy_obj._index._links.values():
                    assert set(state.waiting) <= set(state.witness)
                    assert set().union(*state.waiting.values()) <= known
                    for key, witness in state.witness.items():
                        assert witness in state.key_count
                        assert key in state.witnessed[witness]
            table = strategy_obj.broker.routing_table
            for sub_id in sorted(table.subscription_ids()):
                for entry in table.entries_for_sub(sub_id):
                    strategy_obj.handle_unsubscribe(sub_id, entry.filter, entry.link)
            assert not strategy_obj._index._links
            assert not any(strategy_obj._pending.values())

    @pytest.mark.parametrize("advertising", ADVERTISING_NAMES)
    def test_witness_retracted_then_readvertised(self, advertising):
        """The covered pair comes back when its witness leaves, is suppressed
        again by the next witness, and comes back again when that one leaves."""
        broker = FakeBroker(["N1"])
        strategy = make_strategy("covering", broker, advertising=advertising)
        broad = Filter([Equals("service", "t")])
        narrow = Filter([Equals("service", "t"), Range("value", 0, 5)])
        strategy.handle_subscribe(Subscription("w1", broad, "c1"), "c1")
        strategy.handle_subscribe(Subscription("n", narrow, "c2"), "c2")
        strategy.handle_unsubscribe("w1", broad, "c1")
        strategy.handle_unsubscribe("n", narrow, "c2")
        strategy.handle_subscribe(Subscription("w2", broad, "c1"), "c1")
        strategy.handle_subscribe(Subscription("n", narrow, "c2"), "c2")
        strategy.handle_unsubscribe("w2", broad, "c1")
        assert [(kind, sub_id) for kind, _link, sub_id, _key in broker.log] == [
            ("subscribe", "w1"),
            ("unsubscribe", "w1"),
            ("subscribe", "n"),
            ("unsubscribe", "n"),
            ("subscribe", "w2"),
            ("unsubscribe", "w2"),
            ("subscribe", "n"),
        ]

    def test_flip_does_not_inherit_a_stale_memo(self):
        """A witness that leaves while the strategy runs in scan mode must not
        survive, as a memo entry, into the rebuilt incremental index."""
        broker = FakeBroker(["N1"])
        strategy = make_strategy("covering", broker, advertising="incremental")
        broad = Filter([Equals("service", "t")])
        narrow = Filter([Equals("service", "t"), Range("value", 0, 5)])
        strategy.handle_subscribe(Subscription("w", broad, "c1"), "c1")
        strategy.handle_subscribe(Subscription("n", narrow, "c2"), "c2")  # memoised: covered
        strategy.set_advertising("scan")
        strategy.handle_unsubscribe("w", broad, "c1")  # re-advertises n
        strategy.handle_unsubscribe("n", narrow, "c2")
        strategy.set_advertising("incremental")
        assert strategy.needs_forwarding(narrow, "N1")
        broker.log.clear()
        strategy.handle_subscribe(Subscription("n2", narrow, "c2"), "c2")
        assert [entry[:3] for entry in broker.log] == [("subscribe", "N1", "n2")]

    @pytest.mark.parametrize("advertising", ADVERTISING_NAMES)
    def test_strategy_without_an_index_is_re_examined_every_time(self, advertising):
        """``needs_forwarding`` is the extension point: a strategy that
        suppresses by a rule of its own names no witness, so its suppressed
        pairs stay due and are re-examined at every re-advertisement."""
        from repro.pubsub.routing import SimpleRouting

        class QuotaRouting(SimpleRouting):
            quota = 1

            def needs_forwarding(self, filter, link):
                return sum(link in links for links in self._forwarded.values()) < self.quota

        broker = FakeBroker(["N1"])
        strategy = QuotaRouting(broker, advertising=advertising)
        filter = Filter([Equals("service", "t")])
        for sub_id in ("a", "b", "c"):
            strategy.handle_subscribe(Subscription(sub_id, filter, "c1"), "c1")
        strategy.handle_unsubscribe("a", filter, "c1")  # b takes the slot, c stays out
        strategy.handle_unsubscribe("b", filter, "c1")  # ... and c must not be forgotten
        assert [(kind, sub_id) for kind, _link, sub_id, _key in broker.log] == [
            ("subscribe", "a"),
            ("unsubscribe", "a"),
            ("subscribe", "b"),
            ("unsubscribe", "b"),
            ("subscribe", "c"),
        ]

    def test_equal_pins_of_different_type_share_a_group(self):
        """``1``, ``1.0`` and ``True`` are one pin: Python's hash/eq contract
        puts them in one dict slot, and ``Equals.covers`` compares with ``==``."""
        from repro.pubsub.routing import _ForwardedFilterIndex

        for advertised, probe in [(1, 1.0), (1.0, True), (True, 1)]:
            index = _ForwardedFilterIndex()
            index.set_contribution("a", "L", [Filter([Equals("level", advertised)])])
            (groups,) = index._links["L"].by_attrs.values()
            assert list(groups) == [("level", 1)]
            narrow = Filter([Equals("level", probe), Range("value", 0, 5)])
            assert Filter([Equals("level", advertised)]).covers(narrow)
            assert index.covered("L", narrow)
            assert index.covered("L", Filter([InSet("level", [probe])]))
            assert not index.covered("L", Filter([Equals("level", 2)]))

    def test_unhashable_and_nan_pins(self):
        from repro.pubsub.routing import _ForwardedFilterIndex

        index = _ForwardedFilterIndex()
        nan = NANS[0]
        index.set_contribution("u", "L", [Filter([Equals("tags", ["a"])])])  # general group
        index.set_contribution("f", "L", [Filter([Equals("tags", frozenset({1}))])])
        index.set_contribution("n", "L", [Filter([Equals("x", nan)])])
        state = index._links["L"]
        assert set(state.by_attrs[frozenset({"tags"})]) == {None, ("tags", frozenset({1}))}
        assert index.covered("L", Filter([Equals("tags", ["a"]), Range("value", 0, 1)]))
        # an unhashable pin equal to a hashable one: every group is probed
        assert index.covered("L", Filter([Equals("tags", {1})]))
        # NaN never covers, not even itself — found by identity in its group or not
        assert not index.covered("L", Filter([Equals("x", nan)]))
        assert not index.covered("L", Filter([Equals("x", NANS[1]), Range("value", 0, 1)]))
        # the empty set is covered by every set on the attribute, whatever its pin
        index.set_contribution("s", "L", [Filter([InSet("location", ["r1"])])])
        assert index.covered("L", Filter([InSet("location", [])]))

    def test_probe_visits_only_the_named_groups(self):
        """One pinned topic out of many: a probe evaluates covers() against
        that topic's group and the general group, not the whole bucket."""
        from repro.pubsub.routing import _ForwardedFilterIndex

        index = _ForwardedFilterIndex()
        for topic in range(40):
            for band in range(5):
                filter = Filter([Equals("topic", topic), Range("value", 10 * band, 10 * band + 5)])
                index.set_contribution(f"s{topic}-{band}", "L", [filter])
        unpinned = Filter([Range("topic", 0, 1), Range("value", 0, 1)])
        index.set_contribution("general", "L", [unpinned])
        probes = []
        original = index.covers_cached
        index.covers_cached = lambda g, f: probes.append(g) or original(g, f)
        assert not index.covered("L", Filter([Equals("topic", 7), Range("value", 100, 101)]))
        assert len(probes) == 6


class TestStaleUnsubscribe:
    """A duplicate or late unsubscription — no table entry for its
    (sub_id, link) — used to retract the surviving entry's advertisements
    from the whole neighbourhood and put them straight back."""

    @pytest.mark.parametrize("advertising", ADVERTISING_NAMES)
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_stale_unsubscribe_changes_nothing(self, strategy, advertising):
        broker = FakeBroker(["N1", "N2", "N3"])
        strategy_obj = make_strategy(strategy, broker, advertising=advertising)
        filter = Filter([Equals("service", "t")])
        strategy_obj.handle_subscribe(Subscription("s1", filter, "c1"), "c1")
        forwarded_before = {k: set(v) for k, v in strategy_obj._forwarded.items()}
        adverts_before = strategy_obj.advertised_multisets()
        broker.log.clear()
        strategy_obj.handle_unsubscribe("s1", filter, "N2")  # never known on N2
        strategy_obj.handle_unsubscribe("ghost", filter, "c1")  # never known at all
        assert broker.log == []
        assert {k: set(v) for k, v in strategy_obj._forwarded.items()} == forwarded_before
        assert strategy_obj.advertised_multisets() == adverts_before
        assert broker.routing_table.has_subscription("s1", "c1")
        # the genuine unsubscription still goes through, and a repeat of it is stale
        strategy_obj.handle_unsubscribe("s1", filter, "c1")
        expected = [] if strategy == "flooding" else ["N1", "N2", "N3"]
        assert [entry[:3] for entry in broker.log] == [("unsubscribe", l, "s1") for l in expected]
        strategy_obj.handle_unsubscribe("s1", filter, "c1")
        assert len(broker.log) == len(expected)

    @pytest.mark.parametrize("advertising", ADVERTISING_NAMES)
    @pytest.mark.parametrize("strategy", ["simple", "covering"])
    def test_relocation_overlap_sequence_is_pinned(self, strategy, advertising):
        """The same sub_id known on two links, then withdrawn from the first:
        an entry *was* removed, so today's retract-then-restore sequence stays
        (golden traces may contain it; see ROADMAP follow-ups)."""
        broker = FakeBroker(["N1", "N2", "N3"])
        strategy_obj = make_strategy(strategy, broker, advertising=advertising)
        filter = Filter([Equals("service", "t")])
        strategy_obj.handle_subscribe(Subscription("s1", filter, "c1"), "c1")
        strategy_obj.handle_subscribe(Subscription("s1", filter, "N2"), "N2")
        broker.log.clear()
        strategy_obj.handle_unsubscribe("s1", filter, "c1")
        assert [entry[:3] for entry in broker.log] == [
            ("unsubscribe", "N1", "s1"),
            ("unsubscribe", "N2", "s1"),
            ("unsubscribe", "N3", "s1"),
            ("subscribe", "N1", "s1"),
            ("subscribe", "N3", "s1"),
        ]
