"""Smoke tests for the experiment harness and the E1..E12 experiments.

Each experiment is run with reduced parameters and its *qualitative* shape is
asserted — the same shape EXPERIMENTS.md documents as the reproduction
criterion (who wins, in which direction the curves move).
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    e01_routing,
    e02_physical,
    e03_logical,
    e04_replicator,
    e05_handover,
    e06_nlb_sweep,
    e07_buffering,
    e08_shared_buffer,
    e09_exception,
    e10_scalability,
    e11_context,
    e12_routing_ablation,
)
from repro.experiments.harness import Table


class TestHarness:
    def test_add_row_and_lookup(self):
        table = Table("t", ["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3, b=4)
        assert table.column("a") == [1, 3]
        assert table.value("b", a=3) == 4
        assert len(table) == 2

    def test_add_row_rejects_unknown_columns(self):
        table = Table("t", ["a"])
        with pytest.raises(KeyError):
            table.add_row(a=1, nope=2)

    def test_value_requires_unique_match(self):
        table = Table("t", ["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=1, b=3)
        with pytest.raises(LookupError):
            table.value("b", a=1)

    def test_formatting_outputs(self):
        table = Table("title", ["a", "b"], description="desc")
        table.add_row(a=1, b=None)
        text = table.formatted()
        assert "title" in text and "desc" in text and "-" in text
        markdown = table.to_markdown()
        assert markdown.startswith("### title")

    def test_registry_complete(self):
        assert len(EXPERIMENTS) == 13
        assert all(callable(run) for _title, run in EXPERIMENTS.values())


class TestE01Routing:
    def test_simple_routing_saves_traffic_and_delivers_the_same(self):
        table = e01_routing.run(broker_counts=(6,), publications_per_broker=3)
        flooding = table.rows_where(strategy="flooding")[0]
        simple = table.rows_where(strategy="simple")[0]
        assert flooding["deliveries"] == simple["deliveries"]
        assert simple["publish_msgs"] < flooding["publish_msgs"]


class TestE02Physical:
    def test_relocation_beats_resubscribe_beats_none(self):
        table = e02_physical.run(duration=30.0, publish_period=0.25, dwell_time=4.0, handover_gap=1.0)
        none_missed = table.value("missed", variant="none")
        resub_missed = table.value("missed", variant="resubscribe")
        relocation_missed = table.value("missed", variant="relocation")
        assert relocation_missed <= resub_missed <= none_missed
        assert relocation_missed <= 2
        assert none_missed > resub_missed


class TestE03Logical:
    def test_myloc_precision_dominates(self):
        table = e03_logical.run(duration=30.0)
        aware = table.rows_where(client="location-aware (myloc)")[0]
        unaware = table.rows_where(client="location-unaware (service-wide)")[0]
        assert aware["precision"] >= 0.95
        assert unaware["precision"] < aware["precision"]
        assert unaware["deliveries"] > aware["deliveries"]

    def test_default_rows_are_pinned(self):
        """The rows are pure functions of the seed: a change that moves one
        has to say so here."""
        assert e03_logical.run().rows == [
            {"client": "location-aware (myloc)", "deliveries": 120,
             "relevant_deliveries": 120, "precision": 1.0, "rebinds": 16},
            {"client": "location-unaware (service-wide)", "deliveries": 960,
             "relevant_deliveries": 120, "precision": 0.125, "rebinds": 0},
        ]


class TestE04Replicator:
    def test_pre_subscription_reduces_misses_and_latency(self):
        table = e04_replicator.run(duration=50.0)
        reactive = table.rows_where(variant="reactive")[0]
        replicator = table.rows_where(variant="replicator")[0]
        assert replicator["missed"] < reactive["missed"]
        assert replicator["delivery_rate"] >= reactive["delivery_rate"]
        assert replicator["replayed"] > 0
        assert replicator["first_delivery_latency"] <= reactive["first_delivery_latency"]
        assert replicator["control_msgs"] > reactive["control_msgs"]


class TestE05Handover:
    def test_shadow_cost_grows_with_degree(self):
        table = e05_handover.run(duration=40.0)
        line = table.rows_where(graph="line")[0]
        complete = table.rows_where(graph="complete")[0]
        assert complete["mean_shadows"] > line["mean_shadows"]
        assert complete["shadow_deliveries"] > line["shadow_deliveries"]


class TestE06NlbSweep:
    def test_coverage_and_cost_axes(self):
        table = e06_nlb_sweep.run(duration=800.0, rows=4, cols=4)
        walk_nlb1 = table.rows_where(workload="random-walk", predictor="nlb-1")[0]
        walk_flood = table.rows_where(workload="random-walk", predictor="flooding")[0]
        walk_none = table.rows_where(workload="random-walk", predictor="none")[0]
        teleport_nlb1 = table.rows_where(workload="teleport", predictor="nlb-1")[0]
        assert walk_nlb1["coverage"] == 1.0  # walks respect the movement graph
        assert walk_none["coverage"] == 0.0
        assert walk_flood["mean_shadows"] > walk_nlb1["mean_shadows"]
        assert teleport_nlb1["coverage"] < 1.0  # power-off teleports break nlb

    def test_default_rows_are_pinned(self):
        """``(workload, predictor, handovers, coverage, mean_shadows)`` per row,
        every row over the 25 brokers of the 5x5 grid."""
        table = e06_nlb_sweep.run()
        assert {row["broker_count"] for row in table.rows} == {25}
        assert [
            (row["workload"], row["predictor"], row["handovers"], row["coverage"], row["mean_shadows"])
            for row in table.rows
        ] == [
            ("random-walk", "none", 199, 0.0, 0.0),
            ("random-walk", "nlb-1", 199, 1.0, 3.35),
            ("random-walk", "nlb-2", 199, 1.0, 8.58),
            ("random-walk", "nlb-3", 199, 1.0, 14.19),
            ("random-walk", "markov", 199, 0.9397, 3.12),
            ("random-walk", "flooding", 199, 1.0, 24.0),
            ("teleport", "none", 65, 0.0, 0.0),
            ("teleport", "nlb-1", 65, 0.1077, 3.17),
            ("teleport", "nlb-2", 65, 0.3077, 7.98),
            ("teleport", "nlb-3", 65, 0.4923, 13.28),
            ("teleport", "markov", 65, 0.1077, 3.17),
            ("teleport", "flooding", 65, 1.0, 24.0),
        ]


class TestE07Buffering:
    def test_policies_trade_memory_for_history(self):
        table = e07_buffering.run()
        unbounded = table.rows_where(policy="unbounded")[0]
        time_based = table.rows_where(policy="time")[0]
        count_based = table.rows_where(policy="count")[0]
        assert unbounded["evicted"] == 0
        assert unbounded["peak_memory"] > time_based["peak_memory"]
        assert time_based["stale_replayed"] == 0
        assert count_based["replayed"] <= 12
        assert unbounded["replayed"] >= time_based["replayed"]


class TestE08SharedBuffer:
    def test_saving_grows_with_colocated_clients(self):
        table = e08_shared_buffer.run(client_counts=(1, 4, 8))
        ratios = table.column("saving_ratio")
        assert ratios[-1] > ratios[0]
        assert table.value("saving_ratio", clients=8) > 2.0


class TestE09Exception:
    def test_exception_mode_recovers_notifications(self):
        table = e09_exception.run(duration=60.0)
        off = table.rows_where(variant="exception-off")[0]
        on = table.rows_where(variant="exception-on")[0]
        assert on["exception_recoveries"] > off["exception_recoveries"]
        assert on["delivery_rate"] >= off["delivery_rate"]


class TestE10Scalability:
    def test_cost_grows_with_system_size(self):
        table = e10_scalability.run(grid_sides=(2, 3), client_counts=(2,), duration=30.0)
        small = table.value("events", brokers=4, clients=2, variant="replicator")
        large = table.value("events", brokers=9, clients=2, variant="replicator")
        assert large > small
        for row in table.rows:
            assert row["delivery_rate"] >= 0.8

    def test_paper_numbers_are_pinned_and_sharing_pays(self):
        """``control_msgs`` and ``delivery_rate`` are pure functions of the seeds:
        a change to the replicator that moves one of them has to say so here."""
        table = e10_scalability.run()
        cells = {
            (row["brokers"], row["clients"], row["variant"]): (
                row["control_msgs"],
                row["delivery_rate"],
            )
            for row in table.rows
        }
        assert cells == {
            (4, 2, "reactive"): (20, 0.9783),
            (4, 2, "replicator"): (84, 0.9783),
            (4, 6, "reactive"): (58, 0.9713),
            (4, 6, "replicator"): (244, 0.9852),
            (9, 2, "reactive"): (19, 0.9737),
            (9, 2, "replicator"): (108, 0.9737),
            (9, 6, "reactive"): (59, 0.9829),
            (9, 6, "replicator"): (348, 0.9912),
            (16, 2, "reactive"): (20, 0.9737),
            (16, 2, "replicator"): (135, 0.9737),
            (16, 6, "reactive"): (59, 0.9912),
            (16, 6, "replicator"): (389, 0.9912),
        }
        # one broker subscription per distinct filter: with six walkers on one
        # template the replicator costs fewer broker messages than re-subscribing
        for brokers in (9, 16):
            replicator = table.rows_where(brokers=brokers, clients=6, variant="replicator")[0]
            reactive = table.rows_where(brokers=brokers, clients=6, variant="reactive")[0]
            assert replicator["broker_msgs"] <= reactive["broker_msgs"]
            assert replicator["shared_share"] > reactive["shared_share"] > 0


class TestE11Context:
    def test_context_awareness_improves_precision(self):
        table = e11_context.run(duration=60.0)
        aware = table.rows_where(client="context-aware")[0]
        static = table.rows_where(client="static (subscribe-everything)")[0]
        assert aware["precision"] > static["precision"]
        assert aware["rebinds"] > 0

    def test_default_rows_are_pinned(self):
        assert e11_context.run().rows == [
            {"client": "context-aware", "deliveries": 96, "state_relevant": 96,
             "precision": 1.0, "recall": 0.9897, "rebinds": 3},
            {"client": "static (subscribe-everything)", "deliveries": 180,
             "state_relevant": 96, "precision": 0.5333, "recall": 0.9897, "rebinds": 0},
        ]


class TestE12RoutingAblation:
    def test_optimisations_shrink_tables_without_changing_delivery(self):
        table = e12_routing_ablation.run(subscriber_counts=(12,), publications=20)
        deliveries = {row["strategy"]: row["deliveries"] for row in table.rows}
        assert len(set(deliveries.values())) == 1  # identical delivery everywhere
        simple = table.value("table_size", subscribers=12, strategy="simple")
        covering = table.value("table_size", subscribers=12, strategy="covering")
        assert covering < simple
        assert table.value("sub_msgs", subscribers=12, strategy="flooding") == 0
