"""Tests for the CLI and the markdown report generator."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS, e13_replicator_ablation
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.report import QUICK_OVERRIDES, render_markdown, run_experiments
from repro.mobility import handover_workload
from repro.pubsub import chaosgen

SRC = Path(__file__).resolve().parents[1] / "src"


class TestReport:
    def test_run_experiments_subset_with_overrides(self):
        results = run_experiments(["E7", "E8"], overrides={"E8": {"client_counts": (1, 2)}})
        assert set(results) == {"E7", "E8"}
        _title, table = results["E8"]
        assert table.column("clients") == [1, 2]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["E99"])

    def test_render_markdown_contains_tables(self):
        results = run_experiments(["E7"])
        text = render_markdown(results, elapsed=1.0)
        assert "# Reproduced experiment results" in text
        assert "## E7" in text
        assert "| policy |" in text

    def test_quick_overrides_reference_known_experiments(self):
        assert set(QUICK_OVERRIDES) <= set(EXPERIMENTS)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["experiments", "E7", "--quick"])
        assert args.command == "experiments" and args.ids == ["E7"] and args.quick

    def test_demo_parser_defaults(self):
        args = build_parser().parse_args(["demo", "line"])
        assert args.command == "demo" and args.workload == "line"
        assert args.backend == "asyncio"
        assert args.brokers is None and args.publishes is None

    def test_exactly_six_subcommands(self):
        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert " ".join(subcommands.choices) == (
            "experiments demo chaos-fuzz soak top info"
        )

    @pytest.mark.parametrize("workload", ["line", "handover", "chaos"])
    def test_demo_on_simulator(self, capsys, workload):
        assert main(["demo", workload, "--backend", "sim"]) == 0
        assert ": OK" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", ["line", "handover"])
    def test_demo_on_asyncio_sockets(self, capsys, workload):
        assert main(["demo", workload, "--backend", "asyncio"]) == 0
        assert ": OK" in capsys.readouterr().out

    def test_demo_usage_errors(self, capsys):
        assert main(["demo", "line", "--brokers", "1"]) == 2
        assert main(["demo", "line", "--publishes", "0"]) == 2
        assert main(["demo", "handover", "--brokers", "2"]) == 2
        # the cluster backend has no dynamic links for the mobility layer
        assert main(["demo", "handover", "--backend", "cluster"]) == 2
        # the chaos storyline is a pinned plan
        assert main(["demo", "chaos", "--backend", "sim", "--brokers", "4"]) == 2
        assert main(["demo", "chaos", "--backend", "sim", "--publishes", "4"]) == 2

    def test_demo_handover_fails_when_the_backend_diverges(self, monkeypatch, capsys):
        real = handover_workload.run_handover_workload

        def diverging(backend, **kwargs):
            result = real(backend, **kwargs)
            if backend != "sim":
                result.clients[0].deliveries.pop()
            return result

        monkeypatch.setattr(handover_workload, "run_handover_workload", diverging)
        assert main(["demo", "handover", "--backend", "asyncio"]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_demo_chaos_fails_when_the_backend_diverges(self, monkeypatch, capsys):
        real = chaosgen.execute_plan

        def diverging(plan, backend, **kwargs):
            result = real(plan, backend, **kwargs)
            if backend != "sim":
                result.delivered["s1"] = result.delivered["s1"][1:]
            return result

        monkeypatch.setattr(chaosgen, "execute_plan", diverging)
        assert main(["demo", "chaos", "--backend", "asyncio"]) == 1
        assert "[convergence] s1" in capsys.readouterr().err

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro.core" in output
        assert "E1..E13" in output and "E12" in output
        assert "cluster" in output
        for workload in ("line", "handover", "chaos"):
            assert workload in output.split("Demos:")[1]

    def test_experiments_command_with_report(self, capsys, tmp_path):
        report = tmp_path / "out.md"
        assert main(["experiments", "e7", "--report", str(report)]) == 0
        output = capsys.readouterr().out
        assert "E7" in output
        assert report.exists()

    def test_experiments_command_rejects_unknown(self, capsys):
        assert main(["experiments", "E99"]) == 2

    def test_the_module_entry_point_is_the_experiments_command(self, capsys):
        assert experiments_main(["e7"]) == 0
        via_module = capsys.readouterr()
        assert main(["experiments", "E7"]) == 0
        assert capsys.readouterr() == via_module
        assert "=== E7: " in via_module.out

    def test_the_module_entry_point_rejects_unknown_with_exit_2(self):
        path = str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "E99"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert "unknown experiments: ['E99']" in done.stderr

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestE13Ablation:
    def test_registry_includes_ablation(self):
        assert "E13" in EXPERIMENTS

    def test_ablation_shapes(self):
        table = e13_replicator_ablation.run(duration=40.0)
        rows = {row["configuration"]: row for row in table.rows}
        # unfiltered replay hands strictly more notifications to the device
        assert rows["unfiltered-replay"]["replayed"] >= rows["baseline"]["replayed"]
        assert rows["unfiltered-replay"]["replay_discarded"] == 0
        # a bounded buffer policy reduces the peak buffer memory
        assert rows["combined-buffer-policy"]["buffer_memory"] <= rows["baseline"]["buffer_memory"]
        # none of the internal choices may hurt the delivery rate noticeably
        rates = [row["delivery_rate"] for row in table.rows]
        assert max(rates) - min(rates) <= 0.05
