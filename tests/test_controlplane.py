"""Tests for the broker control plane: SystemConfig and live metrics.

Four groups:

* **SystemConfig** — construction-time validation (the silent-typo hole),
  three fields and no knob nothing chooses, dict round-trips, ``--set``
  overlays and argparse resolution;
* **BrokerNetwork integration** — one way in: typo rejection before any
  broker is built; ``BrokerNetwork``, every topology builder and
  ``MobilitySystemConfig`` refusing the fabric knobs as loose kwargs; every
  backend building its brokers from the config it was built with (a cluster
  broker child from the spec's config alone); a fabric with the brute
  matching and scan advertising oracles installed delivering what the
  default one does; and no running broker or transport offering a way to
  change its knobs;
* **metrics** — the obs instruments themselves, plus
  ``Transport.metrics_snapshot()`` agreeing across all three backends on
  the deterministic broker counters of a fixed workload, and the metrics
  switch reaching every backend's own wire instruments;
* **surfaces** — the ``repro top`` CLI smoke (its table and its ``--json`` snapshot), with
  ``--backend`` the one way to name the transport.
"""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.core.middleware import MobilitySystemConfig
from repro.core.replicator import ReplicatorConfig
from repro.net.cluster import ClusterError, ClusterTransport, _BrokerNode
from repro.net.simulator import Simulator
from repro.net.transport import SocketNode, Transport, make_transport
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.pubsub.broker_network import (
    BrokerNetwork,
    balanced_tree_topology,
    grid_border_topology,
    line_topology,
    random_tree_topology,
)
from repro.pubsub.broker import Broker
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.routing import MergingRouting, RoutingStrategy, make_strategy
from repro.pubsub.routing_table import RoutingTable
from repro.pubsub import broker_network
from repro.pubsub.testing import (
    BruteRoutingTable,
    RecordingBroker,
    ScanAdvertising,
    run_line_workload,
    use_brute_matching,
    use_scan_advertising,
)

# ------------------------------------------------------------- SystemConfig


def test_systemconfig_defaults():
    config = SystemConfig()
    assert config.matcher == "indexed"
    assert (config.transport, config.codec) == ("sim", "binary")
    assert config.metrics is True
    assert config.describe() == "transport=sim metrics=on"


@pytest.mark.parametrize(
    "field,value",
    [("transport", "tcp"), ("codec", "xml")],
)
def test_systemconfig_rejects_unknown_names(field, value):
    with pytest.raises(ValueError, match=f"unknown {field} {value!r}; allowed: "):
        SystemConfig(**{field: value})


#: the two oracles and the two sizes are not deployment choices
NOT_DEPLOYMENT_CHOICES = {
    "advertising": "scan",
    "matcher": "brute",
    "flush_cap": 4096,
    "duplicates_capacity": 512,
}


def test_systemconfig_names_only_what_a_deployment_chooses():
    fields = [field.name for field in dataclasses.fields(SystemConfig)]
    assert fields == ["transport", "codec", "metrics"]


def _readme_knob_rows():
    """The knob column of README's "Every knob and the row that chooses it"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("#### Every knob and the row that chooses it\n", 1)[1]
    section = section.split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.M)


@pytest.mark.parametrize(
    "record",
    [SystemConfig, ReplicatorConfig, MobilitySystemConfig],
    ids=lambda record: record.__name__,
)
def test_the_readme_knob_table_names_every_field(record):
    rows = _readme_knob_rows()
    assert len(rows) == len(set(rows)), "a knob has two rows"
    prefix = record.__name__ + "."
    named = {row[len(prefix):] for row in rows if row.startswith(prefix)}
    assert named == {field.name for field in dataclasses.fields(record)}


@pytest.mark.parametrize("knob", sorted(NOT_DEPLOYMENT_CHOICES))
def test_systemconfig_refuses_a_knob_no_deployment_chooses(knob):
    value = NOT_DEPLOYMENT_CHOICES[knob]
    with pytest.raises(TypeError):
        SystemConfig(**{knob: value})
    with pytest.raises(ValueError, match=f"unknown SystemConfig key '{knob}'"):
        SystemConfig().with_overrides([f"{knob}={value}"])
    with pytest.raises(ValueError, match=f"unknown SystemConfig key\\(s\\) '{knob}'"):
        SystemConfig.from_dict({**SystemConfig().to_dict(), knob: value})


@pytest.mark.parametrize("knob", sorted(NOT_DEPLOYMENT_CHOICES))
def test_cli_set_refuses_a_knob_no_deployment_chooses(knob, capsys):
    argv = ["demo", "line", "--backend", "sim", "--set", f"{knob}={NOT_DEPLOYMENT_CHOICES[knob]}"]
    assert main(argv) == 2
    assert f"unknown SystemConfig key '{knob}'" in capsys.readouterr().err


@pytest.mark.parametrize("knob", sorted(NOT_DEPLOYMENT_CHOICES))
def test_broker_node_refuses_a_knob_no_deployment_chooses(knob):
    spec = {"name": "B1"}
    config = {**SystemConfig().to_dict(), knob: NOT_DEPLOYMENT_CHOICES[knob]}
    with pytest.raises(ValueError, match=f"unknown SystemConfig key\\(s\\) '{knob}'"):
        _BrokerNode({**spec, "config": config})


def _build_with_a_deleted_parameter(call):
    broker = RecordingBroker(["N1"])
    if call == "Broker-advertising":
        Broker(Simulator(), "B1", advertising="scan")
    elif call == "Broker-matcher":
        Broker(Simulator(), "B1", matcher="indexed")
    elif call == "Broker-duplicates_capacity":
        Broker(Simulator(), "B1", duplicates_capacity=3)
    elif call == "make_strategy-advertising":
        make_strategy("covering", broker, advertising="scan")
    elif call == "MergingRouting-advertising":
        MergingRouting(broker, advertising="scan")
    elif call == "build_broker-matcher":
        with make_transport(SystemConfig()) as transport:
            transport.build_broker("B1", matcher="indexed")
    else:
        with make_transport(SystemConfig()) as transport:
            transport.build_broker("B1", routing="covering", advertising="scan")


@pytest.mark.parametrize(
    "call",
    [
        "Broker-advertising",
        "Broker-matcher",
        "Broker-duplicates_capacity",
        "make_strategy-advertising",
        "MergingRouting-advertising",
        "build_broker-advertising",
        "build_broker-matcher",
    ],
)
def test_product_api_takes_no_oracle_or_size_parameter(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        _build_with_a_deleted_parameter(call)


def test_the_routing_table_has_one_matcher():
    # ``matcher=`` stays only for the benchmark ledger, which names "indexed"
    assert len(RoutingTable(matcher=SystemConfig().matcher)) == 0
    with pytest.raises(ValueError, match="unknown matcher 'brute'"):
        RoutingTable(matcher="brute")


def test_systemconfig_rejects_non_bool_metrics():
    with pytest.raises(ValueError, match="metrics must be a bool"):
        SystemConfig(metrics="yes")


def test_systemconfig_dict_round_trip():
    config = SystemConfig(transport="asyncio", codec="binary", metrics=False)
    assert SystemConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown SystemConfig key"):
        SystemConfig.from_dict({**config.to_dict(), "turbo": 1})


def test_systemconfig_with_overrides():
    config = SystemConfig().with_overrides(["codec=binary", "metrics=off"])
    assert (config.codec, config.metrics) == ("binary", False)
    with pytest.raises(ValueError, match="expects key=value"):
        SystemConfig().with_overrides(["metrics"])
    with pytest.raises(ValueError, match="unknown SystemConfig key 'turbo'"):
        SystemConfig().with_overrides(["turbo=1"])
    with pytest.raises(ValueError, match="metrics expects a boolean"):
        SystemConfig().with_overrides(["metrics=maybe"])


def test_systemconfig_from_args():
    ns = argparse.Namespace(backend="asyncio", set=["metrics=off"])
    config = SystemConfig.from_args(ns)
    # fields no --set names keep their defaults
    assert (config.transport, config.codec, config.metrics) == ("asyncio", "binary", False)
    # only backend and --set are read: a stray flag attribute is ignored
    stray = argparse.Namespace(matcher="brute", codec="binary", set=[])
    assert SystemConfig.from_args(stray) == SystemConfig()


# ------------------------------------------------- BrokerNetwork integration


def test_broker_network_rejects_typo_transport_at_construction():
    with pytest.raises(ValueError, match="unknown transport 'asyncoi'; allowed: sim, asyncio, cluster"):
        BrokerNetwork(config=SystemConfig(transport="asyncoi"))


def test_broker_network_rejects_non_config_object():
    with pytest.raises(TypeError):
        BrokerNetwork(config={"transport": "sim"})


#: every fabric knob, with a value the SystemConfig field would accept, and
#: the clock, which the transport SystemConfig names owns
_LOOSE_KNOBS = {
    "matcher": "brute",
    "advertising": "scan",
    "transport": "sim",
    "codec": "binary",
    "system": SystemConfig(),
    "sim": Simulator(),
}


@pytest.mark.parametrize("knob", sorted(_LOOSE_KNOBS))
@pytest.mark.parametrize(
    "build",
    [
        BrokerNetwork,
        line_topology,
        balanced_tree_topology,
        random_tree_topology,
        grid_border_topology,
        MobilitySystemConfig,
    ],
    ids=lambda build: build.__name__,
)
def test_fabric_knobs_have_one_way_in(build, knob):
    with pytest.raises(TypeError):
        build(**{knob: _LOOSE_KNOBS[knob]})


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_in_process_broker_reads_the_adopted_config(backend):
    config = SystemConfig(transport=backend, metrics=False)
    with make_transport(config) as transport:
        broker = transport.build_broker("B1", routing="covering")
    assert transport.system_config is config
    assert type(broker.routing_table) is RoutingTable
    assert broker.metrics.enabled is False


def test_cluster_rejects_bad_declarations_before_boot():
    transport = ClusterTransport(config=SystemConfig(transport="cluster", metrics=False))
    try:
        transport.build_broker("B1")
        with pytest.raises(ClusterError, match="duplicate broker name 'B1'"):
            transport.build_broker("B1")
        # the spec holds the config the transport was built with
        assert transport._specs["B1"]["config"]["metrics"] is False
        assert not transport.booted
    finally:
        transport.close()


def test_cluster_child_rejects_a_bad_spec_config():
    spec = {"name": "B1", "metrics": False}
    # a flat knob is no substitute for the config
    with pytest.raises(KeyError, match="config"):
        _BrokerNode(spec)
    with pytest.raises(ValueError, match="unknown transport 'tcp'"):
        _BrokerNode({**spec, "config": {**SystemConfig().to_dict(), "transport": "tcp"}})
    with pytest.raises(ValueError, match="unknown SystemConfig key\\(s\\) 'turbo'"):
        _BrokerNode({**spec, "config": {**SystemConfig().to_dict(), "turbo": 1}})


def _received(result):
    assert result.mismatches == 0
    return [(s.name, s.received) for s in result.subscribers]


def _run_oracle_line(backend, monkeypatch, observer=None):
    """``run_line_workload`` with the brute matching and scan advertising
    oracles installed in every broker of its line."""
    line_topology = broker_network.line_topology
    monkeypatch.setattr(
        broker_network,
        "line_topology",
        lambda *args, **kwargs: use_brute_matching(
            use_scan_advertising(line_topology(*args, **kwargs))
        ),
    )
    return run_line_workload(backend, 3, 40, observer=observer)


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_brute_scan_fabric_matches_the_default(backend, monkeypatch):
    built = []

    def observer(net):
        built.extend(
            (type(b.routing_table), isinstance(b.strategy, ScanAdvertising))
            for b in net.brokers.values()
        )

    default = run_line_workload("sim", 3, 40)
    oracle = _run_oracle_line(backend, monkeypatch, observer)
    assert built == [(BruteRoutingTable, True)] * 3
    assert _received(oracle) == _received(default)


def test_brute_fabric_matches_the_default_on_cluster(monkeypatch):
    # neither oracle can reach a broker child: the cluster runs the product,
    # held against the oracles on the simulator
    default = run_line_workload("cluster", 3, 40)
    oracle = _run_oracle_line("sim", monkeypatch)
    assert _received(default) == _received(oracle)


def test_the_brute_oracle_needs_a_fresh_in_process_network():
    net = line_topology(n_brokers=2)
    client = net.add_client("c", "B1")
    client.subscribe(Filter([Equals("topic", "t")]), sub_id="s")
    net.run_until_idle()
    with pytest.raises(ValueError, match="before subscriptions"):
        use_brute_matching(net)
    cluster = ClusterTransport(config=SystemConfig(transport="cluster"))
    try:
        cluster.build_broker("B1")
        with pytest.raises(TypeError, match="in-process broker"):
            use_brute_matching(cluster)
    finally:
        cluster.close()


def test_cluster_child_reads_its_knobs_from_the_spec_config():
    config = SystemConfig(transport="cluster", metrics=False)
    transport = ClusterTransport(config=config)
    try:
        transport.build_broker("B1", routing="covering")
        spec = dict(transport._specs["B1"])
    finally:
        transport.close()
    # the spec names each knob once, in its config
    assert not {"matcher", "metrics"} & set(spec)
    node = _BrokerNode(spec)
    try:
        assert type(node.broker.routing_table) is RoutingTable
        assert node.broker.metrics.enabled is False
    finally:
        node._selector.close()


@pytest.mark.parametrize("owner", [Broker, RoutingTable, RoutingStrategy, Transport, SocketNode])
def test_a_running_broker_keeps_its_knobs(owner):
    for name in (
        "reconfigure set_matcher set_advertising configure set_flush_cap "
        "apply_config set_metrics_enabled"
    ).split():
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


# ------------------------------------------------------------------ metrics


def test_counter_and_histogram():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    histogram = Histogram("h", (10, 100))
    for value in (5, 10, 11, 1000):
        histogram.observe(value)
    assert histogram.counts == [2, 1, 1]
    assert (histogram.count, histogram.sum) == (4, 1026)
    with pytest.raises(ValueError, match="sorted ascending"):
        Histogram("h", (100, 10))
    with pytest.raises(ValueError, match="at least one bucket"):
        Histogram("h", ())


def test_registry_memoizes_and_snapshots():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    registry.counter("x").inc(3)
    registry.histogram("h", (1,)).observe(2)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"x": 3}
    assert snapshot["histograms"]["h"]["count"] == 1


def test_disabled_registry_is_zero_bookkeeping():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("x") is NULL_COUNTER
    assert registry.histogram("h") is NULL_HISTOGRAM
    registry.counter("x").inc()
    registry.histogram("h").observe(9)
    assert registry.snapshot() == {"counters": {}, "histograms": {}}
    assert NULL_COUNTER.value == 0 and NULL_HISTOGRAM.count == 0


def _broker_counters(backend: str, **workload):
    """The per-broker deterministic counters after the line workload."""
    captured = {}

    def observer(net):
        captured["snapshot"] = net.transport.metrics_snapshot()

    result = run_line_workload(backend, observer=observer, **workload)
    assert result.mismatches == 0
    return {
        name: {
            key: value
            for key, value in data["counters"].items()
            if key.startswith("broker.")
        }
        for name, data in captured["snapshot"]["brokers"].items()
    }


def test_metrics_snapshot_counters_agree_across_backends():
    workload = dict(brokers=3, notifications=30)
    sim = _broker_counters("sim", **workload)
    assert sim["B1"]["broker.matches"] == 30
    # each subscriber receives what its filter promises (no mismatches), and
    # the progressive thresholds promise 30 + 20 + 10 on every backend
    assert [sim[b]["broker.delivered_locally"] for b in ("B1", "B2", "B3")] == [30, 20, 10]
    assert sim["B3"]["broker.forwards"] == 0
    assert _broker_counters("asyncio", **workload) == sim
    assert _broker_counters("cluster", **workload) == sim


@pytest.mark.parametrize("backend", ["sim", "asyncio", "cluster"])
def test_metrics_disabled_config_snapshots_empty_registry_counters(backend):
    def snapshot(metrics):
        captured = {}

        def observer(net):
            captured["snapshot"] = net.transport.metrics_snapshot()

        config = SystemConfig(metrics=metrics)
        result = run_line_workload(backend, 2, 6, observer=observer, config=config)
        assert result.mismatches == 0
        return captured["snapshot"]

    off = snapshot(False)
    for data in off["brokers"].values():
        # the integer hot-path counters remain (they are plain attributes),
        # but no registry-owned instrument may have been allocated
        assert all(key.startswith("broker.") for key in data["counters"])
        assert data["histograms"] == {}
    # the transport's own wire instruments follow the same switch
    assert off["transport"]["counters"] == {}
    assert off["transport"]["histograms"] == {}
    if backend == "asyncio":
        assert snapshot(True)["transport"]["counters"]["transport.frames_sent"] > 0


# ----------------------------------------------------------------- surfaces


def test_cli_top_json(capsys):
    argv = ["top", "--backend", "sim", "--frames", "2", "--batch", "10", "--json"]
    assert main(argv) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert sorted(snapshot) == ["brokers", "transport"]
    assert sorted(snapshot["brokers"]) == ["B1", "B2", "B3"]
    # the last frame's snapshot: both frames' publishes are counted
    assert snapshot["brokers"]["B1"]["counters"]["broker.matches"] == 20


def test_cli_top_renders_bounded_frames(capsys):
    assert main(["top", "--backend", "sim", "--frames", "2", "--batch", "10"]) == 0
    out = capsys.readouterr().out
    assert "frame 1/2" in out and "frame 2/2" in out
    assert "match/s" in out


def test_cli_rejects_unknown_set_key(capsys):
    assert main(["demo", "line", "--backend", "sim", "--set", "turbo=1"]) == 2
    assert "unknown SystemConfig key 'turbo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["demo", "line"], ["chaos-fuzz"], ["soak"], ["top"]], ids="-".join
)
def test_cli_names_the_transport_once(argv, capsys):
    # --backend names the transport; a --set naming it too is refused, not
    # resolved one way by one command and the other way by another
    assert main(argv + ["--backend", "sim", "--set", "transport=asyncio"]) == 2
    assert "name it with --backend" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiments"],
        ["demo", "line"],
        ["chaos-fuzz"],
        ["soak"],
        ["top"],
        ["info"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("flag", ["--matcher", "--advertising", "--codec"])
def test_cli_has_one_fabric_flag(argv, flag):
    # --set is the one way to name a fabric knob on the command line
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, "brute"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "argv,wanted",
    [
        (["demo", "chaos", "--backend", "sim", "--set", "metrics=off"], {"metrics": False}),
        (
            ["soak", "--backend", "sim", "--budget-sec", "0.01", "--set", "metrics=off"],
            {"metrics": False},
        ),
        (
            ["chaos-fuzz", "--set", "codec=binary", "--set", "metrics=off"],
            {"codec": "binary", "metrics": False},
        ),
    ],
    ids=["demo-chaos", "soak", "chaos-fuzz"],
)
def test_cli_fabric_flags_reach_every_broker_network(monkeypatch, argv, wanted):
    seen = []
    build = BrokerNetwork.__init__

    def spy(self, *args, **kwargs):
        build(self, *args, **kwargs)
        seen.append(self.config)

    monkeypatch.setattr(BrokerNetwork, "__init__", spy)
    assert main(argv) == 0
    assert seen
    for config in seen:
        assert {knob: getattr(config, knob) for knob in wanted} == wanted
