"""Tests for the broker control plane: SystemConfig and live metrics.

Four groups:

* **SystemConfig** — construction-time validation (the ``matcher="indxed"``
  silent-typo hole), dict round-trips, ``--set`` overlays and argparse
  resolution;
* **BrokerNetwork integration** — one way in: typo rejection before any
  broker is built; ``BrokerNetwork``, every topology builder and
  ``MobilitySystemConfig`` refusing the fabric knobs as loose kwargs; every
  backend building its brokers from the adopted config (a cluster broker
  child from the spec's config alone); a brute fabric with the scan
  advertising oracle installed delivering what the default one does; and no
  running broker offering a way to change its knobs;
* **metrics** — the obs instruments themselves, plus
  ``Transport.metrics_snapshot()`` agreeing across all three backends on
  the deterministic broker counters of a fixed workload;
* **surfaces** — the shared registry request helper's dead-channel path and
  the ``repro metrics`` / ``repro top`` CLI smoke.
"""

import argparse
import asyncio
import dataclasses
import json

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.core.middleware import MobilitySystemConfig
from repro.net.cluster import ClusterError, ClusterTransport, _BrokerNode
from repro.net.registry import RegistryError, RegistryServer
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
    star_topology,
)
from repro.pubsub.broker import Broker
from repro.pubsub.routing import MergingRouting, RoutingStrategy, make_strategy
from repro.pubsub.routing_table import RoutingTable
from repro.pubsub import broker_network
from repro.pubsub.testing import (
    RecordingBroker,
    ScanAdvertising,
    run_line_workload,
    use_scan_advertising,
)

# ------------------------------------------------------------- SystemConfig


def test_systemconfig_defaults():
    config = SystemConfig()
    assert config.matcher == "indexed"
    assert (config.transport, config.codec) == ("sim", "binary")
    assert config.metrics is True
    assert "matcher=indexed" in config.describe()


@pytest.mark.parametrize(
    "field,value",
    [("matcher", "indxed"), ("transport", "tcp"), ("codec", "xml")],
)
def test_systemconfig_rejects_unknown_names(field, value):
    with pytest.raises(ValueError, match=f"unknown {field} {value!r}; allowed: "):
        SystemConfig(**{field: value})


#: the scan oracle and the two sizes are not deployment choices
NOT_DEPLOYMENT_CHOICES = {"advertising": "scan", "flush_cap": 4096, "duplicates_capacity": 512}


def test_systemconfig_names_only_what_a_deployment_chooses():
    fields = {field.name for field in dataclasses.fields(SystemConfig)}
    assert fields == {"matcher", "transport", "codec", "metrics"}


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
    spec = {"name": "B1", "registry": ["127.0.0.1", 0]}
    config = {**SystemConfig().to_dict(), knob: NOT_DEPLOYMENT_CHOICES[knob]}
    with pytest.raises(ValueError, match=f"unknown SystemConfig key\\(s\\) '{knob}'"):
        _BrokerNode({**spec, "config": config})


def _build_with_a_deleted_parameter(call):
    broker = RecordingBroker(["N1"])
    if call == "Broker-advertising":
        Broker(Simulator(), "B1", advertising="scan")
    elif call == "Broker-duplicates_capacity":
        Broker(Simulator(), "B1", duplicates_capacity=3)
    elif call == "make_strategy-advertising":
        make_strategy("covering", broker, advertising="scan")
    elif call == "MergingRouting-advertising":
        MergingRouting(broker, advertising="scan")
    else:
        with make_transport("sim") as transport:
            transport.build_broker("B1", routing="covering", advertising="scan")


@pytest.mark.parametrize(
    "call",
    [
        "Broker-advertising",
        "Broker-duplicates_capacity",
        "make_strategy-advertising",
        "MergingRouting-advertising",
        "build_broker-advertising",
    ],
)
def test_product_api_takes_no_oracle_or_size_parameter(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        _build_with_a_deleted_parameter(call)


def test_systemconfig_rejects_non_bool_metrics():
    with pytest.raises(ValueError, match="metrics must be a bool"):
        SystemConfig(metrics="yes")


def test_systemconfig_dict_round_trip():
    config = SystemConfig(matcher="brute", transport="asyncio", codec="binary", metrics=False)
    assert SystemConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown SystemConfig key"):
        SystemConfig.from_dict({**config.to_dict(), "turbo": 1})


def test_systemconfig_with_overrides():
    config = SystemConfig().with_overrides(["matcher=brute", "codec=binary", "metrics=off"])
    assert (config.matcher, config.codec, config.metrics) == ("brute", "binary", False)
    with pytest.raises(ValueError, match="expects key=value"):
        SystemConfig().with_overrides(["matcher"])
    with pytest.raises(ValueError, match="unknown SystemConfig key 'turbo'"):
        SystemConfig().with_overrides(["turbo=1"])
    with pytest.raises(ValueError, match="metrics expects a boolean"):
        SystemConfig().with_overrides(["metrics=maybe"])


def test_systemconfig_from_args():
    ns = argparse.Namespace(backend="asyncio", set=["codec=binary", "metrics=off"])
    config = SystemConfig.from_args(ns)
    assert (config.transport, config.codec, config.metrics) == ("asyncio", "binary", False)
    assert config.matcher == "indexed"  # fields no --set names keep their defaults
    # only backend and --set are read: a stray flag attribute is ignored
    stray = argparse.Namespace(matcher="brute", codec="binary", set=[])
    assert SystemConfig.from_args(stray) == SystemConfig()


# ------------------------------------------------- BrokerNetwork integration


def test_broker_network_rejects_typo_matcher_at_construction():
    with pytest.raises(ValueError, match="unknown matcher 'indxed'; allowed: brute, indexed"):
        BrokerNetwork(config=SystemConfig(matcher="indxed"))


def test_broker_network_rejects_non_config_object():
    with pytest.raises(TypeError):
        BrokerNetwork(config={"matcher": "brute"})


#: every fabric knob, with a value the SystemConfig field would accept
_LOOSE_KNOBS = {
    "matcher": "brute",
    "advertising": "scan",
    "transport": "sim",
    "codec": "binary",
    "system": SystemConfig(),
}


@pytest.mark.parametrize("knob", sorted(_LOOSE_KNOBS))
@pytest.mark.parametrize(
    "build",
    [
        BrokerNetwork,
        line_topology,
        star_topology,
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
    with make_transport(backend) as transport:
        default = transport.build_broker("B0", routing="covering")
        transport.apply_config(SystemConfig(transport=backend, matcher="brute", metrics=False))
        broker = transport.build_broker("B1", routing="covering")
    assert broker.matcher == "brute"
    assert broker.metrics.enabled is False
    # a broker built before the config was adopted keeps the defaults
    assert default.matcher == "indexed"
    assert default.metrics.enabled is True


def test_cluster_rejects_bad_declarations_before_boot():
    transport = ClusterTransport()
    try:
        transport.build_broker("B1")
        transport.apply_config(SystemConfig(transport="cluster", matcher="brute"))
        transport.build_broker("B2")
        with pytest.raises(ClusterError, match="duplicate broker name 'B1'"):
            transport.build_broker("B1")
        # each spec holds the config adopted when its broker was declared
        assert transport._specs["B1"]["config"]["matcher"] == "indexed"
        assert transport._specs["B2"]["config"]["matcher"] == "brute"
        assert not transport.booted
    finally:
        transport.close()


def test_cluster_child_rejects_a_bad_spec_config():
    spec = {"name": "B1", "registry": ["127.0.0.1", 0], "matcher": "brute"}
    # a flat knob is no substitute for the config
    with pytest.raises(KeyError, match="config"):
        _BrokerNode(spec)
    with pytest.raises(ValueError, match="unknown matcher 'indxed'"):
        _BrokerNode({**spec, "config": {**SystemConfig().to_dict(), "matcher": "indxed"}})
    with pytest.raises(ValueError, match="unknown SystemConfig key\\(s\\) 'turbo'"):
        _BrokerNode({**spec, "config": {**SystemConfig().to_dict(), "turbo": 1}})


def _received(result):
    assert result.mismatches == 0
    return [(s.name, s.received) for s in result.subscribers]


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_brute_scan_fabric_matches_the_default(backend, monkeypatch):
    built = []

    def observer(net):
        built.extend(
            (b.matcher, isinstance(b.strategy, ScanAdvertising)) for b in net.brokers.values()
        )

    default = run_line_workload("sim", 3, 40)
    line_topology = broker_network.line_topology
    monkeypatch.setattr(
        broker_network,
        "line_topology",
        lambda *args, **kwargs: use_scan_advertising(line_topology(*args, **kwargs)),
    )
    oracle = run_line_workload(
        backend, 3, 40, observer=observer, config=SystemConfig(matcher="brute")
    )
    assert built == [("brute", True)] * 3
    assert _received(oracle) == _received(default)


def test_brute_fabric_matches_the_default_on_cluster():
    # the scan oracle cannot reach a broker child: the cluster runs brute only
    default = run_line_workload("sim", 3, 40)
    oracle = run_line_workload("cluster", 3, 40, config=SystemConfig(matcher="brute"))
    assert _received(oracle) == _received(default)


def test_cluster_child_reads_its_knobs_from_the_spec_config():
    transport = ClusterTransport()
    try:
        transport.apply_config(SystemConfig(transport="cluster", matcher="brute", metrics=False))
        transport.build_broker("B1", routing="covering")
        spec = dict(transport._specs["B1"], registry=["127.0.0.1", 0])
    finally:
        transport.close()
    # the spec names each knob once, in its config
    assert not {"matcher", "metrics"} & set(spec)
    node = _BrokerNode(spec)
    try:
        assert node.broker.matcher == "brute"
        assert node.broker.metrics.enabled is False
    finally:
        node._loop.close()


@pytest.mark.parametrize("owner", [Broker, RoutingTable, RoutingStrategy, Transport, SocketNode])
def test_a_running_broker_keeps_its_knobs(owner):
    for name in "reconfigure set_matcher set_advertising configure set_flush_cap".split():
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
    assert sim["B1"]["broker.delivered_locally"] == 30
    assert sim["B3"]["broker.forwards"] == 0
    assert _broker_counters("asyncio", **workload) == sim
    assert _broker_counters("cluster", **workload) == sim


def test_metrics_disabled_config_snapshots_empty_registry_counters():
    captured = {}

    def observer(net):
        captured["snapshot"] = net.transport.metrics_snapshot()

    run_line_workload(
        "sim", 2, 6, observer=observer, config=SystemConfig(metrics=False)
    )
    for data in captured["snapshot"]["brokers"].values():
        # the integer hot-path counters remain (they are plain attributes),
        # but no registry-owned instrument may have been allocated
        assert all(key.startswith("broker.") for key in data["counters"])
        assert data["histograms"] == {}


# ----------------------------------------------------------------- surfaces


def test_registry_request_without_live_channel():
    async def scenario():
        server = RegistryServer()
        await server.start()
        try:
            with pytest.raises(RegistryError, match="no live control channel for 'ghost'"):
                await server.request("ghost", "stats", timeout=0.5)
        finally:
            await server.close()

    asyncio.run(scenario())


def test_registry_request_to_a_node_that_died_mid_send():
    class ResetChannel:
        def send(self, payload):
            pass

        async def drain(self):
            raise ConnectionResetError("Connection lost")

    async def scenario():
        server = RegistryServer()
        server._controls["B2"] = ResetChannel()
        with pytest.raises(RegistryError, match="control channel to 'B2' lost"):
            await server.request("B2", "stats", timeout=0.5)
        assert not server._replies

    asyncio.run(scenario())


def test_cli_metrics_json(capsys):
    assert main(["metrics", "--backend", "sim", "--json", "--publishes", "10"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert sorted(snapshot["brokers"]) == ["B1", "B2", "B3"]
    assert snapshot["brokers"]["B1"]["counters"]["broker.matches"] == 10


def test_cli_top_renders_bounded_frames(capsys):
    assert main(["top", "--backend", "sim", "--frames", "2", "--batch", "10"]) == 0
    out = capsys.readouterr().out
    assert "frame 1/2" in out and "frame 2/2" in out
    assert "match/s" in out


def test_cli_rejects_unknown_set_key(capsys):
    assert main(["demo", "line", "--backend", "sim", "--set", "turbo=1"]) == 2
    assert "unknown SystemConfig key 'turbo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiments"],
        ["demo", "line"],
        ["chaos-fuzz"],
        ["soak"],
        ["metrics"],
        ["top"],
        ["profile"],
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
        (["demo", "chaos", "--backend", "sim", "--set", "matcher=brute"], {"matcher": "brute"}),
        (
            ["soak", "--backend", "sim", "--budget-sec", "0.01", "--set", "matcher=brute"],
            {"matcher": "brute"},
        ),
        (
            ["chaos-fuzz", "--set", "matcher=brute", "--set", "metrics=off"],
            {"matcher": "brute", "metrics": False},
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
