"""Tests for the broker control plane: SystemConfig, live metrics, runtime knobs.

Five groups:

* **SystemConfig** — construction-time validation (the ``matcher="indxed"``
  silent-typo hole), dict round-trips, ``--set`` overlays and argparse
  resolution;
* **BrokerNetwork integration** — one way in: typo rejection before any
  broker is built, and ``BrokerNetwork``, every topology builder and
  ``MobilitySystemConfig`` refusing the fabric knobs as loose kwargs;
* **metrics** — the obs instruments themselves, plus
  ``Transport.metrics_snapshot()`` agreeing across all three backends on
  the deterministic broker counters of a fixed workload;
* **runtime knobs** — live matcher/advertising flips under traffic keep
  delivered sets identical to a never-flipped oracle, on every backend;
  rejected knobs/values/targets fail with the documented exception types;
* **surfaces** — the shared registry request helper's dead-channel path and
  the ``repro metrics`` / ``repro top`` CLI smoke.
"""

import argparse
import asyncio
import json

import pytest

from repro.cli import main
from repro.config import RUNTIME_KNOBS, SystemConfig
from repro.core.middleware import MobilitySystemConfig
from repro.net.cluster import ClusterError, ClusterTransport
from repro.net.registry import RegistryError, RegistryServer
from repro.net.transport import TransportError, make_transport
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
from repro.pubsub.testing import run_flip_workload, run_line_workload

# ------------------------------------------------------------- SystemConfig


def test_systemconfig_defaults():
    config = SystemConfig()
    assert (config.matcher, config.advertising) == ("indexed", "incremental")
    assert (config.transport, config.codec) == ("sim", "json")
    assert config.metrics is True
    assert "matcher=indexed" in config.describe()


@pytest.mark.parametrize(
    "field,value",
    [("matcher", "indxed"), ("advertising", "scann"), ("transport", "tcp"), ("codec", "xml")],
)
def test_systemconfig_rejects_unknown_names(field, value):
    with pytest.raises(ValueError, match=f"unknown {field} {value!r}; allowed: "):
        SystemConfig(**{field: value})


@pytest.mark.parametrize("field", ["flush_cap", "duplicates_capacity"])
@pytest.mark.parametrize("bad", [0, -4, True, "big", None])
def test_systemconfig_rejects_bad_sizes(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        SystemConfig(**{field: bad})


def test_systemconfig_rejects_non_bool_metrics():
    with pytest.raises(ValueError, match="metrics must be a bool"):
        SystemConfig(metrics="yes")


def test_systemconfig_dict_round_trip():
    config = SystemConfig(matcher="brute", transport="asyncio", codec="binary", flush_cap=4096)
    assert SystemConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown SystemConfig key"):
        SystemConfig.from_dict({**config.to_dict(), "turbo": 1})


def test_systemconfig_with_overrides():
    config = SystemConfig().with_overrides(
        ["matcher=brute", "flush_cap=4096", "metrics=off"]
    )
    assert (config.matcher, config.flush_cap, config.metrics) == ("brute", 4096, False)
    with pytest.raises(ValueError, match="expects key=value"):
        SystemConfig().with_overrides(["matcher"])
    with pytest.raises(ValueError, match="unknown SystemConfig key 'turbo'"):
        SystemConfig().with_overrides(["turbo=1"])
    with pytest.raises(ValueError, match="flush_cap expects an integer"):
        SystemConfig().with_overrides(["flush_cap=big"])
    with pytest.raises(ValueError, match="metrics expects a boolean"):
        SystemConfig().with_overrides(["metrics=maybe"])


def test_systemconfig_from_args():
    ns = argparse.Namespace(
        backend="asyncio", codec="binary", matcher=None, advertising=None, set=["flush_cap=512"]
    )
    config = SystemConfig.from_args(ns)
    assert (config.transport, config.codec, config.flush_cap) == ("asyncio", "binary", 512)
    assert config.matcher == "indexed"  # None flags fall back to defaults
    # an explicit transport= wins over ns.backend (e.g. "both" modes)
    assert SystemConfig.from_args(ns, transport="sim").transport == "sim"


def test_runtime_knobs_are_a_subset_of_config_fields():
    assert set(RUNTIME_KNOBS) <= set(SystemConfig().to_dict())


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
    "codec": "json",
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


# ------------------------------------------------------------- runtime knobs


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_live_flip_matches_never_flipped_oracle(backend):
    oracle = run_flip_workload("sim", 3, 40, changes={})
    flipped = run_flip_workload(backend, 3, 40)
    assert flipped.mismatches == 0
    assert flipped.delivered_values == oracle.delivered_values
    for applied in flipped.applied.values():
        assert applied == {"matcher": "brute", "advertising": "scan"}


def test_live_flip_matches_oracle_on_cluster():
    oracle = run_flip_workload("sim", 3, 40, changes={})
    flipped = run_flip_workload("cluster", 3, 40)
    assert flipped.mismatches == 0
    assert flipped.delivered_values == oracle.delivered_values


def test_flip_from_brute_scan_starting_point():
    config = SystemConfig(matcher="brute", advertising="scan")
    result = run_flip_workload("sim", 3, 20, config=config)
    assert result.mismatches == 0
    for applied in result.applied.values():
        assert applied == {"matcher": "indexed", "advertising": "incremental"}


def test_in_process_configure_rejections():
    with make_transport("sim") as transport:
        broker = transport.build_broker("B1")
        with pytest.raises(ValueError, match="unknown runtime knob\\(s\\) 'bogus'"):
            transport.configure("B1", {"bogus": 1})
        with pytest.raises(TransportError, match="no broker named 'nope'"):
            transport.configure("nope", {"matcher": "brute"})
        with pytest.raises(ValueError, match="duplicates_capacity must be a positive integer"):
            transport.configure(broker, {"duplicates_capacity": 0})
        with pytest.raises(ValueError, match="flush_cap must be a positive integer"):
            transport.set_flush_cap(0)
        applied = transport.configure("B1", {"matcher": "brute", "flush_cap": 2048})
        assert applied == {"matcher": "brute", "flush_cap": 2048}
        assert broker.matcher == "brute"


def test_cluster_configure_rejections_before_boot():
    transport = ClusterTransport()
    try:
        transport.build_broker("B1")
        with pytest.raises(ValueError, match="unknown runtime knob"):
            transport.configure("B1", {"bogus": 1})
        with pytest.raises(TransportError, match="no broker named 'nope'"):
            transport.configure("nope", {"matcher": "brute"})
        with pytest.raises(ClusterError, match="before the cluster has booted"):
            transport.configure("B1", {"matcher": "brute"})
    finally:
        transport.close()


def test_cluster_rejects_bad_value_over_the_control_channel():
    def observer(net):
        with pytest.raises(RegistryError, match="rejected 'configure': flush_cap"):
            net.transport.configure("B1", {"flush_cap": 0})
        assert net.transport.configure("B1", {}) == {}

    run_line_workload("cluster", 2, 4, observer=observer)


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
    assert main(["net-demo", "--backend", "sim", "--set", "turbo=1"]) == 2
    assert "unknown SystemConfig key 'turbo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,wanted",
    [
        (["chaos-demo", "--backend", "sim", "--matcher", "brute"], {"matcher": "brute"}),
        (
            ["soak", "--backend", "sim", "--budget-sec", "0.01", "--advertising", "scan"],
            {"advertising": "scan"},
        ),
        (
            ["chaos-fuzz", "--advertising", "scan", "--set", "duplicates_capacity=512"],
            {"advertising": "scan", "duplicates_capacity": 512},
        ),
    ],
    ids=["chaos-demo", "soak", "chaos-fuzz"],
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
