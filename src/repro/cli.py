"""Command-line interface.

Six subcommands mirror what a user of the library typically wants to do
without writing code:

* ``repro experiments`` — run (a subset of) the E1..E13 experiment suite and
  print the result tables, optionally writing a markdown report;
* ``repro demo {line,handover,chaos}`` — run one workload on a transport
  backend (simulator, asyncio localhost sockets, or one OS process per
  broker) and exit non-zero unless its oracle holds: ``line`` checks the
  deliveries the filters promise (and, on the cluster, every child's exit
  code), ``handover`` runs the roaming workload (replicators, shadows,
  exception mode) and diffs its delivered multisets against the simulator,
  ``chaos`` runs the pinned crash/sever/churn storyline under the invariant
  library and converges it against the simulator;
* ``repro chaos-fuzz`` — draw seeded randomized fault schedules from the
  property-based chaos engine, execute them with invariant checking, and
  shrink any failing schedule to a minimal repro;
* ``repro soak`` — loop seeded chaos scenarios under a time budget and
  assert that fds, RSS and every routing/transport resource plateau;
* ``repro top`` — drive a live broker fabric and render a refreshing
  per-broker rates table (matches/s, forwards/s, deliveries/s, mean
  delivery age, routing table and duplicate-buffer gauges) for a bounded
  number of frames, or with ``--json`` print the last frame's control-plane
  snapshot (per-broker counters, histograms and gauges plus the transport's
  own instruments);
* ``repro info`` — show the system inventory: packages, experiments,
  scenarios, and the paper-to-module map.

Invoke as ``python -m repro ...`` (or ``python -m repro.cli ...``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .experiments import EXPERIMENTS
from .experiments.report import QUICK_OVERRIDES, render_markdown, run_experiments
from .net.transport import TRANSPORT_NAMES

_EXPERIMENT_RANGE = f"{next(iter(EXPERIMENTS))}..{list(EXPERIMENTS)[-1]}"


def _add_fabric_arguments(parser: argparse.ArgumentParser) -> None:
    """The one fabric flag, resolved via ``SystemConfig.from_args``.

    Every subcommand that boots brokers takes ``--set KEY=VALUE`` and folds
    it into one validated :class:`~repro.config.SystemConfig` instead of
    hand-assembling a knob tuple per command.
    """
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override any SystemConfig field (repeatable), e.g. "
        "--set matcher=brute --set metrics=off",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dealing with Uncertainty in Mobile Publish/Subscribe "
            "Middleware' (Fiege et al., Middleware 2003)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command")

    experiments = subparsers.add_parser(
        "experiments", help="run the experiment suite and print the result tables"
    )
    experiments.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiment ids (default: all of {_EXPERIMENT_RANGE})",
    )
    experiments.add_argument(
        "--quick", action="store_true", help="use reduced parameters (fast smoke run)"
    )
    experiments.add_argument(
        "--report", metavar="PATH", default=None, help="also write a markdown report to PATH"
    )

    demo = subparsers.add_parser(
        "demo",
        help="run one workload on a backend and exit non-zero unless its oracle holds",
    )
    demo.add_argument(
        "workload",
        choices=DEMO_WORKLOADS,
        help="line: filtered deliveries on a broker line; handover: roaming mobile "
        "clients, diffed against the simulator; chaos: the pinned crash/sever/churn "
        "storyline, judged by the invariant library and the simulator oracle",
    )
    demo.add_argument(
        "--backend",
        choices=TRANSPORT_NAMES,
        default="asyncio",
        help="transport backend: deterministic simulator, localhost TCP sockets, or "
        "one OS process per broker (default: asyncio)",
    )
    demo.add_argument(
        "--brokers",
        type=int,
        default=None,
        help="brokers in the line (default: 3; the chaos storyline is pinned)",
    )
    demo.add_argument(
        "--publishes",
        type=int,
        default=None,
        help="line: notifications to publish (default: 20); handover: notifications "
        "per location per movement phase (default: 4); the chaos storyline is pinned",
    )
    _add_fabric_arguments(demo)

    chaos_fuzz = subparsers.add_parser(
        "chaos-fuzz",
        help="execute seeded randomized fault schedules with invariant checking and shrinking",
    )
    chaos_fuzz.add_argument(
        "--seed", type=int, default=0, help="first (or only) schedule seed (default: 0)"
    )
    chaos_fuzz.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of consecutive seeds to sweep starting at --seed (default: 1)",
    )
    chaos_fuzz.add_argument(
        "--backend",
        choices=("sim", "asyncio", "cluster"),
        default="sim",
        help="backend to fuzz; non-sim backends are also converged against the "
        "simulator oracle under the identical schedule (default: sim)",
    )
    chaos_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without shrinking the schedule first",
    )
    _add_fabric_arguments(chaos_fuzz)

    soak = subparsers.add_parser(
        "soak",
        help="loop seeded chaos scenarios under a time budget, gating resource plateaus",
    )
    soak.add_argument(
        "--backend",
        choices=("sim", "asyncio", "cluster"),
        default="asyncio",
        help="backend to soak (default: asyncio — real sockets, real fds)",
    )
    soak.add_argument(
        "--budget-sec",
        type=float,
        default=10.0,
        help="time budget in seconds; at least two iterations always run (default: 10)",
    )
    soak.add_argument(
        "--seed", type=int, default=0, help="seed of the first iteration (default: 0)"
    )
    _add_fabric_arguments(soak)

    top = subparsers.add_parser(
        "top",
        help="drive a live fabric and render a refreshing per-broker rates table",
    )
    top.add_argument(
        "--backend",
        choices=("sim", "asyncio", "cluster"),
        default="cluster",
        help="transport backend to watch (default: cluster — one OS process per broker)",
    )
    top.add_argument(
        "--brokers", type=int, default=3, help="brokers in the line topology (default: 3)"
    )
    top.add_argument(
        "--frames",
        type=int,
        default=3,
        help="refresh frames to render before exiting (bounded so CI can run it; default: 3)",
    )
    top.add_argument(
        "--batch",
        type=int,
        default=50,
        help="notifications published per frame (default: 50)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="print only the last frame's metrics snapshot, as JSON (machine-readable)",
    )
    _add_fabric_arguments(top)

    subparsers.add_parser("info", help="show the system inventory")
    return parser


def _fabric_config(args: argparse.Namespace, command: str):
    """Resolve ``--backend`` and ``--set`` into one validated ``SystemConfig``.

    Returns ``None`` after printing a usage error (unknown ``--set`` key,
    malformed value, ...) so the caller can exit 2 without a traceback.
    """
    from .config import SystemConfig

    try:
        return SystemConfig.from_args(args)
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _command_experiments(args: argparse.Namespace) -> int:
    requested = [identifier.upper() for identifier in args.ids] or list(EXPERIMENTS)
    unknown = [identifier for identifier in requested if identifier not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    overrides = (
        {key: value for key, value in QUICK_OVERRIDES.items() if key in requested}
        if args.quick
        else {}
    )
    results = run_experiments(requested, overrides)
    for experiment_id, (title, table) in results.items():
        print(f"\n=== {experiment_id}: {title} ===\n")
        print(table.formatted())
    if args.report:
        Path(args.report).write_text(render_markdown(results), encoding="utf-8")
        print(f"\nreport written to {args.report}")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    """Run one demo workload on ``--backend`` and judge it by its oracle.

    Exit 0 when the oracle holds, 1 when it does not, 2 on a usage error
    (sizes on the pinned chaos storyline, degenerate sizes, a backend the
    workload cannot run on, a bad ``--set``).
    """
    command = f"demo {args.workload}"
    run, sizes = DEMO_WORKLOADS[args.workload]
    if sizes is None:
        if args.brokers is not None or args.publishes is not None:
            print(
                f"{command}: the storyline is pinned and takes no --brokers/--publishes "
                "(repro chaos-fuzz --seed N draws variants)",
                file=sys.stderr,
            )
            return 2
    else:
        fewest, brokers, publishes = sizes
        args.brokers = brokers if args.brokers is None else args.brokers
        args.publishes = publishes if args.publishes is None else args.publishes
        if args.brokers < fewest or args.publishes < 1:
            print(f"{command} needs at least {fewest} brokers and 1 publish", file=sys.stderr)
            return 2
    config = _fabric_config(args, command)
    if config is None:
        return 2
    return run(args, config)


def _demo_line(args: argparse.Namespace, config) -> int:
    """The line workload: every subscriber gets what its filter promises.

    One subscriber per broker holds a progressively narrower filter and B1
    publishes; on the cluster backend every broker child must also exit 0.
    """
    from .pubsub.testing import run_line_workload

    print(f"demo line: {args.brokers} brokers on {args.backend!r} — {config.describe()}")
    captured = {}
    result = run_line_workload(
        args.backend,
        args.brokers,
        args.publishes,
        observer=lambda net: captured.setdefault("transport", net.transport),
        config=config,
    )
    print(f"published {args.publishes} notifications from B1")
    for outcome in result.subscribers:
        latencies = sorted(outcome.latencies)
        if latencies:
            p50 = latencies[len(latencies) // 2] * 1000
            latency_note = f"p50={p50:.2f}ms max={latencies[-1] * 1000:.2f}ms"
        else:
            latency_note = "no deliveries"
        status = "ok" if outcome.ok else "MISMATCH"
        print(
            f"  {outcome.name:<10} value>={outcome.threshold:<4} "
            f"received {outcome.received}/{outcome.expected}  {latency_note}  [{status}]"
        )
    transport = captured["transport"]
    for name, code in sorted(getattr(transport, "exit_codes", {}).items()):
        print(f"  broker {name:<8} exit code {code}")
    status = 0
    failures = getattr(transport, "failures", {})
    if failures:
        print(f"demo line FAILED: broker process failures {failures}", file=sys.stderr)
        status = 1
    if result.mismatches:
        print(
            f"demo line FAILED: {result.mismatches} subscriber(s) missed notifications",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print("deliveries verified: OK")
    return status


def _demo_handover(args: argparse.Namespace, config) -> int:
    """The handover workload, diffed against the simulator run of it.

    Mobile clients roam a line of border brokers with replicators, shadow
    virtual clients and the exception mode engaged; every mobile client's
    ``(notification, replayed)`` multiset must equal the simulator's.
    """
    from .mobility.handover_workload import cross_check_backends

    backends = ("sim",) if args.backend == "sim" else ("sim", args.backend)
    print(
        f"demo handover: {args.brokers} border brokers + replicators on "
        f"{', '.join(backends)}"
    )
    try:
        results, mismatches = cross_check_backends(
            backends=backends,
            brokers=args.brokers,
            publishes_per_phase=args.publishes,
            config=config,
        )
    except NotImplementedError as exc:  # a backend without dynamic links
        print(f"demo handover: {exc}", file=sys.stderr)
        return 2
    for backend in backends:
        result = results[backend]
        latencies = result.all_handover_latencies()
        p50 = latencies[len(latencies) // 2] * 1000 if latencies else 0.0
        print(
            f"  {backend:<8} wall={result.wall_sec:6.2f}s published={result.published:<4} "
            f"delivered={result.delivered_total():<4} handovers={result.handovers} "
            f"shadows={result.shadows_created} exception={result.exception_activations} "
            f"handover-p50={p50:.2f}ms"
        )
        for outcome in result.clients:
            print(
                f"    {outcome.name:<10} live={outcome.live:<4} replayed={outcome.replayed:<3} "
                f"duplicates={outcome.duplicates}"
            )
    if mismatches:
        for mismatch in mismatches:
            print(f"demo handover MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    if len(backends) > 1:
        print("delivered multisets identical to the simulator: OK")
    else:
        print("the simulator is the reference; nothing to diff: OK")
    return 0


def _demo_chaos(args: argparse.Namespace, config) -> int:
    """The pinned chaos storyline, judged like any fuzzed plan.

    B2 crashes (a real ``kill -9`` and supervised restart on the cluster),
    the B2-B3 edge is severed and restored, the covering subscription set
    churns across the recovered state; every invariant must hold and, off
    the simulator, the delivered sets must equal the simulator's.
    """
    from .pubsub.chaosgen import STORYLINE, judge_plan

    print(f"demo chaos on {args.backend!r}: {STORYLINE.describe()}")
    report = judge_plan(STORYLINE, args.backend, shrink=False, config=config)
    result = report.result
    delivered = sum(len(ids) for ids in result.delivered.values())
    print(
        f"  {args.backend:<8} wall={result.wall_sec:6.2f}s delivered={delivered} "
        f"lost={result.lost} replayed={result.replayed} resyncs={result.resync_markers}"
    )
    if result.recovery:
        actions = ", ".join(f"{k}={v}" for k, v in sorted(result.recovery.items()))
        print(f"           recovery: {actions}")
    if not report.ok:
        for violation in report.violations:
            print(f"demo chaos FAILED: {violation}", file=sys.stderr)
        return 1
    print("chaos storyline held every invariant: OK")
    return 0


#: ``repro demo`` workload -> (handler, (fewest brokers, default brokers,
#: default publishes)); the chaos storyline is a pinned plan and takes no sizes
DEMO_WORKLOADS = {
    "line": (_demo_line, (2, 3, 20)),
    "handover": (_demo_handover, (3, 3, 4)),
    "chaos": (_demo_chaos, None),
}


def _command_chaos_fuzz(args: argparse.Namespace) -> int:
    """Sweep seeded fault schedules through the property-based chaos engine.

    Each seed deterministically draws a topology, traffic shape and fault
    schedule; the engine executes it with invariant checking (plus a
    sim-oracle convergence check on real backends) and shrinks any failing
    schedule to a minimal repro.  The printed repro command replays a
    failure byte-identically on any machine.
    """
    from .pubsub.chaosgen import run_chaos_fuzz

    if args.seeds < 1:
        print("chaos-fuzz needs at least 1 seed", file=sys.stderr)
        return 2
    config = _fabric_config(args, "chaos-fuzz")
    if config is None:
        return 2
    print(
        f"chaos-fuzz: {args.seeds} seed(s) starting at {args.seed} "
        f"on {args.backend!r}"
    )
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        report = run_chaos_fuzz(
            seed,
            backend=args.backend,
            shrink=not args.no_shrink,
            config=config,
        )
        print("  " + report.summary())
        if not report.ok:
            failures += 1
            for violation in report.violations:
                print(f"    {violation}", file=sys.stderr)
            if report.shrunk is not None:
                shrunk = " ".join(e.describe() for e in report.shrunk.events) or "(empty)"
                print(f"    minimal failing schedule: {shrunk}", file=sys.stderr)
    if failures:
        print(f"chaos-fuzz FAILED: {failures}/{args.seeds} seed(s)", file=sys.stderr)
        return 1
    print(f"all {args.seeds} seed(s) held every invariant: OK")
    return 0


def _command_soak(args: argparse.Namespace) -> int:
    """Loop seeded chaos scenarios until the budget expires, gating plateaus.

    After a warmup iteration the process-level resources (open fds, RSS) and
    every per-scenario resource (routing tables, registries, links, timers)
    must return to their baseline on each subsequent iteration — the soak
    fails fast on the first leak or invariant violation, printing the seed
    that exposed it.
    """
    from .pubsub.chaosgen import run_soak

    if args.budget_sec <= 0:
        print("soak needs a positive --budget-sec", file=sys.stderr)
        return 2
    config = _fabric_config(args, "soak")
    if config is None:
        return 2
    print(f"soak: {args.backend!r} backend for ~{args.budget_sec:.0f}s, seed {args.seed}+")
    result = run_soak(
        backend=args.backend, budget_sec=args.budget_sec, seed=args.seed, config=config
    )
    plateau = ", ".join(
        f"{key}={value}" for key, value in sorted(result.plateau_final.items())
    )
    print(
        f"  {result.iterations} iteration(s) in {result.wall_sec:.1f}s "
        f"(seeds {result.seeds[0]}..{result.seeds[-1]}); plateau: {plateau or 'n/a'}"
    )
    if not result.ok:
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        failing = result.seeds[-1]
        print(
            f"soak FAILED at seed {failing}; repro: repro chaos-fuzz --seed {failing} "
            f"--backend {args.backend}",
            file=sys.stderr,
        )
        return 1
    print("resource plateaus held across all iterations: OK")
    return 0


def _command_top(args: argparse.Namespace) -> int:
    """Drive a live fabric and render per-broker rates, one frame at a time.

    Each frame publishes a batch, drains to quiescence, snapshots the
    control plane and prints the per-broker counter *deltas* as rates over
    the frame's wall time, next to the point-in-time gauges.  ``--frames``
    bounds the loop so CI (and impatient humans) get a clean exit.  With
    ``--json`` no table is printed: the last frame's snapshot (gathered by
    ``Transport.metrics_snapshot()``, over the control connections on the
    cluster backend) is printed as JSON instead.
    """
    import json
    import time

    from .pubsub.broker_network import line_topology
    from .pubsub.filters import AtLeast, Equals, Filter
    from .pubsub.notification import Notification

    if args.brokers < 2:
        print("top needs at least 2 brokers", file=sys.stderr)
        return 2
    if args.frames < 1 or args.batch < 1:
        print("top needs at least 1 frame and a positive --batch", file=sys.stderr)
        return 2
    config = _fabric_config(args, "top")
    if config is None:
        return 2

    if not args.json:
        print(f"top: {args.brokers} brokers on {args.backend!r} — {config.describe()}")
    net = line_topology(n_brokers=args.brokers, config=config)
    try:
        for i, broker_name in enumerate(net.broker_names()):
            client = net.add_client(f"sub@{broker_name}", broker_name)
            client.subscribe(
                Filter([Equals("topic", "top"), AtLeast("value", i * args.batch // 2)]),
                sub_id=f"top-{broker_name}",
            )
        net.run_until_idle()
        publisher = net.add_client("publisher", net.broker_names()[0])

        previous: dict = {}
        previous_ages: dict = {}
        published = 0
        for frame in range(args.frames):
            start = time.perf_counter()
            for _ in range(args.batch):
                publisher.publish(Notification({"topic": "top", "value": published}))
                published += 1
            net.run_until_idle()
            elapsed = max(time.perf_counter() - start, 1e-9)
            snapshot = net.transport.metrics_snapshot()
            if args.json:
                continue
            print(
                f"-- frame {frame + 1}/{args.frames}: {args.batch} publishes "
                f"in {elapsed * 1000:.1f}ms"
            )
            print(
                f"   {'broker':<8} {'match/s':>9} {'fwd/s':>9} {'deliver/s':>9} "
                f"{'age-ms':>8} {'routes':>7} {'fwd-subs':>8}"
            )
            for name, broker in sorted(snapshot["brokers"].items()):
                counters, gauges = broker["counters"], broker["gauges"]
                prev = previous.get(name, {})

                def rate(key, _c=counters, _p=prev):
                    return (_c.get(key, 0) - _p.get(key, 0)) / elapsed

                # mean publish-to-deliver age over this frame's deliveries,
                # from the delivery_age histogram's sum/count deltas
                age_stats = broker["histograms"].get("broker.delivery_age", {})
                prev_age = previous_ages.get(name, {})
                age_count = age_stats.get("count", 0) - prev_age.get("count", 0)
                age_sum = age_stats.get("sum", 0.0) - prev_age.get("sum", 0.0)
                age_ms = f"{age_sum / age_count * 1000:.2f}" if age_count > 0 else "-"

                print(
                    f"   {name:<8} {rate('broker.matches'):>9.0f} "
                    f"{rate('broker.forwards'):>9.0f} "
                    f"{rate('broker.delivered_locally'):>9.0f} "
                    f"{age_ms:>8} "
                    f"{gauges.get('broker.routing_table_size', 0):>7} "
                    f"{gauges.get('broker.forwarded_subscriptions', 0):>8}"
                )
                previous[name] = dict(counters)
                previous_ages[name] = dict(age_stats)
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(f"top: published {published} notifications over {args.frames} frame(s)")
        return 0
    finally:
        net.close()


def _command_info(_args: argparse.Namespace) -> int:
    print("repro — mobile publish/subscribe middleware reproduction")
    print()
    print("Packages:")
    print(
        "  repro.net          transport substrates: deterministic simulator, asyncio TCP, "
        "multi-process cluster"
    )
    print("  repro.pubsub       REBECA-style content-based pub/sub")
    print("  repro.core         mobility support (physical, logical, extended logical)")
    print("  repro.mobility     mobility models, workloads, scenarios")
    print(f"  repro.experiments  experiment suite ({_EXPERIMENT_RANGE})")
    print()
    print("Experiments:")
    for experiment_id, (title, _run) in EXPERIMENTS.items():
        print(f"  {experiment_id:4s} {title}")
    print()
    workloads, backends = ",".join(DEMO_WORKLOADS), "|".join(TRANSPORT_NAMES)
    print(f"Demos: repro demo {{{workloads}}} [--backend {backends}]")
    return 0


_COMMANDS = {
    "experiments": _command_experiments,
    "demo": _command_demo,
    "chaos-fuzz": _command_chaos_fuzz,
    "soak": _command_soak,
    "top": _command_top,
    "info": _command_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro.cli
    raise SystemExit(main())
