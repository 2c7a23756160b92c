"""The cost ledger: one workload per invocation, every metric by name.

    python3 benchmarks/budget/run.py --workload line_sat_tcp --seed 12 --seconds 12 --trace 0

runs repetitions of one workload for ``--seconds``, checks every delivered set
against the workload's oracle and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace
0`` yields the end-to-end metrics (tracing off); ``--trace 1`` the separate
traced run that yields the per-layer metrics.  Without ``--workload`` every
workload runs in a child process of its own and a table is printed;
``--repeat-check`` does that twice and fails if the two disagree by more than
the bounds in ``BENCHMARK.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: repetitions measured at least, whatever ``--seconds`` says
MIN_REPS = 3


def load_program() -> None:
    """Make ``repro`` importable from the checkout's ``src`` — or stop."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        sys.exit(f"cannot import the program under {ROOT / 'src'}: {error}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float) -> Tuple[List, int, int]:
    """One discarded warm-up repetition, then repetitions until ``seconds`` passed.

    Returns (measured reps, attempted, failed); the warm-up is checked too.
    """
    from calibrate import reference_s, timed_rep

    reps, attempted, failed = [], 0, 0
    started = None
    reading = reference_s()
    while started is None or len(reps) < MIN_REPS or perf_counter() - started < seconds:
        rep, reading = timed_rep(workload, reading)
        attempted += rep.expected
        failed += rep.failed
        if started is None:
            started = perf_counter()  # the warm-up repetition ends here
        else:
            reps.append(rep)
    return reps, attempted, failed


def end_to_end(reps) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric: the median over the measured repetitions."""
    return {
        "deliveries_per_s": metric(
            median(r.deliveries / (r.wall_s * r.wall_scale) for r in reps), "1/s"
        ),
        "op_p50_ms": metric(median(median(r.op_ms) * r.op_scale for r in reps), "ms"),
        "within_slo_share": metric(median(r.on_time_share for r in reps), "share"),
        "setup_s": metric(median(r.setup_s * r.wall_scale for r in reps), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> int:
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print(
        f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"transport={'loopback' if workload.transport == 'asyncio' else 'none (simulator)'}"
    )
    if args.trace:
        from layers import per_layer

        out = Path(args.out) if args.out else HERE / ".out" / f"trace-{workload.name}.json"
        metrics, attempted, failed = per_layer(workload, args.seconds, out)
    else:
        reps, attempted, failed = measure(workload, args.seconds)
        metrics = end_to_end(reps)
        samples = sum(len(r.op_ms) for r in reps)
        raw = median(r.deliveries / r.wall_s for r in reps)
        print(
            f"# {len(reps)} repetitions, {samples} timed operations; machine-speed scale "
            f"{median(r.op_scale for r in reps):.3f}, uncalibrated {raw:.6g} deliveries/s"
        )
    for name, entry in metrics.items():
        print(f"# {name:<46} {entry['value']:>14.6g} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ------------------------------------------------------- the whole suite at once


def run_child(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One workload in a fresh process; its result object."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args, trace: int) -> Dict[Tuple[str, str], float]:
    """Every workload in a child process of its own; {(workload, metric): value}."""
    values = {}
    for entry in json.loads(MANIFEST.read_text())["workloads"]:
        result = run_child(entry["name"], args.seed, args.seconds, trace)
        print(f"{entry['name']}: attempted={result['attempted']} failed={result['failed']}")
        for name, item in result["metrics"].items():
            values[entry["name"], name] = item["value"]
            print(f"  {name:<46} {item['value']:>14.6g} {item['unit']}")
    return values


def repeat_check(args) -> int:
    """Run the suite twice; every end-to-end metric must agree within its bound."""
    bounds = {m["name"]: m for m in json.loads(MANIFEST.read_text())["end_to_end"]}
    first, second = run_suite(args, 0), run_suite(args, 0)
    worst = 0
    header = ("workload", "metric", "first", "second", "spread", "bound")
    print("\n{:<16} {:<18} {:>12} {:>12} {:>8} {:>6}".format(*header))
    for (workload, name), a in first.items():
        b = second[workload, name]
        spread = abs(a - b) / min(abs(a), abs(b))
        over = spread > bounds[name]["bound"]
        worst += over
        flag = "  <-- over" if over else ""
        print(
            f"{workload:<16} {name:<18} {a:>12.5g} {b:>12.5g} {spread:>8.3f} "
            f"{bounds[name]['bound']:>6}{flag}"
        )
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; omit to run them all in child processes")
    parser.add_argument("--seed", type=int, default=12, help="drives every input generator")
    parser.add_argument("--seconds", type=float, default=12.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where --trace 1 writes its spans (default: .out/ here)")
    parser.add_argument("--repeat-check", action="store_true", help="run the suite twice, compare")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    if args.repeat_check:
        return repeat_check(args)
    run_suite(args, args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
