"""Checks of the benchmark itself (not of the program).

    python3 benchmarks/budget/selfcheck.py          # manifest + load generator, < 1 s
    python3 benchmarks/budget/selfcheck.py --runs   # plus two short runs of every workload

* the manifest names exactly the workloads and metrics the code emits;
* a deliberately stalled loop inflates the open-loop generator's latency
  instead of hiding it, and nothing due during the stall is skipped;
* with ``--runs``: every workload emits every declared metric, no delivery
  fails its oracle, and every count-type layer metric repeats exactly.
"""

from __future__ import annotations

import heapq
import json
import random
import re
import sys

from run import MANIFEST, load_program, run_child

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: per-layer units whose values are counted by the program, not timed
COUNTED = {"count", "bytes", "share"}
#: counted, but from wall-clock measurements
TIMED = {
    "obs.metrics.overhead_share",
    "bench.trace.overhead_share",
    "bench.ledger.accounted_share",
    "net.transport.frames_per_write",  # how many frames a write batches depends on timing
}


def require(condition, message: str) -> None:
    """Like ``assert``, but not removed under ``python -O``."""
    if not condition:
        raise SystemExit(f"FAIL  {message}")


def check_manifest() -> dict:
    from layers import UNITS
    from workloads import WORKLOADS

    manifest = json.loads(MANIFEST.read_text())
    declared = {w["name"]: w["why"] for w in manifest["workloads"]}
    require(declared == {name: cls.why for name, cls in WORKLOADS.items()}, "workloads differ")
    layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    require(layer_units == UNITS, "per-layer metrics differ from layers.UNITS")
    names = list(declared) + list(layer_units) + [m["name"] for m in manifest["end_to_end"]]
    require(all(NAME.match(name) for name in names), "a name is outside [A-Za-z0-9_.-]")
    require(len(set(names)) == len(names), "a name is used twice")
    require(manifest["paths"] == ["benchmarks/budget"], "paths is not this directory")
    return manifest


class StallingClock:
    """A transport clock whose loop can be blocked: time passes, no timer fires."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: list = []

    def schedule(self, delay: float, callback) -> None:
        heapq.heappush(self._timers, (self.now + delay, len(self._timers), callback))

    def run(self) -> None:
        while self._timers:
            when, _order, callback = heapq.heappop(self._timers)
            self.now = max(self.now, when)
            callback()


def check_stalled_loop() -> None:
    from loadgen import OpenLoopGenerator, uniform_schedule

    clock = StallingClock()
    due = uniform_schedule(random.Random(7), 1000, 0.0, 1.0)  # 1000/s for one second
    stall, service = 0.050, 0.001
    received = {}

    def send(i: int) -> None:
        received[i] = clock.now + service
        if i == 300:
            clock.now += stall  # a slow handler blocks the loop for 50 ms

    generator = OpenLoopGenerator(clock, send, due)
    generator.start()
    clock.run()
    require(len(generator.sent_at) == len(due), "the generator skipped notifications")
    require(generator.sent_at == sorted(generator.sent_at), "sent out of order")
    from_send = [received[i] - generator.sent_at[i] for i in range(len(due))]
    from_due = [received[i] - due[i] for i in range(len(due))]
    require(max(from_send) <= service + 1e-9, "timing from the send time hides the stall")
    late = [latency for latency in from_due if latency > 0.010]
    # at 1000/s about 40 notifications fall due in the 40 ms beyond the limit
    require(25 <= len(late) <= 60, f"{len(late)} late deliveries after a 50 ms stall")
    require(stall - 0.002 <= max(generator.lateness()) <= stall, "lateness misses the stall")


def check_runs(manifest: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for entry in manifest["workloads"]:
        plain = run_child(entry["name"], 12, 1, 0)
        name = entry["name"]
        require(set(plain) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
        require(plain["correct"] and plain["failed"] == 0, f"{name}: a delivery failed its oracle")
        require(plain["attempted"] >= 1, f"{name}: nothing attempted")
        emitted = {n: m["unit"] for n, m in plain["metrics"].items()}
        require(emitted == end_to_end, f"{name}: end-to-end metrics differ from the manifest")
        require(all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: a metric is 0")
        first, second = (run_child(entry["name"], 12, 1, 1) for _ in range(2))
        emitted = {n: m["unit"] for n, m in first["metrics"].items()}
        require(emitted == per_layer, f"{name}: per-layer metrics differ from the manifest")
        for metric, unit in per_layer.items():
            if unit in COUNTED and metric not in TIMED:
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                require(a == b, f"{name}: {metric} read {a} then {b}")
        print(f"ok  {name}")


def main() -> int:
    load_program()
    manifest = check_manifest()
    print("ok  manifest")
    check_stalled_loop()
    print("ok  stalled loop inflates latency")
    if "--runs" in sys.argv[1:]:
        check_runs(manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
