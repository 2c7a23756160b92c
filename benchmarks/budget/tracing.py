"""In-memory spans recorded from the benchmark's side of the public API.

A :class:`Tracer` wraps public methods of the program (``Client.publish``,
``Transport.run_until_idle``, ``MobilePubSub.move`` ...) for the duration of
one traced repetition, so every call the benchmark — or a program-owned
workload it drives — makes into a layer becomes a span.  Nothing under
``src/`` is edited; the wrappers are removed when the repetition ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: (owner class, method name, layer) — the call boundaries that become spans
Boundary = Tuple[type, str, str]


class Tracer:
    """Spans as ``[name, layer, start, end, parent]`` rows, parent = row index."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = len(self.spans)
        row = [name, layer, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            row[3] = perf_counter()
            self._open.pop()

    def _wrap(self, function: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return function(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, boundaries: List[Boundary]) -> Iterator[None]:
        """Wrap every boundary method for the duration of the block."""
        originals = []
        for owner, attr, layer in boundaries:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{owner.__name__}.{attr}", layer))
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # ------------------------------------------------------------- summaries
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total seconds and self seconds (minus children)."""
        child_time = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {}
        for (_name, layer, start, end, _parent), children in zip(self.spans, child_time):
            entry = layers.setdefault(layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return layers

    def mean_duration(self, name: str) -> float:
        """Mean seconds of the spans called ``name`` (0 when there are none)."""
        durations = [end - start for n, _l, start, end, _p in self.spans if n == name]
        return sum(durations) / len(durations) if durations else 0.0

    def write(self, path, counters: Dict[str, float]) -> None:
        """One JSON file: the spans, the per-layer self times and the counters."""
        payload = {
            "workload": self.workload,
            "columns": ["name", "layer", "start", "end", "parent", "workload"],
            "spans": [row + [self.workload] for row in self.spans],
            "layers": self.self_times(),
            "counters": counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
