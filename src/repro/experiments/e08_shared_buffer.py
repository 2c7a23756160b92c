"""E8 — Shared buffer vs per-virtual-client buffers (Sect. 4).

"If virtual clients buffer notifications individually, they may consume
memory redundantly by keeping the same data.  A shared buffer at the border
broker can be used and virtual clients can keep only the digest (e.g., IDs or
hash) of the events."

This experiment co-locates ``k`` shadow virtual clients with overlapping
location-dependent subscriptions at one border broker and feeds their
:class:`~repro.core.buffering.NotificationBuffer` instances the same
notification objects, as a replicator does.  It then compares two accountings
of the same buffers: ``individual_bytes`` charges every client for every
notification it holds, ``shared_bytes``
(:func:`~repro.core.buffering.shared_footprint`) charges each distinct
notification once plus one reference per entry.  ``stored_once`` counts the
distinct notifications, ``digests_held`` the references.

Expected shape: individual memory grows ~linearly with ``k`` while the shared
footprint stays ~flat (every notification counted once) plus a small
per-client reference cost.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..core.buffering import CountBasedPolicy, NotificationBuffer, shared_footprint
from ..pubsub.notification import Notification
from .harness import Table


def run(
    client_counts: Sequence[int] = (1, 2, 4, 8, 16),
    stream_length: int = 200,
    overlap: float = 0.8,
    max_entries: int = 100,
    seed: int = 8,
) -> Table:
    """Run the memory comparison and return the result table."""
    table = Table(
        "E8: individual buffers vs shared digest buffer",
        columns=[
            "clients",
            "individual_bytes",
            "shared_bytes",
            "saving_ratio",
            "stored_once",
            "digests_held",
        ],
        description=f"{stream_length} buffered notifications, {int(overlap * 100)}% subscription overlap.",
    )
    for k in client_counts:
        row = _run_once(k, stream_length, overlap, max_entries, seed)
        table.add_row(clients=k, **row)
    return table


def _stream(length: int, seed: int) -> List[Notification]:
    rng = random.Random(seed)
    stream = []
    for index in range(length):
        stream.append(
            Notification(
                {
                    "service": "weather",
                    "location": f"cell-{index % 5}-0",
                    "forecast": rng.choice(["sunny", "rain", "fog"]),
                    "detail": "y" * rng.randint(20, 60),
                },
                published_at=float(index),
            )
        )
    return stream


def _run_once(
    k: int, stream_length: int, overlap: float, max_entries: int, seed: int
) -> Dict[str, object]:
    rng = random.Random(seed + k)
    stream = _stream(stream_length, seed)

    # Which clients buffer which notification: the first client buffers all,
    # the others buffer an `overlap` fraction (overlapping subscriptions).
    interest: List[List[bool]] = []
    for client in range(k):
        if client == 0:
            interest.append([True] * len(stream))
        else:
            interest.append([rng.random() < overlap for _ in stream])

    buffers = [NotificationBuffer(CountBasedPolicy(max_entries)) for _ in range(k)]
    for index, notification in enumerate(stream):
        for client in range(k):
            if interest[client][index]:
                buffers[client].add(notification, now=notification.published_at)
    individual_bytes = sum(buffer.memory_bytes() for buffer in buffers)
    shared_bytes = shared_footprint(buffers)

    return {
        "individual_bytes": individual_bytes,
        "shared_bytes": shared_bytes,
        "saving_ratio": round(individual_bytes / shared_bytes, 2) if shared_bytes else 0.0,
        "stored_once": len({id(n) for buffer in buffers for n in buffer.contents()}),
        "digests_held": sum(len(buffer) for buffer in buffers),
    }
