"""E7 — Buffering policies for shadow virtual clients (Sect. 4, "Embedding event histories").

A shadow buffers the location-relevant notifications that arrive before the
client does.  The paper lists the policy space — time-based, history(count)-
based, their combination, and semantic nullification — and asks "what are the
best buffering schemes for certain applications?".

The experiment feeds every policy the same bursty notification stream (menus
and sensor readings arriving in bursts with quiet periods) and then lets the
client "arrive" at a configurable time, measuring:

* ``replayed`` — how many notifications the arriving client receives;
* ``useful_replayed`` — how many of those are still current (published within
  the freshness horizon the application cares about);
* ``stale_replayed`` — replayed but outdated;
* ``peak_memory`` — the largest buffer footprint during the wait;
* ``evicted`` — notifications the policy dropped.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..core.buffering import NotificationBuffer, make_policy
from ..pubsub.notification import Notification
from .harness import Table

POLICIES = ("unbounded", "time", "count", "combined", "semantic")


def run(
    policies: Sequence[str] = POLICIES,
    wait_time: float = 120.0,
    burst_period: float = 10.0,
    burst_size: int = 6,
    freshness_horizon: float = 30.0,
    ttl: float = 30.0,
    max_entries: int = 12,
    n_sources: int = 4,
    seed: int = 7,
) -> Table:
    """Run the buffering-policy comparison and return the result table."""
    table = Table(
        "E7: buffering policies at shadow virtual clients",
        columns=[
            "policy",
            "buffered",
            "evicted",
            "replayed",
            "useful_replayed",
            "stale_replayed",
            "peak_memory",
        ],
        description=f"Bursty stream for {wait_time}s before the client arrives; useful = newer than {freshness_horizon}s.",
    )
    stream = _bursty_stream(wait_time, burst_period, burst_size, n_sources, seed)
    for policy_name in policies:
        row = _run_policy(policy_name, stream, wait_time, freshness_horizon, ttl, max_entries)
        table.add_row(policy=policy_name, **row)
    return table


def _semantic_key(notification: Notification) -> tuple:
    """A newer reading from the same source at the same place nullifies an older one."""
    return (notification.get("service"), notification.get("location"), notification.get("source"))


def _bursty_stream(
    wait_time: float, burst_period: float, burst_size: int, n_sources: int, seed: int
) -> List[Notification]:
    """A deterministic bursty stream of (time-stamped) notifications."""
    rng = random.Random(seed)
    stream: List[Notification] = []
    time = 0.0
    while time < wait_time:
        for source in range(n_sources):
            if rng.random() < 0.7:  # not every source fires in every burst
                for index in range(burst_size):
                    published_at = time + index * 0.05
                    stream.append(
                        Notification(
                            {
                                "service": "restaurant-menu",
                                "location": "km-05",
                                "source": f"src-{source}",
                                "index": index,
                                "payload": "x" * rng.randint(10, 40),
                            },
                            published_at=published_at,
                        )
                    )
        time += burst_period
    stream.sort(key=lambda n: n.published_at)
    return stream


def _run_policy(
    policy_name: str,
    stream: List[Notification],
    wait_time: float,
    freshness_horizon: float,
    ttl: float,
    max_entries: int,
) -> Dict[str, object]:
    policy = make_policy(policy_name, ttl=ttl, max_entries=max_entries, key_function=_semantic_key)
    buffer = NotificationBuffer(policy)
    peak_memory = 0
    for notification in stream:
        buffer.add(notification, now=notification.published_at)
        peak_memory = max(peak_memory, buffer.memory_bytes())
    replay = buffer.drain(now=wait_time)
    useful = sum(1 for n in replay if wait_time - n.published_at <= freshness_horizon)
    return {
        "buffered": buffer.added,
        "evicted": buffer.evicted,
        "replayed": len(replay),
        "useful_replayed": useful,
        "stale_replayed": len(replay) - useful,
        "peak_memory": peak_memory,
    }
