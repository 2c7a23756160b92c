"""Unified system configuration for the pub/sub middleware.

:class:`SystemConfig` is the one object that names what a deployment of
the broker fabric chooses — matcher strategy, transport backend and the
live-metrics switch.  It is the only way to choose them:
:class:`~repro.pubsub.broker_network.BrokerNetwork`, the topology
builders, the workloads and every CLI demo take one ``config=`` and no
loose ``matcher=/transport=`` kwargs.  What no deployment chooses is a
constant of the class that uses it (the socket write-batching threshold,
the size of the duplicate-suppression memory), and the scan specification
of subscription control is a test oracle (:mod:`repro.pubsub.testing`).
Sockets speak one wire, the binary codec: ``codec`` has the one value
``"binary"`` and stays a field only because the benchmark ledger
(``benchmarks/budget``) names it.

The dataclass is frozen and validated at construction: an unknown name
fails *immediately* with the allowed set in the message, instead of
surfacing deep inside broker construction (a silent-typo hole
``matcher="indxed"`` once fell through).  It is read once, when its
transport is built (``make_transport``): the transport keeps it as
``system_config``, its own metrics registry follows ``metrics`` and every
broker it builds takes its knobs from it; a running broker keeps them.
``to_dict`` / ``from_dict`` round-trip it over the wire: every cluster
node spec carries one, and the broker child reads its knobs from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping

from repro.net.transport import TRANSPORT_NAMES
from repro.pubsub.routing_table import MATCHER_NAMES

__all__ = ["SystemConfig"]

_NAME_SETS = {
    "matcher": MATCHER_NAMES,
    "transport": TRANSPORT_NAMES,
    # the one wire every socket speaks (JSON is a reference codec, no choice)
    "codec": ("binary",),
}


def _check_name(field: str, value: str) -> None:
    allowed = _NAME_SETS[field]
    if value not in allowed:
        raise ValueError(f"unknown {field} {value!r}; allowed: {', '.join(allowed)}")


@dataclass(frozen=True)
class SystemConfig:
    """Every deployment choice of the fabric, validated once, passed everywhere.

    >>> SystemConfig(matcher="brute", transport="asyncio").to_dict()["matcher"]
    'brute'
    >>> SystemConfig(matcher="indxed")
    Traceback (most recent call last):
        ...
    ValueError: unknown matcher 'indxed'; allowed: brute, indexed
    """

    matcher: str = "indexed"
    transport: str = "sim"
    codec: str = "binary"
    metrics: bool = True

    def __post_init__(self) -> None:
        for field in _NAME_SETS:
            _check_name(field, getattr(self, field))
        if not isinstance(self.metrics, bool):
            raise ValueError(f"metrics must be a bool, got {self.metrics!r}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict, suitable for cluster node specs."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SystemConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown SystemConfig key(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))

    def replace(self, **changes: Any) -> "SystemConfig":
        """A copy with ``changes`` applied (re-validated by construction)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_args(cls, ns: Any) -> "SystemConfig":
        """Build a config from an argparse namespace.

        Reads exactly two attributes: ``backend`` (the transport, when
        present) and the repeatable ``--set key=value`` overlays collected
        in ``ns.set``, which name every other field.  The transport has one
        flag: ``--set transport=...`` is refused.
        """
        pairs = getattr(ns, "set", None) or ()
        if any(pair.partition("=")[0] == "transport" for pair in pairs):
            raise ValueError("the transport is not a --set key; name it with --backend")
        backend = getattr(ns, "backend", None)
        config = cls() if backend is None else cls(transport=backend)
        return config.with_overrides(pairs)

    def with_overrides(self, pairs: Iterable[str]) -> "SystemConfig":
        """Apply ``key=value`` strings (the ``--set`` flag) onto this config."""
        changes: Dict[str, Any] = {}
        known = {f.name for f in dataclasses.fields(self)}
        for pair in pairs:
            key, sep, raw = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"--set expects key=value, got {pair!r}")
            if key not in known:
                raise ValueError(
                    f"unknown SystemConfig key {key!r}; allowed: {', '.join(sorted(known))}"
                )
            changes[key] = _coerce(key, raw)
        return self.replace(**changes) if changes else self

    def describe(self) -> str:
        """One-line human summary (used by ``repro info`` style output)."""
        return (
            f"transport={self.transport} matcher={self.matcher} "
            f"metrics={'on' if self.metrics else 'off'}"
        )


def _coerce(key: str, raw: str) -> Any:
    if key == "metrics":
        lowered = raw.lower()
        if lowered in ("1", "true", "on", "yes"):
            return True
        if lowered in ("0", "false", "off", "no"):
            return False
        raise ValueError(f"metrics expects a boolean, got {raw!r}")
    return raw
