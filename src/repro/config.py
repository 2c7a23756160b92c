"""Unified system configuration for the pub/sub middleware.

:class:`SystemConfig` is the one object that names every tunable the
broker fabric understands — matcher strategy, advertising mode, transport
backend, wire codec, socket flush cap, duplicate-suppression capacity and
the live-metrics switch.  It is the only way to choose them:
:class:`~repro.pubsub.broker_network.BrokerNetwork`, the topology
builders, the workloads and every CLI demo take one ``config=`` and no
loose ``matcher=/advertising=/transport=/codec=`` kwargs.

The dataclass is frozen and validated at construction: an unknown name
fails *immediately* with the allowed set in the message, instead of
surfacing deep inside broker construction (a silent-typo hole
``matcher="indxed"`` once fell through).  ``to_dict`` /
``from_dict`` round-trip it over the wire — cluster node specs carry one,
and the ``configure`` control op ships partial overlays validated against
:data:`RUNTIME_KNOBS`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.net.transport import RUNTIME_KNOBS, TRANSPORT_NAMES, check_positive
from repro.net.wire import CODEC_NAMES
from repro.pubsub.routing import ADVERTISING_NAMES
from repro.pubsub.routing_table import MATCHER_NAMES

__all__ = ["SystemConfig", "RUNTIME_KNOBS", "DEFAULT_FLUSH_CAP", "DEFAULT_DUPLICATES_CAPACITY"]

DEFAULT_FLUSH_CAP = 64 * 1024
DEFAULT_DUPLICATES_CAPACITY = 65536

_NAME_SETS = {
    "matcher": MATCHER_NAMES,
    "advertising": ADVERTISING_NAMES,
    "transport": TRANSPORT_NAMES,
    "codec": CODEC_NAMES,
}


def _check_name(field: str, value: str) -> None:
    allowed = _NAME_SETS[field]
    if value not in allowed:
        raise ValueError(f"unknown {field} {value!r}; allowed: {', '.join(allowed)}")


@dataclass(frozen=True)
class SystemConfig:
    """Every system-wide tunable, validated once, passed everywhere.

    >>> SystemConfig(matcher="brute", transport="asyncio").to_dict()["matcher"]
    'brute'
    >>> SystemConfig(matcher="indxed")
    Traceback (most recent call last):
        ...
    ValueError: unknown matcher 'indxed'; allowed: brute, indexed
    """

    matcher: str = "indexed"
    advertising: str = "incremental"
    transport: str = "sim"
    codec: str = "json"
    flush_cap: int = DEFAULT_FLUSH_CAP
    duplicates_capacity: int = DEFAULT_DUPLICATES_CAPACITY
    metrics: bool = True

    def __post_init__(self) -> None:
        for field in ("matcher", "advertising", "transport", "codec"):
            _check_name(field, getattr(self, field))
        check_positive("flush_cap", self.flush_cap)
        check_positive("duplicates_capacity", self.duplicates_capacity)
        if not isinstance(self.metrics, bool):
            raise ValueError(f"metrics must be a bool, got {self.metrics!r}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict, suitable for cluster node specs and ``configure``."""
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
    def from_args(cls, ns: Any, transport: Optional[str] = None) -> "SystemConfig":
        """Build a config from an argparse namespace.

        Reads the conventional CLI attribute names when present —
        ``backend`` (transport), ``codec``, ``matcher``, ``advertising`` —
        then applies any repeatable ``--set key=value`` overlays collected
        in ``ns.set``.  ``transport`` overrides the namespace backend, for
        subcommands that resolve it themselves (e.g. ``both`` modes).
        """
        base: Dict[str, Any] = {}
        backend = transport if transport is not None else getattr(ns, "backend", None)
        if backend is not None:
            base["transport"] = backend
        for field in ("codec", "matcher", "advertising"):
            value = getattr(ns, field, None)
            if value is not None:
                base[field] = value
        config = cls(**base)
        overlays = getattr(ns, "set", None) or ()
        if overlays:
            config = config.with_overrides(overlays)
        return config

    def with_overrides(self, pairs: Iterable[str]) -> "SystemConfig":
        """Apply ``key=value`` strings (the ``--set`` flag) onto this config."""
        changes: Dict[str, Any] = {}
        known = {f.name: f for f in dataclasses.fields(self)}
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
            f"transport={self.transport} codec={self.codec} matcher={self.matcher} "
            f"advertising={self.advertising} flush_cap={self.flush_cap} "
            f"duplicates_capacity={self.duplicates_capacity} "
            f"metrics={'on' if self.metrics else 'off'}"
        )


def _coerce(key: str, raw: str) -> Any:
    if key in ("flush_cap", "duplicates_capacity"):
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{key} expects an integer, got {raw!r}") from None
    if key == "metrics":
        lowered = raw.lower()
        if lowered in ("1", "true", "on", "yes"):
            return True
        if lowered in ("0", "false", "off", "no"):
            return False
        raise ValueError(f"metrics expects a boolean, got {raw!r}")
    return raw
