"""Basic logical mobility: location-dependent subscriptions without replication.

This module reproduces the *existing* REBECA mechanism the paper builds upon
([5]): a client with location-dependent subscriptions whose ``myloc`` binding
is adapted whenever the client's location changes.  "In the current
implementation, location-awareness is only efficiently supported if client
movements remain within the boundaries of a single border broker.  Whenever a
client leaves this range, the location-dependent subscriptions have to be
re-issued at the next broker the client connects to causing a non-negligible
overhead." (Sect. 1)

:class:`LocationAwareClient` is exactly that baseline: it manages its own
``myloc`` templates, re-binds them on every location change, and re-issues
them from scratch when it is re-attached to a different border broker.  It is
used by experiment E3 (precision of location-dependent delivery) and as the
reactive comparison point for the replicator of experiment E4.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..net.simulator import Simulator
from ..pubsub.client import Client
from ..pubsub.filters import Filter
from ..pubsub.subscription import Subscription
from .location import LocationSpace
from .location_filter import LocationDependentFilter

_binding_counter = itertools.count(1)


class LocationAwareClient(Client):
    """A wired/portable client whose location-dependent subscriptions follow it around.

    The client must be attached to a border broker with the ordinary
    :class:`~repro.pubsub.broker_network.BrokerNetwork` machinery; this class
    only adds the ``myloc`` bookkeeping on top of the plain pub/sub API.
    """

    def __init__(self, sim: Simulator, name: str, space: LocationSpace):
        super().__init__(sim, name)
        self.space = space
        self.location: Optional[str] = None
        self.templates: Dict[str, LocationDependentFilter] = {}
        self._bound_subs: Dict[str, Subscription] = {}
        self.rebinds = 0
        self.location_trace: List[Tuple[float, str]] = []

    # ---------------------------------------------------------------- templates
    def subscribe_location(
        self, template: LocationDependentFilter, template_id: Optional[str] = None
    ) -> str:
        """Register a location-dependent subscription; bound immediately if a location is known."""
        template_id = template_id or f"tmpl-{next(_binding_counter)}"
        self.templates[template_id] = template
        if self.location is not None:
            self._bind(template_id)
        return template_id

    def unsubscribe_location(self, template_id: str) -> None:
        self.templates.pop(template_id, None)
        bound = self._bound_subs.pop(template_id, None)
        if bound is not None:
            self.unsubscribe(bound)

    # ------------------------------------------------------------------ location
    def set_location(self, location: str) -> None:
        """Logical mobility: adapt every ``myloc`` binding to the new location."""
        if location not in self.space:
            raise KeyError(f"unknown location {location!r}")
        self.location = location
        self.location_trace.append((self.sim.now, location))
        for template_id in self.templates:
            self._bind(template_id)

    # ------------------------------------------------------------------ binding
    def _bind(self, template_id: str) -> None:
        template = self.templates[template_id]
        assert self.location is not None
        desired: Filter = template.bind_for_location(self.space, self.location)
        current = self._bound_subs.get(template_id)
        if current is not None and current.filter == desired:
            return
        if current is not None:
            self.unsubscribe(current)
        subscription = self.subscribe(
            desired,
            sub_id=f"{self.name}:{template_id}:{next(_binding_counter)}",
            location_dependent=True,
            template=template,
        )
        self._bound_subs[template_id] = subscription
        self.rebinds += 1

    # -------------------------------------------------------------------- stats
    def bound_filters(self) -> List[Filter]:
        return [sub.filter for sub in self._bound_subs.values()]

    def relevant_deliveries(self) -> int:
        """Deliveries that matched the binding for the location the client had at reception time."""
        relevant = 0
        for delivery in self.deliveries:
            location = self._location_at(delivery.received_at)
            if location is None:
                continue
            for template in self.templates.values():
                if template.bind_for_location(self.space, location).matches(delivery.notification):
                    relevant += 1
                    break
        return relevant

    def _location_at(self, time: float) -> Optional[str]:
        location = None
        for timestamp, loc in self.location_trace:
            if timestamp <= time:
                location = loc
            else:
                break
        return location
