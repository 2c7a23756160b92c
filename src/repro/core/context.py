"""Context-awareness: from ``myloc`` to state-dependent subscriptions.

The paper's research agenda asks how to "generalize the concept of
location-dependent subscriptions to 'state-dependent' subscriptions, opening
the whole area of context-awareness to the domain of pub/sub middleware
systems ...  dynamic filters, which depend on a function of the local state
of the client (not only its current location)" (Sect. 4).

This module provides that generalisation: a :class:`ContextDependentFilter`
is a filter template whose constraints reference named *context markers*;
binding it against the client's current context dictionary produces an
ordinary content-based filter.  :class:`ContextAwareClient` re-binds its
templates whenever its context changes — ``myloc`` becomes the special case
of a single ``location`` marker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..net.simulator import Simulator
from ..pubsub.client import Client
from ..pubsub.filters import Constraint, Equals, Filter, InSet, Range
from ..pubsub.subscription import Subscription

_context_counter = itertools.count(1)


@dataclass(frozen=True)
class ContextMarker:
    """A named placeholder resolved from the client's context at binding time.

    ``transform`` optionally post-processes the raw context value into the
    constraint operand (for example turning a battery percentage into a
    minimum-priority threshold).
    """

    name: str
    transform: Optional[Callable[[Any], Any]] = None

    def resolve(self, context: Mapping[str, Any]) -> Any:
        if self.name not in context:
            raise KeyError(f"context has no value for marker {self.name!r}")
        value = context[self.name]
        if self.transform is not None:
            value = self.transform(value)
        return value


@dataclass(frozen=True)
class ContextDependentFilter:
    """A filter template with context markers.

    ``static_spec`` holds ordinary attribute constraints; ``dynamic_spec``
    maps notification attributes to :class:`ContextMarker` objects whose
    resolved values become the constraint operands.
    """

    static_filter: Filter
    dynamic_spec: Tuple[Tuple[str, ContextMarker], ...]

    def bind(self, context: Mapping[str, Any]) -> Filter:
        """Substitute every marker with its current context value."""
        constraints: List[Constraint] = list(self.static_filter.constraints)
        for attribute, marker in self.dynamic_spec:
            value = marker.resolve(context)
            constraints.append(_constraint_for(attribute, value))
        return Filter(constraints)

    def markers(self) -> List[str]:
        return [marker.name for _attribute, marker in self.dynamic_spec]

    def __repr__(self) -> str:
        dynamic = ", ".join(f"{attr}<-{marker.name}" for attr, marker in self.dynamic_spec)
        return f"ContextDependentFilter({self.static_filter!r}, dynamic=[{dynamic}])"


def _constraint_for(attribute: str, value: Any) -> Constraint:
    if isinstance(value, (set, frozenset, list, tuple)):
        return InSet(attribute, value)
    if isinstance(value, range):
        return Range(attribute, low=value.start, high=value.stop)
    return Equals(attribute, value)


def context_dependent(
    static_spec: Mapping[str, Any] | Filter,
    dynamic_spec: Mapping[str, str | ContextMarker],
) -> ContextDependentFilter:
    """Build a context-dependent filter template.

    ``dynamic_spec`` maps notification attributes to context marker names
    (or :class:`ContextMarker` objects), e.g.::

        context_dependent({"service": "reminder"}, {"priority": "min_priority"})
    """
    if isinstance(static_spec, Filter):
        static_filter = static_spec
    else:
        constraints = [_constraint_for(attr, value) for attr, value in static_spec.items()]
        static_filter = Filter(constraints)
    dynamic: List[Tuple[str, ContextMarker]] = []
    for attribute, marker in dynamic_spec.items():
        if isinstance(marker, str):
            marker = ContextMarker(marker)
        dynamic.append((attribute, marker))
    return ContextDependentFilter(static_filter, tuple(dynamic))


class ContextAwareClient(Client):
    """A client whose subscriptions follow its local state, not just its location."""

    def __init__(self, sim: Simulator, name: str, initial_context: Optional[Mapping[str, Any]] = None):
        super().__init__(sim, name)
        self.context: Dict[str, Any] = dict(initial_context or {})
        self.templates: Dict[str, ContextDependentFilter] = {}
        self._bound_subs: Dict[str, Subscription] = {}
        self.rebinds = 0

    # ---------------------------------------------------------------- templates
    def subscribe_context(self, template: ContextDependentFilter) -> str:
        template_id = f"ctx-{next(_context_counter)}"
        self.templates[template_id] = template
        self._bind(template_id)
        return template_id

    # ------------------------------------------------------------------- context
    def update_context(self, **values: Any) -> None:
        """Change the client's local state and re-bind every affected template."""
        self.context.update(values)
        changed_markers = set(values.keys())
        for template_id, template in self.templates.items():
            if changed_markers & set(template.markers()):
                self._bind(template_id)

    def _bind(self, template_id: str) -> None:
        template = self.templates[template_id]
        try:
            desired = template.bind(self.context)
        except KeyError:
            return  # context not complete yet; bind when the missing value arrives
        current = self._bound_subs.get(template_id)
        if current is not None and current.filter == desired:
            return
        if current is not None:
            self.unsubscribe(current)
        subscription = self.subscribe(
            desired, sub_id=f"{self.name}:{template_id}:{next(_context_counter)}"
        )
        self._bound_subs[template_id] = subscription
        self.rebinds += 1

    # --------------------------------------------------------------------- stats
    def bound_filters(self) -> List[Filter]:
        return [sub.filter for sub in self._bound_subs.values()]
