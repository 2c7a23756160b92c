"""Mobility models: how clients move through the location space.

The paper reasons about "the inherent uncertainty of movement in mobile
systems" (Sect. 3.1) but never fixes a workload; the models below generate
the movement patterns its motivating examples imply:

* :class:`RandomWalkMobility` — a pedestrian wandering between adjacent
  locations (office floor, Fig. 1 right);
* :class:`RoutePathMobility` — a vehicle following a fixed path (the
  "restaurant menus along the route of a car" example);
* :class:`TeleportMobility` — power-off periods after which the client "may
  always pop up at any place in the broker network" (Sect. 4), the workload
  for the exception-mode experiment.

A model produces a deterministic list of :class:`Waypoint` objects given a
seeded random generator; :class:`MobilityDriver` schedules the corresponding
``move``/``power_off``/``power_on`` calls on a
:class:`~repro.core.middleware.MobilePubSub` system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.location import LocationSpace
from ..core.middleware import MobilePubSub
from ..core.mobile_client import MobileClient


@dataclass(frozen=True)
class Waypoint:
    """One step of a movement schedule."""

    time: float
    location: str
    #: True when the client is switched off between the previous waypoint and this one
    after_power_off: bool = False
    #: how long before ``time`` the device powered off (0 = it stayed on while moving)
    offline_before: float = 0.0


class MobilityModel:
    """Generates a deterministic movement schedule for one client."""

    name = "abstract"

    def waypoints(self, duration: float, rng: random.Random) -> List[Waypoint]:
        """Return the waypoints (sorted by time) covering ``[0, duration]``."""
        raise NotImplementedError  # pragma: no cover - interface

    def broker_trace(self, space: LocationSpace, duration: float, rng: random.Random) -> List[str]:
        """The broker sequence the movement schedule induces (repeats kept).

        The uncertainty analysis of Sect. 4 is about this sequence: does the
        next broker lie inside ``nlb`` of the previous one?
        """
        return [space.broker_of(w.location) for w in self.waypoints(duration, rng)]


class RandomWalkMobility(MobilityModel):
    """A random walk over the location space's adjacency graph.

    ``dwell_time`` is the mean time spent at each location; each dwell is
    drawn uniformly from ``[0.5, 1.5] * dwell_time`` to avoid artificial
    synchronisation between clients.  After each dwell the client moves to
    a uniformly chosen neighbour.
    """

    name = "random-walk"

    def __init__(self, space: LocationSpace, start: str, dwell_time: float = 10.0):
        if dwell_time <= 0:
            raise ValueError("dwell_time must be positive")
        self.space = space
        self.start = start
        self.dwell_time = dwell_time

    def waypoints(self, duration: float, rng: random.Random) -> List[Waypoint]:
        waypoints = [Waypoint(time=0.0, location=self.start)]
        time = 0.0
        current = self.start
        while True:
            time += self.dwell_time * rng.uniform(0.5, 1.5)
            if time > duration:
                break
            # unused, but dropping this draw would change every seeded walk
            # the experiments report
            rng.random()
            neighbours = sorted(self.space.neighbours_of(current))
            if neighbours:
                current = rng.choice(neighbours)
            waypoints.append(Waypoint(time=time, location=current))
        return waypoints


class RoutePathMobility(MobilityModel):
    """Follow an explicit path of locations with a fixed dwell time per step.

    ``loop`` makes the path wrap around (a bus line); otherwise the client
    stays at the final location.
    """

    name = "route"

    def __init__(self, path: Sequence[str], dwell_time: float = 10.0, loop: bool = False):
        if not path:
            raise ValueError("path must contain at least one location")
        if dwell_time <= 0:
            raise ValueError("dwell_time must be positive")
        self.path = list(path)
        self.dwell_time = dwell_time
        self.loop = loop

    def waypoints(self, duration: float, rng: random.Random) -> List[Waypoint]:
        waypoints: List[Waypoint] = []
        time = 0.0
        index = 0
        while time <= duration:
            waypoints.append(Waypoint(time=time, location=self.path[index]))
            time += self.dwell_time
            if index + 1 < len(self.path):
                index += 1
            elif self.loop:
                index = 0
            else:
                break
        return waypoints


class TeleportMobility(MobilityModel):
    """Power-off, move arbitrarily far, pop up somewhere else (Sect. 4).

    Each cycle the client stays connected for ``on_time``, powers off for
    ``off_time`` and reappears at a uniformly random location — including
    locations whose broker is *not* a movement-graph neighbour, which is
    exactly the case the exception mode has to handle.
    """

    name = "teleport"

    def __init__(
        self, space: LocationSpace, start: str, on_time: float = 30.0, off_time: float = 20.0
    ):
        self.space = space
        self.start = start
        self.on_time = on_time
        self.off_time = off_time

    def waypoints(self, duration: float, rng: random.Random) -> List[Waypoint]:
        waypoints = [Waypoint(time=0.0, location=self.start)]
        time = 0.0
        locations = self.space.locations
        while True:
            time += self.on_time + self.off_time
            if time > duration:
                break
            target = rng.choice(locations)
            waypoints.append(
                Waypoint(
                    time=time,
                    location=target,
                    after_power_off=True,
                    offline_before=self.off_time,
                )
            )
        return waypoints


class MobilityDriver:
    """Schedules the movement of one mobile client on the simulator.

    The driver translates waypoints into middleware calls: the first waypoint
    becomes the initial :meth:`~repro.core.middleware.MobilePubSub.attach`;
    later waypoints become :meth:`move` calls (or ``power_off``/``power_on``
    pairs when the waypoint is flagged ``after_power_off``).
    """

    def __init__(
        self,
        system: MobilePubSub,
        client: MobileClient,
        model: MobilityModel,
        duration: float,
        rng: Optional[random.Random] = None,
        handover_gap: float = 0.0,
    ):
        self.system = system
        self.client = client
        self.handover_gap = handover_gap
        self.waypoints = model.waypoints(duration, rng or random.Random(0))

    def start(self) -> None:
        """Schedule every waypoint on the system's simulator."""
        if not self.waypoints:
            return
        first, *rest = self.waypoints
        self.system.sim.schedule_at(first.time, self._attach_first, first)
        previous_time = first.time
        for waypoint in rest:
            if waypoint.after_power_off and waypoint.offline_before > 0:
                off_at = max(previous_time + 1e-6, waypoint.time - waypoint.offline_before)
                self.system.sim.schedule_at(off_at, self._power_off)
            self.system.sim.schedule_at(waypoint.time, self._execute, waypoint)
            previous_time = waypoint.time

    def _attach_first(self, waypoint: Waypoint) -> None:
        self.system.attach(self.client, location=waypoint.location)

    def _power_off(self) -> None:
        self.system.power_off(self.client)

    def _execute(self, waypoint: Waypoint) -> None:
        if waypoint.after_power_off:
            if self.client.connected or self.client.current_broker is not None:
                self.system.power_off(self.client)
            self.system.power_on(self.client, waypoint.location)
        else:
            self.system.move(self.client, waypoint.location, gap=self.handover_gap)
