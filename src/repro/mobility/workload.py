"""Publication workloads: the information sources of the motivating examples.

The paper motivates mobility support with concrete information services:
per-room temperature readings, restaurant menus along a route, the weather of
a region, stock quotes that follow the user from the PC to the PDA.  The
generators below publish exactly those notification streams through ordinary
wired clients attached to the broker covering each location, and record every
published notification so the metrics module has the ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from ..core.location import LOCATION_ATTRIBUTE
from ..core.middleware import MobilePubSub
from ..net.simulator import PeriodicTask
from ..pubsub.client import Client
from ..pubsub.notification import Notification


class WorkloadRecorder:
    """Collects every notification published by the workload generators."""

    def __init__(self) -> None:
        self.published: List[Notification] = []

    def record(self, notification: Optional[Notification]) -> None:
        if notification is not None:
            self.published.append(notification)

    def __len__(self) -> int:
        return len(self.published)


@dataclass
class PublisherHandle:
    """One deployed publisher: the wired client plus its periodic task."""

    client: Client
    task: PeriodicTask
    location: Optional[str]
    service: str

    def stop(self) -> None:
        self.task.stop()


class LocationServicePublishers:
    """A fleet of periodic publishers, one per location, for one service.

    Examples: ``service="temperature"`` publishes a reading per room;
    ``service="restaurant-menu"`` publishes menus per road segment;
    ``service="weather"`` (with ``per_region=True``) publishes one forecast
    per region, tagged with every location of the region in turn.
    """

    def __init__(
        self,
        system: MobilePubSub,
        service: str,
        period: float,
        recorder: WorkloadRecorder,
        locations: Optional[Sequence[str]] = None,
        value_function: Optional[Callable[[str, float], Mapping]] = None,
        rng: Optional[random.Random] = None,
        phase_spread: bool = True,
        until: Optional[float] = None,
    ):
        self.system = system
        self.service = service
        self.period = period
        self.recorder = recorder
        self.until = until
        self.rng = rng or random.Random(7)
        self.value_function = value_function or self._default_value
        self.publishers: List[PublisherHandle] = []
        self.locations = list(locations) if locations is not None else system.space.locations
        self._deploy(phase_spread)

    def _default_value(self, location: str, now: float) -> Mapping:
        return {"value": round(15.0 + 10.0 * self.rng.random(), 2)}

    def _deploy(self, phase_spread: bool) -> None:
        for index, location in enumerate(self.locations):
            client = self.system.add_publisher(f"pub-{self.service}-{location}", location)
            start_delay = (index / max(1, len(self.locations))) * self.period if phase_spread else 0.0
            task = PeriodicTask(
                self.system.sim,
                period=self.period,
                callback=self._publish_callback(client, location),
                start_delay=start_delay,
                until=self.until,
            )
            self.publishers.append(
                PublisherHandle(client=client, task=task, location=location, service=self.service)
            )

    def _publish_callback(self, client: Client, location: str) -> Callable[[], None]:
        def publish() -> None:
            attributes = {
                "service": self.service,
                LOCATION_ATTRIBUTE: location,
            }
            attributes.update(self.value_function(location, self.system.sim.now))
            self.recorder.record(client.publish(attributes))

        return publish

    def stop(self) -> None:
        for handle in self.publishers:
            handle.stop()

    def __len__(self) -> int:
        return len(self.publishers)


class GlobalServicePublisher:
    """A single location-independent publisher (e.g. a stock ticker).

    Used by the physical-mobility experiment: the subscription that must
    survive roaming untouched is precisely one that has nothing to do with
    location.
    """

    def __init__(
        self,
        system: MobilePubSub,
        service: str,
        period: float,
        recorder: WorkloadRecorder,
        broker_name: Optional[str] = None,
        value_function: Optional[Callable[[float], Mapping]] = None,
        symbol: str = "ACME",
        until: Optional[float] = None,
    ):
        self.system = system
        self.service = service
        self.period = period
        self.recorder = recorder
        self.symbol = symbol
        self.value_function = value_function or (lambda now: {"price": round(100 + now % 17, 2)})
        broker = broker_name or system.network.broker_names()[0]
        self.client = system.add_static_client(f"pub-{service}", broker)
        self.sequence = 0
        self.task = PeriodicTask(system.sim, period=period, callback=self._publish, until=until)

    def _publish(self) -> None:
        self.sequence += 1
        attributes = {"service": self.service, "symbol": self.symbol, "seq": self.sequence}
        attributes.update(self.value_function(self.system.sim.now))
        self.recorder.record(self.client.publish(attributes))

    def stop(self) -> None:
        self.task.stop()


def temperature_workload(
    system: MobilePubSub,
    period: float,
    recorder: Optional[WorkloadRecorder] = None,
    until: Optional[float] = None,
) -> tuple[LocationServicePublishers, WorkloadRecorder]:
    """The office-floor example: one temperature sensor per location."""
    if recorder is None:
        recorder = WorkloadRecorder()
    publishers = LocationServicePublishers(system, "temperature", period, recorder, until=until)
    return publishers, recorder


def restaurant_workload(
    system: MobilePubSub,
    period: float,
    recorder: Optional[WorkloadRecorder] = None,
    until: Optional[float] = None,
) -> tuple[LocationServicePublishers, WorkloadRecorder]:
    """The car-on-a-route example: restaurant menus per road segment."""
    if recorder is None:
        recorder = WorkloadRecorder()

    def menu(location: str, now: float) -> Mapping:
        return {"restaurant": f"diner-{location}", "dish": f"special-{int(now) % 7}"}

    publishers = LocationServicePublishers(
        system, "restaurant-menu", period, recorder, value_function=menu, until=until
    )
    return publishers, recorder


def weather_workload(
    system: MobilePubSub,
    period: float,
    recorder: Optional[WorkloadRecorder] = None,
    until: Optional[float] = None,
) -> tuple[LocationServicePublishers, WorkloadRecorder]:
    """The pervasive example: weather for the region someone is currently located in."""
    if recorder is None:
        recorder = WorkloadRecorder()

    def forecast(location: str, now: float) -> Mapping:
        return {"forecast": "sunny" if int(now) % 2 == 0 else "rain"}

    publishers = LocationServicePublishers(
        system, "weather", period, recorder, value_function=forecast, until=until
    )
    return publishers, recorder


def stock_workload(
    system: MobilePubSub,
    period: float,
    recorder: Optional[WorkloadRecorder] = None,
    until: Optional[float] = None,
) -> tuple[GlobalServicePublisher, WorkloadRecorder]:
    """The location-transparent example: stock quotes followed from PC to PDA."""
    if recorder is None:
        recorder = WorkloadRecorder()
    publisher = GlobalServicePublisher(system, "stock", period, recorder, until=until)
    return publisher, recorder
