"""The replicator layer: extended logical mobility through pre-subscriptions.

This is the paper's core contribution (Sect. 3).  A replicator process is
associated with every border broker; it "offers the same interface as the
actual broker" to virtual clients, passes ``publish``/``subscribe``/
``unsubscribe`` downwards and ``notify`` upwards, and "can interact
autonomously with the replicator processes at neighboring event brokers
through direct TCP connections" (Sect. 3.2, Fig. 4).

Responsibilities implemented here, following the paper's structure:

* **Client setup** (Sect. 3.2.1) — when a device connects, its virtual client
  is created/activated and shadow virtual clients with the same
  location-dependent subscriptions are created at every broker in
  ``nlb(b)``.
* **Client operation** (Sect. 3.2.2) — publish/notify pass through; every
  (un)subscribe of a location-dependent filter is mirrored to the shadows.
* **Client handover** (Sect. 3.2.3) — on reconnection at ``b2`` coming from
  ``b1``, the buffered notifications of the local shadow are replayed, the
  location-independent subscriptions are relocated from ``b1`` (physical
  mobility), and the shadow set is reconfigured from ``oldset = nlb(b1)`` to
  ``newset = nlb(b2)``.
* **Client removal** (Sect. 3.2.4) — the virtual client and all its shadows
  are garbage collected.
* **Exception mode** (Sect. 4) — if the client pops up at a broker with no
  shadow, a virtual client is created on the fly and buffered notifications
  are retrieved from the previous replicator, accepting degraded service.

All of these behaviours are individually switchable through
:class:`ReplicatorConfig`, which is how the experiments obtain their
baselines (reactive re-subscription = ``pre_subscription=False``, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..net.process import Message, Process
from ..net.simulator import Simulator
from ..pubsub.filters import Filter
from ..pubsub.notification import Notification
from ..pubsub.subscription import Subscription
from .buffering import BufferPolicy, shared_footprint
from .location import LocationSpace
from .location_filter import LocationDependentFilter
from .physical_mobility import (
    HANDOVER_REPLY,
    HANDOVER_REQUEST,
    HandoverReply,
    HandoverRequest,
    RelocationManager,
)
from .uncertainty import MovementPredictor, NoPredictionPredictor
from .virtual_client import VirtualClient

# Message kinds of the replicator-to-replicator protocol.
SHADOW_CREATE = "shadow_create"
SHADOW_DELETE = "shadow_delete"
SHADOW_SUB = "shadow_sub"
SHADOW_UNSUB = "shadow_unsub"

# Message kinds of the device-to-replicator protocol.
CLIENT_HELLO = "client_hello"
CLIENT_BYE = "client_bye"
CLIENT_LEAVING = "client_leaving"
CLIENT_SUBSCRIBE = "client_subscribe"
CLIENT_UNSUBSCRIBE = "client_unsubscribe"
LOCATION_UPDATE = "location_update"
WELCOME = "welcome"

#: All control-message kinds attributable to the extended-logical-mobility layer,
#: used by the overhead metrics of experiments E5/E6.
REPLICATION_CONTROL_KINDS = (
    SHADOW_CREATE,
    SHADOW_DELETE,
    SHADOW_SUB,
    SHADOW_UNSUB,
    HANDOVER_REQUEST,
    HANDOVER_REPLY,
)


@dataclass
class ClientHello:
    """The profile a device announces when it (re)connects to a replicator."""

    client_id: str
    location: Optional[str] = None
    templates: Dict[str, LocationDependentFilter] = field(default_factory=dict)
    plain_filters: Dict[str, Filter] = field(default_factory=dict)
    previous_broker: Optional[str] = None
    reissue: bool = True


@dataclass
class ReplicatorConfig:
    """Feature switches of the mobility support offered by a replicator.

    The defaults correspond to the full system proposed by the paper; the
    experiment baselines switch individual features off.
    """

    #: cast shadow virtual clients at predicted next brokers (extended logical mobility)
    pre_subscription: bool = True
    #: relocate location-independent subscriptions and their buffered traffic (physical mobility)
    physical_relocation: bool = True
    #: salvage old location-dependent history when no shadow existed (Sect. 4 exception mode)
    exception_mode: bool = True
    #: factory for the buffer policy of each virtual client (None = unbounded)
    buffer_policy_factory: Optional[Callable[[], BufferPolicy]] = None
    #: replay only buffered notifications that match the newly bound filters
    filter_replay: bool = True


@dataclass
class ReplicatorStats:
    """Per-replicator counters used by the experiments."""

    shadows_created: int = 0
    shadows_deleted: int = 0
    handovers: int = 0
    setups: int = 0
    removals: int = 0
    notifications_dispatched: int = 0
    notifications_buffered: int = 0
    replayed_to_device: int = 0
    replay_discarded: int = 0
    live_deliveries: int = 0
    control_messages_sent: int = 0
    exception_activations: int = 0


class Replicator(Process):
    """The replicator process associated with one border broker (Fig. 4)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        broker_name: str,
        space: LocationSpace,
        predictor: Optional[MovementPredictor] = None,
        config: Optional[ReplicatorConfig] = None,
    ):
        super().__init__(sim, name)
        self.broker_name = broker_name
        self.space = space
        self.predictor = predictor or NoPredictionPredictor()
        self.config = config or ReplicatorConfig()
        self.relocation = RelocationManager(broker_name, name)
        self.virtual_clients: Dict[str, VirtualClient] = {}
        self.active_clients: Dict[str, str] = {}  # client_id -> device process name
        self._replicator_registry: Dict[str, str] = {}  # broker name -> replicator name
        # filter key -> (the subscription issued at the broker, sub_ids of its holders)
        self._issued: Dict[frozenset, Tuple[Subscription, Set[str]]] = {}
        #: broker subscriptions sent / holders that joined one already issued
        #: (plain attributes: ReplicatorStats' fields are pinned on the wire)
        self.subscriptions_issued = 0
        self.subscriptions_shared = 0
        self.stats = ReplicatorStats()

    # ------------------------------------------------------------------ wiring
    def set_replicator_registry(self, registry: Mapping[str, str]) -> None:
        """Tell this replicator which replicator process serves which broker."""
        self._replicator_registry = dict(registry)

    # --------------------------------------------------- VirtualClientHost API
    @property
    def now(self) -> float:
        return self.sim.now

    def issue_subscribe(self, subscription: Subscription) -> None:
        """Pass a subscription downwards: one broker subscription per distinct filter.

        The first holder of a filter sends one ``subscribe`` under an id this
        replicator owns; later holders of an equal filter only join it.  The
        id is never a holder's: a virtual client re-issues *its* id with a new
        filter when it re-binds, which the broker takes as "re-bound in
        place" — and would replace the filter the other holders still need.
        """
        if not self.has_link(self.broker_name):
            return
        key = subscription.filter.key()
        entry = self._issued.get(key)
        if entry is not None:
            if subscription.sub_id not in entry[1]:
                entry[1].add(subscription.sub_id)
                self.subscriptions_shared += 1
            return
        self.subscriptions_issued += 1
        issued = Subscription(
            sub_id=f"{self.name}#{self.subscriptions_issued}",
            filter=subscription.filter,
            subscriber=self.name,
        )
        self._issued[key] = (issued, {subscription.sub_id})
        self.send(self.broker_name, Message(kind="subscribe", payload=issued))

    def issue_unsubscribe(self, subscription: Subscription) -> None:
        """Pass an unsubscription downwards once the filter's last holder leaves."""
        key = subscription.filter.key()
        entry = self._issued.get(key)
        if entry is None or subscription.sub_id not in entry[1]:
            return
        issued, holders = entry
        holders.remove(subscription.sub_id)
        if holders:
            return
        del self._issued[key]
        if self.has_link(self.broker_name):
            payload = {"sub_id": issued.sub_id, "filter": issued.filter}
            self.send(self.broker_name, Message(kind="unsubscribe", payload=payload))

    def deliver_to_device(self, client_id: str, notification: Notification, replayed: bool) -> None:
        """Pass a notification upwards to the connected mobile device."""
        device = self.active_clients.get(client_id)
        if device is None or not self.has_link(device):
            return
        if replayed:
            self.stats.replayed_to_device += 1
        else:
            self.stats.live_deliveries += 1
        self.send(device, Message(kind="notify", payload=notification, meta={"replayed": replayed}))

    # ------------------------------------------------------------- dispatching
    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == "notify":
            self._handle_notify(message)
        elif kind == "publish":
            self._handle_publish(message)
        elif kind == CLIENT_HELLO:
            self._handle_client_hello(message)
        elif kind == CLIENT_SUBSCRIBE:
            self._handle_client_subscribe(message)
        elif kind == CLIENT_UNSUBSCRIBE:
            self._handle_client_unsubscribe(message)
        elif kind == LOCATION_UPDATE:
            self._handle_location_update(message)
        elif kind == CLIENT_LEAVING:
            self.device_disconnected(message.payload["client_id"])
        elif kind == CLIENT_BYE:
            self._handle_client_bye(message)
        elif kind == SHADOW_CREATE:
            self._handle_shadow_create(message)
        elif kind == SHADOW_DELETE:
            self._handle_shadow_delete(message)
        elif kind == SHADOW_SUB:
            self._handle_shadow_sub(message)
        elif kind == SHADOW_UNSUB:
            self._handle_shadow_unsub(message)
        elif kind == HANDOVER_REQUEST:
            self._handle_handover_request(message)
        elif kind == HANDOVER_REPLY:
            self._handle_handover_reply(message)
        # unknown kinds are silently ignored

    # ------------------------------------------------------------ pass-through
    def _handle_notify(self, message: Message) -> None:
        """A notification arrived from the broker: dispatch it to the hosted virtual clients."""
        notification: Notification = message.payload
        self.stats.notifications_dispatched += 1
        for virtual_client in self.virtual_clients.values():
            # the client's own count: a bounded buffer that is full stays the
            # same length while it keeps accepting (and evicting)
            buffered_before = virtual_client.buffered_total
            virtual_client.handle_notification(notification)
            self.stats.notifications_buffered += virtual_client.buffered_total - buffered_before

    def _handle_publish(self, message: Message) -> None:
        """A device published a notification: pass it through to the broker."""
        if self.has_link(self.broker_name):
            self.send(self.broker_name, Message(kind="publish", payload=message.payload))

    # ------------------------------------------------------------ client setup
    def _handle_client_hello(self, message: Message) -> None:
        hello: ClientHello = message.payload
        device_name = message.sender or hello.client_id
        client_id = hello.client_id
        self.active_clients[client_id] = device_name

        virtual_client = self.virtual_clients.get(client_id)
        had_shadow = virtual_client is not None
        if virtual_client is None:
            virtual_client = self._create_virtual_client(client_id)
        first_setup = hello.previous_broker is None

        if hello.reissue:
            for template_id, template in hello.templates.items():
                if template_id not in virtual_client.templates:
                    virtual_client.add_template(template_id, template)
            for sub_id, plain_filter in hello.plain_filters.items():
                if sub_id not in virtual_client.plain_filters:
                    virtual_client.add_plain_filter(sub_id, plain_filter)

        replay = virtual_client.activate(hello.location)
        self._replay_to_device(virtual_client, client_id, replay)

        if first_setup:
            self.stats.setups += 1
        else:
            self.stats.handovers += 1
        if not had_shadow and not first_setup and self.config.pre_subscription:
            # the movement graph did not cover this reconnection
            self.stats.exception_activations += 1

        moved = hello.previous_broker is not None and hello.previous_broker != self.broker_name
        if moved and hello.reissue and self.config.physical_relocation:
            request = self.relocation.build_request(client_id)
            self._send_control(hello.previous_broker, Message(kind=HANDOVER_REQUEST, payload=request))

        self._reconfigure_shadow_set(client_id, hello, moved, first_setup)

        device_link = self.active_clients.get(client_id)
        if device_link and self.has_link(device_link):
            self.send(
                device_link,
                Message(kind=WELCOME, payload={"broker": self.broker_name, "had_shadow": had_shadow}),
            )

    def _reconfigure_shadow_set(
        self, client_id: str, hello: ClientHello, moved: bool, first_setup: bool
    ) -> None:
        """Create and delete shadow virtual clients per Sect. 3.2.1 / 3.2.3."""
        if not hello.reissue:
            return
        virtual_client = self.virtual_clients[client_id]
        templates = dict(virtual_client.templates)
        if not self.config.pre_subscription:
            # No pre-subscription: only make sure the stale virtual client at the
            # previous broker is garbage collected once relocation has been served
            # (FIFO on the replicator link guarantees the ordering).
            if moved:
                self._send_control(
                    hello.previous_broker, Message(kind=SHADOW_DELETE, payload={"client_id": client_id})
                )
            return

        previous = hello.previous_broker
        new_neighbourhood = self._predict(self.broker_name)
        old_neighbourhood = self._predict(previous) if previous else frozenset()
        target_set = {self.broker_name} | set(new_neighbourhood)
        previous_set: Set[str] = set()
        if previous is not None:
            previous_set = {previous} | set(old_neighbourhood)
        to_create = sorted(target_set - previous_set - {self.broker_name})
        to_delete = sorted(previous_set - target_set)
        if first_setup:
            to_create = sorted(set(new_neighbourhood))
            to_delete = []
        for broker in to_create:
            self._send_control(
                broker,
                Message(kind=SHADOW_CREATE, payload={"client_id": client_id, "templates": templates}),
            )
        for broker in to_delete:
            self._send_control(broker, Message(kind=SHADOW_DELETE, payload={"client_id": client_id}))
        if previous is not None and moved:
            self.predictor.observe_handover(previous, self.broker_name)

    def _predict(self, broker_name: Optional[str]) -> FrozenSet[str]:
        if broker_name is None:
            return frozenset()
        try:
            return self.predictor.predict(broker_name)
        except KeyError:
            return frozenset()

    # -------------------------------------------------------- client operation
    def _handle_client_subscribe(self, message: Message) -> None:
        payload = message.payload
        client_id = payload["client_id"]
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is None:
            virtual_client = self._create_virtual_client(client_id)
        if payload.get("template") is not None:
            template_id = payload["template_id"]
            template: LocationDependentFilter = payload["template"]
            virtual_client.add_template(template_id, template)
            if self.config.pre_subscription:
                for broker in self._predict(self.broker_name):
                    self._send_control(
                        broker,
                        Message(
                            kind=SHADOW_SUB,
                            payload={
                                "client_id": client_id,
                                "template_id": template_id,
                                "template": template,
                            },
                        ),
                    )
        else:
            virtual_client.add_plain_filter(payload["sub_id"], payload["filter"])

    def _handle_client_unsubscribe(self, message: Message) -> None:
        payload = message.payload
        client_id = payload["client_id"]
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is None:
            return
        if payload.get("template_id") is not None:
            template_id = payload["template_id"]
            virtual_client.remove_template(template_id)
            if self.config.pre_subscription:
                for broker in self._predict(self.broker_name):
                    self._send_control(
                        broker,
                        Message(
                            kind=SHADOW_UNSUB,
                            payload={"client_id": client_id, "template_id": template_id},
                        ),
                    )
        else:
            virtual_client.remove_plain_filter(payload["sub_id"])

    def _handle_location_update(self, message: Message) -> None:
        payload = message.payload
        client_id = payload["client_id"]
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is not None:
            virtual_client.update_location(payload["location"])

    # ---------------------------------------------------------- client removal
    def _handle_client_bye(self, message: Message) -> None:
        client_id = message.payload["client_id"]
        self.stats.removals += 1
        self.active_clients.pop(client_id, None)
        virtual_client = self.virtual_clients.pop(client_id, None)
        if virtual_client is not None:
            virtual_client.teardown()
        if self.config.pre_subscription:
            for broker in self._predict(self.broker_name):
                self._send_control(broker, Message(kind=SHADOW_DELETE, payload={"client_id": client_id}))

    def device_disconnected(self, client_id: str) -> None:
        """Connection awareness: the device left this broker's range.

        The virtual client "notices this and starts to buffer notifications
        instead of delivering them to the client" (Sect. 3.2.3).
        """
        self.active_clients.pop(client_id, None)
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is not None:
            virtual_client.deactivate()

    # ------------------------------------------------------------ shadow peers
    def _handle_shadow_create(self, message: Message) -> None:
        payload = message.payload
        client_id = payload["client_id"]
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is None:
            virtual_client = self._create_virtual_client(client_id)
            self.stats.shadows_created += 1
        for template_id, template in payload.get("templates", {}).items():
            if template_id not in virtual_client.templates:
                virtual_client.add_template(template_id, template)

    def _handle_shadow_delete(self, message: Message) -> None:
        client_id = message.payload["client_id"]
        if client_id in self.active_clients:
            return  # never garbage collect the active virtual client
        virtual_client = self.virtual_clients.pop(client_id, None)
        if virtual_client is not None:
            virtual_client.teardown()
            self.stats.shadows_deleted += 1

    def _handle_shadow_sub(self, message: Message) -> None:
        payload = message.payload
        client_id = payload["client_id"]
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is None:
            virtual_client = self._create_virtual_client(client_id)
            self.stats.shadows_created += 1
        virtual_client.add_template(payload["template_id"], payload["template"])

    def _handle_shadow_unsub(self, message: Message) -> None:
        payload = message.payload
        virtual_client = self.virtual_clients.get(payload["client_id"])
        if virtual_client is not None:
            virtual_client.remove_template(payload["template_id"])

    # ---------------------------------------------------------------- handover
    def _handle_handover_request(self, message: Message) -> None:
        request: HandoverRequest = message.payload
        virtual_client = self.virtual_clients.get(request.client_id)
        reply = self.relocation.serve_request(virtual_client, request, self.sim.now)
        if message.sender and self.has_link(message.sender):
            self.send(message.sender, Message(kind=HANDOVER_REPLY, payload=reply))

    def _handle_handover_reply(self, message: Message) -> None:
        reply: HandoverReply = message.payload
        client_id = reply.client_id
        virtual_client = self.virtual_clients.get(client_id)
        if virtual_client is None or client_id not in self.active_clients:
            return  # the client has already moved on; nothing to deliver here
        replay = self.relocation.apply_reply(
            virtual_client, reply, deliver_location_history=self.config.exception_mode
        )
        for notification in replay:
            self.deliver_to_device(client_id, notification, replayed=True)

    # ----------------------------------------------------------------- helpers
    def _create_virtual_client(self, client_id: str) -> VirtualClient:
        policy = self.config.buffer_policy_factory() if self.config.buffer_policy_factory else None
        virtual_client = VirtualClient(
            client_id=client_id,
            host=self,
            broker_name=self.broker_name,
            space=self.space,
            buffer_policy=policy,
        )
        self.virtual_clients[client_id] = virtual_client
        return virtual_client

    def _replay_to_device(
        self, virtual_client: VirtualClient, client_id: str, replay: List[Notification]
    ) -> None:
        for notification in replay:
            if self.config.filter_replay and not virtual_client.matches(notification):
                self.stats.replay_discarded += 1
                continue
            self.deliver_to_device(client_id, notification, replayed=True)

    def _send_control(self, broker_name: Optional[str], message: Message) -> None:
        """Send a control message to the replicator serving ``broker_name``."""
        if broker_name is None or broker_name == self.broker_name:
            return
        replicator_name = self._replicator_registry.get(broker_name)
        if replicator_name is None or not self.has_link(replicator_name):
            return
        self.stats.control_messages_sent += 1
        self.send(replicator_name, message)

    # ------------------------------------------------------------------- views
    def shadow_brokers_hosting(self) -> List[str]:
        """Client ids of the (buffering) shadows currently hosted here."""
        return sorted(
            client_id
            for client_id, vc in self.virtual_clients.items()
            if not vc.is_active
        )

    def hosted_client_ids(self) -> List[str]:
        return sorted(self.virtual_clients.keys())

    def total_buffer_memory(self) -> int:
        return shared_footprint(vc.buffer for vc in self.virtual_clients.values())
