"""Wireless access links with connection awareness.

The paper's "Mobile REBECA" architecture (Sect. 2, Fig. 3) connects a mobile
device to the border broker of its current cell over a wireless link
(WLAN/IrDA/Bluetooth in the paper).  The only properties the mobility
algorithms need from that hardware are *connection awareness*: both the
device and its virtual counterpart can check whether a connection currently
exists, and the device can discover whether some border broker is in
reachable distance.

:class:`WirelessChannel` models exactly that: at any time the device is
attached to at most one access point (border broker / replicator process);
attachment changes are explicit events with connect/disconnect latencies, and
the device side receives a callback on each attach so that virtual clients
can switch between *active* and *buffering* mode (Sect. 3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .process import Message, Process

ConnectionCallback = Callable[[str], None]


@dataclass
class WirelessStats:
    """Counters for a device's wireless activity."""

    connects: int = 0
    disconnects: int = 0
    dropped_while_disconnected: int = 0


class WirelessChannel:
    """The wireless side of a mobile device.

    The channel owns the (single) dynamic link between the device process and
    whatever access-point process it is currently attached to.  Attachment is
    driven externally by the mobility model / scenario code through
    :meth:`attach` and :meth:`detach`.

    The substrate carrying that link is pluggable.  The channel needs exactly
    two operations from it — *open a link at runtime* and *release a
    torn-down link* — which every mobility-capable
    :class:`~repro.net.transport.Transport` offers as ``make_link`` and
    ``close_dynamic_link``.  ``transport`` carries the wireless hop: on the
    simulator attachment is the classic :class:`~repro.net.link.Link`, on
    asyncio each attach opens a real TCP connection and each detach closes
    it.  Either way the link is open when ``make_link`` returns, so an
    attach completes in one step on every backend.  The channel's clock is
    the transport's.
    """

    def __init__(
        self,
        device: Process,
        *,
        latency: float = 0.002,
        connect_latency: float = 0.05,
        transport,
    ):
        if not getattr(transport, "supports_mobility", False):
            raise ValueError(
                f"transport {getattr(transport, 'name', transport)!r} does not support "
                "dynamic (wireless) links"
            )
        self.sim = transport.clock
        self.device = device
        self.latency = latency
        self.connect_latency = connect_latency
        self.transport = transport
        self.current_ap: Optional[Process] = None
        self._link = None
        # bumped by every attach and detach; a pending attach completion
        # carrying a stale epoch was superseded and must not take effect
        self._attach_epoch = 0
        self.stats = WirelessStats()
        self._on_connect: List[ConnectionCallback] = []

    # ------------------------------------------------------------ awareness
    @property
    def connected(self) -> bool:
        """Connection awareness: is the device currently attached to an access point?"""
        return self.current_ap is not None and self._link is not None and self._link.up

    @property
    def access_point_name(self) -> Optional[str]:
        return self.current_ap.name if self.current_ap is not None else None

    def on_connect(self, callback: ConnectionCallback) -> None:
        """Register a callback invoked (with the AP name) after each attach completes."""
        self._on_connect.append(callback)

    # ------------------------------------------------------------ attachment
    def attach(self, access_point: Process) -> None:
        """Attach the device to ``access_point``.

        The attachment completes after ``connect_latency`` simulated seconds
        (associating with the access point, establishing the virtual-client
        connection).  A later :meth:`attach` or
        :meth:`detach` issued while the attachment is still completing
        supersedes it: the latest instruction wins, a pending attach never
        resurrects a connection the device has since been told to drop.
        """
        if self.current_ap is not None:
            self.detach()
        self._attach_epoch += 1
        self.sim.schedule(self.connect_latency, self._complete_attach, access_point, self._attach_epoch)

    def _complete_attach(self, access_point: Process, epoch: int) -> None:
        if epoch != self._attach_epoch or self.current_ap is not None:
            # superseded by a later attach/detach; ignore the stale completion
            return
        self._link = self.transport.make_link(self.device, access_point, latency=self.latency)
        self.current_ap = access_point
        self.stats.connects += 1
        for callback in list(self._on_connect):
            callback(access_point.name)

    def detach(self) -> None:
        """Detach from the current access point (range loss, power-off, roaming).

        Also cancels any attachment still being established: after a detach
        (power-off, leaving coverage) the device must not end up connected
        because an older attach completed late.
        """
        self._attach_epoch += 1
        if self.current_ap is None:
            return
        if self._link is not None:
            self._link.disconnect()
            self.transport.close_dynamic_link(self._link)
        self.current_ap = None
        self._link = None
        self.stats.disconnects += 1

    # ------------------------------------------------------------- messaging
    def send_up(self, message: Message) -> bool:
        """Send a message from the device to the current access point.

        Returns ``False`` (and counts a drop) if the device is disconnected —
        the caller decides whether to buffer and retry.
        """
        if not self.connected or self.current_ap is None:
            self.stats.dropped_while_disconnected += 1
            return False
        self.device.send(self.current_ap.name, message)
        return True
