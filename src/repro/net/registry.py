"""Broker discovery and coordination for the multi-process cluster runner.

When the broker graph is sharded across OS processes
(:mod:`repro.net.cluster`), somebody has to answer three questions that the
single-process backends never had to ask:

* **discovery** — broker ``B2`` lives at which ``host:port``?  Every broker
  node binds an ephemeral port, so addresses are only known at runtime;
* **readiness** — when are *all* brokers up with *all* their links dialled,
  so that publishing cannot race the topology coming up?
* **control** — how does the parent ask a node for its counters, tell it to
  shut down in an orderly way, or notice that it crashed?

The :class:`RegistryServer` answers all three over one tiny TCP protocol:
length-prefixed wire frames (:mod:`repro.net.wire`) carrying JSON control
payloads.  It runs inside the *parent* process on the cluster transport's
event loop; broker nodes keep one long-lived "control channel" connection to
it (register -> ready -> serve requests), while lookups use short-lived
connections.

Protocol summary (every payload is one wire frame)::

    node  -> registry   {"op": "register", "name", "host", "port"}
    registry -> node    {"ok": true}            # or {"ok": false, "error"}
    node  -> registry   {"op": "ready", "name"}
    registry -> node    {"ok": true}
    # ... from here the direction inverts: the parent drives the channel ...
    registry -> node    {"op": "stats", "rid": 7}
    node  -> registry   {"re": 7, "ok": true, "stats": {...}}
    registry -> node    {"op": "shutdown", "rid": 8}
    node  -> registry   {"re": 8, "ok": true}   # then the node exits 0

    anyone -> registry  {"op": "lookup", "name", "timeout"}   # fresh conn
    registry -> anyone  {"ok": true, "host", "port"}          # waits for
                                                              # registration

A node whose control channel hits EOF (parent died) is expected to exit, so
a crashed parent never leaves orphan broker processes behind.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from .wire import FrameDecoder, decode_control, encode_control, frame


class RegistryError(RuntimeError):
    """Raised on registry protocol violations, duplicates and timeouts."""


class FrameChannel:
    """A bidirectional stream of wire-framed control payloads.

    Wraps an asyncio stream pair: :meth:`send` is synchronous (bytes buffer
    onto the writer), :meth:`recv` returns the next decoded payload or
    ``None`` on EOF.  Shared by the registry server, the broker nodes and
    the cluster transport's client attachments.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self._decoder = FrameDecoder()
        self._pending: deque = deque()

    def send(self, payload: Any) -> None:
        self.writer.write(frame(encode_control(payload)))

    async def drain(self) -> None:
        await self.writer.drain()

    async def recv(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Next decoded payload, or ``None`` once the peer closed the stream."""
        while not self._pending:
            read = self.reader.read(65536)
            data = await (asyncio.wait_for(read, timeout) if timeout else read)
            if not data:
                return None
            self._pending.extend(self._decoder.feed(data))
        return decode_control(self._pending.popleft())

    def close(self) -> None:
        self.writer.close()


class RegistryServer:
    """Name -> address registry plus readiness barrier and node control.

    Parameters
    ----------
    host:
        Interface to bind (default localhost).
    port:
        ``None`` (default) binds an ephemeral port.  An explicit port is
        tried first and, on collision (``EADDRINUSE``), the next
        ``port_retries`` consecutive ports are attempted before giving up —
        deployments that pin a well-known registry port keep working when a
        stale process still holds it.
    port_retries:
        How many consecutive ports to try after an explicit ``port``.
    """

    def __init__(self, host: str = "127.0.0.1", port: Optional[int] = None, port_retries: int = 16):
        self.host = host
        self.preferred_port = port
        self.port_retries = port_retries
        self.address: Optional[Tuple[str, int]] = None
        #: broker name -> advertised (host, port)
        self.registered: Dict[str, Tuple[str, int]] = {}
        #: names that completed their link setup and reported ready
        self.ready: Set[str] = set()
        #: names whose control channel has gone away (crash or shutdown)
        self.disconnected: Set[str] = set()
        self._controls: Dict[str, FrameChannel] = {}
        self._rid = itertools.count(1)
        #: rid -> (reply future, owning node name); the owner lets a dying
        #: control channel fail its in-flight calls immediately instead of
        #: leaving the caller to wait out the timeout
        self._replies: Dict[int, Tuple[asyncio.Future, Optional[str]]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------ server
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self.preferred_port is None:
            candidates: Iterable[int] = (0,)
        else:
            candidates = range(self.preferred_port, self.preferred_port + self.port_retries + 1)
        last_error: Optional[OSError] = None
        for candidate in candidates:
            try:
                self._server = await asyncio.start_server(
                    self._serve_channel, host=self.host, port=candidate
                )
            except OSError as exc:
                last_error = exc
                continue
            self.address = self._server.sockets[0].getsockname()[:2]
            return self.address
        raise RegistryError(
            f"could not bind the registry on {self.host}:{self.preferred_port} "
            f"(+{self.port_retries} retries): {last_error}"
        )

    async def _serve_channel(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_tasks.add(asyncio.current_task())
        channel = FrameChannel(reader, writer)
        registered_name: Optional[str] = None
        try:
            while True:
                payload = await channel.recv()
                if payload is None:
                    break
                if isinstance(payload, dict) and "re" in payload:
                    future, _owner = self._replies.pop(payload["re"], (None, None))
                    if future is not None and not future.done():
                        future.set_result(payload)
                    continue
                op = payload.get("op") if isinstance(payload, dict) else None
                if op == "register":
                    registered_name = await self._handle_register(channel, payload)
                elif op == "ready":
                    self.ready.add(payload.get("name"))
                    channel.send({"ok": True})
                elif op == "lookup":
                    await self._handle_lookup(channel, payload)
                else:
                    channel.send({"ok": False, "error": f"unknown registry op {op!r}"})
                await channel.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # close() cancels live connection tasks; returning normally keeps
            # the stream protocol's done-callback from logging the cancel
            pass
        finally:
            # Only the channel that currently owns the name may tear its
            # registration down: after a crash + re-register, the *old*
            # connection's EOF arrives late and must not clobber the
            # restarted node's fresh control channel.
            if registered_name is not None and self._controls.get(registered_name) is channel:
                self.disconnected.add(registered_name)
                self._controls.pop(registered_name, None)
                for rid, (future, owner) in list(self._replies.items()):
                    if owner == registered_name:
                        self._replies.pop(rid, None)
                        if not future.done():
                            future.set_exception(
                                RegistryError(f"control channel to {owner!r} closed")
                            )
            writer.close()
            self._conn_tasks.discard(asyncio.current_task())

    async def _handle_register(self, channel: FrameChannel, payload: dict) -> Optional[str]:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            channel.send({"ok": False, "error": f"invalid broker name {name!r}"})
            return None
        if name in self._controls:
            # a *live* holder of the name is a genuine duplicate; a stale
            # address left behind by a crashed node is not — supervised
            # restart re-registers under the same name with a new port
            channel.send({"ok": False, "error": f"duplicate broker name {name!r}"})
            return None
        self.registered[name] = (payload["host"], payload["port"])
        self._controls[name] = channel
        self.ready.discard(name)
        self.disconnected.discard(name)
        channel.send({"ok": True})
        return name

    async def _handle_lookup(self, channel: FrameChannel, payload: dict) -> None:
        name = payload.get("name")
        timeout = float(payload.get("timeout", 10.0))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while name not in self.registered and loop.time() < deadline:
            await asyncio.sleep(0.01)
        address = self.registered.get(name)
        if address is None:
            error = f"unknown broker {name!r} (not registered after {timeout}s)"
            channel.send({"ok": False, "error": error})
        else:
            channel.send({"ok": True, "host": address[0], "port": address[1]})

    def forget(self, name: str) -> None:
        """Erase a node's registration (used after a deliberate ``kill -9``).

        Clears the address, readiness and control-channel state so a
        supervised restart can re-register the name, and so a concurrent
        ``lookup`` cannot resolve to the dead node's stale port.
        """
        self.registered.pop(name, None)
        self.ready.discard(name)
        channel = self._controls.pop(name, None)
        if channel is not None:
            channel.close()
        self.disconnected.add(name)
        for rid, (future, owner) in list(self._replies.items()):
            if owner == name:
                self._replies.pop(rid, None)
                if not future.done():
                    future.set_exception(RegistryError(f"control channel to {owner!r} closed"))

    # ----------------------------------------------------------- coordination
    async def wait_ready(
        self,
        names: Iterable[str],
        timeout: float,
        liveness: Optional[Callable[[], None]] = None,
    ) -> None:
        """Block until every name reported ready (the cluster boot barrier).

        ``liveness`` is called on every poll tick; the cluster runner passes
        a callback that raises when a spawned broker process has died, so a
        crash during boot surfaces immediately instead of as a bare timeout.
        """
        wanted = set(names)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not wanted <= self.ready:
            if liveness is not None:
                liveness()
            if loop.time() > deadline:
                missing = sorted(wanted - self.ready)
                raise RegistryError(f"brokers never became ready within {timeout}s: {missing}")
            await asyncio.sleep(0.02)

    async def call(self, name: str, payload: dict, timeout: float = 10.0) -> dict:
        """Send a control request to a registered node and await its reply."""
        channel = self._controls.get(name)
        if channel is None:
            raise RegistryError(f"no live control channel for {name!r}")
        rid = next(self._rid)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._replies[rid] = (future, name)
        channel.send({**payload, "rid": rid})
        try:
            # the drain is bounded too: a hung child with a full socket
            # buffer must not wedge the parent's control loop
            await asyncio.wait_for(channel.drain(), timeout)
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._replies.pop(rid, None)
            raise RegistryError(f"node {name!r} did not answer {payload.get('op')!r} in {timeout}s")
        except ConnectionError as exc:
            # the node died between the send and the drain
            self._replies.pop(rid, None)
            raise RegistryError(f"control channel to {name!r} lost: {exc}") from exc

    async def request(self, name: str, op: str, timeout: float = 10.0, **fields: Any) -> dict:
        """One control round-trip with the ``ok`` convention enforced.

        The single request-id + timeout + error-check path behind every
        control op the parent issues (``stats``, ``metrics``,
        ``link_down``/``link_up``, ``shutdown``) — each used to re-implement
        its own slice of this dance.  Raises :class:`RegistryError` when the
        node has no live control channel, does not answer in time, or
        answers ``ok: false`` (the node's error message is surfaced).
        """
        reply = await self.call(name, {"op": op, **fields}, timeout=timeout)
        if not reply.get("ok"):
            raise RegistryError(
                f"node {name!r} rejected {op!r}: {reply.get('error', 'no error given')}"
            )
        return reply

    async def close(self) -> None:
        for channel in list(self._controls.values()):
            channel.close()
        self._controls.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)


# ------------------------------------------------------------- node-side API


async def _connect(registry_address: Tuple[str, int], timeout: float) -> FrameChannel:
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*registry_address), timeout
        )
    except asyncio.TimeoutError:
        raise RegistryError(f"registry at {registry_address} did not accept within {timeout}s")
    return FrameChannel(reader, writer)


async def roundtrip(
    channel: FrameChannel,
    payload: dict,
    what: str,
    timeout: float = 10.0,
    recv_timeout: Optional[float] = None,
) -> dict:
    """One node-side control exchange: send, drain, await the ``ok`` reply.

    The shared send/drain/recv/error-check sequence behind
    :func:`register_node`, :func:`report_ready` and :func:`lookup`, which
    used to carry three private copies of it.  ``what`` names the exchange
    in the :class:`RegistryError` raised on rejection or EOF.
    """
    channel.send(payload)
    await asyncio.wait_for(channel.drain(), timeout)
    reply = await channel.recv(timeout=recv_timeout if recv_timeout is not None else timeout)
    if not reply or not reply.get("ok"):
        raise RegistryError(
            f"{what} rejected: {(reply or {}).get('error', 'connection closed')}"
        )
    return reply


async def register_node(
    registry_address: Tuple[str, int],
    name: str,
    advertise_host: str,
    advertise_port: int,
    timeout: float = 10.0,
) -> FrameChannel:
    """Open a node's control channel: connect, register, return the channel.

    Raises :class:`RegistryError` when the registry refuses the name
    (duplicate registration) or does not answer in time.
    """
    channel = await _connect(registry_address, timeout)
    payload = {"op": "register", "name": name, "host": advertise_host, "port": advertise_port}
    try:
        await roundtrip(channel, payload, f"registration of {name!r}", timeout=timeout)
    except RegistryError:
        channel.close()
        raise
    return channel


async def report_ready(channel: FrameChannel, name: str, timeout: float = 10.0) -> None:
    """Tell the registry this node's links are all up (boot barrier)."""
    await roundtrip(
        channel, {"op": "ready", "name": name}, f"ready report for {name!r}", timeout=timeout
    )


async def lookup(
    registry_address: Tuple[str, int], name: str, timeout: float = 10.0
) -> Tuple[str, int]:
    """Resolve a broker name to its address, waiting for it to register."""
    channel = await _connect(registry_address, timeout)
    try:
        # the registry itself waits up to ``timeout`` for the name to appear,
        # so the reply read gets a little headroom on top
        reply = await roundtrip(
            channel,
            {"op": "lookup", "name": name, "timeout": timeout},
            f"lookup of {name!r}",
            timeout=timeout,
            recv_timeout=timeout + 5.0,
        )
    finally:
        channel.close()
    return reply["host"], reply["port"]
