"""Shared test helpers (importable from any test module).

The test directory is not a package, so cross-module imports must go through
this plain module (``from helpers import FakeHost``) instead of relative
imports, which break pytest collection.
"""

import contextlib
import socket
import threading

from repro.net import wire

#: the two shapes a socket link's writes take: a dispatch burst coalesced into
#: one socket write (up to ``SocketNode.FLUSH_CAP`` bytes), or every frame
#: written the moment it is sent (a cap of one byte)
WRITE_PATHS = ("batched", "per-frame")


def with_write_path(transport, write_path):
    """Make the sends of a socket ``transport`` take ``write_path``."""
    if write_path == "per-frame":
        transport.FLUSH_CAP = 1
    return transport


@contextlib.contextmanager
def impostor_of(net, broker, **ack):
    """Stand a raw listener in for cluster ``broker`` while the block runs.

    The parent's address map sends the next dialler of ``broker`` to it.  It
    accepts that one connection, reads the handshake, and answers with an
    honest ack whose fields ``ack`` overrides.  Then it waits for the
    dialler to hang up.  Yields what it heard: the handshake body, then
    ``b""`` for the hang-up.
    """
    addresses = net.transport.addresses
    heard = []
    with socket.socket() as impostor:
        impostor.bind(("127.0.0.1", 0))
        impostor.listen()
        impostor.settimeout(2.0)

        def answer():
            conn, _ = impostor.accept()
            with conn:
                conn.settimeout(2.0)
                heard.extend(wire.FrameDecoder().feed(conn.recv(65536)))
                source = wire.decode_control(heard[0])["source"]
                reply = {"source": broker, "target": source, **wire.handshake_fields(), **ack}
                conn.sendall(wire.frame(wire.encode_control(reply)))
                heard.append(conn.recv(1))

        thread = threading.Thread(target=answer)
        honest, addresses[broker] = addresses[broker], impostor.getsockname()
        thread.start()
        try:
            yield heard
        finally:
            addresses[broker] = honest
            thread.join(timeout=2.0)
    assert not thread.is_alive()


class FakeHost:
    """Records what the virtual client asks the replicator to do."""

    def __init__(self):
        self.time = 0.0
        self.subscribed = {}
        self.unsubscribed = []
        self.delivered = []

    @property
    def now(self):
        return self.time

    def issue_subscribe(self, subscription):
        self.subscribed[subscription.sub_id] = subscription

    def issue_unsubscribe(self, subscription):
        self.unsubscribed.append(subscription.sub_id)
        self.subscribed.pop(subscription.sub_id, None)

    def deliver_to_device(self, client_id, notification, replayed):
        self.delivered.append((client_id, notification, replayed))


def entries_on_link(table, link):
    """The entries ``table`` holds on ``link``, read by subscription as the
    routing strategies read a table."""
    return [
        entry
        for sub_id in sorted(table.subscription_ids())
        for entry in table.entries_for_sub(sub_id)
        if entry.link == link
    ]


def assert_one_subscription_per_filter(system):
    """Each replicator holds one broker subscription per distinct bound filter.

    What its border broker's table holds on the replicator's link == the
    distinct ``bound_filters()`` of the virtual clients it hosts == the keys of
    its issue table.  Call it on a quiescent system.
    """
    for broker_name, replicator in system.replicators.items():
        table = system.network.brokers[broker_name].routing_table
        at_broker = [e.filter.key() for e in entries_on_link(table, replicator.name)]
        hosted = {
            f.key() for vc in replicator.virtual_clients.values() for f in vc.bound_filters()
        }
        assert len(at_broker) == len(set(at_broker)), (broker_name, at_broker)
        assert set(at_broker) == hosted == set(replicator._issued), broker_name
        for issued, holders in replicator._issued.values():
            assert holders and issued.sub_id.startswith(f"{replicator.name}#")
