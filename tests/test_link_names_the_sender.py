"""On a socket the link names the sender: a frame carries none.

A routing entry is "a pair (F, L) ... the link from which it was received"
(Sect. 2), so a receiver knows the sender of everything a link brings: it is
the link's peer.  A link frame therefore carries no ``sender`` (and no
``msg_id``), and whatever sender a frame does spell is never believed:

* on the cluster, a dialler whose handshake names ``X`` but whose frames say
  ``sender="Y"`` is routed as ``X``;
* on every backend, what a process is handed as coming from ``A`` is exactly
  what ``A`` sent it, in order: a handover workload (wireless attach,
  re-attach, detach, exception mode) checks every directed pair.
"""

import socket
from collections import defaultdict

import pytest

from repro.config import SystemConfig
from repro.mobility.handover_workload import WorkloadSpec, run_handover_workload
from repro.net import wire
from repro.net.process import Message, Process
from repro.net.transport import handshake_frame
from repro.pubsub.broker_network import line_topology
from repro.pubsub.filters import Equals, Filter
from repro.pubsub.notification import Notification
from repro.pubsub.subscription import Subscription


def _read_messages(raw: socket.socket, decoder: wire.FrameDecoder, until_kind: str):
    """Read frames off a raw socket until one of ``until_kind`` arrives."""
    received = []
    while not any(message.kind == until_kind for message in received):
        data = raw.recv(65536)
        assert data, f"the connection closed before a {until_kind!r} frame arrived"
        received += [wire.decode_message_binary(body) for body in decoder.feed(data)]
    return received


def test_cluster_routes_a_dialler_as_its_handshake_names_it():
    net = line_topology(n_brokers=2, link_latency=0.0, config=SystemConfig(transport="cluster"))
    try:
        publisher = net.add_client("pub", "B2")
        clock = net.transport.clock
        with socket.create_connection(net.transport.addresses["B1"], timeout=10.0) as raw:
            raw.sendall(handshake_frame("X", "B1", kind="client"))
            decoder = wire.FrameDecoder()
            while not (bodies := decoder.feed(raw.recv(65536))):
                pass
            assert wire.decode_control(bodies[0])["target"] == "X"
            subscription = Subscription("s-X", Filter([Equals("topic", "t")]), "X")
            spoofed = Message("subscribe", subscription, sender="Y", msg_id=7)
            raw.sendall(wire.frame(wire.encode_message_binary(spoofed)))
            # bytes from outside are no work the drain counts: drive by time
            net.transport.run(until=clock.now + 0.3)
            publisher.publish(Notification({"topic": "t"}, notification_id=41))
            net.transport.run(until=clock.now + 0.3)
            (notify,) = [
                m for m in _read_messages(raw, decoder, "notify") if m.kind == "notify"
            ]
        assert notify.payload.notification_id == 41
        assert notify.sender is None, "a frame names no sender: the link does"
        net.run_until_idle()  # and the child, routing to X, raised nothing
    finally:
        net.close()


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_what_a_process_is_handed_from_a_peer_is_what_that_peer_sent(backend, monkeypatch):
    sent = defaultdict(list)  # (sender, receiver) -> kinds, in send order
    handed = defaultdict(list)  # (message.sender, receiver) -> kinds, in delivery order
    send, deliver = Process.send, Process.deliver

    def recording_send(self, peer_name, message):
        send(self, peer_name, message)
        sent[self.name, peer_name].append(message.kind)

    def recording_deliver(self, message):
        handed[message.sender, self.name].append(message.kind)
        deliver(self, message)

    monkeypatch.setattr(Process, "send", recording_send)
    monkeypatch.setattr(Process, "deliver", recording_deliver)
    result = run_handover_workload(backend, spec=WorkloadSpec(walkers=2, commuters=1))
    # walkers re-attach at each step; a commuter powers off (its wireless
    # link detaches) and reappears elsewhere, in exception mode
    assert result.handovers > 0 and result.exception_activations > 0
    assert handed == sent
    kinds = {kind for kinds in handed.values() for kind in kinds}
    assert {"client_hello", "welcome", "handover_request", "handover_reply", "notify"} <= kinds
