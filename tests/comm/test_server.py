"""The one frame server behind every listener.

``ExpertWorker``, ``StandbyMaster`` and ``RpcServer`` all serve through
:class:`repro.comm.server.FrameServer`, so each must show the same
connection policy and the same ``stop()`` guarantee: no thread outlives
``stop()``, even one parked on an idle client that never hangs up.
"""

import threading

import numpy as np
import pytest

from repro.comm import RpcServer, protocol
from repro.comm.transport import connect
from repro.distributed import ExpertWorker
from repro.distributed.failover import StandbyMaster
from repro.nn import MLP


def _worker():
    return ExpertWorker(MLP(8, 3, depth=1, width=4,
                            rng=np.random.default_rng(0)))


def _standby():
    return StandbyMaster("standby-0")


def _rpc():
    server = RpcServer()
    server.register("echo", lambda meta, arrays: (meta, arrays))
    return server


#: name -> (factory, a request it answers, the reply kind)
SERVERS = {
    "worker": (_worker, protocol.encode(protocol.PING, {"seq": 1}),
               protocol.PONG),
    "standby": (_standby, protocol.encode(protocol.PING, {"seq": 1}),
                protocol.PONG),
    "rpc": (_rpc, protocol.encode("call", {"method": "echo"}), "reply"),
}


@pytest.fixture(params=sorted(SERVERS))
def spec(request):
    """``(factory, request, reply_kind)`` for one server class."""
    return SERVERS[request.param]


@pytest.fixture
def served(spec):
    """``(server, request, reply_kind)`` for a started server."""
    factory, probe, reply_kind = spec
    server = factory()
    server.start()
    yield server, probe, reply_kind
    server.stop()


def _round_trip(sock, probe, reply_kind):
    sock.send(probe)
    assert protocol.decode(sock.recv(timeout=5.0)).kind == reply_kind


class TestStop:
    def test_stop_with_an_idle_client_leaves_no_threads(self, spec):
        factory, probe, reply_kind = spec
        baseline = threading.active_count()
        server = factory()
        server.start()
        client = connect(*server.address)
        try:
            # One answered request proves a serve thread owns the
            # connection; it now blocks in recv on an idle client.
            _round_trip(client, probe, reply_kind)
            server.stop()
            assert threading.active_count() <= baseline
        finally:
            client.close()
            server.stop()

    def test_restart_serves_on_the_same_port(self, served):
        server, probe, reply_kind = served
        address = server.address
        server.stop()
        server.start()
        assert server.address == address
        with connect(*address) as client:
            _round_trip(client, probe, reply_kind)


class TestConnectionPolicy:
    def test_garbage_frame_gets_one_error_then_close(self, served):
        server, _, _ = served
        with connect(*server.address) as client:
            client.send(b"garbage")
            reply = protocol.decode(client.recv(timeout=5.0))
            assert reply.kind == protocol.ERROR
            assert reply.meta["error"].startswith("bad message:")
            with pytest.raises(ConnectionError):
                client.recv(timeout=5.0)

    def test_shutdown_closes_without_a_reply(self, served):
        server, _, _ = served
        with connect(*server.address) as client:
            client.send(protocol.encode(protocol.SHUTDOWN))
            with pytest.raises(ConnectionError):
                client.recv(timeout=5.0)