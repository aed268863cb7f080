"""Regressions for the serving-path leaks and races.

Two of the four serving-core bugs live here (the redeploy pair is in
``test_redeploy.py``, the loadsim one in ``tests/edge/test_loadsim.py``):

* **Late-pong race** — the old per-call probe threads could book a pong
  that arrived *after* the timeout path had already closed the peer's
  socket, leaving a "healthy" peer holding a dead connection.
* **Serve-thread leak** — ``ExpertWorker.stop()`` closed only the
  listener; serve threads blocked in a timeout-less ``recv`` on a live
  client connection hung forever, one more per stop/start cycle.
* **Deploy leak** — ``deploy_local_team`` left the workers it had
  already started listening when a later constructor raised.
"""

import threading

import pytest

from repro.comm import protocol
from repro.comm.transport import TransportStats
from repro.distributed.teamnet_runtime import (ExpertWorker, TeamNetMaster,
                                               deploy_local_team)
from repro.testkit import SimNetwork, forbid_sockets, strategies
from repro.testkit.sim_transport import SimTransport


class LatePongEndpoint:
    """A connection that honors no recv deadline and produces its pong
    only once closed — the exact interleaving of the old race, where the
    reply raced the timeout path's socket close and could win."""

    def __init__(self):
        self.stats = TransportStats()
        self.last_recv_latency_s = 0.0
        self._released = threading.Event()
        self._seq = None

    def send(self, payload):
        self._seq = protocol.decode(payload).meta.get("seq")

    def recv(self, timeout=None):
        if not self._released.wait(timeout=5.0):
            raise TimeoutError("pong never released")
        return protocol.encode(protocol.PONG, {"seq": self._seq})

    def close(self):
        self._released.set()


class OneEndpointTransport:
    """A transport whose every connect yields the same fake endpoint."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    def connect(self, host, port, **kwargs):
        return self.endpoint


class TestHeartbeatLatePong:
    def test_late_pong_cannot_resurrect_a_timed_out_peer(self):
        experts, _ = strategies.expert_team(strategies.rng_from(42, 1))
        endpoint = LatePongEndpoint()
        master = TeamNetMaster(experts[0], [("fake", 1)],
                               transport=OneEndpointTransport(endpoint))
        rtts = master.heartbeat(timeout=0.1)
        # The probe must be booked as a miss even though the pong landed
        # (stale, after the deadline decision) — never as a success
        # against an already-closed socket.
        assert rtts[1] is None
        peer = master._peers[0]
        assert peer.sock is None
        assert peer.channel is None
        health = master.worker_health[1]
        assert health.timeouts == 1
        assert health.failures == 1
        snapshot = master.resilience_snapshot()[1]
        # record_success() would have zeroed this; the late pong must not
        # have reached it.
        assert snapshot.consecutive_failures >= 1
        assert snapshot.suspicion_score > 0.0
        master.close()


class TestWorkerStopReleasesConnections:
    def test_stop_start_cycles_leak_no_serve_threads(self):
        experts, x = strategies.expert_team(strategies.rng_from(7, 0))
        with forbid_sockets():
            network = SimNetwork()
            worker = ExpertWorker(experts[1], host="sim",
                                  transport=network.transport)
            baseline = threading.active_count()
            clients = []
            try:
                for cycle in range(10):
                    worker.start()
                    # A client that connects, runs one inference, and
                    # then just stays connected — stop() must not wait
                    # on it to hang up.
                    sock = network.transport.connect(*worker.address)
                    clients.append(sock)
                    sock.send(protocol.encode(
                        protocol.INFER, {"seq": cycle}, {"x": x}))
                    reply = protocol.decode(sock.recv(timeout=2.0))
                    assert reply.kind == protocol.RESULT
                    worker.stop()
                    assert worker.server.threads == []
            finally:
                for sock in clients:
                    sock.close()
            # Old stop() closed only the listener: each cycle stranded
            # one serve thread in a deadline-less recv, +10 by now.  The
            # new one joins them before it returns.
            assert threading.active_count() <= baseline


class RefusingTransport(SimTransport):
    """Binds listeners on the sim fabric but refuses every dial, so the
    master's constructor raises after the workers are up."""

    def __init__(self, network):
        super().__init__(network)
        self.listeners = []

    def listen(self, host="sim", port=0, backlog=16):
        listener = super().listen(host, port, backlog)
        self.listeners.append(listener)
        return listener

    def connect(self, host, port, **kwargs):
        raise ConnectionError(f"refused {host}:{port}")


class TestDeployCleansUpOnFailure:
    def test_failed_master_stops_the_started_workers(self):
        experts, _ = strategies.expert_team(strategies.rng_from(3, 0),
                                            num_experts=3)
        with forbid_sockets():
            network = SimNetwork()
            transport = RefusingTransport(network)
            baseline = threading.active_count()
            with pytest.raises(ConnectionError, match="refused"):
                deploy_local_team(experts, host="sim", transport=transport)
            assert len(transport.listeners) == 2
            assert threading.active_count() <= baseline
            for listener in transport.listeners:
                # Unbound: the fabric no longer routes to the address.
                with pytest.raises(ConnectionError, match="no listener"):
                    network.connect(*listener.address, retries=1)
