"""Master failover: lease fencing, standby promotion, client re-drive.

Unit tests for each failover layer in isolation (the pure
:class:`LeaderLease` state machine, :class:`LeaseView` aggregation,
roster persistence and mirroring, the :class:`FailoverServer` re-drive
bookkeeping against a scripted fake server) plus integration tests of
the full kill → detect → elect → promote → re-drive sequence on the
simulated fabric.  The randomized version of the latter lives in
``repro.testkit.failover`` (the chaos soak); here the interleavings are
hand-picked and deterministic.
"""

import numpy as np
import pytest

from repro.comm import protocol
from repro.comm.demux import ChannelDead
from repro.core import TeamNetTrainer, TrainerConfig
from repro.distributed.failover import (REDRIVE_ERRORS, FailoverServer,
                                        LeaseView, MasterFailover,
                                        StandbyMaster, TransportRing,
                                        WorkerView)
from repro.distributed.resilience import LeaderLease, LeaseConfig
from repro.distributed.serving import (ServeFuture, ServerClosed,
                                       ServerOverloaded)
from repro.distributed.integrity import IntegrityConfig, make_canary_set
from repro.distributed.teamnet_runtime import (ExpertWorker, LeadershipLost,
                                               TeamNetMaster, WorkerFailure)
from repro.nn import MLP, build_model, downsize, mlp_spec, weights_fingerprint
from repro.store import CheckpointStore
from repro.testkit import SimFailoverCluster, SimNetwork, forbid_sockets


def make_experts(k=3, features=10, classes=3):
    return [MLP(features, classes, depth=1, width=6,
                rng=np.random.default_rng(i)) for i in range(k)]


def requests_for(experts, n, rows=2, seed=99, features=10):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, features)).astype(np.float32)
            for _ in range(n)]


# ---------------------------------------------------------------------------
# The lease state machine (pure, clock-injected)
# ---------------------------------------------------------------------------

class TestLeaderLease:
    def test_epoch_fencing_refuses_lower_epochs(self):
        lease = LeaderLease()
        assert lease.renew("alpha", 1, now=0.0)
        assert lease.renew("beta", 2, now=1.0)
        # The zombie: a renewal at the old epoch must change nothing.
        assert not lease.renew("alpha", 1, now=2.0)
        assert lease.leader == "beta"
        assert lease.epoch == 2
        assert lease.renewed_at == 1.0

    def test_equal_epoch_refreshes_timestamp(self):
        lease = LeaderLease()
        assert lease.renew("alpha", 3, now=0.0)
        assert lease.renew("alpha", 3, now=5.0)
        assert lease.renewed_at == 5.0
        assert lease.age(now=6.0) == 1.0

    def test_never_renewed_counts_expired(self):
        lease = LeaderLease()
        assert lease.age(now=10.0) is None
        assert lease.expired(now=10.0, duration_s=1e9)

    def test_expiry_is_duration_relative(self):
        lease = LeaderLease()
        lease.renew("alpha", 1, now=0.0)
        assert not lease.expired(now=0.4, duration_s=0.5)
        assert lease.expired(now=0.6, duration_s=0.5)


class TestLeaseView:
    def view(self, *workers, duration_s=0.5):
        return LeaseView(workers={w.index: w for w in workers},
                         duration_s=duration_s)

    def test_partitioned_standby_must_not_promote(self):
        # No reachable workers: silence is not evidence of a dead
        # leader — it is evidence of a partitioned observer.
        view = self.view(WorkerView(index=1, reachable=False),
                         WorkerView(index=2, reachable=False))
        assert not view.leader_lost
        assert view.reachable == []
        assert view.leader is None

    def test_one_fresh_lease_vetoes_promotion(self):
        view = self.view(
            WorkerView(index=1, reachable=True, leader="primary",
                       epoch=1, lease_age_s=9.0),
            WorkerView(index=2, reachable=True, leader="primary",
                       epoch=1, lease_age_s=0.1))
        assert not view.leader_lost

    def test_all_expired_or_never_renewed_triggers(self):
        view = self.view(
            WorkerView(index=1, reachable=True, leader="primary",
                       epoch=1, lease_age_s=0.9),
            WorkerView(index=2, reachable=True, lease_age_s=None),
            WorkerView(index=3, reachable=False))
        assert view.leader_lost

    def test_leader_and_epoch_follow_the_highest_epoch(self):
        view = self.view(
            WorkerView(index=1, reachable=True, leader="old", epoch=1,
                       lease_age_s=0.1),
            WorkerView(index=2, reachable=True, leader="new", epoch=2,
                       lease_age_s=0.1))
        assert view.max_epoch == 2
        assert view.leader == "new"


# ---------------------------------------------------------------------------
# Lease observation and fencing on the simulated fabric
# ---------------------------------------------------------------------------

class TestLeaseObservation:
    def test_attach_installs_the_lease_on_every_worker(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts()) as cluster:
            view = cluster.standby.poll()
            assert sorted(view.reachable) == [1, 2]
            assert view.leader == "primary"
            assert view.max_epoch == 1
            assert not view.leader_lost
            for worker in view.workers.values():
                assert worker.lease_age_s is not None

    def test_observer_pings_never_renew_the_lease(self):
        lease = LeaseConfig(duration_s=0.5)
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), lease=lease) as cluster:
            cluster.clock.advance(0.3)
            first = cluster.standby.poll()
            second = cluster.standby.poll()
            for view in (first, second):
                for worker in view.workers.values():
                    # Still the attach-time renewal: polling twice did
                    # not refresh anybody's lease.
                    assert worker.lease_age_s == pytest.approx(0.3)

    def test_lease_expiry_is_observed_on_the_virtual_clock(self):
        lease = LeaseConfig(duration_s=0.5)
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), lease=lease) as cluster:
            assert not cluster.standby.poll().leader_lost
            cluster.expire_lease()
            view = cluster.standby.poll()
            assert view.leader_lost
            assert view.leader == "primary"  # stale claim, still visible

    def test_traffic_renews_the_lease(self):
        lease = LeaseConfig(duration_s=0.5)
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), lease=lease) as cluster:
            cluster.clock.advance(0.4)
            cluster.primary.infer(requests_for(cluster.experts, 1)[0])
            cluster.clock.advance(0.3)  # 0.7s after attach, 0.3 after infer
            view = cluster.standby.poll()
            assert not view.leader_lost


class TestFencing:
    def test_promotion_deposes_the_old_primary(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts()) as cluster:
            x = requests_for(cluster.experts, 1)[0]
            golden = cluster.primary.infer(x)
            # Detection precedes promotion: the poll is what teaches the
            # standby the epoch it must outbid.
            cluster.standby.poll()
            promoted = cluster.promote()
            assert promoted.epoch == 2
            # The zombie keeps its connections, but every broadcast now
            # carries a fenced epoch: workers reject it as stale.
            with pytest.raises(LeadershipLost):
                cluster.primary.infer(x)
            assert cluster.primary.deposed
            # Deposition is permanent — no amount of retrying recovers.
            with pytest.raises(LeadershipLost):
                cluster.primary.infer(x)
            preds, winner, _ = promoted.infer(x)
            assert preds.tobytes() == golden[0].tobytes()
            assert winner.tobytes() == golden[1].tobytes()

    def test_stale_attach_raises_leadership_lost(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), n_standbys=2) as cluster:
            cluster.standbys[0].poll()
            cluster.promote(rank=0)  # epoch 2 now installed on workers
            # A rival that slept through the failover and still believes
            # the old epoch is current must be fenced at attach.
            loser = cluster.standbys[1]
            with pytest.raises(LeadershipLost, match="fenced"):
                loser.promote(epoch=1)


class TestProbeFencing:
    """The control-plane rounds fence a deposed master too: a heartbeat
    or canary round books every good reply it got, then raises."""

    @pytest.fixture
    def fabric(self):
        with forbid_sockets():
            network = SimNetwork()
            experts = make_experts(4)
            workers = [ExpertWorker(e, host="sim",
                                    transport=network.transport)
                       for e in experts[1:]]
            masters = []

            def master(addresses, epoch, leader, **kwargs):
                masters.append(TeamNetMaster(
                    experts[0], addresses, epoch=epoch, leader_id=leader,
                    transport=network.transport, **kwargs))
                return masters[-1]

            for worker in workers:
                worker.start()
            try:
                yield experts, workers, master
            finally:
                for m in masters:
                    m.close()
                for worker in workers:
                    worker.stop()

    @staticmethod
    def depose_on(workers, master, index):
        """A rival at epoch 2 attaches to worker ``index`` only; the
        other workers still follow epoch 1."""
        master([workers[index - 1].address], 2, "rival").attach()

    @staticmethod
    def prime(primary):
        """One miss per peer, so booking a good reply is visible: it
        resets the breaker's failure run and decays the suspicion."""
        for peer in primary._peers:
            peer.breaker.record_failure()
            peer.health.detector.miss()

    @staticmethod
    def assert_booked(primary, good, refused=()):
        snapshot = primary.resilience_snapshot()
        for index in good:
            assert snapshot[index].alive
            assert snapshot[index].consecutive_failures == 0
            assert snapshot[index].suspicion_score < 1.0
        for index in refused:
            assert not snapshot[index].alive
            assert snapshot[index].failures == 1
            assert snapshot[index].consecutive_failures == 2

    def test_stale_epoch_refusal_fences_the_heartbeat(self, fabric):
        _, workers, master = fabric
        primary = master([w.address for w in workers], 1, "primary")
        primary.attach()
        self.depose_on(workers, master, 2)
        self.prime(primary)
        sent = primary.heartbeat_traffic.messages_sent
        received = primary.heartbeat_traffic.messages_received
        with pytest.raises(LeadershipLost, match="during heartbeat"):
            primary.heartbeat()
        assert primary.deposed
        self.assert_booked(primary, good=[1, 3], refused=[2])
        assert primary.heartbeat_traffic.messages_sent == sent + 3
        assert primary.heartbeat_traffic.messages_received == received + 3

    def test_higher_epoch_pong_fences_the_heartbeat(self, fabric):
        _, workers, master = fabric
        primary = master([w.address for w in workers], 1, "primary")
        primary.attach()
        # A pong naming a newer leader is a live reply *and* a fence.
        workers[1]._handle_ping = lambda msg: protocol.encode(
            protocol.PONG, {"seq": msg.meta.get("seq"), "leader": "rival",
                            "epoch": 2, "lease_age_s": 0.0})
        self.prime(primary)
        sent = primary.heartbeat_traffic.messages_sent
        received = primary.heartbeat_traffic.messages_received
        with pytest.raises(LeadershipLost, match="leadership epoch 2"):
            primary.heartbeat()
        assert primary.deposed
        self.assert_booked(primary, good=[1, 2, 3])
        assert primary.heartbeat_traffic.messages_sent == sent + 3
        assert primary.heartbeat_traffic.messages_received == received + 3
        with pytest.raises(LeadershipLost):
            primary.infer(requests_for([], 1)[0])

    def test_stale_epoch_refusal_fences_the_canary_probe(self, fabric):
        experts, workers, master = fabric
        canary_x = np.random.default_rng(7).standard_normal((3, 10))
        primary = master(
            [w.address for w in workers], 1, "primary",
            integrity=IntegrityConfig(auto_redeploy=False),
            canaries=make_canary_set(experts, canary_x),
            expected_versions={i: weights_fingerprint(e)
                               for i, e in enumerate(experts) if i})
        primary.attach()
        self.depose_on(workers, master, 2)
        self.prime(primary)
        with pytest.raises(LeadershipLost, match="during canary probe"):
            primary.canary_probe()
        assert primary.deposed
        self.assert_booked(primary, good=[1, 3], refused=[2])
        assert primary.canary_traffic.messages_sent == 3
        assert primary.canary_traffic.messages_received == 3


# ---------------------------------------------------------------------------
# Roster persistence and standby mirroring
# ---------------------------------------------------------------------------

class TestRosterPersistence:
    def test_save_load_roundtrip_with_monotonic_versions(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        assert store.load_roster() is None
        v1 = store.save_roster({1: ("a", 10), 2: ("b", 20)}, epoch=1,
                               leader="primary")
        v2 = store.save_roster({1: ("a", 10)}, epoch=2, leader="standby-0")
        assert v2 > v1
        snapshot = store.load_roster()
        assert snapshot.roster == {1: ("a", 10)}
        assert snapshot.epoch == 2
        assert snapshot.leader == "standby-0"
        assert snapshot.version == v2

    def test_attach_persists_the_roster(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), store=store) as cluster:
            snapshot = store.load_roster()
            assert snapshot is not None
            assert snapshot.roster == cluster.primary.roster()
            assert snapshot.epoch == 1
            assert snapshot.leader == "primary"


def roster_message(version, entries, epoch=None, seq=1):
    return protocol.decode(protocol.encode(protocol.ROSTER, {
        "seq": seq, "version": version, "epoch": epoch,
        "roster": entries}))


class TestStandbyMirroring:
    def standby(self, **kwargs):
        network = SimNetwork()
        return StandbyMaster("mirror", transport=network.transport,
                             host="sim", **kwargs)

    def test_roster_deltas_are_version_monotonic(self):
        with forbid_sockets():
            standby = self.standby()
            try:
                standby._apply_roster(roster_message(
                    2, [[1, "a", 10], [2, "b", 20]], epoch=3))
                assert standby.roster() == {1: ("a", 10), 2: ("b", 20)}
                assert standby.max_epoch_seen == 3
                # A delayed older delta must never overwrite newer state.
                standby._apply_roster(roster_message(
                    1, [[1, "stale", 1]], epoch=1))
                assert standby.roster() == {1: ("a", 10), 2: ("b", 20)}
                assert standby.max_epoch_seen == 3
            finally:
                standby.stop()

    def test_roster_ok_acks_the_applied_version(self):
        with forbid_sockets():
            standby = self.standby()
            try:
                reply = protocol.decode(standby._apply_roster(
                    roster_message(7, [[1, "a", 10]], seq=42)))
                assert reply.kind == protocol.ROSTER_OK
                assert reply.meta["seq"] == 42
                assert reply.meta["version"] == 7
            finally:
                standby.stop()

    def test_hydrate_pulls_expert_and_roster_from_store(self, tmp_path):
        spec = downsize(mlp_spec(6, width=8), 2)
        experts = [build_model(spec, np.random.default_rng((5, i)))
                   for i in range(2)]
        trainer = TeamNetTrainer(experts, TrainerConfig(seed=5))
        store = CheckpointStore(tmp_path, fsync=False)
        store.save(trainer, spec)
        store.save_roster({1: ("a", 10)}, epoch=4, leader="primary")
        with forbid_sockets():
            standby = self.standby(store=store)
            try:
                assert standby.expert is None
                standby.hydrate()
                assert standby.expert is not None
                assert standby.roster() == {1: ("a", 10)}
                assert standby.max_epoch_seen == 4
                hydrated = standby.expert.state_dict()
                original = experts[0].state_dict()
                assert hydrated.keys() == original.keys()
                for key in original:
                    np.testing.assert_array_equal(hydrated[key],
                                                  original[key])
            finally:
                standby.stop()

    def test_hydrate_never_rolls_back_past_live_deltas(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        store.save_roster({1: ("snapshot", 1)}, epoch=1)
        with forbid_sockets():
            standby = self.standby(store=store,
                                   expert=make_experts(1)[0])
            try:
                standby._apply_roster(roster_message(
                    5, [[1, "live", 10]], epoch=2))
                standby.hydrate()  # snapshot version 1 < live version 5
                assert standby.roster() == {1: ("live", 10)}
                assert standby.max_epoch_seen == 2
            finally:
                standby.stop()

    def test_promotion_without_state_is_refused(self):
        with forbid_sockets():
            standby = self.standby()
            try:
                with pytest.raises(RuntimeError, match="no expert"):
                    standby.promote()
                standby.expert = make_experts(1)[0]
                with pytest.raises(RuntimeError, match="empty roster"):
                    standby.promote()
            finally:
                standby.stop()


# ---------------------------------------------------------------------------
# The election ring
# ---------------------------------------------------------------------------

class TestTransportRing:
    def test_rank_must_be_inside_the_ring(self):
        with forbid_sockets():
            network = SimNetwork()
            with pytest.raises(ValueError, match="outside"):
                TransportRing(network.transport, 2, [("sim", 1), ("sim", 2)])

    def test_recv_timeout_names_the_missing_token(self):
        with forbid_sockets():
            network = SimNetwork()
            ring = TransportRing(network.transport, 0,
                                 [("sim", 1), ("sim", 2)],
                                 recv_timeout=0.01)
            with pytest.raises(TimeoutError, match="_election3.0"):
                ring.recv(1, "_election3.0")

    def test_election_among_standbys_follows_priority(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), n_standbys=3) as cluster:
            winner = cluster.elect(priorities=[0.2, 0.9, 0.5])
            assert winner == 1
            # Every participant recorded the same contested epoch.
            assert len({s.contested_epoch for s in cluster.standbys}) == 1

    def test_election_tie_breaks_by_rank(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), n_standbys=2) as cluster:
            assert cluster.elect(priorities=[0.5, 0.5]) == 1

    def test_winner_promotes_at_the_contested_epoch(self):
        with forbid_sockets(), \
                SimFailoverCluster(make_experts(), n_standbys=2) as cluster:
            # Rank 1 never polled, so it never saw epoch 1 on the wire —
            # the contested epoch from the election must still carry its
            # promotion past the fence.
            winner = cluster.elect(priorities=[0.1, 0.9])
            assert winner == 1
            promoted = cluster.promote(rank=winner)
            assert promoted.epoch == 2
            x = requests_for(cluster.experts, 1)[0]
            preds, _, _ = promoted.infer(x)
            assert preds.shape == (len(x),)


# ---------------------------------------------------------------------------
# Client-side re-drive (scripted fake server: every interleaving is exact)
# ---------------------------------------------------------------------------

class FakeServer:
    """A TeamNetServer stand-in the test resolves by hand."""

    def __init__(self, overloaded=False):
        self.inner = {}
        self.order = []
        self.closed = False
        self.close_error = None
        self.overloaded = overloaded

    def submit(self, x, request_id=None):
        if self.overloaded:
            raise ServerOverloaded("queue full")
        future = ServeFuture(request_id=request_id)
        self.inner[request_id] = future
        self.order.append(request_id)
        return future

    def close(self, timeout=10.0, drain=True, error=None):
        self.closed = True
        self.close_error = error
        if not drain:
            rejection = error if error is not None else ServerClosed("closed")
            for future in self.inner.values():
                if not future.done():
                    future._reject(rejection)


class TestFailoverServer:
    def test_inner_resolution_settles_the_outer_future(self):
        server = FakeServer()
        front = FailoverServer(server)
        outer = front.submit(np.zeros((1, 2)))
        assert not outer.done()
        server.inner[1]._resolve(("answer", 1))
        assert outer.result(timeout=1.0) == ("answer", 1)
        stats = front.stats()
        assert (stats.submitted, stats.completed, stats.failed) == (1, 1, 0)

    def test_overload_on_first_submission_propagates(self):
        front = FailoverServer(FakeServer(overloaded=True))
        with pytest.raises(ServerOverloaded):
            front.submit(np.zeros((1, 2)))
        # Shedding is load control, not failover: nothing was admitted.
        assert front.stats().submitted == 0
        assert front.pending == 0

    def test_kill_parks_and_failover_redrives_in_rid_order(self):
        server = FakeServer()
        front = FailoverServer(server)
        outers = [front.submit(np.full((1, 2), i)) for i in range(3)]
        front.kill(error=MasterFailover("dead"))
        assert server.closed
        # Submissions while leaderless park instead of failing.
        outers.append(front.submit(np.full((1, 2), 3.0)))
        assert front.stats().parked == 4
        assert all(not outer.done() for outer in outers)
        successor = FakeServer()
        assert front.failover_to(successor) == 4
        assert successor.order == [1, 2, 3, 4]  # request-id order
        for rid in successor.order:
            successor.inner[rid]._resolve(("answer", rid))
        assert [outer.result(timeout=1.0)[1] for outer in outers] == \
            [1, 2, 3, 4]
        stats = front.stats()
        assert stats.completed == 4
        assert stats.failed == 0
        assert stats.redriven == 4
        assert stats.failovers == 1

    def test_redrive_error_during_kill_window_parks_any_failure(self):
        # Within the kill window even a non-REDRIVE error parks: the
        # master's death explains every concurrent failure.
        server = FakeServer()
        front = FailoverServer(server)
        outer = front.submit(np.zeros((1, 2)))
        inner = server.inner[1]
        front.kill(error=None, closer=lambda: None)
        assert isinstance(server.close_error, MasterFailover)
        inner_settled = inner.done()  # close(drain=False) rejected it
        assert inner_settled
        assert not outer.done()
        assert front.stats().parked == 1

    def test_non_redrive_error_is_terminal(self):
        server = FakeServer()
        front = FailoverServer(server)
        outer = front.submit(np.zeros((1, 2)))
        failure = WorkerFailure("quorum broken")
        assert not isinstance(failure, REDRIVE_ERRORS)
        server.inner[1]._reject(failure)
        with pytest.raises(WorkerFailure):
            outer.result(timeout=1.0)
        stats = front.stats()
        assert stats.failed == 1
        assert stats.parked == 0

    def test_channel_death_after_failover_redrives_without_parking(self):
        server = FakeServer()
        front = FailoverServer(server)
        outer = front.submit(np.zeros((1, 2)))
        stranded = server.inner[1]
        successor = FakeServer()
        with front._lock:  # adopt the successor; rid 1 still in flight
            front._server, front._killed = successor, False
        stranded._reject(ChannelDead("connection lost"))
        # Straight to the new incarnation, no parking stop.
        assert successor.order == [1]
        successor.inner[1]._resolve(("answer", 1))
        assert outer.result(timeout=1.0) == ("answer", 1)
        assert front.stats().redriven == 1
        assert front.stats().parked == 0

    def test_late_answer_is_suppressed_not_delivered_twice(self):
        server = FakeServer()
        front = FailoverServer(server)
        outer = front.submit(np.zeros((1, 2)))
        server.inner[1]._resolve(("first", 1))
        assert outer.result(timeout=1.0) == ("first", 1)
        # The dying master's answer arriving after the outer settled:
        # counted, never delivered.
        stray = ServeFuture(request_id=1)
        stray._resolve(("late duplicate", 1))
        front._on_inner(1, stray)
        assert outer.result(timeout=1.0) == ("first", 1)
        assert front.stats().duplicates_suppressed == 1
        assert front.stats().completed == 1

    def test_starts_leaderless_when_built_without_a_server(self):
        front = FailoverServer(None)
        outer = front.submit(np.zeros((1, 2)))
        assert front.stats().parked == 1
        server = FakeServer()
        assert front.failover_to(server) == 1
        server.inner[1]._resolve(("answer", 1))
        assert outer.result(timeout=1.0) == ("answer", 1)

    def test_close_rejects_parked_and_refuses_new_requests(self):
        front = FailoverServer(None)
        outer = front.submit(np.zeros((1, 2)))
        front.close()
        with pytest.raises(ServerClosed):
            outer.result(timeout=1.0)
        with pytest.raises(ServerClosed):
            front.submit(np.zeros((1, 2)))
        with pytest.raises(ServerClosed):
            front.failover_to(FakeServer())
        stats = front.stats()
        assert stats.failed == 1


# ---------------------------------------------------------------------------
# The full sequence, deterministically
# ---------------------------------------------------------------------------

class TestEndToEndFailover:
    def test_kill_promote_redrive_is_byte_identical(self):
        experts = make_experts()
        xs = requests_for(experts, 6)
        with forbid_sockets(), SimFailoverCluster(make_experts()) as ref:
            golden = [ref.primary.infer(x)[:2] for x in xs]
        lease = LeaseConfig(duration_s=0.5)
        with forbid_sockets(), \
                SimFailoverCluster(experts, lease=lease) as cluster:
            front = FailoverServer(cluster.serve(max_batch=4,
                                                 coalesce="exact"))
            futures = [front.submit(x) for x in xs[:3]]
            for future in futures:
                future.result(timeout=10.0)
            front.kill(closer=cluster.kill_primary,
                       error=MasterFailover("killed"))
            futures += [front.submit(x) for x in xs[3:]]
            cluster.expire_lease()
            assert cluster.standby.poll().leader_lost
            promoted = cluster.promote()
            redriven = front.failover_to(
                promoted.serve(max_batch=4, coalesce="exact"))
            assert redriven == 3
            try:
                results = [future.result(timeout=10.0)
                           for future in futures]
            finally:
                front.close()
            stats = front.stats()
        for (preds, winner, _), (g_preds, g_winner) in zip(results, golden):
            assert preds.tobytes() == g_preds.tobytes()
            assert winner.tobytes() == g_winner.tobytes()
        assert stats.completed == len(xs)
        assert stats.failed == 0
        assert stats.completed + stats.failed == stats.submitted
