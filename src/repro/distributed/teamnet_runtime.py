"""TeamNet's distributed inference runtime (Figure 1(d), Section III).

One expert per edge node.  The node that receives the sensor input is the
*master*: it broadcasts the input to all peer *workers* (Step 2), runs its
own expert in parallel (Step 3), gathers every worker's (prediction,
uncertainty) pair (Step 4) and selects the least-uncertain answer (Step 5).
Communication is plain framed TCP — one message out and one small message
back per worker, which is the paper's whole latency argument against MPI.

Each peer connection is owned by a :class:`repro.comm.demux.ReplyDemux`:
one long-lived reader per connection routes reply frames to waiters by
their echoed ``seq``, so the master spends a fixed K reader threads total
(not K per in-flight call) and can keep **multiple inferences in flight
per connection** — the property the micro-batched serving core
(:mod:`repro.distributed.serving`) is built on.  A gather registers one
reply slot per peer *before* broadcasting and then waits on the slots;
one slow or dead worker costs at most one deadline — never K× — and
never blocks the reads from faster peers.  On top of that sits a
resilience control plane (:mod:`repro.distributed.resilience`):

* a **failure detector** — per-peer suspicion scores fed by reply
  latencies, misses, and explicit ``ping``/``pong`` heartbeats
  (:meth:`TeamNetMaster.heartbeat`);
* per-peer **circuit breakers** (closed → open → half-open) gating both
  reconnect attempts and broadcasts, so a flapping worker receives zero
  bytes while its breaker is open and is only re-admitted by a
  successful probe;
* **hedged gathers** — a suspected-slow peer gets a latency-quantile
  derived hedge deadline instead of the full ``reply_timeout``; when it
  misses, the master answers from the quorum it has and records
  ``hedged=True`` in :class:`InferenceStats`;
* a **quorum-aware degradation policy** — answers below ``min_quorum``
  participants or above the entropy ceiling are flagged in the stats or
  refused with :class:`~repro.distributed.resilience.QuorumError`,
  never silently returned.

``deploy_local_team`` spins a worker thread per expert on localhost so the
whole protocol runs for real in tests and examples.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..comm import protocol
from ..comm.base import Transport
from ..comm.demux import FRAME_OVERHEAD_BYTES, ReplyDemux, ReplySlot
from ..comm.transport import (MeteredSocket, TcpTransport, TransportStats)
from ..core.entropy import entropy_from_probs
from ..core.inference import (ExpertOutput, argmin_select, expert_forward,
                              expert_forward_segments, validate_engine)
from ..nn import (CorruptModelError, Module, model_from_bytes,
                  weights_fingerprint)
from .integrity import (CanaryProber, CanarySet, IntegrityConfig,
                        IntegrityViolation, QuarantineManager, ReplyValidator,
                        structural_reason)
from .overload import RetryBudget, remaining_budget
from .resilience import (CircuitBreaker, DegradationPolicy, LatencyTracker,
                         LeaderLease, PeerResilience, QuorumError,
                         ResilienceConfig, SuspicionTracker)

__all__ = ["ExpertWorker", "TeamNetMaster", "WorkerFailure", "WorkerHealth",
           "LeadershipLost", "deploy_local_team", "InferenceStats"]


@dataclass
class InferenceStats:
    """Traffic, gather and degradation telemetry observed by the master
    for one inference.

    Byte/message counters include traffic to workers that later failed:
    the broadcast bytes went on the wire whether or not a reply came back,
    and the edge cost model must charge for them.  ``participants`` is
    the number of experts (master included) whose output fed the answer;
    ``degraded`` is set whenever that is less than the full team, and
    ``violations`` lists any :class:`DegradationPolicy` breaches when the
    policy flags instead of raising.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    gather_s: float = 0.0
    reply_latency_s: dict[int, float] = field(default_factory=dict)
    failures: int = 0
    hedged: bool = False
    hedged_workers: list[int] = field(default_factory=list)
    hedge_delay_s: float | None = None
    participants: int = 0
    degraded: bool = False
    violations: list[str] = field(default_factory=list)
    #: stale frames (duplicated/reordered replies to *earlier* requests)
    #: discarded by seq correlation during this gather
    stale_replies: int = 0
    #: replies rejected by the data-plane integrity layer (malformed
    #: payload, broken simplex, inconsistent entropy, version mismatch);
    #: each is also counted in ``failures``
    invalid_replies: int = 0
    #: workers that answered EXPIRED (whole request shed for deadline) —
    #: booked as load shedding, never as failures
    expired_replies: int = 0
    #: coalesced segments a worker skipped mid-batch for deadline (their
    #: rows come back as uniform max-entropy filler)
    expired_segments: int = 0

    @classmethod
    def from_transport(cls, stats: TransportStats) -> "InferenceStats":
        return cls(stats.messages_sent, stats.bytes_sent,
                   stats.messages_received, stats.bytes_received)


@dataclass
class WorkerHealth:
    """Cumulative per-worker telemetry kept by the master across the
    lifetime of the connection (survives reconnects).  ``detector`` is
    the failure-detector state (suspicion score, latency EWMA); the
    ``suspicion_score`` / ``suspect`` / ``ewma_reply_latency_s``
    properties are its dashboard-friendly readouts."""

    index: int
    address: tuple[str, int]
    replies: int = 0
    failures: int = 0
    timeouts: int = 0
    reconnects: int = 0
    hedges: int = 0
    redeployments: int = 0
    invalid_replies: int = 0
    expired_replies: int = 0
    expired_segments: int = 0
    last_reply_latency_s: float | None = None
    total_reply_latency_s: float = 0.0
    detector: SuspicionTracker = field(default_factory=SuspicionTracker)

    @property
    def mean_reply_latency_s(self) -> float | None:
        if not self.replies:
            return None
        return self.total_reply_latency_s / self.replies

    @property
    def ewma_reply_latency_s(self) -> float | None:
        return self.detector.ewma_latency_s

    @property
    def suspicion_score(self) -> float:
        return self.detector.score

    @property
    def suspect(self) -> bool:
        return self.detector.suspect


class _Peer:
    """Connection state for one worker: socket + reply demux (both None
    while down), the circuit breaker gating its traffic, and cumulative
    health counters (including the failure-detector state)."""

    __slots__ = ("index", "address", "sock", "channel", "health", "breaker")

    def __init__(self, index: int, address: tuple[str, int],
                 sock: MeteredSocket, resilience: ResilienceConfig):
        self.index = index
        self.address = address
        self.health = WorkerHealth(index=index, address=address)
        self.reset_control(resilience)
        self.connect(sock)

    @property
    def alive(self) -> bool:
        return self.sock is not None

    def connect(self, sock: MeteredSocket) -> None:
        self.sock = sock
        self.channel = ReplyDemux(sock)

    def disconnect(self) -> None:
        """Close the demux and the socket; the peer is down until the
        next :meth:`connect`."""
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def reset_control(self, resilience: ResilienceConfig) -> None:
        """A fresh failure detector and circuit breaker — a new slot, or
        a redeployed one that must not inherit the corpse's state."""
        self.health.detector = SuspicionTracker(
            alpha=resilience.ewma_alpha,
            decay=resilience.success_decay,
            threshold=resilience.suspicion_threshold)
        # Seeded per-peer jitter desynchronizes the open windows of
        # breakers that tripped together — without it every peer that
        # died in the same event retries in lockstep, a reconnect storm
        # landing at exactly the wrong moment.
        self.breaker = CircuitBreaker(
            failure_threshold=resilience.failure_threshold,
            reset_timeout=resilience.reset_timeout,
            reset_timeout_max=resilience.reset_timeout_max,
            jitter=resilience.backoff_jitter,
            rng=resilience.breaker_rng(self.index))


#: what a dial-send-await exchange on a one-off connection can raise
_EXCHANGE_ERRORS = (ConnectionError, OSError, TimeoutError,
                    protocol.ProtocolError)


def _exchange(sock, message: bytes, seq: int,
              timeout: float | None) -> protocol.Message:
    """Send ``message`` and return the reply echoing ``seq``.

    For one-off control connections (deploy pushes, roster deltas,
    standby polls).  Frames with another seq are skipped under one
    deadline for the whole exchange: draining a stale frame consumes
    part of it instead of resetting it, so a chatty peer cannot stall
    the caller past ``timeout``.  Raises one of :data:`_EXCHANGE_ERRORS`.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    sock.send(message)
    remaining = timeout
    while True:
        reply = protocol.decode(sock.recv(timeout=remaining))
        if reply.meta.get("seq") == seq:
            return reply
        remaining = (None if deadline is None
                     else max(0.0, deadline - time.monotonic()))


class _Pending:
    """One in-flight broadcast: the slots awaiting each peer's reply.

    Produced by :meth:`TeamNetMaster._begin`, consumed exactly once by
    :meth:`TeamNetMaster._finish`.  Several of these may be outstanding
    at a time — that is the serving core's pipeline."""

    __slots__ = ("x", "seq", "segments", "waits", "inference", "hedged_set")

    def __init__(self, x: np.ndarray, seq: int, segments: list[int] | None,
                 waits: list[tuple[_Peer, ReplySlot]],
                 inference: InferenceStats, hedged_set: set[int]):
        self.x = x
        self.seq = seq
        self.segments = segments
        self.waits = waits
        self.inference = inference
        self.hedged_set = hedged_set


class ExpertWorker:
    """An edge node hosting one expert behind a listening socket.

    ``stop()`` followed by ``start()`` restarts the worker on the *same*
    port, so a master holding the old address can reconnect to it — this
    is what makes recovery after a node reboot possible without
    redeploying the team.  Besides ``infer`` requests the worker answers
    ``ping`` heartbeats (echoing the probe's ``seq``), which is what the
    master's failure detector and half-open circuit breakers probe with.

    Durability hooks (:mod:`repro.store`): with ``store`` (a
    :class:`~repro.store.CheckpointStore`) and ``expert_index`` set,
    every ``start()`` reloads the expert from the newest valid
    checkpoint generation — a rebooted node serves the durable weights,
    not whatever its process happened to hold.  Independently, a
    ``deploy`` message replaces the in-memory expert with the pushed
    archive (see :meth:`TeamNetMaster.redeploy`), which is how a
    standby node becomes a team member.
    """

    def __init__(self, expert: Module, host: str = "127.0.0.1", port: int = 0,
                 transport: Transport | None = None,
                 store=None, expert_index: int | None = None,
                 engine: str = "tape", clock=None):
        self.expert = expert
        self.engine = validate_engine(engine)
        self._host = host
        self._store = store
        self._expert_index = expert_index
        # The model-version stamp for the integrity layer: the weights
        # fingerprint taken when the expert was *installed* (construction,
        # checkpoint reload, deploy) — deliberately not per-reply, so a
        # live in-memory corruption keeps answering under the installed
        # version and only a canary probe's wrong answer can expose it.
        self._fingerprint = weights_fingerprint(expert)
        # Leadership view: the highest (leader, epoch) this worker has
        # accepted and when that leader last proved liveness.  ``clock``
        # is injectable so lease ages are deterministic on the testkit's
        # virtual clock (the failover protocol's whole point).
        self._clock = clock if clock is not None else time.monotonic
        # Overload-control counters (plain ints; serve threads bump them
        # under the GIL and tests read them after quiescence).
        self.forwards = 0        #: expert forwards actually executed
        self.shed_expired = 0    #: whole requests shed for deadline
        self.shed_segments = 0   #: coalesced segments shed mid-batch
        self.lease = LeaderLease()
        self._lease_lock = threading.Lock()
        self._transport = transport if transport is not None else TcpTransport()
        self._listener = self._transport.listen(host, port)
        self._port = self._listener.port  # pin the port for restarts
        self._running = False
        self._threads: list[threading.Thread] = []
        self._acceptor: threading.Thread | None = None
        # Accepted connections, tracked so stop() can close them: a serve
        # thread blocks in a timeout-less recv between requests, and only
        # closing its socket unblocks it — otherwise every stop/start
        # cycle leaks one thread per connection a master held open.
        self._conns: list = []
        self._conn_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    @property
    def fingerprint(self) -> str:
        """The weights fingerprint stamped on this worker's replies."""
        return self._fingerprint

    def leader_view(self) -> tuple[str | None, int, float | None]:
        """``(leader, epoch, lease_age_s)`` as this worker sees it."""
        with self._lease_lock:
            return (self.lease.leader, self.lease.epoch,
                    self.lease.age(self._clock()))

    # ---------------------------------------------------------- leadership
    def _stale_epoch_reply(self, seq, claimed) -> bytes:
        """Fence off a claim below the highest epoch seen (caller holds
        ``_lease_lock``)."""
        return protocol.encode(protocol.ERROR, {
            "error": f"stale epoch {claimed} < {self.lease.epoch}",
            "stale_epoch": True, "epoch": self.lease.epoch, "seq": seq})

    def _handle_ping(self, msg: protocol.Message) -> bytes:
        """Heartbeat reply.  A *leader* ping (meta carries ``epoch``)
        renews the lease — or is fenced when the epoch is below the
        highest seen.  An *observer* ping (no epoch; standbys and legacy
        masters) just reads the lease: the pong's ``leader``/``epoch``/
        ``lease_age_s`` payload is how standbys learn who leads and how
        stale the claim is."""
        seq = msg.meta.get("seq")
        epoch = msg.meta.get("epoch")
        with self._lease_lock:
            if epoch is not None and not self.lease.renew(
                    msg.meta.get("leader"), epoch, self._clock()):
                return self._stale_epoch_reply(seq, epoch)
            return protocol.encode(protocol.PONG, {
                "seq": seq, "leader": self.lease.leader,
                "epoch": self.lease.epoch,
                "lease_age_s": self.lease.age(self._clock())})

    def _handle_attach(self, msg: protocol.Message) -> bytes:
        """The (re-)attach handshake: a master presenting an epoch >= the
        highest seen becomes this worker's leader; lower epochs are
        fenced.  This is how a promoted standby takes over live workers
        — and how a zombie primary learns it has been deposed."""
        seq = msg.meta.get("seq")
        epoch = msg.meta.get("epoch", 0)
        with self._lease_lock:
            if not self.lease.renew(msg.meta.get("leader"), epoch,
                                    self._clock()):
                return self._stale_epoch_reply(seq, epoch)
            return protocol.encode(protocol.ATTACHED,
                                   {"seq": seq, "epoch": self.lease.epoch})

    def _reload_from_store(self) -> None:
        """Swap in the checkpointed expert, if the store holds one.

        An empty or fully-corrupt store is not an error — the worker
        keeps its in-memory expert (a fresh node has nothing to reload).
        """
        from ..store import NoValidGenerationError  # local: optional dep
        try:
            model, _ = self._store.load_expert(self._expert_index)
        except NoValidGenerationError:
            return
        self.expert = model
        self._fingerprint = weights_fingerprint(model)

    def start(self) -> None:
        if self._running:
            return
        if self._store is not None and self._expert_index is not None:
            self._reload_from_store()
        if self._listener is None:
            self._listener = self._transport.listen(self._host, self._port)
        self._running = True
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          args=(self._listener,), daemon=True)
        self._acceptor.start()

    def _accept_loop(self, listener) -> None:
        while self._running and listener is self._listener:
            try:
                sock = listener.accept(timeout=0.2)
            except TimeoutError:
                continue
            except OSError:
                return
            # Reap finished connection threads so the list stays bounded
            # under heavy traffic instead of growing one entry per client.
            self._threads = [t for t in self._threads if t.is_alive()]
            with self._conn_lock:
                self._conns.append(sock)
            worker = threading.Thread(target=self._serve, args=(sock,),
                                      daemon=True)
            worker.start()
            self._threads.append(worker)

    def _handle_deploy(self, msg: protocol.Message) -> bytes:
        """Install a pushed expert archive; ack with DEPLOYED.

        A corrupt or missing archive costs the sender an error reply and
        leaves the current expert serving — a bad push must never brick
        the node.
        """
        seq = msg.meta.get("seq")
        blob = msg.arrays.get("model")
        if blob is None:
            return protocol.encode(protocol.ERROR, {
                "error": "deploy without a model archive", "seq": seq})
        try:
            model, spec = model_from_bytes(
                np.ascontiguousarray(blob, dtype=np.uint8).tobytes())
        except CorruptModelError as exc:
            return protocol.encode(protocol.ERROR,
                                   {"error": f"deploy: {exc}", "seq": seq})
        self.expert = model
        self._fingerprint = weights_fingerprint(model)
        return protocol.encode(protocol.DEPLOYED,
                               {"seq": seq, "spec": spec.name})

    @staticmethod
    def _safe_send(sock, blob: bytes) -> bool:
        """Best-effort send: a peer that hangs up right before our reply
        (e.g. after sending garbage) must not crash the serve thread."""
        try:
            sock.send(blob)
            return True
        except (ConnectionError, OSError):
            return False

    # ------------------------------------------------------ deadline shed
    def _shed_rows(self, msg: protocol.Message) -> int | None:
        """Row count to shed when the *whole* request's deadline budget
        is spent, else None.  Per-segment budgets defer the decision to
        :meth:`_forward_shedding`, which can still salvage live segments
        of a coalesced batch."""
        meta = msg.meta
        if meta.get("segment_budgets_s") is not None:
            return None
        left = remaining_budget(meta.get("deadline_budget_s"),
                                meta.get("sent_at"), self._clock())
        if left is None or left > 0.0:
            return None
        x = msg.arrays.get("x")
        return 0 if x is None else int(np.asarray(x).shape[0])

    def _forward_shedding(
            self, msg: protocol.Message) -> tuple[ExpertOutput | None, list]:
        """Forward honoring per-segment deadline budgets.

        Returns ``(output, expired_segment_indices)``.  The clock is
        re-read before *each* segment's forward, so a budget that runs
        out mid-batch sheds the remaining doomed segments instead of
        computing them.  Skipped segments come back as uniform
        max-entropy filler rows: :func:`entropy_from_probs` on exactly
        uniform probabilities satisfies the integrity validator's
        recompute, and maximal entropy can never win the arg-min gate.
        ``output`` is None when every segment expired (caller sends one
        whole-request EXPIRED instead).
        """
        x = np.asarray(msg.arrays["x"])
        segments = msg.meta.get("segments")
        budgets = msg.meta.get("segment_budgets_s")
        if (msg.kind != protocol.INFER or budgets is None
                or segments is None):
            output = expert_forward_segments(self.expert, x, segments,
                                             engine=self.engine)
            self.forwards += (len(segments)
                              if segments and len(segments) > 1 else 1)
            return output, []
        if len(budgets) != len(segments):
            raise ValueError(f"{len(budgets)} segment budgets for "
                             f"{len(segments)} segments")
        if sum(segments) != len(x):
            raise ValueError(f"segments {segments} do not cover "
                             f"{len(x)} rows")
        sent_at = msg.meta.get("sent_at")
        pieces: list[ExpertOutput | None] = [None] * len(segments)
        expired: list[int] = []
        offset = 0
        for i, rows in enumerate(segments):
            left = remaining_budget(budgets[i], sent_at, self._clock())
            if left is not None and left <= 0.0:
                expired.append(i)
            else:
                pieces[i] = expert_forward(self.expert,
                                           x[offset:offset + rows],
                                           engine=self.engine)
                self.forwards += 1
            offset += rows
        live = next((p for p in pieces if p is not None), None)
        if live is None:
            return None, expired
        if not expired:
            return ExpertOutput(
                probs=np.concatenate([p.probs for p in pieces], axis=0),
                entropy=np.concatenate([p.entropy for p in pieces],
                                       axis=0)), []
        n_classes = int(live.probs.shape[-1])
        probs_parts, ent_parts = [], []
        for i, rows in enumerate(segments):
            piece = pieces[i]
            if piece is None:
                filler = np.full((rows, n_classes), 1.0 / n_classes,
                                 dtype=live.probs.dtype)
                probs_parts.append(filler)
                ent_parts.append(entropy_from_probs(filler).astype(
                    live.entropy.dtype, copy=False))
            else:
                probs_parts.append(piece.probs)
                ent_parts.append(piece.entropy)
        return ExpertOutput(
            probs=np.concatenate(probs_parts, axis=0),
            entropy=np.concatenate(ent_parts, axis=0)), expired

    def _serve(self, sock) -> None:
        try:
            with sock:
                while self._running:
                    try:
                        msg = protocol.decode(sock.recv())
                    except protocol.ProtocolError as exc:
                        # Malformed manifest from an untrusted peer: tell
                        # it why, then drop the connection rather than
                        # trust anything further on this stream.
                        self._safe_send(sock, protocol.encode(
                            protocol.ERROR, {"error": f"bad message: {exc}"}))
                        return
                    if msg.kind == protocol.SHUTDOWN:
                        return
                    if not self._safe_send(sock, self._reply(msg)):
                        return
        except (ConnectionError, OSError):
            return
        finally:
            with self._conn_lock:
                if sock in self._conns:
                    self._conns.remove(sock)

    def _reply(self, msg: protocol.Message) -> bytes:
        """The one reply frame for ``msg``; every reply echoes the
        request's seq so the master can correlate it — a duplicated or
        reordered reply from an earlier request must never be mistaken
        for the answer to the current one."""
        if msg.kind == protocol.PING:
            return self._handle_ping(msg)
        if msg.kind == protocol.ATTACH:
            return self._handle_attach(msg)
        if msg.kind == protocol.DEPLOY:
            return self._handle_deploy(msg)
        seq = msg.meta.get("seq")
        if msg.kind not in (protocol.INFER, protocol.CANARY):
            return protocol.encode(protocol.ERROR, {
                "error": f"unexpected {msg.kind!r}", "seq": seq})
        # Epoch fencing: a broadcast from a deposed master (epoch below
        # the highest seen) must be refused, not answered — otherwise two
        # masters could serve conflicting answers during a failover
        # window.  A current-or-newer epoch counts as a lease renewal:
        # live traffic is proof of leader liveness.
        epoch = msg.meta.get("epoch")
        if epoch is not None:
            with self._lease_lock:
                if not self.lease.renew(msg.meta.get("leader"), epoch,
                                        self._clock()):
                    return self._stale_epoch_reply(seq, epoch)
        # Deadline shedding: a request whose budget is already spent gets
        # a typed EXPIRED reply instead of a wasted forward — the master
        # books it as shed, never as a failure.
        shed_rows = (self._shed_rows(msg)
                     if msg.kind == protocol.INFER else None)
        if shed_rows is not None:
            self.shed_expired += 1
            return protocol.encode(protocol.EXPIRED,
                                   {"seq": seq, "rows": shed_rows})
        try:
            # ``segments`` marks a coalesced micro-batch whose
            # per-request row runs must be forwarded separately for
            # bit-exactness (see expert_forward_segments).  A canary
            # probe is an ordinary forward on the known-answer batch — an
            # honest worker cannot tell probes from traffic, which is the
            # point.
            output, expired = self._forward_shedding(msg)
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            # A bad input (wrong shape, missing array) must cost the
            # sender an error reply, not this serve thread.
            return protocol.encode(protocol.ERROR, {
                "error": f"inference: {exc}", "seq": seq})
        if output is None:
            # Every segment's budget expired mid-batch.
            self.shed_expired += 1
            self.shed_segments += len(expired)
            rows = int(np.asarray(msg.arrays["x"]).shape[0])
            return protocol.encode(protocol.EXPIRED,
                                   {"seq": seq, "rows": rows})
        reply_meta = {"seq": seq, "model_version": self._fingerprint}
        if expired:
            self.shed_segments += len(expired)
            reply_meta["expired_segments"] = expired
        return protocol.encode(protocol.RESULT, reply_meta, {
            "probs": output.probs, "entropy": output.entropy})

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # Close every live connection: serve threads blocked in recv wake
        # with a connection error and exit instead of leaking.
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for sock in conns:
            try:
                sock.close()
            except (ConnectionError, OSError):
                pass
        if self._acceptor is not None:
            # Wait out the acceptor's poll window so the kernel fully
            # releases the listening port — a restart rebinds the same one.
            self._acceptor.join(timeout=1.0)
            self._acceptor = None
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = [t for t in self._threads if t.is_alive()]


class WorkerFailure(ConnectionError):
    """Raised when collaboration fails and degradation is disabled."""


class LeadershipLost(RuntimeError):
    """This master has been fenced: a worker (or a pong) presented a
    leadership epoch higher than the master's own, meaning a standby was
    promoted in its place.  The master is permanently deposed — every
    subsequent broadcast raises this too — and its callers must re-drive
    pending requests to the new leader
    (:class:`repro.distributed.failover.FailoverServer` does exactly
    that).  Deliberately *not* a ConnectionError: the workers are fine,
    it is this master's claim to them that died."""


class TeamNetMaster:
    """The master node: local expert + connections to all workers.

    ``degrade_on_failure`` enables graceful degradation: if a worker dies
    or misses the gather deadline, the master drops it from the team and
    answers from the remaining experts (each expert only knows part of the
    data, so accuracy degrades — but the system keeps answering).  With
    degradation disabled, a worker failure raises :class:`WorkerFailure`.
    How degraded an answer may get before it is flagged or refused is the
    ``degradation`` policy's call (quorum and entropy ceiling).

    ``reply_timeout`` is a single **per-inference** gather deadline: every
    peer's reply slot is armed with it at broadcast time and the replies
    stream in concurrently through the per-connection demux readers, so
    the total wait is bounded by one deadline no matter how many workers
    straggle.  A *suspected-slow* peer gets a shorter,
    latency-quantile-derived hedge deadline instead (see
    :class:`~repro.distributed.resilience.ResilienceConfig`), so a known
    straggler costs the gather its hedge delay, not the full deadline.

    Failed workers are gated by per-peer circuit breakers: below the
    failure threshold a reconnect is attempted on the next inference;
    once the breaker trips open, the worker receives nothing until the
    open window (``resilience.reset_timeout`` seconds, doubling per
    re-trip up to ``resilience.reset_timeout_max``) elapses and a probe
    succeeds.  A worker that comes back (same address) rejoins the team
    automatically.

    Plain ``infer``/``heartbeat`` calls must not overlap each other.  For
    concurrent callers, wrap the master in a
    :class:`~repro.distributed.serving.TeamNetServer` (or call
    :meth:`serve`): its single dispatcher/collector pair drives the
    split ``_begin``/``_finish`` pipeline underneath, which *is* safe to
    overlap — peer bookkeeping is guarded by the master's state lock and
    replies are correlated by seq, not by call order.
    """

    def __init__(self, expert: Module,
                 worker_addresses: list[tuple[str, int]],
                 degrade_on_failure: bool = False,
                 reply_timeout: float | None = None,
                 connect_timeout: float = 0.25,
                 transport: Transport | None = None,
                 resilience: ResilienceConfig | None = None,
                 degradation: DegradationPolicy | None = None,
                 store=None, engine: str = "tape",
                 epoch: int | None = None, leader_id: str | None = None,
                 integrity: IntegrityConfig | None = None,
                 canaries: CanarySet | None = None,
                 expected_versions: dict[int, str] | None = None,
                 retry_budget: RetryBudget | None = None,
                 clock=None):
        self.expert = expert
        self.engine = validate_engine(engine)
        self.store = store
        # Leadership identity (master failover).  With an ``epoch`` set,
        # every broadcast/ping/attach carries it and workers fence off
        # anything below the highest epoch they have seen; ``None`` is
        # the legacy single-master mode (no epochs on the wire, never
        # fenced).  ``leader_id`` names this master in pong payloads so
        # standbys can tell *who* leads, not just that someone does.
        self.epoch = None if epoch is None else int(epoch)
        self.leader_id = leader_id
        self._deposed = False
        #: standby-master addresses to push roster deltas to (see
        #: :meth:`announce_roster`); the failover layer registers them.
        self.standbys: list[tuple[str, int]] = []
        self._roster_version = 0
        self.degrade_on_failure = degrade_on_failure
        self.reply_timeout = reply_timeout
        self.connect_timeout = connect_timeout
        # ``clock`` stamps outgoing deadline meta (``sent_at``); inject
        # the testkit's virtual clock so budgets age deterministically on
        # the sim fabric.  It must be the same clock the workers read.
        self._clock = clock if clock is not None else time.monotonic
        # Overload control (repro.distributed.overload).  ``retry_budget``
        # is the shared token bucket gating every load-amplifying retry:
        # reconnect dials, auto-redeploy pushes, hedged gathers, and (via
        # the failover layer) request re-drives.  None = unlimited.
        self.retry_budget = retry_budget
        #: brownout overrides, set by the serving layer's ladder: force
        #: hedging off (False) and/or lower the quorum floor (int).  None
        #: defers to ``resilience.hedging`` / ``degradation.min_quorum``.
        self.hedging_override: bool | None = None
        self.min_quorum_override: int | None = None
        self.resilience = resilience if resilience is not None else \
            ResilienceConfig()
        self.degradation = degradation if degradation is not None else \
            DegradationPolicy()
        self._transport = transport if transport is not None else TcpTransport()
        self._peers = [
            _Peer(i, (host, port), self._transport.connect(host, port),
                  self.resilience)
            for i, (host, port) in enumerate(worker_addresses, start=1)]
        self._latencies = LatencyTracker(self.resilience.latency_window)
        # One seq counter shared by infers and pings: every request gets
        # a unique seq, every reply echoes it, and the demux discards any
        # frame whose seq has no registered waiter (duplicated/reordered
        # deliveries leave stale frames queued on long-lived connections).
        self._request_seq = 0
        # Guards all peer/bookkeeping state: sends, reconnects, failure
        # and success accounting, the seq counter, and the latency window.
        # Never held across a slot wait — I/O waits happen outside it, so
        # a broadcast can begin while an earlier gather is still waiting.
        self._lock = threading.Lock()
        #: cumulative traffic spent on heartbeat probes (not per-inference)
        self.heartbeat_traffic = TransportStats()
        #: cumulative traffic spent pushing models to standby workers
        self.redeploy_traffic = TransportStats()
        #: cumulative traffic spent on known-answer canary probes
        self.canary_traffic = TransportStats()
        # Data-plane integrity (repro.distributed.integrity): reply
        # validation + version fencing on every gather, canary probes on
        # the heartbeat cadence, quarantine on failure.  All optional —
        # with ``integrity=None`` only the always-on structural reply
        # checks run (garbage payloads become WorkerFailure, never a raw
        # numpy error in the gate).
        self.integrity = integrity
        self._validator = (ReplyValidator(integrity)
                           if integrity is not None else None)
        self.quarantine = (QuarantineManager(integrity.readmit_passes)
                           if integrity is not None else None)
        self._expected_versions: dict[int, str] = dict(expected_versions
                                                       or {})
        if (canaries is None and integrity is not None
                and store is not None and hasattr(store, "load_canary")):
            canaries = store.load_canary()
        self._prober = (CanaryProber(integrity, canaries)
                        if integrity is not None and canaries is not None
                        else None)
        # Golden-trace capture for the differential testkit: the expert
        # outputs and original team indices that fed the last selection.
        self.last_outputs: dict[int, ExpertOutput] = {}
        self.last_participants: list[int] = []

    @property
    def team_size(self) -> int:
        return 1 + len(self._peers)

    @property
    def live_team_size(self) -> int:
        return self.team_size - len(self.failed_workers)

    @property
    def failed_workers(self) -> list[int]:
        """Indices of workers currently down (they may yet rejoin)."""
        return [peer.index for peer in self._peers if not peer.alive]

    @property
    def worker_health(self) -> dict[int, WorkerHealth]:
        """Cumulative per-worker reply-latency and failure telemetry."""
        return {peer.index: peer.health for peer in self._peers}

    def resilience_snapshot(self) -> dict[int, PeerResilience]:
        """Control-plane state per worker: breaker, suspicion, latency.

        Render with :func:`repro.edge.monitor.resilience_table`.
        """
        snapshot = {}
        for peer in self._peers:
            record = (self.quarantine.snapshot(peer.index)
                      if self.quarantine is not None else None)
            snapshot[peer.index] = PeerResilience(
                index=peer.index, address=peer.address, alive=peer.alive,
                breaker_state=peer.breaker.state,
                consecutive_failures=peer.breaker.consecutive_failures,
                breaker_trips=peer.breaker.trips,
                suspicion_score=peer.health.suspicion_score,
                suspect=peer.health.suspect,
                ewma_reply_latency_s=peer.health.ewma_reply_latency_s,
                replies=peer.health.replies,
                failures=peer.health.failures,
                timeouts=peer.health.timeouts,
                hedges=peer.health.hedges,
                reconnects=peer.health.reconnects,
                redeployments=peer.health.redeployments,
                invalid_replies=peer.health.invalid_replies,
                quarantined=record.quarantined if record else False,
                quarantines=record.quarantines if record else 0,
                quarantine_reason=record.reason if record else None,
                canary_failures=record.canary_failures if record else 0,
                readmissions=record.readmissions if record else 0,
                expired_replies=peer.health.expired_replies,
                expired_segments=peer.health.expired_segments)
        return snapshot

    @property
    def effective_min_quorum(self) -> int:
        """The quorum floor in force: the brownout override when the
        serving layer lowered it, the degradation policy's otherwise."""
        if self.min_quorum_override is not None:
            return self.min_quorum_override
        return self.degradation.min_quorum

    # ------------------------------------------------------------ recovery
    def _maybe_reconnect(self) -> None:
        """Retry down workers whose circuit breaker admits a probe.

        Caller holds ``_lock``."""
        for peer in self._peers:
            if peer.alive or not peer.breaker.allow():
                continue
            # Reconnect dials draw on the shared retry budget: under
            # overload a fleet of down peers must not amplify load with
            # synchronized dial storms.  A denied token skips this round
            # — the breaker window, not the budget, schedules the next.
            if (self.retry_budget is not None
                    and not self.retry_budget.try_spend()):
                continue
            try:
                sock = self._transport.connect(
                    *peer.address, retries=1, delay=0.0,
                    timeout=self.connect_timeout)
            except (ConnectionError, OSError):
                peer.breaker.record_failure()
                continue
            peer.connect(sock)
            peer.health.reconnects += 1
            # A successful dial is not yet a successful round-trip:
            # the breaker stays where it is (half-open after a trip)
            # until a reply or a pong actually comes back.

    def redeploy(self, index: int, address: tuple[str, int],
                 blob: bytes | None = None,
                 timeout: float | None = 5.0) -> None:
        """Re-provision worker slot ``index`` onto a standby node.

        Degradation keeps the team answering when a worker dies, but a
        *permanently* dead worker would shrink the team forever — and
        each expert only knows its partition, so the lost specialization
        never comes back on its own.  ``redeploy`` restores it: push the
        expert's serialized archive (``blob``, defaulting to the stored
        one from the attached :class:`~repro.store.CheckpointStore`) to
        the standby listening at ``address``, wait for its ``deployed``
        ack, and rewire peer ``index`` to the new node with a fresh
        circuit breaker and failure detector (the replacement must not
        inherit the corpse's open breaker).  Raises
        :class:`WorkerFailure` if the standby is unreachable, rejects
        the archive, or replies with garbage; the old peer state is
        untouched in that case.

        The model push is metered in :attr:`redeploy_traffic`, not in
        any inference's stats.
        """
        if not 1 <= index <= len(self._peers):
            raise IndexError(f"worker index must be 1..{len(self._peers)}, "
                             f"got {index}")
        peer = self._peers[index - 1]
        if blob is None:
            if self.store is None:
                raise ValueError(
                    "redeploy needs a model blob or a checkpoint store "
                    "attached to the master (store=...)")
            blob = self.store.expert_bytes(index)
        try:
            sock = self._transport.connect(*address,
                                           timeout=self.connect_timeout)
        except (ConnectionError, OSError) as exc:
            raise WorkerFailure(
                f"standby {address} for worker {index} is unreachable: "
                f"{exc}") from exc
        with self._lock:
            self._request_seq += 1
            seq = self._request_seq
        try:
            reply = _exchange(sock, protocol.encode(
                protocol.DEPLOY, {"seq": seq},
                {"model": np.frombuffer(blob, dtype=np.uint8)}), seq, timeout)
        except _EXCHANGE_ERRORS as exc:
            # ProtocolError is a ValueError, not a ConnectionError: a
            # standby replying with a malformed frame must surface as a
            # WorkerFailure with the socket closed, not leak the socket
            # and escape as a raw decode error.
            sock.close()
            raise WorkerFailure(
                f"deploy to standby {address} failed: {exc}") from exc
        if reply.kind != protocol.DEPLOYED:
            sock.close()
            raise WorkerFailure(
                f"standby {address} rejected the deploy: "
                f"{reply.meta.get('error', reply.kind)}")
        self.redeploy_traffic.merge(sock.stats)
        sock.stats.reset()
        # Commit the rewire only after a successful ack.
        with self._lock:
            peer.disconnect()
            peer.connect(sock)
            peer.address = address
            peer.health.address = address
            peer.health.redeployments += 1
            peer.reset_control(self.resilience)
            if self._validator is not None:
                # The pushed archive defines the slot's new expected
                # version: replies from here on must stamp it, and a
                # pre-deploy worker reconnecting with the old expert is
                # fenced by the mismatch.
                self._expected_versions[index] = weights_fingerprint(
                    model_from_bytes(blob)[0])
        self._roster_changed()

    def _auto_redeploy(self, peer: _Peer) -> bool:
        """Best-effort push of the stored (known-good) expert onto a slot
        that just failed an integrity check.

        Quarantine without repair would bench the slot forever; the
        checkpoint store holds the weights the slot *should* be running,
        so push them back.  Failures here are swallowed — the slot stays
        quarantined and the next canary failure retries, which *is* the
        retry policy.  Returns True when the redeploy committed.
        """
        if (self.integrity is None or not self.integrity.auto_redeploy
                or self.store is None):
            return False
        from ..store import NoValidGenerationError  # local: optional dep
        # An auto-redeploy is a retry in the budget's sense: it pushes a
        # whole model archive at a cluster that may already be drowning.
        if (self.retry_budget is not None
                and not self.retry_budget.try_spend()):
            return False
        try:
            blob = self.store.expert_bytes(peer.index)
        except (NoValidGenerationError, OSError, KeyError):
            return False
        try:
            self.redeploy(peer.index, tuple(peer.address), blob=blob)
        except (WorkerFailure, OSError):
            return False
        if self.quarantine is not None:
            self.quarantine.note_redeploy(peer.index)
        return True

    # ------------------------------------------------------------- failure
    @staticmethod
    def _drain_stale(peer: _Peer,
                     ledger: InferenceStats | TransportStats) -> None:
        """Meter the stale frames ``peer``'s demux absorbed into the
        ledger of the exchange that was using it, so traffic stays
        attributed.  Caller holds ``_lock``."""
        if peer.channel is None:
            return
        stale, stale_bytes = peer.channel.take_stale()
        ledger.messages_received += stale
        ledger.bytes_received += stale_bytes
        if isinstance(ledger, InferenceStats):
            ledger.stale_replies += stale

    def _fail(self, peer: _Peer, ledger: InferenceStats | TransportStats,
              timed_out: bool = False, hedged: bool = False) -> None:
        """Record a worker failure: salvage the stale frames its demux
        read into ``ledger``, close its channel and socket (a late reply
        on a reused connection would desync the frame stream), arm the
        breaker and bump the suspicion score.  Caller holds ``_lock``."""
        self._drain_stale(peer, ledger)
        peer.disconnect()
        peer.health.failures += 1
        if timed_out:
            peer.health.timeouts += 1
        if hedged:
            peer.health.hedges += 1
        peer.health.detector.miss()
        peer.breaker.record_failure()

    def _check_fenced(self, fenced_epoch: int | None, during: str) -> None:
        """Depose this master if a round met a higher leadership epoch.

        Called once a round's good replies are booked.  A fence outranks
        every other outcome and fires even with degradation enabled: a
        deposed master must not keep serving from whatever workers its
        messages still reach before they learn of the new leader."""
        if fenced_epoch is None:
            return
        with self._lock:
            self._deposed = True
        raise LeadershipLost(
            f"epoch {self.epoch} fenced {during}: a worker follows "
            f"leadership epoch {fenced_epoch}")

    # -------------------------------------------------------------- success
    def _record_reply(self, peer: _Peer, latency: float,
                      inference: InferenceStats) -> None:
        """Book-keep one successful reply (caller holds ``_lock``)."""
        inference.reply_latency_s[peer.index] = latency
        peer.health.replies += 1
        peer.health.last_reply_latency_s = latency
        peer.health.total_reply_latency_s += latency
        peer.health.detector.observe(latency)
        peer.breaker.record_success()
        self._latencies.add(latency)

    # -------------------------------------------------------------- hedging
    def _hedge_plan(self, sent: list[_Peer]) -> tuple[float | None, set[int]]:
        """Decide the hedge delay and which of ``sent`` get it.

        Hedging arms once the latency window holds enough samples; the
        delay is ``max(multiplier × Q(quantile), floor)``.  A peer is
        hedged when the failure detector marks it suspect (misses) or its
        latency EWMA already exceeds the hedge delay (it is *expected* to
        miss it).  Hedging is skipped entirely when cutting the suspects
        loose could leave the answer below the quorum — better to burn
        the deadline than to refuse an answer we could have had.
        """
        cfg = self.resilience
        if self.hedging_override is False:
            # Brownout ladder rung 1: hedging off under sustained
            # pressure — hedge deadlines convert slowness into failures
            # and reconnects, the opposite of what overload needs.
            return None, set()
        if not cfg.hedging or len(self._latencies) < cfg.hedge_min_samples:
            return None, set()
        if (self.retry_budget is not None
                and self.retry_budget.available() < 1.0):
            # A hedge that fires becomes a failure + reconnect; with the
            # retry budget drained those amplify load, so pause hedging.
            return None, set()
        delay = max(cfg.hedge_multiplier
                    * self._latencies.quantile(cfg.hedge_quantile),
                    cfg.hedge_floor_s)
        if self.reply_timeout is not None and delay >= self.reply_timeout:
            return None, set()
        suspects = {
            peer.index for peer in sent
            if peer.health.suspect
            or (peer.health.ewma_reply_latency_s is not None
                and peer.health.ewma_reply_latency_s > delay)}
        if not suspects:
            return None, set()
        if 1 + len(sent) - len(suspects) < self.effective_min_quorum:
            return None, set()
        return delay, suspects

    # ----------------------------------------------------------- broadcast
    def _begin(self, x: np.ndarray,
               segments: list[int] | None = None,
               deadline_budget_s: float | None = None,
               segment_budgets_s: list[float | None] | None = None
               ) -> _Pending:
        """Step 2: broadcast ``x`` to every admissible peer.

        ``deadline_budget_s`` is the request's remaining relative budget
        at send time; ``segment_budgets_s`` carries per-request budgets
        for a coalesced batch (parallel to ``segments``, None entries =
        no deadline).  Either stamps ``sent_at`` from the master's clock
        so workers sharing a comparable clock can charge transit time
        and shed expired work before the forward.

        Registers one reply slot per peer (armed with the hedge delay for
        suspects, ``reply_timeout`` otherwise) *before* sending, so a
        fast reply can never race past its waiter.  Returns the
        :class:`_Pending` handle that :meth:`_finish` turns into an
        answer; several may be in flight at once — the serving core's
        pipeline — as long as a single thread at a time calls ``_begin``
        (framed sends on a shared connection must not interleave).
        """
        x = np.asarray(x)
        inference = InferenceStats()
        with self._lock:
            if self._deposed:
                raise LeadershipLost(
                    f"master {self.leader_id or ''} (epoch {self.epoch}) "
                    "has been fenced by a higher epoch")
            self._maybe_reconnect()
            quarantined = (set(self.quarantine.quarantined())
                           if self.quarantine is not None else set())
            if not self.degrade_on_failure:
                down = self.failed_workers
                if down:
                    raise WorkerFailure(f"workers {down} are down and "
                                        "degradation is disabled")
                if quarantined:
                    raise WorkerFailure(
                        f"workers {sorted(quarantined)} are quarantined "
                        "and degradation is disabled")
            self._request_seq += 1
            seq = self._request_seq
            meta: dict = {"seq": seq}
            if self.epoch is not None:
                meta["epoch"] = self.epoch
            if segments is not None and len(segments) > 1:
                meta["segments"] = [int(s) for s in segments]
            if deadline_budget_s is not None:
                meta["deadline_budget_s"] = float(deadline_budget_s)
            # Segment budgets only make sense alongside the "segments"
            # meta (len > 1); a single-request batch rides the
            # whole-request ``deadline_budget_s`` instead.
            if (segment_budgets_s is not None and segments is not None
                    and len(segments) > 1
                    and any(b is not None for b in segment_budgets_s)):
                if len(segment_budgets_s) != len(segments):
                    raise ValueError(
                        f"{len(segment_budgets_s)} segment budgets for "
                        f"{len(segments)} segments")
                meta["segment_budgets_s"] = [
                    None if b is None else float(b)
                    for b in segment_budgets_s]
            if "deadline_budget_s" in meta or "segment_budgets_s" in meta:
                meta["sent_at"] = float(self._clock())
            request = protocol.encode(protocol.INFER, meta, {"x": x})
            # A quarantined slot gets no broadcast: its answers are
            # untrustworthy, so it earns no gate entry and no quorum
            # credit.  It still receives canary probes — the only road
            # back to the team.
            targets = [peer for peer in self._peers
                       if peer.alive and peer.breaker.allow()
                       and peer.index not in quarantined]
            hedge_delay, hedged_set = self._hedge_plan(targets)
            inference.hedge_delay_s = hedge_delay
            waits: list[tuple[_Peer, ReplySlot]] = []
            for peer in targets:
                allowance = (hedge_delay if peer.index in hedged_set
                             else self.reply_timeout)
                slot = None
                try:
                    slot = peer.channel.expect(seq, allowance)
                    peer.sock.send(request)
                except (ConnectionError, OSError) as exc:
                    if slot is not None:
                        slot.cancel()
                    self._fail(peer, inference)
                    inference.failures += 1
                    if not self.degrade_on_failure:
                        for _, pending_slot in waits:
                            pending_slot.cancel()
                        raise WorkerFailure(
                            f"worker {peer.index} failed: {exc}") from exc
                    continue
                inference.messages_sent += 1
                inference.bytes_sent += FRAME_OVERHEAD_BYTES + len(request)
                waits.append((peer, slot))
        return _Pending(x, seq, segments, waits, inference, hedged_set)

    # -------------------------------------------------------------- gather
    def _finish(self, pending: _Pending, local_output: ExpertOutput
                ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """Steps 4–5: collect the replies for one broadcast and select.

        Waits out each peer's reply slot (the per-connection readers are
        already collecting concurrently; slot deadlines are absolute from
        broadcast time, so sequential waiting compounds nothing), books
        successes and failures, then runs the arg-min gate and the
        degradation policy.  One thread at a time may call ``_finish``,
        but it may overlap ``_begin`` calls for later requests.
        """
        inference = pending.inference
        gather_start = time.monotonic()
        results: dict[int, ExpertOutput | Exception] = {}
        fenced_epoch: int | None = None
        for peer, slot in pending.waits:
            try:
                message, latency, nbytes = slot.wait()
                inference.messages_received += 1
                inference.bytes_received += nbytes
                if message.kind == protocol.EXPIRED:
                    # The worker shed this request for deadline: load
                    # shedding, not a fault.  The reply proves liveness
                    # (decay suspicion, close a half-open breaker) but
                    # carries no compute latency and no gate entry.
                    with self._lock:
                        inference.expired_replies += 1
                        peer.health.expired_replies += 1
                        peer.health.detector.observe()
                        peer.breaker.record_success()
                    results[peer.index] = None
                    continue
                if message.kind != protocol.RESULT:
                    if message.meta.get("stale_epoch"):
                        fenced_epoch = message.meta.get("epoch")
                    raise WorkerFailure(
                        "worker failure: "
                        f"{message.meta.get('error', message.kind)}")
                probs = message.arrays.get("probs")
                entropy = message.arrays.get("entropy")
                rows = pending.x.shape[0]
                # Structural checks are always on: a wrong-shaped reply
                # would otherwise crash the gate's np.stack with a raw
                # numpy error instead of surfacing as a worker failure.
                reason = structural_reason(probs, entropy, rows)
                if reason is None and self._validator is not None:
                    claimed = message.meta.get("model_version")
                    with self._lock:
                        expected = self._expected_versions.get(peer.index)
                    reason = self._validator.validate(
                        probs, entropy, rows,
                        claimed_version=claimed,
                        expected_version=expected)
                    if (reason is None and expected is None
                            and claimed is not None
                            and self.integrity.pin_first_version):
                        # Trust-on-first-use: pin the first stamped
                        # version so later swaps (a stale worker
                        # reconnecting after a redeploy it missed) are
                        # fenced even when no deploy recorded a version.
                        with self._lock:
                            self._expected_versions.setdefault(
                                peer.index, claimed)
                if reason is not None:
                    raise IntegrityViolation(
                        f"worker {peer.index}: {reason}")
                outcome: ExpertOutput | Exception = ExpertOutput(
                    probs=probs, entropy=entropy)
                shed_segments = message.meta.get("expired_segments")
                with self._lock:
                    self._record_reply(peer, latency, inference)
                    if shed_segments:
                        # Mid-batch deadline sheds: the reply is live and
                        # valid (filler rows are uniform max-entropy and
                        # cannot win the gate), but the shed work must be
                        # booked so benches see it.
                        inference.expired_segments += len(shed_segments)
                        peer.health.expired_segments += len(shed_segments)
            except Exception as exc:  # noqa: BLE001 - booked as a failure
                outcome = exc
            results[peer.index] = outcome
        inference.gather_s = time.monotonic() - gather_start
        hedge_missed = sorted(
            index for index in pending.hedged_set
            if isinstance(results.get(index), TimeoutError))
        if hedge_missed:
            inference.hedged = True
            inference.hedged_workers = hedge_missed
        outputs = [local_output]
        indices = [0]
        first_error: tuple[_Peer, Exception] | None = None
        quarantine_actions: list[tuple[_Peer, str]] = []
        with self._lock:
            for peer, _ in pending.waits:
                outcome = results[peer.index]
                if outcome is None:
                    # EXPIRED reply: already booked as shed in the wait
                    # loop — no gate entry, no quorum credit, no failure.
                    continue
                if isinstance(outcome, ExpertOutput):
                    outputs.append(outcome)
                    indices.append(peer.index)
                elif isinstance(outcome, IntegrityViolation):
                    # The connection is fine — the *data* lies.  Book the
                    # failure without closing the socket: the channel must
                    # stay healthy so canary probes can later readmit (or
                    # keep condemning) the slot.
                    inference.failures += 1
                    inference.invalid_replies += 1
                    peer.health.failures += 1
                    peer.health.invalid_replies += 1
                    peer.health.detector.miss()
                    quarantine_actions.append((peer, str(outcome)))
                    if first_error is None:
                        first_error = (peer, outcome)
                else:
                    self._fail(peer, inference,
                               timed_out=isinstance(outcome, TimeoutError),
                               hedged=peer.index in inference.hedged_workers)
                    inference.failures += 1
                    if first_error is None:
                        first_error = (peer, outcome)
            # Stale frames the surviving demux readers absorbed during
            # this gather: count and meter them here so the traffic
            # ledger stays complete (failed peers were drained in _fail).
            for peer, _ in pending.waits:
                self._drain_stale(peer, inference)
        # Quarantine outside the lock (auto-redeploy pushes a model over
        # the network) but before any raise below: a slot that lied must
        # be benched even when this gather also ends in an error.
        for peer, reason in quarantine_actions:
            if self.quarantine is not None:
                self.quarantine.record_invalid(peer.index, reason)
                self._auto_redeploy(peer)
        self._check_fenced(fenced_epoch, "during a gather")
        if first_error is not None and not self.degrade_on_failure:
            peer, exc = first_error
            raise WorkerFailure(f"worker {peer.index} failed: {exc}") from exc
        # Step 5: least-uncertainty selection.
        preds, winner = argmin_select(outputs)
        winner = np.asarray(indices)[winner]
        self.last_outputs = dict(zip(indices, outputs))
        self.last_participants = list(indices)
        # Degradation accounting: how partial is this answer, and does the
        # policy allow returning it?
        inference.participants = len(indices)
        inference.degraded = len(indices) < self.team_size
        entropies = np.stack([o.entropy for o in outputs], axis=1)
        winner_entropy = entropies.min(axis=1)
        max_winner_entropy = (float(winner_entropy.max())
                              if winner_entropy.size else None)
        violations = self.degradation.violations(
            len(indices), max_winner_entropy,
            min_quorum=self.min_quorum_override)
        if violations and self.degradation.on_violation == "raise":
            raise QuorumError("; ".join(violations))
        inference.violations = violations
        return preds, winner, inference

    # --------------------------------------------------------------- infer
    def infer(self, x: np.ndarray,
              deadline_budget_s: float | None = None
              ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """One collaborative inference over the team.

        Returns (predictions, winning expert index, traffic stats).  The
        master's own expert is index 0; workers follow in connection
        order.  Winning indices refer to the *original* team numbering
        even after degradation.

        ``deadline_budget_s`` propagates a per-request latency budget to
        the workers: a worker whose copy arrives with the budget already
        spent sheds the forward and replies ``EXPIRED`` (booked as a
        shed, not a failure).  The master still computes its local
        expert — the caller asked it directly, so it always answers.
        """
        pending = self._begin(x, deadline_budget_s=deadline_budget_s)
        # Step 3: run the local expert while the workers compute.
        local_output = expert_forward(self.expert, pending.x,
                                      engine=self.engine)
        return self._finish(pending, local_output)

    def serve(self, **kwargs):
        """Wrap this master in a concurrent micro-batching
        :class:`~repro.distributed.serving.TeamNetServer` (started)."""
        from .serving import TeamNetServer  # local: avoid import cycle
        server = TeamNetServer(self, **kwargs)
        server.start()
        return server

    # ------------------------------------------------------ control plane
    def _probe(self, kind: str, reply_kind: str, timeout: float | None,
               ledger: TransportStats, arrays: dict | None = None
               ) -> tuple[list[tuple[_Peer, protocol.Message, float]],
                          list[_Peer], int | None]:
        """One control-plane round: one ``kind`` message out to every
        reachable peer, one ``reply_kind`` reply back.

        Reconnects what the breakers admit, sends under a fresh seq (plus
        this master's epoch and id when it leads by epoch) to every alive
        peer whose breaker allows it, and meters the traffic into
        ``ledger``.  Quarantined slots are included: probes are their
        only road back.  A send failure, a missed deadline or a reply of
        the wrong kind fails the peer; a ``stale_epoch`` refusal also
        reports the epoch that fenced us.  Returns ``(replies,
        unreachable, fenced_epoch)`` with ``replies`` as ``(peer, reply,
        latency)`` in peer order — booking them, and acting on the fence
        via :meth:`_check_fenced`, is the caller's part.
        """
        replies: list[tuple[_Peer, protocol.Message, float]] = []
        unreachable: list[_Peer] = []
        fenced_epoch: int | None = None
        with self._lock:
            self._maybe_reconnect()
            self._request_seq += 1
            seq = self._request_seq
            meta: dict = {"seq": seq}
            if self.epoch is not None:
                # A leader probe renews the lease on every worker — the
                # heartbeat loop *is* the lease renewal path.
                meta["epoch"] = self.epoch
                meta["leader"] = self.leader_id
            request = protocol.encode(kind, meta, arrays)
            waits: list[tuple[_Peer, ReplySlot]] = []
            for peer in self._peers:
                if not peer.alive or not peer.breaker.allow():
                    continue
                slot = None
                try:
                    slot = peer.channel.expect(seq, timeout)
                    peer.sock.send(request)
                except (ConnectionError, OSError):
                    if slot is not None:
                        slot.cancel()
                    self._fail(peer, ledger)
                    unreachable.append(peer)
                    continue
                ledger.messages_sent += 1
                ledger.bytes_sent += FRAME_OVERHEAD_BYTES + len(request)
                waits.append((peer, slot))
        for peer, slot in waits:
            timed_out = False
            try:
                message, latency, nbytes = slot.wait()
            except Exception as exc:  # noqa: BLE001 - booked as a failure
                timed_out = isinstance(exc, TimeoutError)
            else:
                ledger.messages_received += 1
                ledger.bytes_received += nbytes
                if message.kind == reply_kind:
                    replies.append((peer, message, latency))
                    continue
                if message.meta.get("stale_epoch"):
                    fenced_epoch = message.meta.get("epoch")
            with self._lock:
                self._fail(peer, ledger, timed_out=timed_out)
            unreachable.append(peer)
        with self._lock:
            for peer, _ in waits:
                self._drain_stale(peer, ledger)
        return replies, unreachable, fenced_epoch

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every admissible peer with a ``ping`` and collect pongs.

        Returns ``{worker index: round-trip seconds, or None}`` (``None``
        for peers that are down, breaker-blocked, or missed the probe).
        Successful pongs feed the failure detector and close half-open
        breakers — this is the cheap probe path that re-admits a worker
        without risking a full broadcast on it.  Heartbeat traffic
        accumulates in :attr:`heartbeat_traffic`, not in any inference's
        stats.

        A pong that lands *after* its slot's deadline has been booked as
        a timeout is counted stale by the demux — it can no longer
        resurrect a peer whose socket the timeout path already closed
        (the late-pong race the per-call probe threads used to have).
        """
        timeout = (timeout if timeout is not None
                   else self.resilience.heartbeat_timeout)
        rtts: dict[int, float | None] = {p.index: None for p in self._peers}
        replies, _, fenced_epoch = self._probe(
            protocol.PING, protocol.PONG, timeout, self.heartbeat_traffic)
        with self._lock:
            for peer, pong, latency in replies:
                pong_epoch = pong.meta.get("epoch")
                if (self.epoch is not None and pong_epoch is not None
                        and pong_epoch > self.epoch):
                    fenced_epoch = pong_epoch
                rtts[peer.index] = latency
                # Pongs carry no expert compute: decay the suspicion
                # score but leave the reply-latency EWMA untouched.
                peer.health.detector.observe()
                peer.breaker.record_success()
        self._check_fenced(fenced_epoch, "during heartbeat")
        # Canary probes ride the heartbeat cadence: every ``probe_every``
        # beats the known-answer batch goes out on the same wire.
        if self._prober is not None and self._prober.due():
            self.canary_probe()
        return rtts

    # ------------------------------------------------------------ integrity
    def canary_probe(self, timeout: float | None = None) -> dict[int, str]:
        """Send the known-answer canary batch to every reachable worker.

        Each reply is judged against the golden outputs recorded at
        deploy time (:class:`~repro.distributed.integrity.CanaryProber`).
        Quarantined slots are probed too — consecutive passes are their
        only road back to the gate; a failure re-arms the quarantine and
        retries the auto-redeploy.  Normally fired from
        :meth:`heartbeat` on the ``probe_every`` cadence, but callable
        directly.  Traffic is metered in :attr:`canary_traffic`.

        Returns ``{worker index: outcome}`` where outcome is ``"pass"``,
        ``"readmitted"``, ``"unreachable"``, or the failure reason.
        """
        if self._prober is None:
            raise ValueError(
                "canary_probe() needs integrity=IntegrityConfig(...) and "
                "a canary set (canaries=... or a checkpoint store that "
                "holds one)")
        timeout = (timeout if timeout is not None
                   else self.reply_timeout
                   if self.reply_timeout is not None
                   else self.resilience.heartbeat_timeout)
        replies, unreachable, fenced_epoch = self._probe(
            protocol.CANARY, protocol.RESULT, timeout, self.canary_traffic,
            {"x": self._prober.canaries.x})
        outcomes = {peer.index: "unreachable" for peer in unreachable}
        quarantine_actions: list[tuple[_Peer, str]] = []
        for peer, message, latency in replies:
            with self._lock:
                expected = self._expected_versions.get(peer.index)
            reason = self._prober.evaluate(
                peer.index,
                message.arrays.get("probs"),
                message.arrays.get("entropy"),
                claimed_version=message.meta.get("model_version"),
                expected_version=expected)
            if reason is None:
                with self._lock:
                    # A passing canary is a real forward pass: it closes
                    # half-open breakers and decays suspicion, the same
                    # re-admission probes heartbeats provide.
                    peer.health.detector.observe(latency)
                    peer.breaker.record_success()
                readmitted = (self.quarantine.record_canary_pass(peer.index)
                              if self.quarantine is not None else False)
                outcomes[peer.index] = "readmitted" if readmitted else "pass"
            else:
                with self._lock:
                    peer.health.failures += 1
                    peer.health.invalid_replies += 1
                    peer.health.detector.miss()
                quarantine_actions.append((peer, reason))
                outcomes[peer.index] = reason
        self._check_fenced(fenced_epoch, "during canary probe")
        for peer, reason in quarantine_actions:
            if self.quarantine is not None:
                self.quarantine.record_canary_failure(peer.index, reason)
            # Every canary failure retries the repair — this *is* the
            # redeploy retry policy for a persistently sick slot.
            self._auto_redeploy(peer)
        return outcomes

    def predict(self, x: np.ndarray) -> np.ndarray:
        preds, _, _ = self.infer(x)
        return preds

    # ---------------------------------------------------------- leadership
    @property
    def deposed(self) -> bool:
        """Has a higher epoch fenced this master off the team?"""
        with self._lock:
            return self._deposed

    def roster(self) -> dict[int, tuple[str, int]]:
        """The current worker roster: ``{team index: address}``."""
        with self._lock:
            return {peer.index: tuple(peer.address) for peer in self._peers}

    def attach(self, timeout: float | None = None) -> dict[int, bool]:
        """Present this master's leadership epoch to every worker.

        The (re-)attach handshake: each reachable worker either accepts
        (its lease now names this master at ``epoch``) or fences us off
        with a ``stale_epoch`` error because it already follows a higher
        epoch — in which case this master is permanently deposed and
        :class:`LeadershipLost` is raised.  Returns ``{worker index:
        attached}`` (False = unreachable or missed the deadline; those
        workers learn the epoch from the next broadcast or heartbeat
        instead).  Traffic is metered with the heartbeats.
        """
        if self.epoch is None:
            raise ValueError("attach() needs a master with a leadership "
                             "epoch (epoch=...)")
        timeout = (timeout if timeout is not None
                   else self.resilience.heartbeat_timeout)
        acks: dict[int, bool] = {p.index: False for p in self._peers}
        replies, _, fenced_epoch = self._probe(
            protocol.ATTACH, protocol.ATTACHED, timeout,
            self.heartbeat_traffic)
        with self._lock:
            for peer, _, _ in replies:
                acks[peer.index] = True
                peer.health.detector.observe()
                peer.breaker.record_success()
        self._check_fenced(fenced_epoch, "at attach")
        # Taking (or re-taking) leadership is a membership event: persist
        # the roster under the new epoch and push the delta to standbys.
        self._roster_changed()
        return acks

    def announce_roster(self, timeout: float | None = 2.0
                        ) -> dict[tuple[str, int], bool]:
        """Push the current worker roster to every registered standby.

        Best-effort, synchronous per standby: dial, send one ``roster``
        message (monotonic ``version`` so an old delta can never
        overwrite a newer one), wait for the ack, close.  Returns
        ``{standby address: acked}``; an unreachable standby is False,
        never an exception — it will hydrate the roster from the
        checkpoint store when it promotes.  Traffic is metered in
        :attr:`redeploy_traffic` (roster deltas are control-plane
        provisioning, like model pushes).
        """
        with self._lock:
            self._request_seq += 1
            seq = self._request_seq
            self._roster_version += 1
            message = protocol.encode(protocol.ROSTER, {
                "seq": seq, "epoch": self.epoch,
                "version": self._roster_version,
                "roster": [[peer.index, peer.address[0], peer.address[1]]
                           for peer in self._peers]})
        return {tuple(address): self._push_roster(address, message, seq,
                                                  timeout)
                for address in list(self.standbys)}

    def _push_roster(self, address, message: bytes, seq: int,
                     timeout: float | None) -> bool:
        try:
            sock = self._transport.connect(*address,
                                           timeout=self.connect_timeout)
        except (ConnectionError, OSError):
            return False
        try:
            return (_exchange(sock, message, seq, timeout).kind
                    == protocol.ROSTER_OK)
        except _EXCHANGE_ERRORS:
            return False
        finally:
            self.redeploy_traffic.merge(sock.stats)
            sock.close()

    def _roster_changed(self) -> None:
        """Membership changed (redeploy): persist the roster and fan the
        delta out to the hot standbys, so a later promotion starts from
        the live team, not a stale snapshot."""
        if self.store is not None and hasattr(self.store, "save_roster"):
            try:
                self.store.save_roster(self.roster(), epoch=self.epoch or 0,
                                       leader=self.leader_id)
            except OSError:
                pass  # durability is best-effort here; deltas still flow
        if self.standbys:
            self.announce_roster()

    def close(self) -> None:
        for peer in self._peers:
            if peer.alive:
                try:
                    peer.sock.send(protocol.encode(protocol.SHUTDOWN))
                except (ConnectionError, OSError):
                    pass
            peer.disconnect()


def deploy_local_team(experts: list[Module], degrade_on_failure: bool = False,
                      reply_timeout: float | None = None,
                      transport: Transport | None = None, host: str = "127.0.0.1",
                      resilience: ResilienceConfig | None = None,
                      degradation: DegradationPolicy | None = None,
                      engine: str = "tape",
                      integrity: IntegrityConfig | None = None,
                      canaries: CanarySet | None = None,
                      store=None
                      ) -> tuple[TeamNetMaster, list[ExpertWorker]]:
    """Deploy expert 0 as master and the rest as localhost workers.

    ``transport`` selects the fabric (real TCP by default; the testkit
    passes a :class:`repro.testkit.SimTransport` to run the identical
    protocol in-process).  ``resilience``/``degradation`` configure the
    control plane (breakers, hedging, quorum); see
    :mod:`repro.distributed.resilience`.  ``integrity`` arms the
    data-plane defenses (:mod:`repro.distributed.integrity`); the
    expected model versions are fingerprinted from the live experts at
    deploy time, so a later weight swap on any worker is fenced.
    Callers must ``master.close()`` then ``worker.stop()`` when done.
    """
    if len(experts) < 2:
        raise ValueError("a team needs >= 2 experts")
    workers = []
    for expert in experts[1:]:
        worker = ExpertWorker(expert, host=host, transport=transport,
                              engine=engine)
        worker.start()
        workers.append(worker)
    expected_versions = None
    if integrity is not None:
        # This deployment hands each worker its expert directly, so the
        # deploy-time fingerprints are authoritative from the first reply.
        expected_versions = {index: weights_fingerprint(expert)
                             for index, expert in enumerate(experts)
                             if index >= 1}
    master = TeamNetMaster(experts[0], [w.address for w in workers],
                           degrade_on_failure=degrade_on_failure,
                           reply_timeout=reply_timeout,
                           transport=transport,
                           resilience=resilience,
                           degradation=degradation,
                           engine=engine,
                           integrity=integrity,
                           canaries=canaries,
                           expected_versions=expected_versions,
                           store=store)
    return master, workers
