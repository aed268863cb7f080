"""Seq-keyed reply demultiplexing over one framed connection.

The original gather spawned one reader thread per peer *per call* and
read replies in lockstep: one request out, block until its reply (or a
stale frame to discard) comes back.  That shape cannot keep multiple
inferences in flight on a connection — the second broadcast has to wait
for the first gather to finish owning the stream.

:class:`ReplyDemux` replaces it.  Exactly one long-lived reader owns the
endpoint's receive side and routes every decoded frame to the
:class:`ReplySlot` registered for its echoed ``seq``; frames nobody is
waiting for are counted stale and dropped.  Callers register a slot
*before* sending (so a reply can never slip past), send however many
requests they like, and later wait on each slot independently — which is
what lets the serving core pipeline micro-batches on the same socket.

Timeout semantics are the subtle part, because the simulated fabric
(:mod:`repro.testkit.sim_transport`) decides delivery-vs-timeout
*virtually*: ``endpoint.recv(timeout)`` compares a message's scripted
transit delay against that call's timeout, and a dropped message's
tombstone resolves a timed wait immediately instead of sleeping it out.
To preserve that, the reader never free-runs: it only calls ``recv``
while at least one slot is pending, and it passes the remaining time of
the *nearest* slot deadline as the recv timeout.  A ``TimeoutError``
from the endpoint therefore means the nearest deadline is unmeetable —
really elapsed on a socket, virtually decided in the sim — and that slot
fails.  Because delivered frames always satisfied the tightest pending
deadline, a frame can never resolve a slot whose own allowance it
exceeded.

A timeout also poisons the connection: a framed-TCP read that gave up
mid-wait may have consumed a partial frame, so nothing after it on the
stream can be trusted (the simulated endpoint is frame-atomic, but the
runtime treats both fabrics the same — a peer that misses a deadline is
failed and redialed).  The demux mirrors that by failing every other
pending slot and refusing new ones once the stream dies, for timeouts,
peer disconnects, and malformed frames alike.
"""

from __future__ import annotations

import threading
import time

from . import protocol

__all__ = ["ChannelDead", "ReplySlot", "ReplyDemux"]

#: framing overhead per message, mirrored by both transports' meters
FRAME_OVERHEAD_BYTES = 8


class ChannelDead(ConnectionError):
    """The demuxed connection is no longer usable (timeout, disconnect,
    or a malformed frame poisoned the stream)."""


class ReplySlot:
    """One awaited reply, keyed by the ``seq`` the frame must echo.

    ``wait()`` resolves exactly once, atomically: either the reader
    delivered the frame (``(Message, transit latency, frame bytes)``) or
    the slot failed (``TimeoutError`` / :class:`ChannelDead`).  A slot
    that gives up waiting unregisters itself, so a reply landing later
    is counted stale instead of resolving a decision already taken —
    the late-pong race, closed structurally.
    """

    __slots__ = ("seq", "timeout", "deadline", "_demux", "_outcome")

    def __init__(self, demux: "ReplyDemux", seq, timeout: float | None):
        self.seq = seq
        self.timeout = timeout
        self.deadline = (None if timeout is None
                         else time.monotonic() + timeout)
        self._demux = demux
        self._outcome: tuple | Exception | None = None

    def wait(self) -> tuple[protocol.Message, float, int]:
        """Block until the reply arrives or the deadline passes.

        Returns ``(message, latency_s, bytes_received)``; raises what the
        reader failed the slot with, or ``TimeoutError`` if the real
        deadline elapses first (the backstop — normally the reader,
        driving the endpoint's own timeout, fails the slot before this
        fires).
        """
        cond = self._demux._cond
        with cond:
            while self._outcome is None:
                remaining = (None if self.deadline is None
                             else self.deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    # Decide once, under the lock: a frame delivered
                    # after this point is stale, not a phantom success
                    # nobody will read — and the stream dies with it.
                    self._demux._timeout(self)
                    break
                cond.wait(remaining)
            outcome = self._outcome
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def cancel(self) -> None:
        """Withdraw interest (e.g. the request's send failed)."""
        with self._demux._cond:
            self._demux._pending.pop(self.seq, None)
            if self._outcome is None:
                self._outcome = ChannelDead("slot cancelled")
            self._demux._cond.notify_all()


class ReplyDemux:
    """Owns an endpoint's receive side; routes frames to slots by seq.

    The caller keeps the *send* side (sends must be externally
    serialized — framed writes from two threads would interleave bytes).
    ``expect`` must be called before the matching request is sent.
    """

    def __init__(self, endpoint):
        self._endpoint = endpoint
        self._cond = threading.Condition()
        self._pending: dict[object, ReplySlot] = {}
        self._dead: Exception | None = None
        #: frames received that no slot was waiting for (stale replies to
        #: earlier requests), and their metered bytes — drained by the
        #: next gather on this connection so traffic stays attributed.
        self._stale_frames = 0
        self._stale_bytes = 0
        self._reader = threading.Thread(target=self._read_loop, daemon=True,
                                        name="reply-demux")
        self._reader.start()

    # ------------------------------------------------------------ interface
    def expect(self, seq, timeout: float | None) -> ReplySlot:
        """Register interest in the reply echoing ``seq``.

        ``timeout`` is the slot's allowance from *now* (None = wait
        forever).  Raises :class:`ChannelDead` if the stream already
        died — the caller should fail the peer rather than send into it.
        """
        with self._cond:
            if self._dead is not None:
                raise ChannelDead(str(self._dead))
            if seq in self._pending:
                raise ValueError(f"seq {seq} already awaited")
            slot = ReplySlot(self, seq, timeout)
            self._pending[seq] = slot
            self._cond.notify_all()
            return slot

    @property
    def inflight(self) -> int:
        """Reply slots currently outstanding on this connection — the
        per-peer occupancy signal the overload snapshot surfaces (a
        connection with many pending slots is a gather pipeline running
        deep, not a protocol error)."""
        with self._cond:
            return len(self._pending)

    def take_stale(self) -> tuple[int, int]:
        """Drain and return ``(stale frame count, stale bytes)``."""
        with self._cond:
            taken = (self._stale_frames, self._stale_bytes)
            self._stale_frames = 0
            self._stale_bytes = 0
            return taken

    @property
    def dead(self) -> bool:
        with self._cond:
            return self._dead is not None

    def close(self) -> None:
        """Stop the reader and fail any pending slots.

        Does not close the endpoint — the connection's owner does that
        (closing the endpoint also wakes the reader, which then shuts
        the demux down on its own)."""
        self._die(ChannelDead("demux closed"))

    # --------------------------------------------------------------- reader
    def _nearest(self) -> ReplySlot | None:
        """The pending slot with the tightest deadline (None-deadline
        slots only win when nothing bounded is waiting)."""
        nearest = None
        for slot in self._pending.values():
            if slot.deadline is None:
                if nearest is None:
                    nearest = slot
            elif nearest is None or nearest.deadline is None \
                    or slot.deadline < nearest.deadline:
                nearest = slot
        return nearest

    def _die(self, error: Exception) -> None:
        with self._cond:
            if self._dead is not None:
                return
            self._dead = error
            for slot in self._pending.values():
                if slot._outcome is None:
                    slot._outcome = error
            self._pending.clear()
            self._cond.notify_all()

    def _timeout(self, slot: ReplySlot) -> None:
        """Fail ``slot`` for its deadline and poison the stream under one
        hold of the lock, whichever side noticed first (the waiter's
        backstop or the reader).  A framed read that gave up mid-wait may
        have consumed a partial frame, so from the moment any waiter sees
        the ``TimeoutError`` no new slot may be issued on this stream —
        and everything else pending dies with it."""
        with self._cond:
            if self._pending.get(slot.seq) is slot:
                del self._pending[slot.seq]
            if slot._outcome is None:
                slot._outcome = TimeoutError(
                    f"no reply to seq {slot.seq} within {slot.timeout}s")
            self._die(ChannelDead("connection abandoned after a reply "
                                  "timeout"))

    def _read_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and self._dead is None:
                    self._cond.wait()
                if self._dead is not None:
                    return
                slot = self._nearest()
                remaining = (None if slot.deadline is None
                             else slot.deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                self._timeout(slot)
                return
            try:
                payload = self._endpoint.recv(timeout=remaining)
            except TimeoutError:
                # The tightest deadline is unmeetable (elapsed for real,
                # or decided virtually by the sim fabric).
                self._timeout(slot)
                return
            except (ConnectionError, OSError) as exc:
                self._die(ChannelDead(f"connection lost: {exc}"))
                return
            latency = float(getattr(self._endpoint,
                                    "last_recv_latency_s", 0.0))
            nbytes = FRAME_OVERHEAD_BYTES + len(payload)
            try:
                message = protocol.decode(payload)
            except protocol.ProtocolError as exc:
                # A malformed frame from this peer means nothing further
                # on the stream can be trusted.
                self._die(ChannelDead(f"malformed frame: {exc}"))
                return
            seq = message.meta.get("seq")
            with self._cond:
                slot = self._pending.pop(seq, None)
                if slot is None:
                    self._stale_frames += 1
                    self._stale_bytes += nbytes
                elif slot._outcome is None:
                    slot._outcome = (message, latency, nbytes)
                self._cond.notify_all()
