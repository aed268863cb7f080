"""Traced run: time the calls into each layer's entry points.

The wrappers live here, not in the program: :class:`Tracer` patches the
entry points for the duration of a ``with`` block and restores them on
exit.  Each thread accumulates into its own record (no locks), and a
per-thread call stack turns nested calls into *self* times, so a span's
time is never counted twice: ``_finish``'s self time excludes the demux
wait, validation and the gate it calls.

``expert_forward*`` and ``argmin_select`` are patched under the names
``teamnet_runtime`` and ``serving`` imported them by, which is where
the runtime looks them up.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.comm import demux, protocol, transport
from repro.distributed import integrity, serving, teamnet_runtime

#: (owner, attribute, span key).  Span keys name layers, not functions.
ENTRY_POINTS = (
    (protocol, "encode", "encode"),
    (protocol, "decode", "decode"),
    (transport.MeteredSocket, "send", "send"),
    (demux.ReplyDemux, "expect", "expect"),
    (demux.ReplySlot, "wait", "wait"),
    (teamnet_runtime.TeamNetMaster, "_begin", "begin"),
    (teamnet_runtime.TeamNetMaster, "_finish", "finish"),
    (teamnet_runtime.TeamNetMaster, "_hedge_plan", "hedge_plan"),
    (integrity.ReplyValidator, "validate", "validate"),
    (teamnet_runtime, "expert_forward", "forward"),
    (teamnet_runtime, "expert_forward_segments", "forward"),
    (teamnet_runtime, "argmin_select", "argmin"),
    (serving, "expert_forward", "forward"),
    (serving, "expert_forward_segments", "forward"),
)

#: entry points that are counted, not timed: (owner, attribute, tally
#: key, what to add per call given the call's result)
COUNTED = (
    (protocol, "encode", "encoded_bytes", len),
    (demux.ReplyDemux, "take_stale", "stale_frames", lambda taken: taken[0]),
)


class ThreadSpans:
    """One thread's accumulated self times, call counts and encoded
    bytes, keyed by span."""

    __slots__ = ("name", "self_s", "calls", "tally", "stack")

    def __init__(self, name: str):
        self.name = name
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tally: dict[str, int] = defaultdict(int)
        #: child time accumulated by each open span, innermost last
        self.stack: list[float] = []

    @property
    def role(self) -> str:
        """Which part of the system the thread belongs to, by the names
        the runtime gives its threads."""
        if "(_serve)" in self.name:
            return "worker"
        if self.name == "reply-demux":
            return "demux"
        if self.name == "teamnet-serve-dispatch":
            return "dispatch"
        if self.name == "teamnet-serve-collect":
            return "collect"
        return "client"


class Tracer:
    """Context manager that wraps :data:`ENTRY_POINTS` while entered."""

    def __init__(self):
        self._local = threading.local()
        self.threads: list[ThreadSpans] = []
        self._saved: list[tuple[object, str, object]] = []

    def _spans(self) -> ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            self.threads.append(spans)  # list.append is atomic
            return spans

    def _time(self, fn, key: str):
        spans_of = self._spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            spans = spans_of()
            stack = spans.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                spans.self_s[key] += elapsed - child
                spans.calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        timed.__wrapped__ = fn
        return timed

    def _count(self, fn, key: str, amount):
        spans_of = self._spans

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            spans_of().tally[key] += amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def __enter__(self) -> "Tracer":
        # Counters go on first, so the timing wrapper encloses them and
        # their cost lands in the enclosing span.
        for owner, attr, key, amount in COUNTED:
            self._patch(owner, attr,
                        self._count(vars(owner)[attr], key, amount))
        for owner, attr, key in ENTRY_POINTS:
            self._patch(owner, attr, self._time(vars(owner)[attr], key))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # ------------------------------------------------------------ readout
    def self_s(self, key: str, roles=None) -> float:
        """Total self time of span ``key`` over threads in ``roles``
        (all threads when None)."""
        return sum(spans.self_s.get(key, 0.0) for spans in self.threads
                   if roles is None or spans.role in roles)

    def calls(self, key: str, roles=None) -> int:
        return sum(spans.calls.get(key, 0) for spans in self.threads
                   if roles is None or spans.role in roles)

    def all_self_s(self, roles) -> float:
        """Every span's self time on threads in ``roles``: the wrapped
        share of those threads' wall time."""
        return sum(sum(spans.self_s.values()) for spans in self.threads
                   if spans.role in roles)

    def tally(self, key: str) -> int:
        return sum(spans.tally.get(key, 0) for spans in self.threads)
