"""Load generators: a closed loop for ``master.infer`` and a one-thread
open loop of Poisson arrivals for the server.

While a loop runs it keeps each outcome as a tuple of numbers, strings
and arrays, which the garbage collector stops tracking, and lets go of
futures and stats objects as soon as they are read.  Holding thousands
of tracked objects would lengthen the program's own full collections,
and those pauses land in the latency tail.  :class:`Record` objects are
built after the loop.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from . import config
from .stats import Record

#: outcomes harvested per generator iteration while it has slack
_HARVEST_BATCH = 64


def _records(raw) -> list[Record]:
    return [Record(row, due, phase, done=done,
                   answer=None if preds is None else (preds, winner),
                   degraded=degraded, hedged=hedged, error=error)
            for row, due, phase, done, preds, winner, degraded, hedged, error
            in raw]


def closed_loop(master, pool: np.ndarray, rows: np.ndarray,
                seconds: float) -> tuple[list[Record], float]:
    """One client calling ``master.infer`` back to back for ``seconds``.
    Returns the records and the measured wall time."""
    raw = []
    clock = time.perf_counter
    start = clock()
    end = start + seconds
    i = 0
    while True:
        due = clock()
        if due >= end:
            break
        row = int(rows[i % len(rows)])
        i += 1
        try:
            preds, winner, stats = master.infer(pool[row:row + 1])
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            raw.append((row, due, "", clock(), None, None, False, False,
                        type(exc).__name__))
        else:
            raw.append((row, due, "", clock(), preds, winner,
                        stats.degraded, stats.hedged, None))
    return _records(raw), clock() - start


def poisson_schedule(phases, seconds: float, pool_rows: int,
                     rng: np.random.Generator) -> list[tuple[float, str, int]]:
    """``(due offset s, phase, row)`` arrivals.  ``phases`` lists
    ``(name, rate rps, share of seconds)`` in order; each phase is a
    Poisson process at its rate."""
    arrivals = []
    begin = 0.0
    for name, rate, share in phases:
        end = begin + share * seconds
        t = begin
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= end:
                break
            arrivals.append((t, name, int(rng.integers(pool_rows))))
        begin = end
    return arrivals


class OpenLoopRun:
    """What one open-loop run observed besides the records."""

    def __init__(self):
        self.lags: list[float] = []
        self.queue_depths: list[int] = []
        self.limits: list[int] = []


def _settled(row, due, phase, future) -> tuple:
    value, error = future.outcome()
    if error is not None:
        return (row, due, phase, None, None, None, False, False,
                type(error).__name__)
    preds, winner, stats = value
    return (row, due, phase, future.done_at, preds, winner, stats.degraded,
            stats.hedged, None)


def open_loop(server, pool: np.ndarray, arrivals, deadline_s: float | None,
              sample_every_s: float | None = None
              ) -> tuple[list[Record], OpenLoopRun]:
    """Submit each arrival at its due time from this one thread, then
    collect every answer.

    Latency runs from the due time, so a late generator charges its lag
    to the request.  With ``deadline_s`` each request carries the
    deadline left at submit, measured from its due time: a request the
    generator reaches after its deadline is shed at submit.  A refused
    submit is a record with no answer.  ``sample_every_s`` (traced runs)
    samples the queue depth at every submit and the admission limit at
    that period.
    """
    run = OpenLoopRun()
    raw = []
    pending: deque = deque()
    clock = time.monotonic
    sleep = time.sleep
    next_sample = 0.0
    start = clock()
    for offset, phase, row in arrivals:
        due = start + offset
        harvested = 0
        while (pending and harvested < _HARVEST_BATCH
               and pending[0][3].done() and clock() < due):
            raw.append(_settled(*pending.popleft()))
            harvested += 1
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        run.lags.append(now - due)
        try:
            if deadline_s is None:
                future = server.submit(pool[row:row + 1])
            else:
                future = server.submit(pool[row:row + 1],
                                       deadline_s=deadline_s - (now - due))
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            raw.append((row, due, phase, None, None, None, False, False,
                        type(exc).__name__))
            continue
        pending.append((row, due, phase, future))
        if sample_every_s is not None:
            run.queue_depths.append(server.queue_depth)
            if now >= next_sample:
                next_sample = now + sample_every_s
                snapshot = server.overload_snapshot()
                if snapshot["enabled"]:
                    run.limits.append(snapshot["limiter"]["limit"])
    give_up = clock() + config.DRAIN_TIMEOUT_S
    for row, due, phase, future in pending:
        try:
            future.result(max(0.0, give_up - clock()))
        except Exception:  # noqa: BLE001 - _settled reads the error
            pass
        if future.done():
            raw.append(_settled(row, due, phase, future))
        else:
            raw.append((row, due, phase, None, None, None, False, False,
                        "NoAnswer"))
    return _records(raw), run
