"""Metric math of the serving benchmark: percentiles, outcome counting,
due-time latency and the output check.  No sockets and no threads, so
``perfbench/tests`` can check it on fabricated records.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

__all__ = ["Record", "Summary", "NAME_RE", "SHED_ERRORS",
           "supported_percentile", "percentile", "same_bytes", "summarize",
           "error_rate", "check_name"]

#: a metric name: starts with a letter or digit, at most 64 characters
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: exception class names that are deliberate load shedding (admission
#: refusals and deadline sheds), as opposed to faults
SHED_ERRORS = frozenset({"ServerOverloaded", "DeadlineExpired"})

#: candidate tail percentiles in per mille, highest first
_LADDER_PER_MILLE = (999, 990, 980, 950, 900, 750, 500)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def supported_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile at most ``wanted`` that leaves at least
    ``MIN_BEYOND`` of ``n`` samples beyond it (the median when even that
    is not supported).  Integer arithmetic, so 1000 samples support p99
    exactly."""
    for per_mille in _LADDER_PER_MILLE:
        if per_mille <= wanted * 10 and \
                n * (1000 - per_mille) // 1000 >= MIN_BEYOND:
            return per_mille / 10
    return 50.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def same_bytes(a, b) -> bool:
    """Byte equality of two arrays, dtype and shape included."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@dataclass
class Record:
    """One attempted request.

    ``due`` is when the request was due to be sent (the call start in a
    closed loop, the schedule time in an open loop) and ``done`` when its
    answer landed, both on one monotonic clock; latency is ``done - due``
    so a late generator charges its lag to the request.  ``answer`` is
    ``(preds, winner)`` or None; ``error`` the exception class name when
    the request failed or was refused.
    """

    row: int
    due: float
    phase: str = ""
    done: float | None = None
    answer: tuple | None = None
    degraded: bool = False
    hedged: bool = False
    error: str | None = None

    @property
    def latency(self) -> float | None:
        if self.done is None:
            return None
        return self.done - self.due


@dataclass
class Summary:
    """Counts and latencies of a set of records, after the output check.

    ``attempted`` = ``served + wrong + shed + errors``.  A wrong answer
    (non-degraded and not byte-equal to the reference) is a failed
    request, not a served one.  ``agreed`` counts answers, degraded ones
    included, that are byte-equal to the reference.
    """

    attempted: int = 0
    answered: int = 0
    served: int = 0
    agreed: int = 0
    wrong: int = 0
    shed: int = 0
    errors: int = 0
    within_limit: int = 0
    degraded: int = 0
    hedged: int = 0
    latencies: list = field(default_factory=list)
    error_kinds: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Requests that errored or were answered wrongly (sheds are
        counted apart: they are the overload control working)."""
        return self.errors + self.wrong

    @property
    def agree_rate(self) -> float:
        return self.agreed / self.answered if self.answered else 0.0

    def latency_ms(self, p: float) -> float:
        """Percentile ``p`` of the served latencies, in ms."""
        return 1e3 * percentile(self.latencies, p)


def summarize(records, reference, limit_s: float) -> Summary:
    """Check every answer against ``reference`` (``row -> (preds,
    winner)``) and count outcomes.  Every request that was not served
    within ``limit_s`` of its due time misses the limit: failed, shed
    and wrong requests never count toward ``within_limit``."""
    out = Summary()
    for rec in records:
        out.attempted += 1
        if rec.answer is None:
            kind = rec.error or "unknown"
            out.error_kinds[kind] = out.error_kinds.get(kind, 0) + 1
            if kind in SHED_ERRORS:
                out.shed += 1
            else:
                out.errors += 1
            continue
        out.answered += 1
        want_preds, want_winner = reference[rec.row]
        preds, winner = rec.answer
        agrees = same_bytes(preds, want_preds) and \
            same_bytes(winner, want_winner)
        out.agreed += agrees
        out.degraded += rec.degraded
        out.hedged += rec.hedged
        if not agrees and not rec.degraded:
            out.wrong += 1
            continue
        out.served += 1
        latency = rec.latency
        out.latencies.append(latency)
        if latency <= limit_s:
            out.within_limit += 1
    return out


def error_rate(failed: int, attempted: int) -> float:
    """Share of requests that failed, were refused, shed or answered
    wrongly, as the rule-of-succession estimate ``(k + 1) / (n + 2)``:
    never 0, so a bound relative to the parent's median stays defined
    when the parent had no failures; a run with none reads about
    ``1 / n``."""
    return (failed + 1) / (attempted + 2)
