"""The four workloads, and the end-to-end and per-layer metrics a run
of each reports.

Every workload runs the fault-tolerant configuration of
``examples/fault_tolerant_serving.py`` (degradation on, hedging on,
reply validation on, compiled engine) on a 4-expert localhost team.
Why each workload exists, and which ones ``BENCHMARK.json`` gates, is
in ``NOTES.md``.
"""

from __future__ import annotations

import resource
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from repro.nn.profiler import OpProfiler

from . import config
from .loadgen import closed_loop, open_loop, poisson_schedule
from .stats import (check_name, error_rate, percentile, summarize,
                    supported_percentile)
from .team import deploy, input_pool, reference_answers, warm_up
from .tracing import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    #: the open loop's schedule for one deployment: ``(phase, rate rps,
    #: share of the deployment's time)``; empty for the closed loop.  A
    #: run repeats it in each of its deployments, so every phase samples
    #: the host's conditions across the whole run, not one stretch of it
    phases: tuple = ()
    overload: bool = False

    @property
    def served(self) -> bool:
        return bool(self.phases)


WORKLOADS = {w.name: w for w in (
    Workload("sync_mlp", "mlp"),
    Workload("sync_cnn", "cnn"),
    Workload("served_mlp", "mlp", phases=(
        ("low", config.RATE_LOW_RPS, 0.6),
        ("knee", config.RATE_KNEE_RPS, 0.4))),
    Workload("overload_mlp", "mlp", overload=True, phases=(
        ("warm", config.RATE_LOW_RPS, 0.2),
        ("burst", config.BURST_MULTIPLE * config.RATE_KNEE_RPS, 0.5),
        ("recovery", config.RATE_LOW_RPS, 0.3))),
)}

#: phase-suffixed end-to-end metrics; a workload without the phase
#: reports the value over its whole run
PHASE_METRICS = (("latency_p50_ms", "low"), ("latency_p99_ms", "low"),
                 ("latency_p50_ms", "knee"), ("latency_p99_ms", "knee"),
                 ("goodput_rps", "burst"))

#: ops reported by ``nn.op_us.<op>``: the five costliest ops of each
#: model's compiled program
OPS = ("LinearReLU", "Linear", "Reshape", "Conv2dBNReLU", "Conv2dBN",
       "ShakeShake", "Add", "Mean")

LIMIT_S = config.LATENCY_LIMIT_MS / 1e3
MASTER_ROLES = frozenset({"client", "dispatch", "collect"})


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Measurement:
    """Records of one measured stretch and the wall time of each phase."""

    def __init__(self, records, walls: dict, loop=None):
        self.records = records
        self.walls = walls
        self.loop = loop

    @classmethod
    def pooled(cls, parts: list["Measurement"]) -> "Measurement":
        """The records and phase wall times of several deployments."""
        walls: dict = {}
        for part in parts:
            for phase, wall in part.walls.items():
                walls[phase] = walls.get(phase, 0.0) + wall
        return cls([r for part in parts for r in part.records], walls)

    def summary(self, reference, phase: str | None = None):
        records = (self.records if phase is None
                   else [r for r in self.records if r.phase == phase])
        return summarize(records, reference, LIMIT_S)

    def wall(self, phase: str | None = None) -> float:
        if phase is None:
            return sum(self.walls.values())
        return self.walls[phase]


def measure(workload: Workload, deployment, pool, rng, seconds: float,
            sample: bool = False) -> Measurement:
    if not workload.served:
        rows = rng.integers(len(pool), size=4096)
        records, wall = closed_loop(deployment.master, pool, rows, seconds)
        return Measurement(records, {"": wall})
    arrivals = poisson_schedule(workload.phases, seconds, len(pool), rng)
    records, loop = open_loop(
        deployment.server, pool, arrivals,
        deadline_s=LIMIT_S if workload.overload else None,
        sample_every_s=0.01 if sample else None)
    walls = {name: share * seconds for name, _, share in workload.phases}
    return Measurement(records, walls, loop)


def tail_ms(summary) -> tuple[float, float]:
    """``(percentile used, latency ms)`` for the ``p99`` metrics."""
    p = supported_percentile(len(summary.latencies), 99.0)
    return p, summary.latency_ms(p)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(metrics: dict, name: str, value: float, unit: str) -> None:
    metrics[check_name(name)] = {"value": float(value), "unit": unit}


def _describe(label: str, summary) -> str:
    text = (f"{label}: attempted {summary.attempted} served "
            f"{summary.served} shed {summary.shed} errors {summary.errors} "
            f"wrong {summary.wrong} degraded {summary.degraded} "
            f"hedged {summary.hedged}")
    if summary.latencies:
        p, tail = tail_ms(summary)
        text += (f"; latency p50 {summary.latency_ms(50):.3f} ms, "
                 f"p{p:g} {tail:.3f} ms over {len(summary.latencies)} "
                 f"samples")
    if summary.error_kinds:
        text += f"; refusals/errors {summary.error_kinds}"
    return text


def _result(measurements, reference, metrics) -> dict:
    attempted = failed = wrong = 0
    for m in measurements:
        summary = m.summary(reference)
        attempted += summary.attempted
        failed += summary.failed
        wrong += summary.wrong
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ------------------------------------------------------------ untraced run
def end_to_end(workload: Workload, m: Measurement, reference,
               setups: list[float]) -> dict:
    whole = m.summary(reference)
    if not whole.latencies:
        raise RuntimeError(f"no request was served: {whole.error_kinds}")
    log(_describe(workload.name, whole))
    phases = {name: m.summary(reference, name)
              for name, _, _ in workload.phases}
    for name, summary in phases.items():
        log(_describe(f"  phase {name}", summary))
    metrics: dict = {}
    _metric(metrics, "setup_s", statistics.median(setups), "s")
    _metric(metrics, "latency_p50_ms", whole.latency_ms(50), "ms")
    _metric(metrics, "latency_p99_ms", tail_ms(whole)[1], "ms")
    _metric(metrics, "throughput_rps", whole.served / m.wall(), "1/s")
    for base, phase in PHASE_METRICS:
        summary = phases.get(phase, whole)
        wall = m.wall(phase if phase in phases else None)
        if base == "goodput_rps":
            value = summary.within_limit / wall
        elif not summary.latencies:
            raise RuntimeError(f"phase {phase} served no request")
        elif base == "latency_p50_ms":
            value = summary.latency_ms(50)
        else:
            value = tail_ms(summary)[1]
        _metric(metrics, f"{base}.{phase}", value,
                "1/s" if base == "goodput_rps" else "ms")
    _metric(metrics, "goodput_rps", whole.within_limit / m.wall(), "1/s")
    _metric(metrics, "error_rate",
            error_rate(whole.failed + whole.shed, whole.attempted), "ratio")
    _metric(metrics, "agree_rate", whole.agree_rate, "ratio")
    _metric(metrics, "rss_mb", peak_rss_mb(), "MB")
    return metrics


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """Several fresh deployments, each measured for an equal share of
    ``seconds``, pooled.  Thread start order and timing differ between
    deployments, and so does how the team's threads interleave on the
    CPU; one deployment can hold a slow interleaving for its whole life.
    Pooling several makes a run's figures an average over them."""
    pool = input_pool(workload.family, seed)
    reference = reference_answers(workload.family, seed, pool)
    rng = np.random.default_rng((seed, 1))
    share = seconds / config.DEPLOYMENTS
    setups = []
    parts = []
    for _ in range(config.DEPLOYMENTS):
        deployment, setup_s = deploy(workload.family, seed, pool[:1],
                                     workload.served, workload.overload)
        try:
            setups.append(setup_s)
            warm_up(deployment, pool)
            parts.append(measure(workload, deployment, pool, rng, share))
        finally:
            deployment.close()
    log(f"setup_s samples {[round(s, 4) for s in setups]}")
    m = Measurement.pooled(parts)
    return _result([m], reference,
                   end_to_end(workload, m, reference, setups))


# -------------------------------------------------------------- traced run
def _failure_counters(master) -> tuple[int, int]:
    health = master.worker_health.values()
    return (sum(h.timeouts for h in health),
            sum(h.reconnects for h in health))


def _server_delta(before, after) -> dict:
    """Serving counters accumulated between two ``stats()`` snapshots."""
    return {
        "requests": (after.completed + after.failed
                     - before.completed - before.failed),
        "batches": after.batches - before.batches,
        "shed_admission": after.shed_admission - before.shed_admission,
        "shed_expired": after.shed_expired - before.shed_expired,
    }


def per_layer(workload: Workload, plain: Measurement, traced: Measurement,
              reference, tracer: Tracer, prof: OpProfiler, counters: dict
              ) -> dict:
    plain_summary = plain.summary(reference)
    summary = traced.summary(reference)
    log(_describe(f"{workload.name} untraced", plain_summary))
    log(_describe(f"{workload.name} traced", summary))
    n = max(1, summary.attempted)
    answered = max(1, summary.answered)
    metrics: dict = {}

    def per_request_us(name, key, roles=None):
        _metric(metrics, name, 1e6 * tracer.self_s(key, roles) / n, "us")

    per_request_us("protocol.encode_us", "encode")
    per_request_us("protocol.decode_us", "decode")
    _metric(metrics, "protocol.bytes_per_request",
            tracer.tally("encoded_bytes") / n, "bytes")
    per_request_us("transport.send_us", "send")
    _metric(metrics, "transport.messages_per_request",
            tracer.calls("send") / n, "messages")
    per_request_us("demux.expect_us", "expect")
    per_request_us("demux.wait_us", "wait", MASTER_ROLES)
    _metric(metrics, "demux.stale_frames", tracer.tally("stale_frames"),
            "count")
    per_request_us("master.begin_us", "begin")
    per_request_us("master.finish_us", "finish")
    per_request_us("master.hedge_plan_us", "hedge_plan")
    per_request_us("integrity.validate_us", "validate")
    per_request_us("gate.argmin_us", "argmin")
    _metric(metrics, "master.hedged_share", summary.hedged / answered,
            "share")
    _metric(metrics, "master.degraded_share", summary.degraded / answered,
            "share")
    _metric(metrics, "master.timeouts", counters["timeouts"], "count")
    _metric(metrics, "master.reconnects", counters["reconnects"], "count")
    per_request_us("worker.forward_us", "forward", {"worker"})
    per_request_us("forward.local_us", "forward", MASTER_ROLES)
    for op in OPS:
        stats = prof.stats.get(op)
        _metric(metrics, f"nn.op_us.{op}",
                0.0 if stats is None else 1e6 * stats.forward_s / n, "us")

    wall = traced.wall()
    loop = traced.loop
    server = counters.get("server")
    _metric(metrics, "serving.batch_requests_mean",
            server["requests"] / max(1, server["batches"]) if server else 0.0,
            "requests")
    _metric(metrics, "serving.queue_depth_max",
            max(loop.queue_depths, default=0) if loop else 0, "requests")
    _metric(metrics, "serving.dispatch_busy_share",
            tracer.all_self_s({"dispatch"}) / wall, "share")
    _metric(metrics, "serving.collect_busy_share",
            (tracer.all_self_s({"collect"})
             - tracer.self_s("wait", {"collect"})) / wall, "share")
    limits = loop.limits if loop else []
    _metric(metrics, "overload.limit_mean",
            statistics.fmean(limits) if limits else 0.0, "requests")
    _metric(metrics, "overload.limit_min", min(limits, default=0),
            "requests")
    _metric(metrics, "overload.brownout_level_max",
            counters.get("brownout_level_max", 0), "level")
    _metric(metrics, "serving.shed_admission",
            server["shed_admission"] if server else 0, "count")
    _metric(metrics, "serving.shed_expired",
            server["shed_expired"] if server else 0, "count")
    _metric(metrics, "worker.shed_expired", counters["worker_shed"],
            "count")
    lags = plain.loop.lags if plain.loop else []
    _metric(metrics, "loadgen.lag_p99_ms",
            1e3 * percentile(lags, supported_percentile(len(lags)))
            if lags else 0.0, "ms")
    _metric(metrics, "trace.overhead_ms",
            summary.latency_ms(50) - plain_summary.latency_ms(50), "ms")
    unaccounted = 0.0
    if not workload.served:
        # The closed loop's master thread is the client thread: its
        # spans' self times should add up to the time spent in infer.
        infer_s = sum(r.latency for r in traced.records)
        staged_s = tracer.all_self_s({"client"})
        unaccounted = 1.0 - staged_s / infer_s
        log(f"stage sum {1e6 * staged_s / n:.1f} us of "
            f"{1e6 * infer_s / n:.1f} us per request: "
            f"{100 * unaccounted:.2f}% unaccounted")
        if abs(unaccounted) > config.STAGE_SUM_TOLERANCE:
            log(f"WARNING: the stage sum misses by more than "
                f"{100 * config.STAGE_SUM_TOLERANCE:g}%")
    _metric(metrics, "trace.unaccounted_share", unaccounted, "share")
    return metrics


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Half the run untraced, half traced, each on a fresh deployment;
    the traced half gives the per-layer split and the difference of the
    two medians is the tracing overhead."""
    pool = input_pool(workload.family, seed)
    reference = reference_answers(workload.family, seed, pool)
    rng = np.random.default_rng((seed, 1))
    half = seconds / 2.0
    deployment, _ = deploy(workload.family, seed, pool[:1],
                           workload.served, workload.overload)
    try:
        warm_up(deployment, pool)
        plain = measure(workload, deployment, pool, rng, half)
    finally:
        deployment.close()
    deployment, _ = deploy(workload.family, seed, pool[:1],
                           workload.served, workload.overload)
    try:
        warm_up(deployment, pool)
        before = _failure_counters(deployment.master)
        server = deployment.server
        served_before = server.stats() if server is not None else None
        with Tracer() as tracer, OpProfiler() as prof:
            traced = measure(workload, deployment, pool, rng, half,
                             sample=True)
        after = _failure_counters(deployment.master)
        counters = {
            "timeouts": after[0] - before[0],
            "reconnects": after[1] - before[1],
            "worker_shed": sum(w.shed_expired for w in deployment.workers),
        }
        if server is not None:
            counters["server"] = _server_delta(served_before, server.stats())
            snapshot = server.overload_snapshot()
            if snapshot["enabled"]:
                counters["brownout_level_max"] = max(
                    [0] + [t[2] for t in
                           snapshot["brownout"]["transitions"]])
    finally:
        deployment.close()
    metrics = per_layer(workload, plain, traced, reference, tracer, prof,
                        counters)
    return _result([plain, traced], reference, metrics)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    if trace:
        return run_traced(workload, seed, seconds)
    return run_untraced(workload, seed, seconds)
