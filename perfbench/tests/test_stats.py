"""The benchmark's own math, on fabricated records."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import config
from perfbench.stats import (NAME_RE, Record, check_name, error_rate,
                             percentile, summarize, supported_percentile)
from perfbench.workloads import (WORKLOADS, Measurement, end_to_end,
                                 per_layer)
from perfbench.run import WORKLOAD_NAMES
from perfbench.tracing import Tracer
from repro.nn.profiler import OpProfiler

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

PREDS = np.array([3], dtype=np.int64)
WINNER = np.array([1], dtype=np.int64)
REFERENCE = {0: (PREDS, WINNER)}


def answered(due=0.0, done=0.004, preds=PREDS, winner=WINNER,
             degraded=False, phase=""):
    return Record(0, due, phase, done=done, answer=(preds, winner),
                  degraded=degraded)


def refused(kind, due=0.0, phase=""):
    return Record(0, due, phase, error=kind)


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (100000, 99.0), (1000, 99.0), (999, 98.0), (500, 98.0),
        (499, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0),
        (5, 50.0)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert supported_percentile(n) == expected

    def test_never_above_the_wanted_percentile(self):
        assert supported_percentile(10 ** 6, wanted=95.0) == 95.0

    def test_interpolation_matches_numpy(self):
        values = np.random.default_rng(0).exponential(size=257)
        for p in (50.0, 90.0, 98.0, 99.0):
            assert percentile(values, p) == pytest.approx(
                np.percentile(values, p), rel=1e-12)


class TestCounting:
    def test_refusals_sheds_errors_and_wrong_answers(self):
        records = [
            answered(),
            answered(preds=np.array([4], dtype=np.int64)),  # wrong
            refused("ServerOverloaded"),
            refused("DeadlineExpired"),
            refused("WorkerFailure"),
        ]
        s = summarize(records, REFERENCE, limit_s=1.0)
        assert (s.attempted, s.answered, s.served) == (5, 2, 1)
        assert (s.wrong, s.shed, s.errors) == (1, 2, 1)
        assert s.failed == 2  # the error and the wrong answer
        assert s.within_limit == 1
        assert s.latencies == [0.004]
        assert s.error_kinds == {"ServerOverloaded": 1, "DeadlineExpired": 1,
                                 "WorkerFailure": 1}

    def test_dtype_difference_is_a_wrong_answer(self):
        s = summarize([answered(preds=PREDS.astype(np.int32))], REFERENCE,
                      limit_s=1.0)
        assert s.wrong == 1 and s.agreed == 0

    def test_error_rate_is_never_zero(self):
        assert error_rate(0, 998) == pytest.approx(1 / 1000)
        assert error_rate(4, 8) == pytest.approx(0.5)
        assert error_rate(2, 8) < error_rate(3, 8)


class TestDueTimeLatency:
    def test_generator_lag_is_charged_to_the_request(self):
        # Due at 1.00 s; the generator only submitted at 1.08 s and the
        # answer landed at 1.12 s: 120 ms late against the due time,
        # although the server took only 40 ms.
        record = answered(due=1.0, done=1.12)
        s = summarize([record], REFERENCE, limit_s=0.1)
        assert s.latencies == [pytest.approx(0.12)]
        assert s.within_limit == 0

    def test_failed_requests_miss_every_limit(self):
        s = summarize([refused("ServerOverloaded"),
                       answered(preds=np.array([9], dtype=np.int64))],
                      REFERENCE, limit_s=1e9)
        assert s.within_limit == 0 and s.latencies == []


class TestAgreeRate:
    def test_degraded_answer_that_differs_is_not_an_error(self):
        other = np.array([2], dtype=np.int64)
        s = summarize([answered(), answered(winner=other, degraded=True)],
                      REFERENCE, limit_s=1.0)
        assert s.agree_rate == 0.5
        assert s.wrong == 0 and s.failed == 0 and s.served == 2
        assert s.degraded == 1

    def test_degraded_answer_that_agrees_counts_as_agreeing(self):
        s = summarize([answered(degraded=True)], REFERENCE, limit_s=1.0)
        assert s.agree_rate == 1.0


class TestNames:
    def test_check_name(self):
        assert check_name("latency_p99_ms.knee") == "latency_p99_ms.knee"
        for bad in ("", ".low", "a b", "x" * 65, "rps/s"):
            with pytest.raises(ValueError):
                check_name(bad)

    def test_benchmark_json_names(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"]]
        names += [m["name"] for m in BENCHMARK["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME_RE.fullmatch(name), name
        assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
        assert WORKLOAD_NAMES == tuple(WORKLOADS)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_emitted_metrics_are_the_declared_ones(self, name):
        workload = WORKLOADS[name]
        phases = [p for p, _, _ in workload.phases] or [""]
        records = [answered(due=0.0, done=0.005 + i * 1e-4, phase=phase)
                   for phase in phases for i in range(30)]
        walls = {phase: 1.0 for phase in phases}
        m = Measurement(records, walls)
        e2e = end_to_end(workload, m, REFERENCE, [0.01, 0.02, 0.03])
        assert set(e2e) == {x["name"] for x in BENCHMARK["end_to_end"]}
        assert all(x["value"] != 0 for x in e2e.values())
        layers = per_layer(workload, m, m, REFERENCE, Tracer(), OpProfiler(),
                           {"timeouts": 0, "reconnects": 0,
                            "worker_shed": 0})
        assert set(layers) == {x["name"] for x in BENCHMARK["per_layer"]}


def test_fixed_rates_are_the_ones_benchmark_json_quotes():
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    low = int(config.RATE_LOW_RPS)
    burst = int(config.BURST_MULTIPLE * config.RATE_KNEE_RPS)
    limit = f"{int(config.LATENCY_LIMIT_MS)} ms"
    assert f"{low} rps" in why["overload_mlp"]
    assert f"{burst} rps burst" in why["overload_mlp"]
    assert limit in why["overload_mlp"]
