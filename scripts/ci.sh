#!/usr/bin/env bash
# Tier-1 CI gate: the full test suite with a per-test timeout so a
# regressed gather (or any other hang) fails fast instead of wedging CI.
#
# Usage:
#   scripts/ci.sh [extra pytest args...]     # tier-1 suite
#   scripts/ci.sh --testkit                  # simulation/property suite:
#       runs tests/testkit for each seed in TESTKIT_SEEDS (default "0 1 2"),
#       exporting TESTKIT_SEED per run; failing differential cases leave
#       repro artifacts in TESTKIT_REPRO_DIR (default .testkit-repro/).
#   scripts/ci.sh --chaos                    # chaos soak: long seeded
#       flap/partition/crash-restart storms on the simulated fabric, one
#       soak per seed in CHAOS_SEEDS (default "0 1 2 3"), CHAOS_ROUNDS
#       rounds each (default 60); a failing round writes its fault
#       schedule to CHAOS_REPRO_DIR (default .chaos-repro/).
#   scripts/ci.sh --serve                    # serving throughput gate:
#       the open-loop micro-batched serving bench against a real 4-expert
#       localhost team at smoke scale (SERVE_BENCH_DURATION, default 1.0s
#       per offered rate); asserts >= 5x the synchronous request rate at
#       bounded p95 and writes the rps/latency trajectory to
#       BENCH_throughput.json (path override: SERVE_BENCH_JSON).
#   scripts/ci.sh --fastpath                 # compiled fast-path gate:
#       the executor/int8 differential suites for each seed in
#       TESTKIT_SEEDS (default "0 1 2"; failing cases leave repro JSONs
#       in TESTKIT_REPRO_DIR), then the single-expert throughput bench,
#       asserting >= 3x compiled and int8 speedup over the tape and
#       writing the trajectory + per-op tables to BENCH_fastpath.json
#       (path override: FASTPATH_BENCH_JSON).
#   scripts/ci.sh --crash                    # durability soak: seeded
#       kill-during-checkpoint / torn-file / bit-exact-resume rounds, one
#       soak per seed in CRASH_SEEDS (default "0 1 2 3"), CRASH_ROUNDS
#       rounds each (default 25); a failing round writes a JSON repro
#       (seed + round + crash point) to CRASH_REPRO_DIR
#       (default .crash-repro/).
#   scripts/ci.sh --failover                 # master-failover gate: the
#       promotion chaos soak (kill the primary at seeded protocol points
#       mid-traffic; every accepted request must resolve byte-identically
#       to a no-failure run), one soak per seed in FAILOVER_SEEDS
#       (default "0 1 2"), FAILOVER_ROUNDS rounds each (default 10); a
#       failing round writes a JSON repro to FAILOVER_REPRO_DIR (default
#       .testkit-repro/).  Then the recovery-time bench: kill -> detect
#       -> elect -> promote -> re-drive must fit the lease's
#       recovery_budget_s for every lease/latency pairing, writing the
#       sweep to BENCH_failover.json (path override: FAILOVER_BENCH_JSON).
#   scripts/ci.sh --integrity                # data-plane integrity gate:
#       the silent-corruption soak (sharpened experts, live weight
#       bit-flips, stale-version reconnects, tampered wire payloads; the
#       protected master must quarantine, auto-redeploy, and converge
#       back to byte-identical answers), one soak per seed in
#       INTEGRITY_SEEDS (default "0 1 2"), INTEGRITY_ROUNDS rounds each
#       (default 8); a failing round writes a JSON repro to
#       INTEGRITY_REPRO_DIR (default .testkit-repro/).  Then the
#       detection-latency bench: quarantine within DETECT_PROBE_BUDGET
#       canary probes and recovery within RECOVERY_PROBE_BUDGET for
#       every corruption mode, with the unprotected baseline shown
#       diverging on the same schedules; writes BENCH_integrity.json
#       (path override: INTEGRITY_BENCH_JSON).
#   scripts/ci.sh --overload                 # overload-control gate: the
#       seeded virtual-time overload soak (warm 1x / burst 10x / recover
#       1x Poisson arrivals; the protected serving model must keep >= 70%
#       of warm goodput through the burst and recovery, answer within the
#       deadline at p99, and never start service on an expired request,
#       while the unbounded-FIFO baseline queue-collapses on identical
#       arrivals) plus the deadline/shedding unit suites, one run per
#       seed in OVERLOAD_SEEDS (default "0 1 2"), OVERLOAD_ROUNDS soak
#       rounds each (default 3); a failing round writes a JSON repro to
#       OVERLOAD_REPRO_DIR (default .testkit-repro/).  Then the goodput
#       bench, writing both runs' per-phase trajectories to
#       BENCH_overload.json (path override: OVERLOAD_BENCH_JSON).
#   scripts/ci.sh --flake N [pytest args...] # rerun gate: runs the given
#       tests N times in a row (same per-test timeout as tier-1) and
#       stops at the first failing run, e.g.
#       `scripts/ci.sh --flake 20 tests/comm/test_demux.py`.
set -euo pipefail
cd "$(dirname "$0")/.."

PER_TEST_TIMEOUT="${PER_TEST_TIMEOUT:-120}"
SUITE_TIMEOUT="${SUITE_TIMEOUT:-1800}"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--testkit" ]]; then
    shift
    export TESTKIT_REPRO_DIR="${TESTKIT_REPRO_DIR:-.testkit-repro}"
    for seed in ${TESTKIT_SEEDS:-0 1 2}; do
        echo "=== testkit sweep: TESTKIT_SEED=$seed ==="
        TESTKIT_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
    shift
    export CHAOS_REPRO_DIR="${CHAOS_REPRO_DIR:-.chaos-repro}"
    export CHAOS_ROUNDS="${CHAOS_ROUNDS:-60}"
    for seed in ${CHAOS_SEEDS:-0 1 2 3}; do
        echo "=== chaos soak: CHAOS_SEED=$seed (CHAOS_ROUNDS=$CHAOS_ROUNDS) ==="
        CHAOS_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit/test_chaos.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    exit 0
fi

if [[ "${1:-}" == "--serve" ]]; then
    shift
    export SERVE_BENCH_DURATION="${SERVE_BENCH_DURATION:-1.0}"
    export SERVE_BENCH_JSON="${SERVE_BENCH_JSON:-BENCH_throughput.json}"
    echo "=== serving bench: ${SERVE_BENCH_DURATION}s per offered rate ==="
    # --per-test-timeout lives in tests/conftest.py and is not loaded for
    # the benchmarks tree; the outer timeout is the hang backstop here.
    timeout --signal=INT "$SUITE_TIMEOUT" \
        python -m pytest -x -q -s benchmarks/test_bench_serving.py \
        -p no:cacheprovider "$@"
    exit 0
fi

if [[ "${1:-}" == "--fastpath" ]]; then
    shift
    export TESTKIT_REPRO_DIR="${TESTKIT_REPRO_DIR:-.testkit-repro}"
    for seed in ${TESTKIT_SEEDS:-0 1 2}; do
        echo "=== fast-path differential: TESTKIT_SEED=$seed ==="
        TESTKIT_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q \
            tests/nn/test_executor_differential.py \
            tests/testkit/test_serving_differential.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    export FASTPATH_BENCH_JSON="${FASTPATH_BENCH_JSON:-BENCH_fastpath.json}"
    echo "=== fast-path bench: >= 3x compiled/int8 over tape ==="
    timeout --signal=INT "$SUITE_TIMEOUT" \
        python -m pytest -x -q -s benchmarks/test_bench_fastpath.py \
        -p no:cacheprovider "$@"
    exit 0
fi

if [[ "${1:-}" == "--crash" ]]; then
    shift
    export CRASH_REPRO_DIR="${CRASH_REPRO_DIR:-.crash-repro}"
    export CRASH_ROUNDS="${CRASH_ROUNDS:-25}"
    for seed in ${CRASH_SEEDS:-0 1 2 3}; do
        echo "=== crash soak: CRASH_SEED=$seed (CRASH_ROUNDS=$CRASH_ROUNDS) ==="
        CRASH_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit/test_crash.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    exit 0
fi

if [[ "${1:-}" == "--failover" ]]; then
    shift
    export FAILOVER_REPRO_DIR="${FAILOVER_REPRO_DIR:-.testkit-repro}"
    export FAILOVER_ROUNDS="${FAILOVER_ROUNDS:-10}"
    for seed in ${FAILOVER_SEEDS:-0 1 2}; do
        echo "=== failover soak: FAILOVER_SEED=$seed (FAILOVER_ROUNDS=$FAILOVER_ROUNDS) ==="
        FAILOVER_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit/test_failover.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    export FAILOVER_BENCH_JSON="${FAILOVER_BENCH_JSON:-BENCH_failover.json}"
    echo "=== failover bench: recovery within the lease budget ==="
    timeout --signal=INT "$SUITE_TIMEOUT" \
        python -m pytest -x -q -s benchmarks/test_bench_failover.py \
        -p no:cacheprovider "$@"
    exit 0
fi

if [[ "${1:-}" == "--integrity" ]]; then
    shift
    export INTEGRITY_REPRO_DIR="${INTEGRITY_REPRO_DIR:-.testkit-repro}"
    export INTEGRITY_ROUNDS="${INTEGRITY_ROUNDS:-8}"
    for seed in ${INTEGRITY_SEEDS:-0 1 2}; do
        echo "=== integrity soak: INTEGRITY_SEED=$seed (INTEGRITY_ROUNDS=$INTEGRITY_ROUNDS) ==="
        INTEGRITY_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit/test_integrity.py \
            tests/distributed/test_integrity.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    export INTEGRITY_BENCH_JSON="${INTEGRITY_BENCH_JSON:-BENCH_integrity.json}"
    echo "=== integrity bench: detection within the probe budget ==="
    timeout --signal=INT "$SUITE_TIMEOUT" \
        python -m pytest -x -q -s benchmarks/test_bench_integrity.py \
        -p no:cacheprovider "$@"
    exit 0
fi

if [[ "${1:-}" == "--overload" ]]; then
    shift
    export OVERLOAD_REPRO_DIR="${OVERLOAD_REPRO_DIR:-.testkit-repro}"
    export OVERLOAD_ROUNDS="${OVERLOAD_ROUNDS:-3}"
    for seed in ${OVERLOAD_SEEDS:-0 1 2}; do
        echo "=== overload soak: OVERLOAD_SEED=$seed (OVERLOAD_ROUNDS=$OVERLOAD_ROUNDS) ==="
        OVERLOAD_SEED="$seed" \
            timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q tests/testkit/test_overload.py \
            tests/distributed/test_overload.py \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    export OVERLOAD_BENCH_JSON="${OVERLOAD_BENCH_JSON:-BENCH_overload.json}"
    echo "=== overload bench: goodput floor under a 10x burst ==="
    timeout --signal=INT "$SUITE_TIMEOUT" \
        python -m pytest -x -q -s benchmarks/test_bench_overload.py \
        -p no:cacheprovider "$@"
    exit 0
fi

if [[ "${1:-}" == "--flake" ]]; then
    shift
    runs="${1:-}"
    if [[ ! "$runs" =~ ^[1-9][0-9]*$ ]]; then
        echo "usage: scripts/ci.sh --flake N [pytest args...]" >&2
        exit 2
    fi
    shift
    for ((run = 1; run <= runs; run++)); do
        echo "=== flake rerun $run/$runs ==="
        timeout --signal=INT "$SUITE_TIMEOUT" \
            python -m pytest -x -q -p no:cacheprovider \
            --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
    done
    exit 0
fi

# The outer `timeout` is the backstop in case a hang happens outside a
# test body (collection, fixtures); the pytest option catches the rest.
exec timeout --signal=INT "$SUITE_TIMEOUT" \
    python -m pytest -x -q --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
