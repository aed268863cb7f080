"""Fixed parameters of the serving benchmark.

The offered rates and the latency limit were fixed once, from runs of
the parent commit on a 2-vCPU Linux VM with the benchmark pinned to one
of its CPUs (see NOTES.md); the description of ``overload_mlp`` in
``BENCHMARK.json`` quotes them, and a test keeps the two in agreement.
They are never derived at run time, so the load a later commit is
measured under does not move with its speed.
"""

#: master plus three worker threads
TEAM_SIZE = 4

#: p99 latency limit, and the per-request deadline on overload_mlp
LATENCY_LIMIT_MS = 100.0

#: served_mlp's two Poisson rates: batches barely form at ``low``; at
#: ``knee`` they form and queueing sets p99, at about half the rate
#: where the unprotected server collapses
RATE_LOW_RPS = 150.0
RATE_KNEE_RPS = 1200.0

#: overload_mlp's burst rate, as a multiple of the knee rate; above the
#: team's capacity, so admission control has to refuse
BURST_MULTIPLE = 6.0

#: the README's serving configuration (exact coalescing)
SERVE_MAX_BATCH = 32
SERVE_MAX_QUEUE = 1024

#: gather deadline of the fault-tolerant configuration
REPLY_TIMEOUT_S = 2.0

#: rows in the seeded input pool each workload draws requests from
POOL_ROWS = {"mlp": 64, "cnn": 32}

#: deployments per untraced run: setup_s is the median of their set-up
#: times, and each measures an equal share of the run
DEPLOYMENTS = 10

#: untimed requests after set-up, so lazy state (BLAS, the hedge
#: latency window) is filled before measuring
WARMUP_REQUESTS = 32

#: how long to wait for the last open-loop answers after the schedule
DRAIN_TIMEOUT_S = 30.0

#: largest share of the traced time in ``infer`` that the closed loop's
#: span self times may leave unaccounted
STAGE_SUM_TOLERANCE = 0.05
