"""The team under test: seeded experts, the input pool, the reference
answers, and timed deployment of the fault-tolerant configuration."""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

from repro.core.inference import TeamInference
from repro.data import synthetic_cifar, synthetic_mnist
from repro.distributed import (IntegrityConfig, OverloadConfig,
                               deploy_local_team)
from repro.nn import build_model, downsize, mlp_spec, shake_shake_spec

from . import config

ENGINE = "compiled"


def spec_for(family: str):
    if family == "mlp":
        return downsize(mlp_spec(8, width=64), config.TEAM_SIZE)
    return downsize(shake_shake_spec(26, width=8), config.TEAM_SIZE)


def build_experts(family: str, seed: int) -> list:
    """Seeded, untrained experts: serving cost does not depend on the
    weight values.  Each call builds new module objects, so each
    deployment compiles its own executors."""
    spec = spec_for(family)
    return [build_model(spec, np.random.default_rng((seed, index)))
            for index in range(config.TEAM_SIZE)]


def input_pool(family: str, seed: int) -> np.ndarray:
    """Seeded rows rendered by the synthetic datasets; MLP rows are
    flattened because the serving layer takes 2-D batches."""
    rows = config.POOL_ROWS[family]
    if family == "mlp":
        return synthetic_mnist(rows, seed=seed).images.reshape(rows, -1)
    return synthetic_cifar(rows, seed=seed).images


def reference_answers(family: str, seed: int, pool: np.ndarray) -> list:
    """``(preds, winner)`` per pool row from the single-process
    :class:`TeamInference` on separately built experts, same engine."""
    reference = TeamInference(build_experts(family, seed), engine=ENGINE)
    return [reference.predict_with_winner(pool[row:row + 1])
            for row in range(len(pool))]


class Deployment:
    """A live team (and server, on the served workloads)."""

    def __init__(self, master, workers, server=None):
        self.master = master
        self.workers = workers
        self.server = server

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.close()
        finally:
            self.master.close()
            # Each stop waits out its acceptor's poll window; stop them
            # together.
            stoppers = [threading.Thread(target=worker.stop)
                        for worker in self.workers]
            for thread in stoppers:
                thread.start()
            for thread in stoppers:
                thread.join()


def deploy(family: str, seed: int, probe: np.ndarray, served: bool,
           overload: bool) -> tuple[Deployment, float]:
    """Deploy a fresh team and return it with its set-up time: from
    ``deploy_local_team`` (plus ``serve``) to the first answer, which
    includes worker start, connects and the compile on first forward."""
    experts = build_experts(family, seed)
    start = time.perf_counter()
    master, workers = deploy_local_team(
        experts, engine=ENGINE, degrade_on_failure=True,
        reply_timeout=config.REPLY_TIMEOUT_S, integrity=IntegrityConfig())
    deployment = Deployment(master, workers)
    try:
        if served:
            deployment.server = master.serve(
                max_batch=config.SERVE_MAX_BATCH,
                max_queue=config.SERVE_MAX_QUEUE,
                overload=OverloadConfig() if overload else None)
            deployment.server.submit(probe).result(
                config.DRAIN_TIMEOUT_S)
        else:
            master.infer(probe)
        setup_s = time.perf_counter() - start
    except BaseException:
        deployment.close()
        raise
    return deployment, setup_s


def warm_up(deployment: Deployment, pool: np.ndarray) -> None:
    """Untimed requests that fill lazy state before measuring, then a
    full collection, so garbage left by set-up is not collected inside
    the timed loop."""
    for i in range(config.WARMUP_REQUESTS):
        row = pool[i % len(pool):i % len(pool) + 1]
        if deployment.server is not None:
            deployment.server.submit(row).result(config.DRAIN_TIMEOUT_S)
        else:
            deployment.master.infer(row)
    gc.collect()
