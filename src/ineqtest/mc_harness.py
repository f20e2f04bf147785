"""Reproducible Monte Carlo replication engine.

Every simulated probability in this package is produced here: replication i
consumes only the stream derived from (master_seed, i), results are gathered
into a preallocated slot per index, and the reduction is an exact integer
sum.  Output is therefore bit-identical for any worker count and any
execution order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


def mc_se(p, n):
    """Binomial standard error sqrt(p(1-p)/n) of an estimated probability."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = float(p)
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class McSummary:
    """A simulated probability with its provenance."""

    estimate: float
    mc_se: float
    reps: int
    master_seed: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass(frozen=True)
class SeedPlan:
    """Counter-based stream derivation from one master seed.

    ``stream(*ids)`` is pure: the same id tuple always yields a generator in
    the same state, and distinct id tuples yield statistically independent
    streams (SeedSequence spawn keys over a counter-based bit generator).
    ``subplan(*ids)`` namespaces a child plan, so nested loops (grid point,
    replication) get non-colliding streams.
    """

    master_seed: int
    prefix: tuple = ()

    @classmethod
    def coerce(cls, seed) -> "SeedPlan":
        """``seed`` itself when it is a plan, else the plan of int(seed)."""
        return seed if isinstance(seed, SeedPlan) else cls(int(seed))

    def stream(self, *ids) -> np.random.Generator:
        key = self.prefix + tuple(int(i) for i in ids)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))

    def subplan(self, *ids) -> "SeedPlan":
        return SeedPlan(self.master_seed, self.prefix + tuple(int(i) for i in ids))


@dataclass(frozen=True)
class RunReport:
    summary: McSummary
    wall_seconds: float
    config: dict = field(default_factory=dict)
    indicators: np.ndarray | None = None


class ReplicationError(RuntimeError):
    """A replication task raised; carries the failing replication index."""

    def __init__(self, index, cause):
        super().__init__(f"replication {index} failed: {cause!r}")
        self.index = index
        self.cause = cause


def run_replications(task, reps, seed_plan: SeedPlan, workers=1,
                     log_indicators=False, config=None) -> RunReport:
    """Runs ``task(i, rng) -> 0/1`` for i in range(reps) and averages.

    The estimate is an exact integer count divided by reps, so permuting
    execution order or changing ``workers`` never changes the report.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    t0 = time.perf_counter()
    results = np.full(reps, -1, dtype=np.int64)
    failure = []

    def run_indices(indices):
        for i in indices:
            if failure:
                return
            try:
                value = task(i, seed_plan.stream(i))
            except Exception as exc:  # noqa: BLE001, re-raised with index below
                failure.append((i, exc))
                return
            as_int = int(value)
            if as_int != value or as_int not in (0, 1):
                failure.append((i, ValueError(f"task returned non-indicator {value!r}")))
                return
            results[i] = as_int

    workers = max(1, int(workers))
    if workers == 1:
        run_indices(range(reps))
    else:
        chunks = [range(k, reps, workers) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_indices, chunks))
    if failure:
        index, cause = min(failure, key=lambda pair: pair[0])
        raise ReplicationError(index, cause)

    count = int(results.sum())
    estimate = count / reps
    summary = McSummary(estimate=estimate, mc_se=mc_se(estimate, reps),
                        reps=reps, master_seed=seed_plan.master_seed)
    return RunReport(summary=summary,
                     wall_seconds=time.perf_counter() - t0,
                     config=dict(config or {}),
                     indicators=results.copy() if log_indicators else None)
