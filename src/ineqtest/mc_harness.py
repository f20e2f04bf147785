"""Reproducible Monte Carlo replication engine.

Every simulated probability in this package is produced here.  The
replications are cut into consecutive blocks of a size fixed by the
caller; block b consumes only the stream derived from (master_seed, b),
its results land in a slot of their own, and the reduction is an exact
integer sum per column.  Output is therefore bit-identical for any worker
count and any execution order.
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
    """A probability with its provenance: simulated from ``reps``
    replications, or computed in closed form (``exact``, with reps 0 and
    mc_se 0)."""

    estimate: float
    mc_se: float
    reps: int
    master_seed: int
    exact: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        if not self.exact and self.reps < 1:
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
    """``summary`` describes indicator column 0; ``indicators`` holds every
    replication's row and ``counts`` the exact count of every column."""

    summary: McSummary
    wall_seconds: float
    indicators: np.ndarray
    counts: tuple


class ReplicationError(RuntimeError):
    """A replication task raised; carries the failing replication index."""

    def __init__(self, index, cause):
        super().__init__(f"replication {index} failed: {cause!r}")
        self.index = index
        self.cause = cause


def _indicator_rows(value, rows):
    """A task's block result as an int64 array of shape (rows,) or
    (rows, k) holding only 0 and 1."""
    arr = np.asarray(value)
    if arr.ndim not in (1, 2) or arr.shape[0] != rows or arr.shape[1:] == (0,):
        raise ValueError(f"task returned shape {arr.shape}, expected ({rows},) or ({rows}, k)")
    if arr.dtype.kind != "b" and not (arr.dtype.kind in "iuf"
                                      and np.all((arr == 0) | (arr == 1))):
        raise ValueError(f"task returned non-indicator values {value!r}")
    return arr.astype(np.int64)


def run_replications(task, reps, seed_plan: SeedPlan, workers=1,
                     block_size=None) -> RunReport:
    """Runs a replication task for indices range(reps) and averages.

    With ``block_size`` set, block b holds indices [b * block_size,
    min((b + 1) * block_size, reps)) and ``task(indices, rng)`` runs once
    per block on ``seed_plan.stream(b)``, returning one row of 0/1
    indicators per index: an int array of shape (rows,) or (rows, k), with
    the same k in every block.  Without it the task is scalar,
    ``task(i, rng) -> 0/1`` on ``seed_plan.stream(i)``: the block-of-one
    case.

    The counts are exact integer sums, so permuting execution order or
    changing ``workers`` never changes the report; only ``block_size``,
    which callers hold as a constant, decides which stream a replication
    reads.  A failing block raises ReplicationError with the first index of
    the lowest failing block.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    if block_size is None:
        scalar_task, block_size = task, 1

        def task(indices, rng):
            value = scalar_task(int(indices[0]), rng)
            if value not in (0, 1):
                raise ValueError(f"task returned non-indicator {value!r}")
            return np.array([bool(value)])
    if block_size < 1:
        raise ValueError("need block_size >= 1")
    t0 = time.perf_counter()
    n_blocks = -(-reps // block_size)
    blocks = [None] * n_blocks
    failures = []

    def run_blocks(block_ids):
        for b in block_ids:
            first = b * block_size
            # a lower failure decides the error; blocks below it still run
            if failures and min(i for i, _ in failures) < first:
                return
            indices = np.arange(first, min(first + block_size, reps))
            try:
                blocks[b] = _indicator_rows(task(indices, seed_plan.stream(b)), indices.size)
            except Exception as exc:  # noqa: BLE001, re-raised with index below
                failures.append((first, exc))
                return

    workers = max(1, int(workers))
    if workers == 1:
        run_blocks(range(n_blocks))
    else:
        chunks = [range(k, n_blocks, workers) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_blocks, chunks))
    if failures:
        raise ReplicationError(*min(failures, key=lambda pair: pair[0]))
    for b, block in enumerate(blocks):
        if block.shape[1:] != blocks[0].shape[1:]:
            raise ReplicationError(b * block_size, ValueError(
                f"task returned width {block.shape[1:]}, block 0 {blocks[0].shape[1:]}"))

    results = np.concatenate(blocks)
    counts = tuple(int(c) for c in results.reshape(reps, -1).sum(axis=0))
    estimate = counts[0] / reps
    summary = McSummary(estimate=estimate, mc_se=mc_se(estimate, reps),
                        reps=reps, master_seed=seed_plan.master_seed)
    return RunReport(summary=summary, wall_seconds=time.perf_counter() - t0,
                     indicators=results, counts=counts)
