"""Reproducible Monte Carlo replication engine.

Every simulated rejection rate in this package is counted here.  The
replications are cut into consecutive blocks of a size fixed by the
caller; block b consumes only the stream derived from (master_seed, b),
and the blocks run in order, their counts adding up as exact integer
sums per column.  Output therefore depends only on the seed and the
block size.  ``run_replications`` returns those counts, and its callers
report a column as an ``McSummary`` of count / reps over reps; a
summary with reps 0 is a closed-form value instead.

``parallel_map`` is the one parallel code path: the cells of a table,
or the draw blocks of sd-test's posterior, run in forked worker
processes, since the kernels' many short numpy calls hold the GIL and
threads barely overlap them.  A cell's replications run serially inside
its worker.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


def check_alpha(alpha):
    """Refuses a test level outside the open interval (0, 1), nan included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def mc_se(p, n):
    """Binomial standard error sqrt(p(1-p)/n) of an estimated probability."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = float(p)
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class McSummary:
    """A probability and the number of replications or draws it was
    simulated from; reps 0 means it was computed in closed form."""

    estimate: float
    reps: int

    @property
    def exact(self) -> bool:
        return self.reps == 0

    @property
    def mc_se(self) -> float:
        return 0.0 if self.exact else mc_se(self.estimate, self.reps)


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


class ReplicationError(RuntimeError):
    """A replication task raised; carries the failing replication index."""

    def __init__(self, index, cause):
        super().__init__(f"replication {index} failed: {cause!r}")
        self.index = index
        self.cause = cause

    def __reduce__(self):
        # rebuilt from its fields when it comes back from a worker process
        return type(self), (self.index, self.cause)


# the jobs a forked worker process runs, set in the worker by _inherit and
# never pickled
_INHERITED = None


def _inherit(jobs):
    global _INHERITED
    _INHERITED = jobs


def _call_inherited(i):
    return _INHERITED[i]()


def parallel_map(jobs, workers=1):
    """``[job() for job in jobs]``, run in forked worker processes.

    Starts min(workers, len(jobs), usable cores) processes.  Each is a
    fork of the caller, so the zero-argument callables ``jobs`` reach it
    by inheritance and need not pickle; only results and exceptions
    travel back.  Jobs are handed out one at a time, last first, because
    callers list their costliest jobs last, and each result is put back at
    its index.  When that count is 1, or the platform cannot fork, the
    jobs run here in order with no pool.

    A raising call re-raises in the caller; when several raise, the
    lowest index wins, as it would serially.  No worker process outlives
    the call.
    """
    jobs = list(jobs)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    procs = min(int(workers), len(jobs), cores)
    if procs <= 1 or not hasattr(os, "fork"):
        return [job() for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(jobs,)) as pool:
        futures = [pool.submit(_call_inherited, i) for i in reversed(range(len(jobs)))]
        try:
            return [future.result() for future in reversed(futures)]
        finally:
            pool.shutdown(cancel_futures=True)


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


def run_replications(task, reps, seed_plan: SeedPlan, block_size) -> tuple:
    """Runs a block task over indices range(reps) and counts its indicators.

    Block b holds indices [b * block_size, min((b + 1) * block_size, reps))
    and ``task(indices, rng)`` runs once per block, in block order, on
    ``seed_plan.stream(b)``.  It returns one row of 0/1 indicators per
    index: an int array of shape (rows,) or (rows, k), with the same shape
    after the rows as block 0's.  Returns the tuple of exact integer counts,
    one per column; ``McSummary(counts[0] / reps, reps)`` is column 0's
    rate.  ``block_size``, which callers hold as a constant, decides which
    stream a replication reads.  A failing block raises ReplicationError
    with the block's first index; the blocks after it do not run.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    if block_size < 1:
        raise ValueError("need block_size >= 1")
    counts, width = 0, None
    for b, first in enumerate(range(0, reps, block_size)):
        indices = np.arange(first, min(first + block_size, reps))
        try:
            rows = _indicator_rows(task(indices, seed_plan.stream(b)), indices.size)
            width = rows.shape[1:] if width is None else width
            if rows.shape[1:] != width:
                raise ValueError(f"task returned width {rows.shape[1:]}, block 0 {width}")
        except Exception as exc:  # noqa: BLE001, re-raised with its index
            raise ReplicationError(first, exc) from exc
        counts = counts + rows.reshape(indices.size, -1).sum(axis=0)

    return tuple(int(c) for c in counts)
