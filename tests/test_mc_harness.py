"""Replication engine: determinism, reduction exactness, failure policy,
and the forked parallel map that runs table cells."""

import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ineqtest
from ineqtest.limit_experiment import (Experiment, HalfSpace, IntervalUnion,
                                       halfspace_rejection_prob_exact,
                                       rejection_probability, size_over_boundary)
from ineqtest.mc_harness import (McSummary, ReplicationError, SeedPlan, check_alpha,
                                 mc_se, parallel_map, run_replications)
from ineqtest.stochastic_dominance import sd_rejection_probability
from ineqtest.translog import RankDeficientError, TranslogDgp, type1_error_sim


class TestMcSe:
    def test_half_at_hundred(self):
        assert mc_se(0.5, 100) == 0.05

    def test_degenerate_probability(self):
        assert mc_se(0.0, 50) == 0.0
        assert mc_se(1.0, 50) == 0.0

    def test_point_one_at_thousand(self):
        assert mc_se(0.1, 1000) == pytest.approx(0.009486832980505138, abs=1e-15)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            mc_se(0.5, 0)

    @given(st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=10**9))
    def test_bounded_by_half_over_sqrt_n(self, p, n):
        assert 0.0 <= mc_se(p, n) <= 0.5 / np.sqrt(n) + 1e-15


class TestCheckAlpha:
    """Every entry point that simulates or computes a test's rejection
    rate refuses a level outside (0, 1) before it spends anything."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_entry_points_refuse_bad_levels(self, alpha):
        interval = IntervalUnion(intervals=((-1.0, 0.0),))
        line = HalfSpace(c=np.array([1.0]), c0=0.0)
        calls = [
            lambda: check_alpha(alpha),
            lambda: sd_rejection_probability(0.0, 30, False, "sd1", "ks", alpha, 20),
            lambda: type1_error_sim(TranslogDgp(n=40, sigma_eps=0.3), alpha=alpha,
                                    reps=3, draws=20),
            lambda: rejection_probability(interval, [0.0], Experiment.scalar(), alpha,
                                          reps=10),
            lambda: rejection_probability(line, [0.0], Experiment.scalar(), alpha),
            lambda: halfspace_rejection_prob_exact(line, [0.0], Experiment.scalar(), alpha),
            lambda: size_over_boundary(interval, [[0.0]], Experiment.scalar(), alpha,
                                       reps=10),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                call()


class TestSeedPlan:
    def test_stream_is_pure(self):
        plan = SeedPlan(123)
        a = plan.stream(5).standard_normal(8)
        b = plan.stream(5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        plan = SeedPlan(123)
        a = plan.stream(0).standard_normal(8)
        b = plan.stream(1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_master_seeds_differ(self):
        a = SeedPlan(1).stream(0).standard_normal(8)
        b = SeedPlan(2).stream(0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_subplan_namespacing(self):
        plan = SeedPlan(7)
        direct = plan.stream(3, 4).standard_normal(4)
        nested = plan.subplan(3).stream(4).standard_normal(4)
        assert np.array_equal(direct, nested)

    def test_subplan_does_not_collide_with_parent(self):
        plan = SeedPlan(7)
        a = plan.stream(0).standard_normal(4)
        b = plan.subplan(0).stream(0).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_multi_id_streams(self):
        plan = SeedPlan(0)
        assert not np.array_equal(plan.stream(1, 2).standard_normal(4),
                                  plan.stream(2, 1).standard_normal(4))

    def test_coerce(self):
        plan = SeedPlan(7).subplan(2)
        assert SeedPlan.coerce(plan) is plan
        assert SeedPlan.coerce(7) == SeedPlan(7)
        assert SeedPlan.coerce(np.int64(7)) == SeedPlan(7)


class TestMcSummary:
    def test_stores_only_estimate_and_reps(self):
        assert [f.name for f in fields(McSummary)] == ["estimate", "reps"]

    def test_exact_summary_carries_no_reps(self):
        s = McSummary(0.05, 0)
        assert s.exact and s.mc_se == 0.0
        assert not McSummary(0.5, 10).exact

    @pytest.mark.parametrize("estimate, reps", [(0.5, 10), (0.0, 3), (1 / 3, 300)])
    def test_mc_se_is_the_binomial_standard_error(self, estimate, reps):
        assert McSummary(estimate, reps).mc_se == mc_se(estimate, reps)


class TestRunReplications:
    """Blocks of one replication, the shape of the dominance and curvature
    tables' tasks."""

    def test_constant_true_task(self):
        assert run_replications(lambda indices, rng: [1], 100, SeedPlan(0), 1) == (100,)

    def test_fair_coin_binomial_bound(self):
        counts = run_replications(lambda indices, rng: [rng.random() < 0.5], 10_000,
                                  SeedPlan(3), 1)
        assert abs(counts[0] / 10_000 - 0.5) < 0.015

    def test_counts_are_exact_indicator_sums(self):
        counts = run_replications(lambda indices, rng: indices % 3 == 0, 300, SeedPlan(0), 1)
        assert counts == (100,)

    def test_failure_reports_replication_index(self):
        def task(indices, rng):
            if indices[0] == 17:
                raise RuntimeError("boom")
            return [0]

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 50, SeedPlan(0), 1)
        assert err.value.index == 17

    def test_earliest_failure_wins_across_workers(self):
        ran = []

        def task(indices, rng):
            ran.append(int(indices[0]))
            if indices[0] in (13, 29):
                raise RuntimeError("boom")
            return [0]

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 40, SeedPlan(0), 1)
        assert err.value.index == 13
        # the blocks run serially, in order, and stop at the first failure
        assert ran == list(range(14))

    def test_non_indicator_return_rejected(self):
        with pytest.raises(ReplicationError):
            run_replications(lambda indices, rng: [0.5], 10, SeedPlan(0), 1)

    def test_bool_returns_allowed(self):
        assert run_replications(lambda indices, rng: [True], 10, SeedPlan(0), 1) == (10,)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_replications(lambda indices, rng: [1], 0, SeedPlan(0), 1)


class TestBlocks:
    """Block tasks: block b of block_size replications reads stream(b)."""

    def test_block_b_reads_stream_b(self):
        seen = {}

        def task(indices, rng):
            seen[int(indices[0])] = (indices.tolist(), rng.random())
            return np.zeros(indices.size, dtype=int)

        assert run_replications(task, 10, SeedPlan(4), block_size=4) == (0,)
        assert sorted(seen) == [0, 4, 8]
        for b, first in enumerate((0, 4, 8)):
            indices, draw = seen[first]
            assert indices == list(range(first, min(first + 4, 10)))
            assert draw == SeedPlan(4).stream(b).random()

    def test_two_columns_logged_and_counted(self):
        def task(indices, rng):
            return np.column_stack([indices % 2 == 0, indices % 3 == 0])

        counts = run_replications(task, 30, SeedPlan(0), block_size=7)
        assert counts == (15, 10)
        assert all(type(c) is int for c in counts)

    def test_lowest_failing_block_wins(self):
        def task(indices, rng):
            if indices[0] in (24, 40, 56):
                raise RuntimeError("boom")
            return np.zeros(indices.size, dtype=int)

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 70, SeedPlan(0), block_size=8)
        assert err.value.index == 24
        assert isinstance(err.value.cause, RuntimeError)

    @pytest.mark.parametrize("result", [
        lambda n: np.full(n, 2),                   # not an indicator
        lambda n: np.full(n, 0.5),
        lambda n: np.full(n, np.nan),
        lambda n: np.array(["1"] * n),
        lambda n: np.zeros(n + 1, dtype=int),      # wrong number of rows
        lambda n: np.zeros((n, 2, 2), dtype=int),  # wrong rank
        lambda n: np.zeros((n, 0), dtype=int),     # no columns
        lambda n: np.int64(1),
    ])
    def test_bad_block_results_refused(self, result):
        with pytest.raises(ReplicationError) as err:
            run_replications(lambda indices, rng: result(indices.size), 10, SeedPlan(0),
                             block_size=4)
        assert err.value.index == 0

    def test_varying_width_refused(self):
        def task(indices, rng):
            return np.zeros((indices.size, 1 if indices[0] < 8 else 2), dtype=int)

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 20, SeedPlan(0), block_size=4)
        assert err.value.index == 8

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            run_replications(lambda indices, rng: indices * 0, 5, SeedPlan(0), block_size=0)


class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_by_index(self, workers):
        offset = 10   # the jobs are closures: the workers inherit them, nothing pickles them
        out = parallel_map([partial(lambda item: item * item + offset, i) for i in range(9)],
                           workers)
        assert out == [i * i + offset for i in range(9)]
        assert multiprocessing.active_children() == []

    def test_forks_only_for_more_than_one_process(self):
        parent = os.getpid()
        assert set(parallel_map([os.getpid] * 4, 1)) == {parent}
        assert set(parallel_map([os.getpid], 4)) == {parent}
        pids = set(parallel_map([os.getpid] * 4, 2))
        assert (parent in pids) == (len(os.sched_getaffinity(0)) < 2)
        assert 1 <= len(pids) <= 2

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lowest_failing_index_wins(self, workers):
        def fn(item):
            if item in (3, 7):
                raise ReplicationError(item, RankDeficientError(f"item {item}"))
            return item

        with pytest.raises(ReplicationError) as err:
            parallel_map([partial(fn, i) for i in range(10)], workers)
        assert err.value.index == 3
        assert isinstance(err.value.cause, RankDeficientError)
        assert str(err.value.cause) == "item 3"
        assert multiprocessing.active_children() == []

    def test_errors_survive_pickling(self):
        err = pickle.loads(pickle.dumps(ReplicationError(5, RankDeficientError("rank 9"))))
        assert type(err) is ReplicationError
        assert err.index == 5
        assert str(err) == "replication 5 failed: RankDeficientError('rank 9')"
        assert type(err.cause) is RankDeficientError
        assert err.cause.args == ("rank 9",)

    def test_pending_stdout_printed_once(self):
        # stdout to a pipe is block-buffered: unless the buffer is flushed
        # before the fork, each child flushes its copy again when it exits
        script = ("import sys\n"
                  "from functools import partial\n"
                  "from ineqtest.mc_harness import parallel_map\n"
                  "print('before')\n"
                  "print(parallel_map([partial(lambda i: i + 1, i) for i in range(4)], 2))\n")
        src = str(Path(ineqtest.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"before\n[1, 2, 3, 4]\n"
