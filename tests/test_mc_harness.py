"""Replication engine: determinism, reduction exactness, failure policy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineqtest.mc_harness import (McSummary, ReplicationError, SeedPlan, mc_se,
                                 run_replications)


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
    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            McSummary(estimate=0.5, mc_se=0.1, reps=0, master_seed=0)

    def test_allows_missing_master_seed(self):
        s = McSummary(estimate=0.5, mc_se=0.1, reps=10, master_seed=None)
        assert s.master_seed is None


class TestRunReplications:
    def test_constant_true_task(self):
        report = run_replications(lambda i, rng: 1, 100, SeedPlan(0))
        assert report.summary.estimate == 1.0
        assert report.summary.mc_se == 0.0
        assert report.summary.reps == 100

    def test_fair_coin_binomial_bound(self):
        report = run_replications(lambda i, rng: rng.random() < 0.5, 10_000, SeedPlan(3))
        assert abs(report.summary.estimate - 0.5) < 0.015

    def test_worker_count_invariance(self):
        def task(i, rng):
            return rng.random() < 0.3

        reports = [run_replications(task, 500, SeedPlan(11), workers=w)
                   for w in (1, 2, 7)]
        estimates = {r.summary.estimate for r in reports}
        assert len(estimates) == 1

    def test_estimate_is_exact_indicator_mean(self):
        report = run_replications(lambda i, rng: i % 3 == 0, 300, SeedPlan(0),
                                  log_indicators=True)
        assert report.summary.estimate == report.indicators.mean()
        assert report.indicators.sum() == 100

    def test_failure_reports_replication_index(self):
        def task(i, rng):
            if i == 17:
                raise RuntimeError("boom")
            return 0

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 50, SeedPlan(0))
        assert err.value.index == 17

    def test_earliest_failure_wins_across_workers(self):
        def task(i, rng):
            if i in (13, 29):
                raise RuntimeError("boom")
            return 0

        with pytest.raises(ReplicationError) as err:
            run_replications(task, 40, SeedPlan(0), workers=4)
        assert err.value.index == 13

    def test_non_indicator_return_rejected(self):
        with pytest.raises(ReplicationError):
            run_replications(lambda i, rng: 0.5, 10, SeedPlan(0))

    def test_bool_returns_allowed(self):
        report = run_replications(lambda i, rng: True, 10, SeedPlan(0))
        assert report.summary.estimate == 1.0

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_replications(lambda i, rng: 1, 0, SeedPlan(0))

    def test_config_echo(self):
        report = run_replications(lambda i, rng: 1, 5, SeedPlan(0),
                                  config={"alpha": 0.05})
        assert report.config == {"alpha": 0.05}

    def test_tasks_keyed_to_stream_not_order(self):
        # replication i must see stream(i) regardless of worker layout
        def task(i, rng):
            return rng.integers(0, 2**31) % 2

        one = run_replications(task, 64, SeedPlan(5), workers=1, log_indicators=True)
        many = run_replications(task, 64, SeedPlan(5), workers=8, log_indicators=True)
        assert np.array_equal(one.indicators, many.indicators)
