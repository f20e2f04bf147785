"""Tests for the translog cost model and the curvature simulation.

The Hessian formula is checked against a finite-difference oracle of the
cost level itself (conftest); the minors-based concavity check is checked
against an eigenvalue oracle and a hand list of classic counterexamples,
including one where leading minors alone would give the wrong answer.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fd_cost_hessian, oracle_is_nsd_eig
from ineqtest import translog
from ineqtest.distributions import dirichlet_flat_sample
from ineqtest.mc_harness import SeedPlan
from ineqtest.translog import (
    _MAX_REDRAWS,
    NSD_TOL,
    FreeParams,
    Hessian3,
    RankDeficientError,
    TranslogData,
    TranslogDgp,
    TranslogParams,
    Type1Result,
    _normal_equations,
    _nsd_flags_from_free,
    _posterior_free_rows,
    _product_table,
    default_free_params,
    expand_params,
    hessian,
    is_nsd,
    log_cost,
    monotone_at_unit,
    ols_fit,
    posterior_prob_nsd,
    shares,
    simulate_dataset,
    type1_error_sim,
    weighted_fit,
)


UNIT_W = np.ones(3)


def boundary_params():
    """Coefficients sitting exactly on the concavity boundary, written as
    literals so the unit-point Hessian cancels bit for bit."""
    third = 1.0 / 3.0
    return TranslogParams(
        a0=1.0, ay=1.0, ayy=0.0, ayk=np.zeros(3),
        b=np.array([third, third, third]),
        B=np.array([[2.0 / 9.0, -1.0 / 9.0, -1.0 / 9.0],
                    [-1.0 / 9.0, 2.0 / 9.0, -1.0 / 9.0],
                    [-1.0 / 9.0, -1.0 / 9.0, 2.0 / 9.0]]))


# ---------------------------------------------------------------------------
# parameterizations


class TestFreeParams:
    def test_vector_round_trip(self):
        free = default_free_params(0.002)
        again = FreeParams.from_vector(free.as_vector())
        assert again == free

    def test_from_vector_validates_length(self):
        with pytest.raises(ValueError):
            FreeParams.from_vector(np.zeros(9))


class TestExpandParams:
    def test_eliminated_coefficients(self):
        free = FreeParams(a0=0.5, ay=1.1, ayy=0.2, ay1=0.03, ay2=-0.01,
                          b1=0.5, b2=0.3, b11=0.1, b12=-0.04, b22=0.12)
        p = expand_params(free)
        assert p.b[2] == pytest.approx(0.2)
        assert p.ayk[2] == pytest.approx(-0.02)
        assert p.B[0, 2] == pytest.approx(-(0.1 - 0.04))
        assert p.B[1, 2] == pytest.approx(-(-0.04 + 0.12))
        assert p.B[2, 2] == pytest.approx(0.1 - 2 * 0.04 + 0.12)

    def test_row_sums_exactly_zero(self):
        p = expand_params(default_free_params(0.001))
        np.testing.assert_array_equal(p.B @ UNIT_W, np.zeros(3))
        np.testing.assert_array_equal(p.B.T @ UNIT_W, np.zeros(3))
        assert p.ayk.sum() == 0.0

    @given(st.tuples(*[st.floats(min_value=-0.9, max_value=0.9) for _ in range(5)]))
    def test_row_sums_exactly_zero_generic(self, coefs):
        b1, b2, b11, b12, b22 = coefs
        free = FreeParams(a0=1.0, ay=1.0, ayy=0.0, ay1=0.0, ay2=0.0,
                          b1=b1, b2=b2, b11=b11, b12=b12, b22=b22)
        p = expand_params(free)
        # b13, b23 are built as negated sums and b33 re-negates them, so
        # each row sum cancels term against term with no rounding
        np.testing.assert_array_equal(p.B.sum(axis=1), np.zeros(3))

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            TranslogParams(a0=0.0, ay=1.0, ayy=0.0, ayk=np.zeros(3),
                           b=np.ones(3) / 3,
                           B=np.array([[0.0, 1.0, 0.0],
                                       [0.9, 0.0, 0.0],
                                       [0.0, 0.0, 0.0]]))

    def test_default_free_params_delta(self):
        free = default_free_params(0.01)
        assert free.b11 == pytest.approx(2.0 / 9.0 - 0.01)
        assert free.b22 == pytest.approx(2.0 / 9.0 - 0.01)
        assert free.b12 == pytest.approx(-1.0 / 9.0)


# ---------------------------------------------------------------------------
# cost function and shares


class TestLogCost:
    def test_unit_point_gives_intercept(self):
        p = expand_params(default_free_params(0.001))
        assert log_cost(p, 1.0, UNIT_W) == 1.0

    def test_single_price_case(self):
        # w = (e, 1, 1): only b1 and B11/2 survive
        p = expand_params(default_free_params(0.001))
        want = 1.0 + 1.0 / 3.0 + 0.5 * (2.0 / 9.0 - 0.001)
        assert log_cost(p, 1.0, np.array([math.e, 1.0, 1.0])) == pytest.approx(
            want, abs=1e-14)

    def test_linear_homogeneity_in_prices(self):
        p = expand_params(default_free_params(0.001))
        w = np.array([1.3, 0.7, 2.1])
        lam = 1.9
        assert log_cost(p, 2.0, lam * w) == pytest.approx(
            log_cost(p, 2.0, w) + math.log(lam), abs=1e-12)

    def test_output_terms(self):
        p = expand_params(default_free_params(0.0))
        # at unit prices only a0 + ay ln y + ayy (ln y)^2 / 2 remain
        assert log_cost(p, math.e, UNIT_W) == pytest.approx(2.0, abs=1e-14)

    def test_rejects_nonpositive_point(self):
        p = expand_params(default_free_params(0.001))
        with pytest.raises(ValueError):
            log_cost(p, 0.0, UNIT_W)
        with pytest.raises(ValueError):
            log_cost(p, 1.0, np.array([1.0, -1.0, 1.0]))


class TestShares:
    def test_unit_point_shares_are_b(self):
        p = expand_params(default_free_params(0.001))
        np.testing.assert_array_equal(shares(p, 1.0, UNIT_W), p.b)

    def test_shares_sum_to_one(self):
        p = expand_params(FreeParams(a0=0.5, ay=1.2, ayy=0.1, ay1=0.02,
                                     ay2=-0.05, b1=0.4, b2=0.35, b11=0.15,
                                     b12=-0.02, b22=0.1))
        r = shares(p, 3.0, np.array([0.5, 1.5, 2.5]))
        assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_log_derivative(self):
        p = expand_params(default_free_params(0.001))
        y, w = 2.0, np.array([1.2, 0.8, 1.5])
        r = shares(p, y, w)
        h = 1e-6
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[k] *= math.exp(h)
            wm[k] *= math.exp(-h)
            numeric = (log_cost(p, y, wp) - log_cost(p, y, wm)) / (2 * h)
            assert r[k] == pytest.approx(numeric, abs=1e-6)


# ---------------------------------------------------------------------------
# Hessian


class TestHessian:
    def test_boundary_params_give_bitwise_zero(self):
        h = hessian(boundary_params(), 1.0, UNIT_W)
        assert np.all(h.matrix == 0.0)

    def test_expanded_boundary_params_round_off(self):
        # b3 = 1 - 1/3 - 1/3 lands one ulp above fl(1/3), so the expanded
        # route cannot cancel exactly; the residual stays below 3e-16.
        p = expand_params(default_free_params(0.0))
        h = hessian(p, 1.0, UNIT_W)
        resid = float(np.max(np.abs(h.matrix)))
        assert 0.0 < resid <= 3e-16

    def test_slack_shifts_diagonal(self):
        # slack delta comes off b11 and b22 only; homogeneity then puts
        # 2*delta of curvature on the third input's diagonal entry
        p = expand_params(default_free_params(0.001))
        h = hessian(p, 1.0, UNIT_W)
        assert h.matrix[0, 0] == pytest.approx(-math.e * 0.001, rel=1e-10)
        assert h.matrix[1, 1] == pytest.approx(-math.e * 0.001, rel=1e-10)
        assert h.matrix[2, 2] == pytest.approx(-2 * math.e * 0.001, rel=1e-10)

    def test_euler_identity(self):
        p = expand_params(FreeParams(a0=0.3, ay=0.9, ayy=0.05, ay1=0.01,
                                     ay2=0.02, b1=0.45, b2=0.25, b11=0.12,
                                     b12=-0.03, b22=0.08))
        for w in (UNIT_W, np.array([1.4, 0.6, 2.2])):
            h = hessian(p, 1.7, w)
            scale = max(1.0, float(np.max(np.abs(h.matrix))))
            assert np.max(np.abs(h.matrix @ w)) < 1e-10 * scale

    def test_matches_finite_difference_oracle(self):
        p = expand_params(default_free_params(0.001))
        for y, w in ((1.0, UNIT_W), (2.5, np.array([0.7, 1.3, 1.9]))):
            got = hessian(p, y, w).matrix
            want = fd_cost_hessian(p, y, np.asarray(w, dtype=float))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-5

    def test_hessian3_validation(self):
        with pytest.raises(ValueError):
            Hessian3(matrix=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Hessian3(matrix=np.array([[0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# concavity checks


class TestIsNsd:
    def test_hand_cases(self):
        assert is_nsd(-np.eye(3))
        assert not is_nsd(np.eye(3))
        assert is_nsd(np.diag([-1.0, -1.0, 0.0]))
        assert is_nsd(np.zeros((3, 3)))
        assert not is_nsd(np.array([[-1.0, 2.0], [2.0, -1.0]]))

    def test_leading_minors_are_not_enough(self):
        # all leading minors vanish, yet the {2} principal minor is
        # positive, so the matrix is not NSD
        trap = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert not is_nsd(trap)

    def test_accepts_hessian3(self):
        h = hessian(expand_params(default_free_params(0.001)), 1.0, UNIT_W)
        assert is_nsd(h)

    def test_convex_slack_detected(self):
        h = hessian(expand_params(default_free_params(-0.01)), 1.0, UNIT_W)
        assert not is_nsd(h)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_nsd(np.zeros((2, 3)))

    def test_matches_eigenvalue_oracle_on_random_matrices(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(400):
            a = rng.normal(size=(3, 3))
            m = (a + a.T) / 2.0
            eigs = np.linalg.eigvalsh(m)
            if np.min(np.abs(eigs)) <= 1e-5:
                continue  # boundary band where the two tolerances differ
            checked += 1
            assert is_nsd(m) == oracle_is_nsd_eig(m)
        assert checked > 300

    def test_false_verdicts_survive_upscaling(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            m = (a + a.T) / 2.0
            if not is_nsd(m):
                found += 1
                for s in (1.0, 2.0, 10.0, 1e4):
                    assert not is_nsd(s * m)
        assert found > 50

    def test_true_verdicts_survive_upscaling(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            m = -(a @ a.T)  # exactly NSD with strictly signed minors a.s.
            for s in (1.0, 3.0, 1e3):
                assert is_nsd(s * m)


class TestVectorizedNsdFlags:
    def test_agrees_with_scalar_path(self):
        rng = np.random.default_rng(31)
        base = default_free_params(0.0).as_vector()
        rows = base + rng.normal(0.0, 0.25, size=(200, 10))
        flags = _nsd_flags_from_free(rows)
        for r, flag in zip(rows, flags):
            p = expand_params(FreeParams.from_vector(r))
            assert bool(flag) == is_nsd(hessian(p, 1.0, UNIT_W))
        # both verdicts must actually occur in this sweep
        assert flags.any() and not flags.all()

    def test_boundary_slack_rows(self):
        rows = np.stack([default_free_params(0.001).as_vector(),
                         default_free_params(-0.01).as_vector()])
        np.testing.assert_array_equal(_nsd_flags_from_free(rows), [True, False])

    def test_nsd_implies_share_variance_bound(self):
        # NSD of the unit-point Hessian forces b11 <= b1 (1 - b1) up to
        # the check's tolerance.
        rng = np.random.default_rng(37)
        base = default_free_params(0.0).as_vector()
        rows = base + rng.normal(0.0, 0.2, size=(500, 10))
        flags = _nsd_flags_from_free(rows)
        b1, b11 = rows[:, 5], rows[:, 7]
        kept = flags & (rows[:, 5] >= 0) & (rows[:, 6] >= 0)
        assert kept.any()
        assert np.all(b11[kept] <= b1[kept] * (1.0 - b1[kept]) + 1e-6)


# ---------------------------------------------------------------------------
# simulation DGP, fitting


class TestTranslogDgp:
    def test_free_defaults_follow_delta(self):
        dgp = TranslogDgp(delta=0.005)
        assert dgp.free == default_free_params(0.005)
        with pytest.raises(TypeError):
            TranslogDgp(delta=0.01, free=default_free_params(0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            TranslogDgp(n=0)
        with pytest.raises(ValueError):
            TranslogDgp(sigma_x=-1.0)
        with pytest.raises(ValueError):
            TranslogDgp(sigma_eps=-0.1)

    @pytest.mark.parametrize("n", [5, 9])
    def test_fewer_observations_than_coefficients_refused(self, n):
        # the design has 10 columns, so every fit of fewer points would fail
        with pytest.raises(ValueError, match="n >= 10"):
            TranslogDgp(n=n)
        assert TranslogDgp(n=10).n == 10


def _first_rows(data, n):
    """The first n observations of a dataset; TranslogDgp refuses n < 10,
    so a smaller dataset is cut from a simulated one."""
    return TranslogData(ln_y=data.ln_y[:n], ln_w=data.ln_w[:n], response=data.response[:n])


class TestSimulateAndFit:
    def test_degenerate_dgp_response_is_intercept(self):
        dgp = TranslogDgp(sigma_x=0.0, sigma_eps=0.0, n=12)
        data = simulate_dataset(dgp, np.random.default_rng(0))
        np.testing.assert_array_equal(data.response, np.ones(12))

    def test_noiseless_recovery(self):
        dgp = TranslogDgp(sigma_eps=0.0, n=60)
        data = simulate_dataset(dgp, np.random.default_rng(1))
        fit = ols_fit(data)
        assert np.max(np.abs(fit.as_vector() - dgp.free.as_vector())) < 1e-8

    def test_regressor_scale(self):
        dgp = TranslogDgp(sigma_x=0.1, n=4000)
        data = simulate_dataset(dgp, np.random.default_rng(2))
        assert 0.09 < np.std(data.ln_w) < 0.11
        assert 0.09 < np.std(data.ln_y) < 0.11

    def test_design_columns(self):
        data = TranslogData(ln_y=np.array([1.0]),
                            ln_w=np.array([[2.0, 3.0, 1.0]]),
                            response=np.zeros(1))
        np.testing.assert_allclose(
            data.design[0],
            [1.0, 1.0, 0.5, 1.0, 2.0, 1.0, 2.0, 0.5, 2.0, 2.0])

    def test_design_built_once_and_read_only(self):
        data = simulate_dataset(TranslogDgp(n=20), np.random.default_rng(0))
        assert data.design is data.design
        assert not data.design.flags.writeable
        rng = np.random.default_rng(0)
        ln_y, ln_w = rng.normal(0.0, 3.6, 20), rng.normal(0.0, 3.6, (20, 3))
        want = TranslogData(ln_y, ln_w, np.zeros(20)).design @ default_free_params(0.001).as_vector()
        np.testing.assert_array_equal(data.response, want + rng.normal(0.0, 0.5, 20))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TranslogData(ln_y=np.zeros(3), ln_w=np.zeros((2, 3)),
                         response=np.zeros(3))

    def test_uniform_weights_reproduce_ols(self):
        dgp = TranslogDgp(n=40)
        data = simulate_dataset(dgp, np.random.default_rng(3))
        a = ols_fit(data).as_vector()
        b = weighted_fit(data, np.full(40, 7.3)).as_vector()
        np.testing.assert_array_equal(a, b)

    def test_duplicated_rows_with_halved_weights(self):
        dgp = TranslogDgp(n=30)
        data = simulate_dataset(dgp, np.random.default_rng(4))
        doubled = TranslogData(ln_y=np.concatenate([data.ln_y, data.ln_y]),
                               ln_w=np.concatenate([data.ln_w, data.ln_w]),
                               response=np.concatenate([data.response,
                                                        data.response]))
        a = ols_fit(data).as_vector()
        b = weighted_fit(doubled, np.full(60, 0.5)).as_vector()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_rank_deficiency_raises(self):
        data = _first_rows(simulate_dataset(TranslogDgp(n=10), np.random.default_rng(5)), 5)
        with pytest.raises(RankDeficientError):
            ols_fit(data)

    def test_weight_validation(self):
        dgp = TranslogDgp(n=20)
        data = simulate_dataset(dgp, np.random.default_rng(6))
        with pytest.raises(ValueError):
            weighted_fit(data, -np.ones(20))
        with pytest.raises(ValueError):
            weighted_fit(data, np.zeros(20))


class TestMonotoneAtUnit:
    def test_cases(self):
        assert monotone_at_unit(default_free_params(0.001))
        assert monotone_at_unit(FreeParams(1, 1, 0, 0, 0, 0.0, 0.5,
                                           0, 0, 0))
        assert not monotone_at_unit(FreeParams(1, 1, 0, 0, 0, -0.01, 0.5,
                                               0, 0, 0))
        assert not monotone_at_unit(FreeParams(1, 1, 0, 0, 0, 0.7, 0.5,
                                               0, 0, 0))


# ---------------------------------------------------------------------------
# posterior and the type I error simulation


class TestPosteriorProbNsd:
    def test_noiseless_concave_sample_gives_one(self):
        # with sigma_eps = 0 every reweighted fit reproduces the exact
        # coefficients, which sit strictly inside the NSD region
        dgp = TranslogDgp(sigma_eps=0.0, n=100)
        data = simulate_dataset(dgp, np.random.default_rng(7))
        out = posterior_prob_nsd(data, draws=100, rng=np.random.default_rng(8))
        assert out.estimate == 1.0

    def test_noiseless_convex_sample_gives_zero(self):
        dgp = TranslogDgp(delta=-0.01, sigma_eps=0.0, n=100)
        data = simulate_dataset(dgp, np.random.default_rng(9))
        out = posterior_prob_nsd(data, draws=100, rng=np.random.default_rng(10))
        assert out.estimate == 0.0

    def test_default_rng_reproducible(self):
        dgp = TranslogDgp(n=60)
        data = simulate_dataset(dgp, np.random.default_rng(11))
        assert posterior_prob_nsd(data, draws=50).estimate == \
            posterior_prob_nsd(data, draws=50).estimate

    def test_draws_validated(self):
        dgp = TranslogDgp(n=60)
        data = simulate_dataset(dgp, np.random.default_rng(12))
        with pytest.raises(ValueError):
            posterior_prob_nsd(data, draws=0)


class TestNormalEquations:
    @pytest.mark.parametrize("gemm_elems", [1, translog._GEMM_ELEMS, 10**9])
    def test_product_table_matches_plain_products(self, monkeypatch, gemm_elems):
        # one row per product, the default blocks, and one product for all
        monkeypatch.setattr(translog, "_GEMM_ELEMS", gemm_elems)
        data = simulate_dataset(TranslogDgp(n=100, sigma_eps=0.3), np.random.default_rng(41))
        x, y = data.design, data.response
        w = np.random.default_rng(42).dirichlet(np.ones(100), size=97)
        xtwx, xtwy = _normal_equations(_product_table(data), w)
        for s in range(w.shape[0]):
            want_xx = x.T @ (w[s][:, None] * x)
            want_xy = x.T @ (w[s] * y)
            # relative to the sum of the terms' magnitudes, which bounds
            # the rounding of any summation order
            assert np.all(np.abs(xtwx[s] - want_xx)
                          <= 1e-13 * (np.abs(x).T @ (w[s][:, None] * np.abs(x))))
            assert np.all(np.abs(xtwy[s] - want_xy) <= 1e-13 * (np.abs(x).T @ (w[s] * np.abs(y))))

    def test_rows_match_weighted_fit(self):
        eps = np.finfo(float).eps
        near_tol = compared = 0
        for seed in range(6):
            data = simulate_dataset(TranslogDgp(n=100, sigma_eps=0.3),
                                    np.random.default_rng(seed))
            rows, redraws = _posterior_free_rows(data, 100, SeedPlan(seed).stream(0))
            assert redraws == 0
            w = dirichlet_flat_sample(100, SeedPlan(seed).stream(0), size=100)
            ref = np.array([weighted_fit(data, ws).as_vector() for ws in w])
            for row, want, ws in zip(rows, ref, w):
                cond = np.linalg.cond(data.design.T @ (ws[:, None] * data.design))
                assert np.linalg.norm(row - want) <= 10 * cond * eps * np.linalg.norm(want)
            # NSD flags agree wherever halving or doubling the tolerance
            # leaves the reference verdict alone
            clear = (_nsd_flags_from_free(ref, NSD_TOL / 2)
                     == _nsd_flags_from_free(ref, 2 * NSD_TOL))
            np.testing.assert_array_equal(_nsd_flags_from_free(rows)[clear],
                                          _nsd_flags_from_free(ref)[clear])
            near_tol += int((~clear).sum())
            compared += int(clear.sum())
        assert compared > 550 and near_tol < 50


def _singular_sampler(monkeypatch, singular):
    """Patches translog's Dirichlet sampler: ``singular(w)`` returns, for
    a (draws, n) weight block, a dict {row: points kept}.  Each such row
    keeps its weights on its first points only, renormalized.  Returns
    the list of block sizes requested."""
    calls = []

    def sampler(n, rng, size=None):
        w = dirichlet_flat_sample(n, rng, size=size)
        calls.append(w.shape[0])
        for row, kept in singular(w).items():
            w[row, kept:] = 0.0
            w[row] /= w[row].sum()
        return w

    monkeypatch.setattr(translog, "dirichlet_flat_sample", sampler)
    return calls


class TestRedraws:
    @pytest.mark.parametrize("kept", [1, 9])
    def test_singular_rows_redrawn_others_kept(self, monkeypatch, kept):
        data = simulate_dataset(TranslogDgp(n=60, sigma_eps=0.3), np.random.default_rng(3))
        clean, _ = _posterior_free_rows(data, 50, SeedPlan(9).stream(0))
        calls = _singular_sampler(monkeypatch, lambda w: {3: kept, 7: kept} if len(w) > 1 else {})
        rows, redraws = _posterior_free_rows(data, 50, SeedPlan(9).stream(0))
        assert redraws == 2 and calls == [50, 1, 1]
        others = np.setdiff1d(np.arange(50), [3, 7])
        np.testing.assert_array_equal(rows[others], clean[others])
        # the redraws come from the same stream, right after the block
        rng = SeedPlan(9).stream(0)
        dirichlet_flat_sample(60, rng, size=50)
        for i in (3, 7):
            want = weighted_fit(data, dirichlet_flat_sample(60, rng, size=1)[0]).as_vector()
            np.testing.assert_allclose(rows[i], want, rtol=1e-9, atol=1e-12)

    def test_always_singular_raises_after_max_redraws(self, monkeypatch):
        data = simulate_dataset(TranslogDgp(n=60, sigma_eps=0.3), np.random.default_rng(4))
        calls = _singular_sampler(monkeypatch, lambda w: {r: 5 for r in range(len(w))})
        with pytest.raises(RankDeficientError):
            posterior_prob_nsd(data, draws=20, rng=SeedPlan(1).stream(0))
        assert calls == [20] + [1] * _MAX_REDRAWS

    @pytest.mark.parametrize("n", [5, 9])
    def test_fewer_observations_than_coefficients_raise(self, n):
        # every X'WX is singular, though rounding can hide it from the solve
        data = _first_rows(simulate_dataset(TranslogDgp(n=10, sigma_eps=0.1),
                                            SeedPlan(1).stream(0)), n)
        with pytest.raises(RankDeficientError):
            posterior_prob_nsd(data, draws=200, rng=SeedPlan(1).stream(1))

    def test_redrawn_reps_counted(self, monkeypatch):
        dgp = TranslogDgp(n=40, sigma_eps=0.4)

        def first_row_if(w):
            return {0: 5} if len(w) > 1 and w[0, 0] > w[0, 1] else {}

        want = 0
        for i in range(12):
            rng = SeedPlan(6).stream(i)
            simulate_dataset(dgp, rng)
            want += bool(first_row_if(dirichlet_flat_sample(40, rng, size=30)))
        assert 0 < want < 12
        clean = type1_error_sim(dgp, alpha=0.1, reps=12, draws=30, master_seed=6)
        assert clean.redrawn_reps == 0
        _singular_sampler(monkeypatch, first_row_if)
        out = type1_error_sim(dgp, alpha=0.1, reps=12, draws=30, master_seed=6)
        assert out.redrawn_reps == want


class TestType1ErrorSim:
    def test_noiseless_dgp_never_rejects(self):
        dgp = TranslogDgp(sigma_eps=0.0, n=60)
        out = type1_error_sim(dgp, alpha=0.05, reps=20, draws=40, master_seed=1)
        assert isinstance(out, Type1Result)
        assert out.rejection.estimate == 0.0
        assert out.monotonicity_rate == 1.0
        assert out.redrawn_reps == 0

    def test_plan_accepted_as_seed(self):
        dgp = TranslogDgp(sigma_eps=0.0, n=60)
        out = type1_error_sim(dgp, alpha=0.05, reps=5, draws=20, master_seed=77)
        via_plan = type1_error_sim(dgp, alpha=0.05, reps=5, draws=20,
                                   master_seed=SeedPlan(77))
        assert via_plan.rejection.estimate == out.rejection.estimate

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            type1_error_sim(TranslogDgp(), alpha=0.05, reps=0)

    def test_replication_i_reads_stream_i(self):
        # both indicators of replication i come from SeedPlan.stream(i) alone
        dgp = TranslogDgp(n=40, sigma_eps=0.4)
        plan = SeedPlan(5)
        reject = mono = 0
        for i in range(6):
            rng = plan.stream(i)
            data = simulate_dataset(dgp, rng)
            reject += posterior_prob_nsd(data, draws=30, rng=rng).estimate <= 0.1
            mono += monotone_at_unit(ols_fit(data))
        out = type1_error_sim(dgp, alpha=0.1, reps=6, draws=30, master_seed=5)
        assert out.rejection.estimate == reject / 6
        assert out.monotonicity_rate == mono / 6
