"""Distribution primitives against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (oracle_beta_cdf_int, oracle_bivariate_normal_cdf_quad,
                      oracle_normal_cdf, oracle_normal_quantile)
from ineqtest.distributions import (CovarianceMatrix, beta_cdf, beta_quantile,
                                    bivariate_normal_cdf,
                                    dirichlet_flat_sample, mvn_sample,
                                    std_normal_cdf,
                                    std_normal_quantile)


class TestNormal:
    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, -0.25, 0.0, 0.5, 1.96, 4.0, 7.5])
    def test_cdf_matches_erfc_oracle(self, x):
        assert std_normal_cdf(x) == pytest.approx(oracle_normal_cdf(x), abs=1e-14)

    def test_cdf_at_zero_is_exactly_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_vectorized(self):
        xs = np.linspace(-5, 5, 11)
        vals = std_normal_cdf(xs)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("p", [1e-10, 0.001, 0.05, 0.5, 0.95, 0.999, 1 - 1e-10])
    def test_quantile_matches_bisection_oracle(self, p):
        assert std_normal_quantile(p) == pytest.approx(oracle_normal_quantile(p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_quantile_rejects_outside_open_interval(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    @pytest.mark.parametrize("p", [np.nan, [0.5, np.nan]])
    def test_quantile_rejects_nan(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    # Range kept to [-5, 5]: beyond that cdf(x) is within ~1e-7 of 1 and one
    # ulp of p maps to more than 1e-9 in x, so the round trip cannot hold.
    @given(st.floats(min_value=-5, max_value=5))
    def test_cdf_quantile_round_trip(self, x):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)


class TestBeta:
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 10), (5, 10), (10, 10), (3, 50), (47, 50)])
    @pytest.mark.parametrize("x", [0.01, 0.3, 0.5, 0.77, 0.99])
    def test_matches_binomial_sum_oracle(self, k, n, x):
        got = beta_cdf(x, k, n + 1 - k)
        assert got == pytest.approx(oracle_beta_cdf_int(x, k, n), abs=1e-12)

    def test_endpoints(self):
        assert beta_cdf(0.0, 2.0, 3.0) == 0.0
        assert beta_cdf(1.0, 2.0, 3.0) == 1.0

    def test_vectorized_over_x_and_params(self):
        x = np.array([0.2, 0.4, 0.6])
        a = np.array([1.0, 2.0, 3.0])
        vals = beta_cdf(x, a, 4.0 - a)
        assert vals.shape == (3,)
        for i in range(3):
            assert vals[i] == beta_cdf(x[i], a[i], 4.0 - a[i])

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_x_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            beta_cdf(bad, 2.0, 2.0)

    @pytest.mark.parametrize("a,b", [(1.0, 300.0), (30.0, 271.0), (300.0, 1.0), (2.5, 4.0)])
    @pytest.mark.parametrize("p", [0.0005, 0.3, 0.9995])
    def test_quantile_inverts_cdf(self, a, b, p):
        assert beta_cdf(beta_quantile(p, a, b), a, b) == pytest.approx(p, rel=1e-10)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            beta_quantile(1.5, 2.0, 2.0)
        with pytest.raises(ValueError):
            beta_quantile(0.5, 0.0, 2.0)

    @pytest.mark.parametrize("args", [(np.nan, 2.0, 3.0), ([0.5, np.nan], 2.0, 3.0),
                                      (0.5, np.nan, 3.0), (0.5, 2.0, np.nan)])
    def test_cdf_rejects_nan(self, args):
        with pytest.raises(ValueError):
            beta_cdf(*args)

    @pytest.mark.parametrize("args", [(np.nan, 2.0, 3.0), (0.5, np.nan, 3.0),
                                      (0.5, 2.0, [1.0, np.nan])])
    def test_quantile_rejects_nan(self, args):
        with pytest.raises(ValueError):
            beta_quantile(*args)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_monotone_in_x(self, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert beta_cdf(lo, 3.0, 5.0) <= beta_cdf(hi, 3.0, 5.0) + 1e-15


class TestDirichlet:
    def test_rows_are_probability_vectors(self, rng):
        w = dirichlet_flat_sample(7, rng, size=50)
        assert w.shape == (50, 7)
        assert np.all(w > 0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_single_draw_shape(self, rng):
        w = dirichlet_flat_sample(4, rng)
        assert w.shape == (4,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_flat_moments(self, rng):
        # flat Dirichlet over k cells: mean 1/k, var (k-1)/(k^2 (k+1))
        k = 5
        w = dirichlet_flat_sample(k, rng, size=200_000)
        assert np.max(np.abs(w.mean(axis=0) - 1 / k)) < 0.002
        var = (k - 1) / (k * k * (k + 1.0))
        assert np.max(np.abs(w.var(axis=0) - var)) < 0.001

    def test_reproducible_for_equal_streams(self):
        a = dirichlet_flat_sample(6, np.random.default_rng(9), size=3)
        b = dirichlet_flat_sample(6, np.random.default_rng(9), size=3)
        assert np.array_equal(a, b)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            dirichlet_flat_sample(0, rng)

    def test_stream_order_and_normalization(self):
        # all the exponentials row-major, then the gammas; rest = 0 is the
        # plain normalized exponentials, float for float
        e = np.random.default_rng(14).standard_exponential((3, 6))
        np.testing.assert_array_equal(dirichlet_flat_sample(6, np.random.default_rng(14), size=3),
                                      e / e.sum(axis=1, keepdims=True))
        rng = np.random.default_rng(15)
        e, tail = rng.standard_exponential((3, 6)), rng.standard_gamma(20, (3, 1))
        scale = 1.0 / (e.sum(axis=1, keepdims=True) + tail)
        np.testing.assert_array_equal(
            dirichlet_flat_sample(6, np.random.default_rng(15), size=3, rest=20),
            np.concatenate([e * scale, tail * scale], axis=1))
        assert dirichlet_flat_sample(6, np.random.default_rng(15), rest=20).shape == (7,)

    def test_rest_cell_moments(self, rng):
        # Dirichlet(1, ..., 1, rest): the rows sum to 1, each of the n
        # cells is one of n + rest flat cells, Beta(1, n + rest - 1), and
        # the last is Beta(rest, n)
        n, rest, draws = 5, 40, 200_000
        w = dirichlet_flat_sample(n, rng, size=draws, rest=rest)
        assert w.shape == (draws, n + 1)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-14)
        k = n + rest
        var = (k - 1) / (k * k * (k + 1.0))
        assert np.max(np.abs(w[:, :n].mean(axis=0) - 1 / k)) < 5 * np.sqrt(var / draws)
        np.testing.assert_allclose(w[:, :n].var(axis=0), var, rtol=0.03)
        assert abs(w[:, n].mean() - rest / k) < 5 * np.sqrt(rest * n / (k * k * (k + 1.0)) / draws)


class TestBivariateNormalCdf:
    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.7, 0.99])
    @pytest.mark.parametrize("h,k", [(0.0, 1.3), (0.0, -1.3), (-0.7, 0.0), (0.5, -0.2),
                                     (-2.0, -3.0), (2.5, 1.0)])
    def test_matches_quadrature_oracle(self, h, k, rho):
        assert float(bivariate_normal_cdf(h, k, rho)) == pytest.approx(
            oracle_bivariate_normal_cdf_quad(h, k, rho), abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.7, 0.99])
    def test_origin_limit(self, rho):
        want = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert float(bivariate_normal_cdf(0.0, 0.0, rho)) == want
        assert float(bivariate_normal_cdf(-0.0, 0.0, rho)) == want

    def test_independent_is_product(self):
        h = np.array([-1.0, 0.0, 0.3, 2.0])
        k = np.array([0.5, -0.4, 0.0, 1.0])
        np.testing.assert_allclose(bivariate_normal_cdf(h, k, 0.0),
                                   std_normal_cdf(h) * std_normal_cdf(k), rtol=0, atol=1e-15)

    def test_continuous_across_zero_coordinates(self):
        for rho in (-0.8, 0.6):
            for k in (-1.1, 0.9):
                at_zero = float(bivariate_normal_cdf(0.0, k, rho))
                for h in (-1e-9, 1e-9):
                    assert float(bivariate_normal_cdf(h, k, rho)) == pytest.approx(at_zero,
                                                                                  abs=1e-9)
                    assert float(bivariate_normal_cdf(k, h, rho)) == pytest.approx(at_zero,
                                                                                  abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5, 0.9])
    @pytest.mark.parametrize("h,k", [(np.inf, 0.3), (-1.2, np.inf), (np.inf, np.inf),
                                     (-np.inf, 0.3), (0.8, -np.inf), (-np.inf, np.inf),
                                     (np.inf, -np.inf), (-np.inf, -np.inf)])
    def test_infinite_edges_match_quadrature_oracle(self, h, k, rho):
        got = float(bivariate_normal_cdf(h, k, rho))
        assert got == pytest.approx(oracle_bivariate_normal_cdf_quad(h, k, rho), abs=1e-12)

    def test_infinite_edges_leave_finite_entries_alone(self):
        # a block mixing infinite and finite edges reads each finite pair
        # exactly as a call on that pair alone
        h = np.array([np.inf, 0.0, -0.4, -np.inf, 1.1])
        k = np.array([0.3, -0.7, 0.0, 0.2, 0.9])
        block = bivariate_normal_cdf(h, k, -0.5)
        assert block.tolist() == [float(bivariate_normal_cdf(a, b, -0.5))
                                  for a, b in zip(h, k)]
        assert block[0] == std_normal_cdf(0.3) and block[3] == 0.0

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rejects_unit_correlation(self, rho):
        with pytest.raises(ValueError):
            bivariate_normal_cdf(0.1, 0.2, rho)


class TestCovariance:
    def test_identity(self):
        cov = CovarianceMatrix.identity(3)
        assert cov.dim == 3
        assert np.array_equal(cov.entries, np.eye(3))

    def test_from_correlation(self):
        cov = CovarianceMatrix.from_correlation(0.5)
        assert cov.entries[0, 1] == 0.5
        assert cov.quad_form([1.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(entries=np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_perfect_negative_correlation_is_allowed(self):
        cov = CovarianceMatrix.from_correlation(-1.0)
        assert cov.quad_form([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_entries_write_protected(self):
        cov = CovarianceMatrix.identity(2)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 5.0


class TestMvnSample:
    def test_moments(self, rng):
        cov = CovarianceMatrix.from_correlation(0.6)
        draws = mvn_sample(np.array([1.0, -2.0]), cov, rng, size=200_000)
        assert np.max(np.abs(draws.mean(axis=0) - [1.0, -2.0])) < 0.01
        corr = np.corrcoef(draws.T)[0, 1]
        assert corr == pytest.approx(0.6, abs=0.01)

    def test_zero_covariance_returns_mean_exactly(self, rng):
        cov = CovarianceMatrix(entries=np.zeros((2, 2)))
        draws = mvn_sample(np.array([0.25, -1.5]), cov, rng, size=10)
        assert np.all(draws == np.array([0.25, -1.5]))

    def test_degenerate_anticorrelation(self, rng):
        # Corr = -1: coordinate sums collapse onto the mean's sum
        cov = CovarianceMatrix.from_correlation(-1.0)
        draws = mvn_sample(np.array([1.0, 2.0]), cov, rng, size=1000)
        assert np.max(np.abs(draws.sum(axis=1) - 3.0)) < 1e-12

    def test_single_draw_shape(self, rng):
        cov = CovarianceMatrix.identity(4)
        assert mvn_sample(np.zeros(4), cov, rng).shape == (4,)
