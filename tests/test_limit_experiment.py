"""Tests for the single-draw Gaussian experiment and its posterior tests.

Closed-form posterior and rejection formulas are checked against
independent high-precision oracles (mpmath quadrature and bisection in
conftest); Monte Carlo paths are checked against the closed forms.
"""

import numpy as np
import pytest

from conftest import (
    oracle_bivariate_normal_cdf_quad,
    oracle_interval_rp,
    oracle_normal_cdf,
    oracle_signagree_posterior_quad,
    three_se,
)
from ineqtest.distributions import CovarianceMatrix, std_normal_cdf, std_normal_quantile
from ineqtest.limit_experiment import (
    ACCEPT,
    REJECT,
    Box,
    Complement,
    Experiment,
    HalfSpace,
    IntervalUnion,
    LowerHalfLine,
    Predicate,
    SignAgreement,
    SizeResult,
    bayes_test,
    halfspace_rejection_prob_exact,
    kline_orthant_posterior,
    posterior_prob_region,
    region_membership,
    rejection_probability,
    size_over_boundary,
)
from ineqtest.mc_harness import SeedPlan


# ---------------------------------------------------------------------------
# regions


class TestHalfSpace:
    def test_contains_basic(self):
        hs = HalfSpace(c=np.array([1.0, -1.0]), c0=0.5)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.5], [0.25, -0.25]])
        np.testing.assert_array_equal(hs.contains(pts), [True, False, True, True])

    def test_boundary_is_inside(self):
        hs = HalfSpace(c=np.array([2.0]), c0=1.0)
        assert region_membership(hs, [0.5])

    def test_dim(self):
        assert HalfSpace(c=np.array([1.0, 0.0, 0.0]), c0=0.0).dim == 3

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace(c=np.zeros(2), c0=0.0)

    def test_direction_write_protected(self):
        hs = HalfSpace(c=np.array([1.0]), c0=0.0)
        with pytest.raises(ValueError):
            hs.c[0] = 2.0

    def test_wrong_width_refused(self):
        hs = HalfSpace(c=np.array([1.0, -1.0]), c0=0.5)
        for points in ([1.0], [[1.0]], [[1.0, 2.0, 3.0]], np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match="dimension 2"):
                hs.contains(points)

    def test_lower_half_line_is_halfspace(self):
        hl = LowerHalfLine(3.0)
        assert isinstance(hl, HalfSpace)
        assert hl.dim == 1
        assert hl.c0 == 3.0
        np.testing.assert_array_equal(hl.contains([[2.9], [3.0], [3.1]]),
                                      [True, True, False])


class TestBox:
    def test_orthant_contains(self):
        box = Box.orthant(3)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-0.1, 5.0, 5.0]])
        np.testing.assert_array_equal(box.contains(pts), [True, True, False])

    def test_finite_box(self):
        box = Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
        assert region_membership(box, [0.0, 1.0])
        assert region_membership(box, [1.0, 2.0])
        assert not region_membership(box, [1.0001, 1.0])

    def test_wrong_width_refused(self):
        # a width-1 point used to broadcast against both bounds
        with pytest.raises(ValueError, match="dimension 2"):
            region_membership(Box.orthant(2), [1])
        with pytest.raises(ValueError, match="dimension 2"):
            Box.orthant(2).contains([[1.0]])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box(lower=np.array([0.0]), upper=np.array([-1.0]))
        with pytest.raises(ValueError):
            Box(lower=np.zeros(2), upper=np.zeros(3))

    def test_dim(self):
        assert Box.orthant(7).dim == 7


class TestIntervalUnion:
    def test_contains(self):
        iu = IntervalUnion(intervals=((-1.0, 0.0), (2.0, 3.0)))
        np.testing.assert_array_equal(
            iu.contains([-1.5, -1.0, -0.5, 0.0, 1.0, 2.5, 3.0, 3.5]),
            [False, True, True, True, False, True, True, False],
        )

    def test_degenerate_interval_allowed(self):
        iu = IntervalUnion(intervals=((0.0, 0.0),))
        np.testing.assert_array_equal(iu.contains([0.0, 0.1]), [True, False])

    def test_takes_a_column_and_refuses_wider_points(self):
        iu = IntervalUnion(intervals=((0.0, 1.0),))
        np.testing.assert_array_equal(iu.contains([[0.5], [2.0]]), [True, False])
        assert region_membership(iu, [0.5])
        for points in ([[0.5, 2.0]], np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match="dimension 1"):
                iu.contains(points)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion(intervals=((1.0, 0.0),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion(intervals=((0.0, 2.0), (1.0, 3.0)))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion(intervals=((2.0, 3.0), (0.0, 1.0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion(intervals=())

    def test_dim_is_one(self):
        assert IntervalUnion(intervals=((0.0, 1.0),)).dim == 1


class TestSignAgreement:
    def test_contains_quadrants(self):
        sa = SignAgreement()
        pts = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0],
                        [0.0, 5.0], [0.0, -5.0]])
        np.testing.assert_array_equal(
            sa.contains(pts), [True, True, False, False, True, True])

    def test_dim(self):
        assert SignAgreement().dim == 2

    def test_wrong_width_refused(self):
        for points in ([1.0], [[1.0, 1.0, -1.0]]):
            with pytest.raises(ValueError, match="dimension 2"):
                SignAgreement().contains(points)


class TestComplementAndPredicate:
    def test_complement_flips(self):
        comp = Complement(inner=Box.orthant(2))
        assert not region_membership(comp, [1.0, 1.0])
        assert region_membership(comp, [-1.0, 1.0])
        assert comp.dim == 2

    def test_complement_refuses_wrong_width(self):
        with pytest.raises(ValueError, match="dimension 2"):
            Complement(inner=Box.orthant(2)).contains([[1.0]])
        with pytest.raises(ValueError, match="dimension 1"):
            region_membership(Complement(inner=IntervalUnion(intervals=((0.0, 1.0),))),
                              [0.5, 2.0])

    def test_predicate_refuses_wrong_width(self):
        for vectorized in (False, True):
            pred = Predicate(fn=lambda p: np.ones(len(p), dtype=bool), dim=2,
                             vectorized=vectorized)
            with pytest.raises(ValueError, match="dimension 2"):
                pred.contains([[0.0, 0.0, 0.0]])

    def test_predicate_scalar_fn(self):
        pred = Predicate(fn=lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0, dim=2)
        np.testing.assert_array_equal(
            pred.contains([[0.0, 0.0], [1.0, 1.0]]), [True, False])

    def test_predicate_vectorized_fn(self):
        pred = Predicate(fn=lambda pts: np.sum(pts ** 2, axis=1) <= 1.0,
                         dim=2, vectorized=True)
        np.testing.assert_array_equal(
            pred.contains([[0.6, 0.0], [0.8, 0.8]]), [True, False])


# ---------------------------------------------------------------------------
# experiment and posteriors


class TestExperiment:
    def test_scalar_dim(self):
        assert Experiment.scalar().dim == 1

    def test_identity_dim(self):
        assert Experiment.identity(4).dim == 4

    def test_sample_posterior_symmetry(self):
        # X - theta and theta - X share the same distribution, so data and
        # posterior draws both come from sample; check two streams' moments.
        exp = Experiment.identity(2)
        rng = np.random.default_rng(11)
        theta = np.array([0.7, -0.3])
        fwd = exp.sample(theta, rng, size=60_000) - theta
        post = exp.sample(theta, rng, size=60_000) - theta
        for block in (fwd, post):
            assert np.abs(block.mean(axis=0)).max() < 0.02
            assert np.abs(block.std(axis=0) - 1.0).max() < 0.02


class TestHalfspacePosterior:
    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_scalar_matches_oracle(self, x):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        assert posterior_prob_region(hl, [x], exp).estimate == pytest.approx(
            oracle_normal_cdf(-x), abs=1e-14)

    def test_general_direction_matches_oracle(self):
        hs = HalfSpace(c=np.array([1.0, 2.0]), c0=0.3)
        cov = CovarianceMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        exp = Experiment(cov=cov)
        x = np.array([0.4, -0.1])
        sd = np.sqrt(2.0 + 2 * 2.0 * 0.5 + 4 * 1.0)
        expected = oracle_normal_cdf((0.3 - (0.4 + 2 * -0.1)) / sd)
        assert posterior_prob_region(hs, x, exp).estimate == pytest.approx(expected, abs=1e-14)

    def test_degenerate_direction_raises(self):
        cov = CovarianceMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        hs = HalfSpace(c=np.array([1.0, 1.0]), c0=0.0)
        with pytest.raises(ValueError):
            posterior_prob_region(hs, np.zeros(2), Experiment(cov=cov))

    def test_at_boundary_point_is_half(self):
        assert posterior_prob_region(LowerHalfLine(0.0), [0.0],
                                     Experiment.scalar()).estimate == 0.5


class TestRegionPosterior:
    def test_interval_union_closed_form_vs_oracle(self):
        iu = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        for x in (-1.5, -0.3, 0.0, 0.8, 2.2):
            got = posterior_prob_region(iu, [x], exp)
            expected = oracle_normal_cdf(0.0 - x) - oracle_normal_cdf(-1.0 - x)
            assert got.mc_se == 0.0
            assert got.estimate == pytest.approx(expected, abs=1e-14)

    def test_two_piece_interval_union(self):
        iu = IntervalUnion(intervals=((-2.0, -1.0), (1.0, 2.0)))
        exp = Experiment.scalar()
        got = posterior_prob_region(iu, [0.0], exp).estimate
        expected = 2 * (oracle_normal_cdf(2.0) - oracle_normal_cdf(1.0))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_diagonal_box_product_form(self):
        box = Box(lower=np.array([0.0, -1.0]), upper=np.array([np.inf, 1.0]))
        cov = CovarianceMatrix(np.array([[4.0, 0.0], [0.0, 1.0]]))
        exp = Experiment(cov=cov)
        x = np.array([1.0, 0.5])
        got = posterior_prob_region(box, x, exp)
        expected = (1.0 - oracle_normal_cdf((0.0 - 1.0) / 2.0)) * (
            oracle_normal_cdf(1.0 - 0.5) - oracle_normal_cdf(-1.0 - 0.5))
        assert got.mc_se == 0.0
        assert got.estimate == pytest.approx(expected, abs=1e-14)

    def test_correlated_box_needs_mc_and_matches(self, rng):
        # a correlated box has a closed form only in d = 2
        cov = CovarianceMatrix.from_correlation(0.5, d=3)
        exp = Experiment(cov=cov)
        box = Box(lower=np.zeros(3), upper=np.full(3, np.inf))
        from scipy.stats import multivariate_normal

        x = np.array([0.3, -0.2, 0.1])
        # Upper-orthant mass of N(x, cov) equals the lower-orthant mass of
        # N(-x, cov) by central symmetry of the density.
        oracle = float(multivariate_normal(mean=-x, cov=cov.entries).cdf(np.zeros(3)))
        got = posterior_prob_region(box, x, exp, draws=40_000, rng=rng)
        assert got.mc_se > 0.0
        assert abs(got.estimate - oracle) < 3 * got.mc_se

    def test_mc_branch_requires_rng(self):
        box = Box.orthant(3)
        exp = Experiment(cov=CovarianceMatrix.from_correlation(0.3, d=3))
        with pytest.raises(ValueError):
            posterior_prob_region(box, np.zeros(3), exp)

    def test_mc_branch_refuses_zero_draws(self):
        # a zero count would read as a closed-form summary
        box = Box.orthant(3)
        exp = Experiment(cov=CovarianceMatrix.from_correlation(0.3, d=3))
        for region in (box, Complement(inner=box)):
            with pytest.raises(ValueError, match="draws"):
                posterior_prob_region(region, np.zeros(3), exp, draws=0,
                                      rng=np.random.default_rng(0))

    def test_complement_of_closed_form_is_exact(self):
        iu = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        inner = posterior_prob_region(iu, [0.4], exp)
        outer = posterior_prob_region(Complement(inner=iu), [0.4], exp)
        assert outer.estimate == 1.0 - inner.estimate
        assert outer.mc_se == 0.0
        assert inner.exact and outer.exact
        assert outer.reps == 0

    def test_complement_mc_duality_is_exact(self):
        # The complement is evaluated through its inner region, so the two
        # estimates on identically seeded draws sum to exactly one.
        sa = SignAgreement()
        exp = Experiment.identity(2)
        x = np.array([0.2, 0.1])
        a = posterior_prob_region(sa, x, exp, draws=5000,
                                  rng=np.random.default_rng(5))
        b = posterior_prob_region(Complement(inner=sa), x, exp, draws=5000,
                                  rng=np.random.default_rng(5))
        assert a.estimate + b.estimate == 1.0

    def test_signagree_posterior_vs_oracle(self, rng):
        from conftest import oracle_signagree_posterior

        cov = CovarianceMatrix.from_correlation(-0.5)
        exp = Experiment(cov=cov)
        x = np.array([0.4, 0.3])
        got = posterior_prob_region(SignAgreement(), x, exp, draws=80_000, rng=rng)
        want = oracle_signagree_posterior(x, cov.entries)
        assert got.mc_se == 0.0
        assert got.estimate == pytest.approx(want, abs=1e-12)

    def test_complement_mc_duality_with_correlated_box(self):
        # the Monte Carlo branch: a complement is counted on its inner
        # region's draws, so the two estimates sum to exactly one
        box = Box(lower=np.zeros(3), upper=np.full(3, np.inf))
        exp = Experiment(cov=CovarianceMatrix.from_correlation(0.4, d=3))
        x = np.array([0.2, 0.1, -0.3])
        a = posterior_prob_region(box, x, exp, draws=5000, rng=np.random.default_rng(5))
        b = posterior_prob_region(Complement(inner=box), x, exp, draws=5000,
                                  rng=np.random.default_rng(5))
        assert a.mc_se > 0.0
        assert not b.exact and b.reps == a.reps == 5000
        assert a.estimate + b.estimate == 1.0


def _cov2(sd1, sd2, rho):
    return CovarianceMatrix(np.array([[sd1 * sd1, rho * sd1 * sd2],
                                      [rho * sd1 * sd2, sd2 * sd2]]))


def _box_oracle(lower, upper, x, cov):
    """Rectangle mass of N(x, cov) in 2-D by inclusion-exclusion of
    quadrature bivariate normal CDFs at the standardized edges."""
    sd = np.sqrt(np.diag(cov.entries))
    rho = cov.entries[0, 1] / (sd[0] * sd[1])
    lo = (np.asarray(lower) - x) / sd
    hi = (np.asarray(upper) - x) / sd
    return (oracle_bivariate_normal_cdf_quad(hi[0], hi[1], rho)
            - oracle_bivariate_normal_cdf_quad(lo[0], hi[1], rho)
            - oracle_bivariate_normal_cdf_quad(hi[0], lo[1], rho)
            + oracle_bivariate_normal_cdf_quad(lo[0], lo[1], rho))


class TestCorrelatedBoxPosterior:
    """The exact 2-D box posterior under correlation against quadrature."""

    BOXES = [
        ((0.0, 0.0), (np.inf, np.inf)),
        ((-1.0, 0.2), (0.5, 1.5)),
        ((-np.inf, -0.5), (0.3, np.inf)),
        ((-np.inf, -np.inf), (0.4, -0.1)),
    ]

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5, 0.9])
    @pytest.mark.parametrize("box", range(len(BOXES)))
    @pytest.mark.parametrize("x", [(0.3, -0.2), (-1.1, 0.8), (0.0, 0.0)])
    def test_matches_quadrature_oracle(self, rho, box, x):
        lower, upper = self.BOXES[box]
        cov = _cov2(1.5, 0.6, rho)
        got = posterior_prob_region(Box(lower=lower, upper=upper), x, Experiment(cov=cov))
        assert got.exact and got.mc_se == 0.0 and got.reps == 0
        assert got.estimate == pytest.approx(_box_oracle(lower, upper, np.array(x), cov),
                                             abs=1e-12)

    def test_agrees_with_posterior_draws(self, rng):
        box = Box(lower=np.array([-0.5, 0.0]), upper=np.array([1.0, np.inf]))
        exp = Experiment(cov=_cov2(1.0, 2.0, 0.6))
        x = np.array([0.2, 0.4])
        exact = posterior_prob_region(box, x, exp).estimate
        mc = posterior_prob_region(Predicate(fn=box.contains, dim=2, vectorized=True), x,
                                   exp, draws=40_000, rng=rng)
        assert abs(mc.estimate - exact) < 3 * mc.mc_se

    def test_complement_is_exact(self):
        exp = Experiment(cov=CovarianceMatrix.from_correlation(0.5))
        x = np.array([0.2, 0.1])
        inner = posterior_prob_region(Box.orthant(2), x, exp)
        outer = posterior_prob_region(Complement(inner=Box.orthant(2)), x, exp)
        assert inner.exact and outer.exact
        assert outer.estimate == 1.0 - inner.estimate

    def test_perfect_correlation_stays_monte_carlo(self):
        exp = Experiment(cov=CovarianceMatrix.from_correlation(-1.0))
        with pytest.raises(ValueError, match="rng"):
            posterior_prob_region(Box.orthant(2), np.zeros(2), exp)
        got = posterior_prob_region(Box.orthant(2), np.zeros(2), exp, draws=1000,
                                    rng=np.random.default_rng(2))
        assert not got.exact and got.reps == 1000


class TestSignAgreementPosterior:
    """The exact sign-agreement posterior against mpmath quadrature."""

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.7, 0.99])
    @pytest.mark.parametrize("x", [(0.4, -0.3), (-1.2, -0.7), (0.0, 0.8),
                                   (-0.5, 0.0), (0.0, 0.0)])
    def test_matches_quadrature_oracle(self, rho, x):
        cov = _cov2(1.5, 0.6, rho)
        got = posterior_prob_region(SignAgreement(), x, Experiment(cov=cov))
        assert got.mc_se == 0.0
        assert got.estimate == pytest.approx(
            oracle_signagree_posterior_quad(x, cov.entries), abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.99, 0.7])
    def test_complement_matches_quadrature_oracle(self, rho):
        cov = _cov2(0.8, 2.0, rho)
        x = (0.3, 0.0)
        got = posterior_prob_region(Complement(inner=SignAgreement()), x,
                                    Experiment(cov=cov)).estimate
        assert got == pytest.approx(1.0 - oracle_signagree_posterior_quad(x, cov.entries),
                                    abs=1e-12)

    @pytest.mark.parametrize("cov", [
        [[1.0, -1.0], [-1.0, 1.0]],    # rho = -1
        [[4.0, 2.0], [2.0, 1.0]],      # rho = +1, unequal variances
        [[1.0, 0.0], [0.0, 0.0]],      # a degenerate coordinate
    ])
    def test_singular_covariance_takes_monte_carlo(self, cov):
        exp = Experiment(cov=CovarianceMatrix(np.array(cov)))
        x = np.array([0.3, -0.2])
        with pytest.raises(ValueError, match="rng"):
            posterior_prob_region(SignAgreement(), x, exp)
        got = posterior_prob_region(SignAgreement(), x, exp, draws=400,
                                    rng=np.random.default_rng(1))
        assert got.mc_se > 0.0
        hits = rejection_probability(SignAgreement(), [0.0, 0.0], exp, alpha=0.05,
                                     reps=30, draws=50, master_seed=3)
        assert 0.0 <= hits.estimate <= 1.0


class TestVectorizedPosterior:
    """Every row of a block evaluation equals the one-observation call bit
    for bit, so a decision never depends on the block it falls in."""

    CASES = [
        (LowerHalfLine(0.3), Experiment.scalar(2.0)),
        (HalfSpace(c=np.array([1.0, -2.0]), c0=0.5),
         Experiment(cov=CovarianceMatrix(np.array([[1.5, 0.2], [0.2, 0.8]])))),
        (IntervalUnion(intervals=((-2.0, -1.0), (0.0, 0.5))), Experiment.scalar(0.7)),
        (Box(lower=np.array([0.0, -1.0, -np.inf]), upper=np.array([np.inf, 1.0, 2.0])),
         Experiment(cov=CovarianceMatrix(np.diag([4.0, 1.0, 0.25])))),
        (Complement(inner=Box.orthant(2)), Experiment.identity(2)),
        (SignAgreement(), Experiment(cov=_cov2(1.5, 0.6, -0.99))),
        (Complement(inner=SignAgreement()), Experiment(cov=_cov2(1.0, 3.0, 0.4))),
        (Box(lower=np.array([-1.0, 0.0]), upper=np.array([0.5, np.inf])),
         Experiment(cov=_cov2(1.2, 0.7, -0.6))),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_rows_equal_scalar_calls(self, case):
        from ineqtest.limit_experiment import _closed_form_posterior

        region, exp = self.CASES[case]
        x = np.random.default_rng(case).normal(0.0, 1.5, size=(64, exp.dim))
        x[:8, 0] = 0.0
        x[4:12, -1] = 0.0
        block = _closed_form_posterior(region, x, exp)
        assert block.shape == (64,)
        scalar = [posterior_prob_region(region, row, exp).estimate for row in x]
        assert block.tolist() == scalar


class TestKlineOrthantPosterior:
    def test_scalar_case_reduces_to_one_sided(self):
        x = 1.3
        assert kline_orthant_posterior([x]) == pytest.approx(
            1.0 - oracle_normal_cdf(x), abs=1e-14)

    @pytest.mark.parametrize("d,expected", [(10, 0.40), (25, 0.72), (90, 0.99)])
    def test_high_dim_values(self, d, expected):
        x = np.full(d, std_normal_quantile(0.95))
        assert kline_orthant_posterior(x) == pytest.approx(expected, abs=0.005)

    def test_matches_complement_box_closed_form(self):
        x = np.array([0.5, 1.0, -0.2])
        exp = Experiment.identity(3)
        region = Complement(inner=Box.orthant(3))
        direct = posterior_prob_region(region, x, exp).estimate
        assert kline_orthant_posterior(x) == pytest.approx(direct, abs=1e-14)


# ---------------------------------------------------------------------------
# tests and rejection probabilities


class TestBayesTest:
    def test_threshold_is_inclusive(self):
        # At x = 0 the half-space posterior is exactly one half, so
        # alpha = 0.5 must reject under the inclusive convention.
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        assert posterior_prob_region(hl, [0.0], exp).estimate == 0.5
        assert bayes_test(hl, [0.0], exp, alpha=0.5) == REJECT
        assert bayes_test(hl, [0.0], exp, alpha=0.49999) == ACCEPT

    def test_clear_cases(self):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        assert bayes_test(hl, [4.0], exp, alpha=0.05) == REJECT
        assert bayes_test(hl, [-4.0], exp, alpha=0.05) == ACCEPT

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            bayes_test(LowerHalfLine(0.0), [0.0], Experiment.scalar(), alpha=0.0)


class TestHalfspaceRejectionExact:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.32])
    def test_boundary_rp_equals_alpha(self, alpha):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        assert halfspace_rejection_prob_exact(hl, [0.0], exp, alpha) == pytest.approx(
            alpha, abs=1e-12)

    def test_interior_rp_below_alpha(self):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        rp = halfspace_rejection_prob_exact(hl, [-1.0], exp, 0.05)
        assert rp < 0.05
        # N(-1, 1): reject iff X >= z_{0.95}; direct oracle
        want = 1.0 - oracle_normal_cdf(std_normal_quantile(0.95) + 1.0)
        assert rp == pytest.approx(want, abs=1e-13)

    def test_general_direction_boundary(self):
        hs = HalfSpace(c=np.array([1.0, -2.0]), c0=1.0)
        cov = CovarianceMatrix(np.array([[1.5, 0.2], [0.2, 0.8]]))
        exp = Experiment(cov=cov)
        theta = np.array([3.0, 1.0])  # c.theta = 1 = c0
        assert halfspace_rejection_prob_exact(hs, theta, exp, 0.1) == pytest.approx(
            0.1, abs=1e-12)


class TestRejectionProbability:
    def test_exact_branch_for_halfspace(self):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        out = rejection_probability(hl, [0.0], exp, alpha=0.05, reps=123,
                                    master_seed=9)
        assert out.mc_se == 0.0
        assert out.estimate == pytest.approx(0.05, abs=1e-12)
        assert out.exact and out.reps == 0

    def test_mc_agrees_with_exact_for_halfspace(self):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        mc = rejection_probability(hl, [0.0], exp, alpha=0.1, reps=20_000,
                                   master_seed=3, method="mc")
        assert mc.mc_se > 0.0
        assert not mc.exact and mc.reps == 20_000
        assert abs(mc.estimate - 0.1) < three_se(0.1, 20_000)

    def test_interval_union_rp_vs_quadrature_oracle(self):
        # theta = 0, null [-1, 0]: the oracle integrates the exact rejection
        # region (found by bisection on the posterior) under N(0, 1).
        iu = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        rp_oracle, _, _ = oracle_interval_rp(-1.0, 0.0, 0.05)
        mc = rejection_probability(iu, [0.0], exp, alpha=0.05, reps=20_000,
                                   master_seed=4)
        assert abs(mc.estimate - rp_oracle) < 3 * mc.mc_se

    def test_seedplan_accepted(self):
        hl = LowerHalfLine(0.0)
        exp = Experiment.scalar()
        a = rejection_probability(hl, [0.0], exp, alpha=0.05, reps=500,
                                  master_seed=SeedPlan(21), method="mc")
        b = rejection_probability(hl, [0.0], exp, alpha=0.05, reps=500,
                                  master_seed=21, method="mc")
        assert a.estimate == b.estimate

    def test_block_sampling_scheme(self):
        # block b of _REPS_PER_BLOCK replications draws its observations
        # in one call on stream(b)
        from ineqtest.distributions import mvn_sample
        from ineqtest.limit_experiment import _REPS_PER_BLOCK

        region = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        reps = 2 * _REPS_PER_BLOCK + 37
        plan = SeedPlan(12)
        hits = 0
        for b, first in enumerate(range(0, reps, _REPS_PER_BLOCK)):
            x = mvn_sample(np.zeros(1), exp.cov, plan.stream(b),
                           size=min(_REPS_PER_BLOCK, reps - first))
            hits += sum(posterior_prob_region(region, row, exp).estimate <= 0.05 for row in x)
        got = rejection_probability(region, [0.0], exp, alpha=0.05, reps=reps,
                                    master_seed=12)
        assert got.estimate == hits / reps

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            rejection_probability(SignAgreement(), [0.0, 0.0], Experiment.identity(2),
                                  alpha=1.0, reps=10)

    def test_method_validated(self):
        with pytest.raises(ValueError):
            rejection_probability(LowerHalfLine(0.0), [0.0], Experiment.scalar(),
                                  alpha=0.05, method="bogus")


class TestSizeOverBoundary:
    def test_closure_indices_flag_outside_points(self):
        region = Complement(inner=Box.orthant(2))
        # (0, 0) lies in the orthant, hence outside its complement; it is
        # still a legitimate boundary point of the closed null.
        grid = [np.zeros(2), np.array([-1.0, 0.0])]
        out = size_over_boundary(region, grid, Experiment.identity(2),
                                 alpha=0.05, reps=200, master_seed=1)
        assert isinstance(out, SizeResult)
        assert out.closure_indices == (0,)

    def test_argmax_and_reproducibility(self):
        region = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        grid = [[-0.5], [0.0]]
        a = size_over_boundary(region, grid, exp, alpha=0.05, reps=1500, master_seed=2)
        b = size_over_boundary(region, grid, exp, alpha=0.05, reps=1500, master_seed=2)
        assert a.max_summary.estimate == b.max_summary.estimate
        assert a.argmax_theta == a.thetas[a.argmax_index]
        # the endpoint theta = 0 inflates the most for this null
        assert a.argmax_index == 1

    def test_point_streams_are_stable_under_grid_growth(self):
        # Adding a grid point must not perturb the estimate at an existing
        # point (per point substream namespacing).
        region = IntervalUnion(intervals=((-1.0, 0.0),))
        exp = Experiment.scalar()
        small = size_over_boundary(region, [[0.0]], exp, alpha=0.05, reps=800,
                                   master_seed=6)
        big = size_over_boundary(region, [[0.0], [-1.0]], exp, alpha=0.05,
                                 reps=800, master_seed=6)
        assert small.summaries[0].estimate == big.summaries[0].estimate

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            size_over_boundary(LowerHalfLine(0.0), [], Experiment.scalar(), 0.05)

    @pytest.mark.parametrize("region,grid,exp", [
        (LowerHalfLine(0.0), [[0.0]], Experiment.scalar()),
        (HalfSpace(c=np.array([1.0, -2.0]), c0=0.5), [[0.5, 0.0], [2.5, 1.0], [-1.5, -1.0]],
         Experiment.identity(2)),
    ], ids=["half-line", "half-plane"])
    def test_halfspace_boundary_is_exact(self, region, grid, exp):
        # the half-space test has size alpha at every boundary point, exactly
        out = size_over_boundary(region, grid, exp, alpha=0.05, reps=10_000, master_seed=1)
        for summary in out.summaries:
            assert summary.exact and summary.mc_se == 0.0
            assert summary.estimate == pytest.approx(0.05, abs=1e-12)


class TestDimensionMismatch:
    # broadcasting would fold the extra coordinates in and return a number
    half_line = Box(lower=[0.0], upper=[np.inf])

    @pytest.mark.parametrize("region,theta,d", [
        (half_line, [0.0, 0.0], 2),
        (IntervalUnion(intervals=((-1.0, 0.0),)), [0.0, 0.0], 2),
        (SignAgreement(), [0.0, 0.0, 0.0], 3),
        (Box.orthant(2), [0.0], 1),
    ], ids=["box-1d-in-2d", "interval-in-2d", "signagree-in-3d", "orthant-2d-in-1d"])
    def test_rejection_probability(self, region, theta, d):
        with pytest.raises(ValueError, match="dimensions differ"):
            rejection_probability(region, theta, Experiment.identity(d), alpha=0.05, reps=100)

    def test_size_over_boundary(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            size_over_boundary(self.half_line, [[0.0, 0.0]], Experiment.identity(2),
                               alpha=0.05, reps=100)

    def test_posterior_prob_region(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            posterior_prob_region(self.half_line, [0.0, 0.0], Experiment.identity(2))

    def test_bayes_test(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            bayes_test(self.half_line, [0.0, 0.0], Experiment.identity(2), alpha=0.05)
