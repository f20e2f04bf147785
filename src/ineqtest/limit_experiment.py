"""Posterior-probability tests of inequality hypotheses in the Gaussian
limit experiment.

The experiment observes a single X ~ N(theta, Sigma); the posterior for
theta given X is N(X, Sigma).  The test of a null region rejects when the
posterior probability of the region is at or below the level alpha.  For
half-spaces this test is exact; for smaller regions (boxes, interval
unions, sign agreement) its size can land on either side of alpha, which
is the behavior this module exists to measure.

Null regions with closed-form posterior probabilities are evaluated
exactly and vectorized over a block of observations: half-spaces, scalar
interval unions, boxes under independent coordinates, 2-D boxes and sign
agreement under any nonsingular 2 x 2 covariance (through the bivariate
normal CDF and Owen's T), and their complements.  Monte Carlo over
posterior draws remains only for predicates, correlated boxes with d > 2,
and boxes and sign agreement under a singular covariance or perfect
correlation.

Rejection probabilities are simulated in blocks of _REPS_PER_BLOCK
replications: each block draws its observations with one call on its own
stream and decides them all with one comparison against alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    CovarianceMatrix,
    bivariate_normal_cdf,
    mvn_sample,
    std_normal_cdf,
    std_normal_quantile,
)
from .mc_harness import McSummary, SeedPlan, check_alpha, run_replications

REJECT = "reject"
ACCEPT = "accept"

# replications per block of a simulated rejection probability; block b
# reads stream b, so this constant is part of the sampling scheme
_REPS_PER_BLOCK = 1024


# ---------------------------------------------------------------------------
# null regions


def _points(points, dim):
    """Points as an (m, dim) float array, one point allowed as a 1-D array;
    refuses any other width, which broadcasting would otherwise accept."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points of shape {points.shape} for a region of dimension {dim}")
    return points


@dataclass(frozen=True)
class HalfSpace:
    """{theta : c . theta <= c0} for a finite nonzero direction c; c0 may
    be +-inf, but not nan."""

    c: np.ndarray
    c0: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if not (np.all(np.isfinite(c)) and np.any(c != 0.0)):
            raise ValueError("half-space direction must be finite and nonzero")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c0", float(self.c0))
        if math.isnan(self.c0):
            raise ValueError("half-space offset c0 must not be nan")

    @property
    def dim(self):
        return self.c.shape[0]

    def contains(self, points):
        return _points(points, self.dim) @ self.c <= self.c0


def LowerHalfLine(c0):
    """Scalar {theta <= c0}; just the d = 1 half-space."""
    return HalfSpace(c=np.array([1.0]), c0=c0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with closed faces; bounds may be +-inf, but not nan.

    The nonnegative orthant is Box(lower=0, upper=+inf in every coordinate).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal length")
        if not np.all(lo <= hi):
            raise ValueError("box requires lower <= upper, and no nan bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def orthant(cls, d):
        return cls(lower=np.zeros(d), upper=np.full(d, np.inf))

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, points):
        points = _points(points, self.dim)
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint closed scalar intervals, sorted ascending;
    ends may be +-inf, but not nan.

    Degenerate intervals [a, a] are allowed; under a continuous posterior
    they carry probability zero, which is how measure-zero counterexample
    sets are represented in tests.
    """

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ValueError("need at least one interval")
        for a, b in ivs:
            if not a <= b:
                raise ValueError(f"interval [{a}, {b}] needs a <= b, and no nan end")
        for (_, b_prev), (a_next, _) in zip(ivs, ivs[1:]):
            if a_next <= b_prev:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def dim(self):
        return 1

    def contains(self, points):
        """Membership of points given as shape (m,) or (m, 1)."""
        points = np.asarray(points, dtype=float)
        points = _points(points.reshape(-1, 1) if points.ndim < 2 else points, 1)[:, 0]
        out = np.zeros(points.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (points >= a) & (points <= b)
        return out


@dataclass(frozen=True)
class SignAgreement:
    """{theta in R^2 : theta_1 * theta_2 >= 0}, the union of the first and
    third quadrants."""

    @property
    def dim(self):
        return 2

    def contains(self, points):
        points = _points(points, 2)
        return points[:, 0] * points[:, 1] >= 0.0


@dataclass(frozen=True)
class Complement:
    """Set complement of an inner region."""

    inner: object

    @property
    def dim(self):
        return self.inner.dim

    def contains(self, points):
        return ~np.asarray(self.inner.contains(points), dtype=bool)


@dataclass(frozen=True)
class Predicate:
    """Opaque membership test; always evaluated by Monte Carlo.

    ``fn`` maps a (m, d) array of points to a boolean array of length m
    when ``vectorized``; otherwise it is called per point.
    """

    fn: object
    dim: int
    vectorized: bool = False

    def contains(self, points):
        points = _points(points, self.dim)
        if self.vectorized:
            return np.asarray(self.fn(points), dtype=bool)
        return np.array([bool(self.fn(p)) for p in points])


def region_membership(region, theta):
    """Scalar membership test for a single parameter point."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return bool(np.asarray(region.contains(theta.reshape(1, -1)))[0])


# ---------------------------------------------------------------------------
# the experiment


@dataclass(frozen=True)
class Experiment:
    """One observation X ~ N(theta, Sigma); posterior theta | X ~ N(X, Sigma)."""

    cov: CovarianceMatrix

    @classmethod
    def scalar(cls, variance=1.0):
        return cls(cov=CovarianceMatrix(np.array([[float(variance)]])))

    @classmethod
    def identity(cls, d):
        return cls(cov=CovarianceMatrix.identity(d))

    @property
    def dim(self):
        return self.cov.dim

    def sample(self, theta, rng, size=None):
        return mvn_sample(theta, self.cov, rng, size=size)


# ---------------------------------------------------------------------------
# posterior probabilities


def _rows(x):
    """One observation, or a block of them, as an (m, d) float array."""
    x = np.asarray(x, dtype=float)
    return x.reshape(1, -1) if x.ndim < 2 else x


def _check_dims(region, point, exp: Experiment):
    """Refuses a region, a point and an experiment of different
    dimensions, which broadcasting would otherwise fold together."""
    d = _rows(point).shape[1]
    if not region.dim == exp.dim == d:
        raise ValueError(f"dimensions differ: region {region.dim}, "
                         f"experiment {exp.dim}, point {d}")


def _fold_columns(ufunc, a):
    """ufunc applied across the columns of a, left to right.  Every row gets
    the same floats whatever the number of rows, which neither a BLAS
    product nor a vectorized reduction promises."""
    return functools.reduce(ufunc, a.T)


def _halfspace_posterior(region: HalfSpace, x, exp: Experiment):
    var = exp.cov.quad_form(region.c)
    if var <= 0.0:
        raise ValueError("degenerate direction: c' Sigma c = 0")
    return std_normal_cdf((region.c0 - _fold_columns(np.add, x * region.c)) / math.sqrt(var))


def _signagree_posterior(x, exp: Experiment):
    """Both-positive plus both-negative posterior mass,
    1 - Phi(u) - Phi(v) + 2 Phi2(u, v; rho) with u = -x1/sd1, v = -x2/sd2;
    None for a singular covariance or |rho| = 1."""
    sds = exp.cov.diag_sd()
    if not np.all(sds > 0.0):
        return None
    rho = float(exp.cov.entries[0, 1] / (sds[0] * sds[1]))
    if not abs(rho) < 1.0:
        return None
    u = -x[:, 0] / sds[0]
    v = -x[:, 1] / sds[1]
    post = 1.0 - std_normal_cdf(u) - std_normal_cdf(v) + 2.0 * bivariate_normal_cdf(u, v, rho)
    return np.clip(post, 0.0, 1.0)


def _box_posterior(region: Box, x, exp: Experiment):
    """Posterior mass of a box: a product of normal interval masses under
    independent coordinates, and for d = 2 under correlation the rectangle
    mass by inclusion-exclusion of four bivariate normal CDFs at the
    standardized edges; None for a singular covariance or a correlated box
    with d > 2."""
    sds = exp.cov.diag_sd()
    if np.any(sds <= 0.0):
        return None
    hi = (region.upper - x) / sds
    lo = (region.lower - x) / sds
    off_diag = exp.cov.entries - np.diag(np.diag(exp.cov.entries))
    if not np.any(off_diag != 0.0):
        return _fold_columns(np.multiply, std_normal_cdf(hi) - std_normal_cdf(lo))
    rho = float(exp.cov.entries[0, 1] / (sds[0] * sds[1]))
    if region.dim != 2 or not abs(rho) < 1.0:
        return None
    mass = (bivariate_normal_cdf(hi[:, 0], hi[:, 1], rho)
            - bivariate_normal_cdf(lo[:, 0], hi[:, 1], rho)
            - bivariate_normal_cdf(hi[:, 0], lo[:, 1], rho)
            + bivariate_normal_cdf(lo[:, 0], lo[:, 1], rho))
    return np.clip(mass, 0.0, 1.0)


def _closed_form_posterior(region, x, exp: Experiment):
    """Exact posterior probabilities of the region at each row of the (m, d)
    array x, or None when no closed form applies (correlated boxes with
    d > 2, predicates, boxes and sign agreement with a singular
    covariance)."""
    if isinstance(region, HalfSpace):
        return _halfspace_posterior(region, x, exp)
    if isinstance(region, IntervalUnion):
        sd = math.sqrt(exp.cov.entries[0, 0])
        if sd <= 0.0:
            raise ValueError("degenerate scalar experiment")
        total = np.zeros(x.shape[0])
        for a, b in region.intervals:
            total = total + (std_normal_cdf((b - x[:, 0]) / sd)
                             - std_normal_cdf((a - x[:, 0]) / sd))
        return np.clip(total, 0.0, 1.0)
    if isinstance(region, Box):
        return _box_posterior(region, x, exp)
    if isinstance(region, SignAgreement):
        return _signagree_posterior(x, exp)
    if isinstance(region, Complement):
        inner = _closed_form_posterior(region.inner, x, exp)
        if inner is None:
            return None
        return 1.0 - inner
    return None


def posterior_prob_region(region, x, exp: Experiment, draws=2000, rng=None) -> McSummary:
    """Posterior probability that theta lies in the region, given X = x.

    Closed-form branches return an exact summary (reps 0, mc_se 0).  The
    Monte Carlo branch draws from the posterior N(x, Sigma); a Complement
    is evaluated through its inner region on the same draws, so the two
    estimates sum to 1 exactly.
    """
    _check_dims(region, x, exp)
    exact = _closed_form_posterior(region, _rows(x), exp)
    if exact is not None:
        return McSummary(float(exact[0]), 0)
    if isinstance(region, Complement):
        inner = posterior_prob_region(region.inner, x, exp, draws=draws, rng=rng)
        return McSummary(1.0 - inner.estimate, inner.reps)
    if draws < 1:
        raise ValueError("need draws >= 1")
    if rng is None:
        raise ValueError("Monte Carlo branch needs an rng")
    theta_draws = exp.sample(np.atleast_1d(np.asarray(x, dtype=float)), rng, size=draws)
    hits = np.asarray(region.contains(theta_draws), dtype=bool)
    return McSummary(float(hits.mean()), int(draws))


def kline_orthant_posterior(x) -> float:
    """Posterior probability that theta is NOT in the nonnegative orthant,
    for identity covariance: 1 - prod_j F(x_j).

    This is the complement-orthant null evaluated at an arbitrary point;
    with every coordinate at the same moderately positive value it stays
    large in high dimensions even though each coordinate looks
    significant on its own.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(1.0 - np.prod(std_normal_cdf(x)))


# ---------------------------------------------------------------------------
# testing and operating characteristics


def bayes_test(region, x, exp: Experiment, alpha, draws=2000, rng=None) -> str:
    """Rejects the null region iff its posterior probability is <= alpha.

    The comparison is inclusive and uses the Monte Carlo point estimate
    directly when no closed form exists.
    """
    check_alpha(alpha)
    post = posterior_prob_region(region, x, exp, draws=draws, rng=rng)
    return REJECT if post.estimate <= alpha else ACCEPT


def halfspace_rejection_prob_exact(region: HalfSpace, theta, exp: Experiment, alpha) -> float:
    """Exact rejection probability of the half-space test at any theta.

    Reject iff c.X >= c0 + sd * z_{1-alpha}, and c.X ~ N(c.theta, sd^2).
    At boundary points (c.theta = c0) this equals alpha identically.
    """
    check_alpha(alpha)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    var = exp.cov.quad_form(region.c)
    if var <= 0.0:
        raise ValueError("degenerate direction: c' Sigma c = 0")
    sd = np.sqrt(var)
    z = std_normal_quantile(1.0 - alpha)
    return float(1.0 - std_normal_cdf((region.c0 - region.c @ theta) / sd + z))


def rejection_probability(region, theta, exp: Experiment, alpha, reps=10_000,
                          draws=2000, master_seed=0, method="auto") -> McSummary:
    """Frequentist rejection probability of the posterior test at theta.

    method="auto" uses the exact formula for half-spaces, returned as an
    exact summary, and falls back to Monte Carlo otherwise; method="mc"
    forces simulation.  The Monte Carlo path is the share of X ~ N(theta,
    Sigma) the test rejects: block b of _REPS_PER_BLOCK replications draws
    its observations in one call on stream(b) of the seed plan and decides
    them with one comparison; regions without a closed form take per-row
    Monte Carlo posteriors from the same stream.  Results depend only on
    the seed.
    """
    if method not in ("auto", "mc"):
        raise ValueError("method must be 'auto' or 'mc'")
    _check_dims(region, theta, exp)
    if method == "auto" and isinstance(region, HalfSpace):
        return McSummary(halfspace_rejection_prob_exact(region, theta, exp, alpha), 0)
    check_alpha(alpha)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def decide_block(indices, rng):
        x = exp.sample(theta, rng, size=indices.size)
        post = _closed_form_posterior(region, x, exp)
        if post is None:
            post = np.array([posterior_prob_region(region, row, exp, draws=draws,
                                                   rng=rng).estimate for row in x])
        return post <= alpha

    counts = run_replications(decide_block, reps, SeedPlan.coerce(master_seed),
                              _REPS_PER_BLOCK)
    return McSummary(counts[0] / reps, reps)


@dataclass(frozen=True)
class SizeResult:
    """Grid approximation of size: per-point summaries plus the maximizer."""

    thetas: tuple
    summaries: tuple
    argmax_index: int
    closure_indices: tuple = ()

    @property
    def max_summary(self) -> McSummary:
        return self.summaries[self.argmax_index]

    @property
    def argmax_theta(self):
        return self.thetas[self.argmax_index]


def size_over_boundary(region, boundary_grid, exp: Experiment, alpha, reps=10_000,
                       draws=2000, master_seed=0) -> SizeResult:
    """Max rejection probability over a user-supplied grid of null points.

    Grid points outside the region are tolerated (a closed null's boundary
    may sit in the closure only) and reported in ``closure_indices``.
    Each point's rejection probability comes from rejection_probability,
    so a half-space's points are exact; each point gets its own substream
    namespace, so adding points never perturbs the others.
    """
    grid = [np.atleast_1d(np.asarray(t, dtype=float)) for t in boundary_grid]
    if not grid:
        raise ValueError("empty boundary grid")
    for t in grid:
        _check_dims(region, t, exp)
    closure = tuple(j for j, t in enumerate(grid) if not region_membership(region, t))
    plan = SeedPlan.coerce(master_seed)
    summaries = [rejection_probability(region, t, exp, alpha, reps, draws, plan.subplan(j))
                 for j, t in enumerate(grid)]
    argmax = int(np.argmax([s.estimate for s in summaries]))
    thetas = tuple(tuple(float(v) for v in t) for t in grid)
    return SizeResult(thetas=thetas, summaries=tuple(summaries),
                      argmax_index=argmax, closure_indices=closure)
