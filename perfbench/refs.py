"""Reference values computed apart from the package.

Nothing here imports ``ineqtest``.  The limit-experiment rejection
probabilities come from closed forms and root finding, the dominance
statistics from a plain merge of the two samples, the posteriors from this
file's own Dirichlet draws on its own generator, and the curvature check
from eigenvalues of the unit-point Hessian.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

# ---------------------------------------------------------------------------
# limit experiment at theta = 0, identity covariance


def interval_rp(alpha):
    """Rejection probability of the posterior test of theta in [-1, 0] at
    theta = 0.  The posterior mass of [-1, 0] at X = x is
    g(y) = Phi(y + 1) - Phi(y) with y = -1 - x; it peaks at y = -1/2 and
    crosses alpha once on each side."""
    g = lambda y: stats.norm.cdf(y + 1.0) - stats.norm.cdf(y) - alpha  # noqa: E731
    y_lo = optimize.brentq(g, -40.0, -0.5, xtol=1e-14)
    y_hi = optimize.brentq(g, -0.5, 40.0, xtol=1e-14)
    # reject iff y <= y_lo or y >= y_hi, i.e. X >= -1 - y_lo or X <= -1 - y_hi
    return float(stats.norm.sf(-1.0 - y_lo) + stats.norm.cdf(-1.0 - y_hi))


def orthant_rp(alpha):
    """Nonnegative quadrant in two dimensions: the posterior is
    Phi(X1) Phi(X2) = U1 U2 with iid uniforms, and Pr(U1 U2 <= alpha) is
    alpha (1 - ln alpha)."""
    return alpha * (1.0 - math.log(alpha))


def signagree_rp(alpha):
    """Sign-agreement null {theta1 theta2 >= 0}: with U_i = Phi(X_i) the
    posterior is U1 U2 + (1 - U1)(1 - U2); it falls at or below alpha with
    probability (1 - k + k ln k) / 2, k = 1 - 2 alpha."""
    k = 1.0 - 2.0 * alpha
    return 0.5 * (1.0 - k + k * math.log(k))


# ---------------------------------------------------------------------------
# dominance statistics by a plain merge


def merged_ecdfs(x, y):
    """Right-continuous empirical CDFs of x and y at every distinct pooled
    point, walking both sorted samples once."""
    xs, ys = sorted(x), sorted(y)
    n, m = len(xs), len(ys)
    i = j = 0
    fx, fy = [], []
    while i < n or j < m:
        t = min(xs[i] if i < n else math.inf, ys[j] if j < m else math.inf)
        while i < n and xs[i] <= t:
            i += 1
        while j < m and ys[j] <= t:
            j += 1
        fx.append(i / n)
        fy.append(j / m)
    return np.array(fx), np.array(fy)


def ks_pvalue(x, y=None):
    """One-sided KS p-value exp(-2 scale D+^2) for the null that x
    dominates y, or the uniform(0, 1) CDF when y is None."""
    n = len(x)
    if y is None:
        xs = np.sort(x)
        d_plus = max(max((k + 1) / n - min(max(v, 0.0), 1.0) for k, v in enumerate(xs)), 0.0)
        scale = n
    else:
        fx, fy = merged_ecdfs(x, y)
        d_plus = max(float(np.max(fx - fy)), 0.0)
        scale = n * len(y) / (n + len(y))
    return min(1.0, math.exp(-2.0 * scale * d_plus * d_plus))


def min_t_pvalue(x, y):
    """1 - Phi(min t) over pooled points with both ECDFs inside (0, 1);
    1 when there is no such point."""
    n, m = len(x), len(y)
    fx, fy = merged_ecdfs(x, y)
    keep = (fx > 0) & (fx < 1) & (fy > 0) & (fy < 1)
    if not keep.any():
        return 1.0
    fx, fy = fx[keep], fy[keep]
    t = (fy - fx) / np.sqrt(fx * (1 - fx) / n + fy * (1 - fy) / m)
    return float(stats.norm.sf(t.min()))


def order_stat_pvalue(x):
    """max_k Pr(Beta(k, n+1-k) > u_(k)) with u the sample clipped to
    [0, 1], the uniform(0, 1) order-statistic construction."""
    u = np.clip(np.sort(x), 0.0, 1.0)
    n = u.size
    k = np.arange(1, n + 1)
    return float(np.max(stats.beta.sf(u, k, n + 1 - k)))


def banks_cdf_rows(sample, weights, grid):
    """Smoothed bootstrap CDFs: an atom weights[:, 0] at the sample min,
    weights[:, k] spread linearly over the k-th gap between order
    statistics, an atom weights[:, -1] at the max.  One np.interp per
    row, with the jump to 1 at the max applied afterwards."""
    xs = np.sort(sample)
    out = np.empty((weights.shape[0], grid.size))
    for r, w in enumerate(weights):
        knots = np.concatenate([[w[0]], w[0] + np.cumsum(w[1:-1])])
        out[r] = np.interp(grid, xs, knots, left=0.0, right=1.0)
    out[:, grid >= xs[-1]] = 1.0
    return out


def banks_posterior_sd1(x, y, draws, rng, chunk=100):
    """Posterior probability that x dominates y (or the uniform(0, 1) CDF
    when y is None) on the pooled sample points, under the smoothed
    Bayesian bootstrap.  Draws are processed in chunks to keep memory
    flat."""
    x = np.asarray(x, dtype=float)
    grid = np.sort(x if y is None else np.concatenate([x, y]))
    hits = 0
    for start in range(0, draws, chunk):
        take = min(chunk, draws - start)
        fx = banks_cdf_rows(x, rng.dirichlet(np.ones(x.size + 1), take), grid)
        if y is None:
            bound = np.clip(grid, 0.0, 1.0)[None, :]
        else:
            bound = banks_cdf_rows(y, rng.dirichlet(np.ones(len(y) + 1), take), grid)
        hits += int(np.sum(np.all(fx <= bound, axis=1)))
    return hits / draws


# ---------------------------------------------------------------------------
# translog curvature


def translog_design(ln_y, ln_w):
    z1 = ln_w[:, 0] - ln_w[:, 2]
    z2 = ln_w[:, 1] - ln_w[:, 2]
    return np.column_stack([np.ones_like(ln_y), ln_y, 0.5 * ln_y ** 2, ln_y * z1, ln_y * z2,
                            z1, z2, 0.5 * z1 ** 2, z1 * z2, 0.5 * z2 ** 2])


def unit_hessian_nsd(coef, tol=1e-7):
    """True when the largest eigenvalue of the price Hessian at
    (y, w) = (1, 1, 1, 1) is at most tol.  There the shares are
    b = (b1, b2, 1 - b1 - b2) and H = exp(a0) (B + b b' - diag b)."""
    b1, b2, b11, b12, b22 = coef[5], coef[6], coef[7], coef[8], coef[9]
    b = np.array([b1, b2, 1.0 - b1 - b2])
    big_b = np.array([[b11, b12, -(b11 + b12)],
                      [b12, b22, -(b12 + b22)],
                      [-(b11 + b12), -(b12 + b22), b11 + 2 * b12 + b22]])
    h = math.exp(coef[0]) * (big_b + np.outer(b, b) - np.diag(b))
    return bool(np.linalg.eigvalsh(h).max() <= tol)


def nsd_posterior(design, response, draws, rng):
    """Share of Dirichlet-weighted least-squares fits whose unit-point
    Hessian is negative semidefinite."""
    hits = 0
    for w in rng.dirichlet(np.ones(design.shape[0]), draws):
        s = np.sqrt(w)
        coef = np.linalg.lstsq(s[:, None] * design, s * response, rcond=None)[0]
        hits += unit_hessian_nsd(coef)
    return hits / draws


# ---------------------------------------------------------------------------
# the paper's table2: rejection rates at alpha = 0.1, keyed by
# (h0, n, h, comparison, method)

TABLE2_RATES = {
    ("sd1", 100, 0.0, "one_sample", "ks"): 0.098,
    ("sd1", 100, 0.0, "one_sample", "bayes"): 0.980,
    ("sd1", 100, 0.0, "two_sample", "ks"): 0.080,
    ("sd1", 100, 0.0, "two_sample", "bayes"): 0.975,
    ("sd1", 1000, 0.0, "one_sample", "ks"): 0.103,
    ("sd1", 1000, 0.0, "one_sample", "bayes"): 1.000,
    ("sd1", 1000, 0.0, "two_sample", "ks"): 0.094,
    ("sd1", 1000, 0.0, "two_sample", "bayes"): 1.000,
    ("non_sd1", 100, 0.0, "one_sample", "iu_beta"): 0.000,
    ("non_sd1", 100, 0.0, "one_sample", "bayes"): 0.000,
    ("non_sd1", 100, 0.0, "two_sample", "dd"): 0.002,
    ("non_sd1", 100, 0.0, "two_sample", "bayes"): 0.000,
    ("non_sd1", 100, 0.9, "one_sample", "iu_beta"): 0.349,
    ("non_sd1", 100, 0.9, "one_sample", "bayes"): 0.185,
    ("non_sd1", 100, 0.9, "two_sample", "dd"): 0.281,
    ("non_sd1", 100, 0.9, "two_sample", "bayes"): 0.040,
    ("non_sd1", 100, 1.3, "one_sample", "iu_beta"): 0.683,
    ("non_sd1", 100, 1.3, "one_sample", "bayes"): 0.566,
    ("non_sd1", 100, 1.3, "two_sample", "dd"): 0.475,
    ("non_sd1", 100, 1.3, "two_sample", "bayes"): 0.195,
    ("non_sd1", 1000, 0.0, "one_sample", "iu_beta"): 0.000,
    ("non_sd1", 1000, 0.0, "one_sample", "bayes"): 0.000,
    ("non_sd1", 1000, 0.0, "two_sample", "dd"): 0.000,
    ("non_sd1", 1000, 0.0, "two_sample", "bayes"): 0.000,
    ("non_sd1", 1000, 0.9, "one_sample", "iu_beta"): 0.295,
    ("non_sd1", 1000, 0.9, "one_sample", "bayes"): 0.128,
    ("non_sd1", 1000, 0.9, "two_sample", "dd"): 0.278,
    ("non_sd1", 1000, 0.9, "two_sample", "bayes"): 0.023,
    ("non_sd1", 1000, 1.3, "one_sample", "iu_beta"): 0.674,
    ("non_sd1", 1000, 1.3, "one_sample", "bayes"): 0.515,
    ("non_sd1", 1000, 1.3, "two_sample", "dd"): 0.521,
    ("non_sd1", 1000, 1.3, "two_sample", "bayes"): 0.163,
}


def binomial_band(reference, reps, k, floor):
    """k binomial standard errors at ``reps`` around a reference rate, with
    the rate held inside [floor, 1 - floor] so that references of 0 or 1
    still get a band."""
    p = min(max(reference, floor), 1.0 - floor)
    return k * math.sqrt(p * (1.0 - p) / reps)
