"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the code paths used by the package:
normal CDF/quantile via mpmath's erfc and bisection, the beta CDF via a
binomial sum over math.comb, the bivariate normal CDF via mpmath
quadrature of a one-dimensional integral, rejection probabilities via
high-precision root finding on the posterior formula, definiteness via
eigenvalues, and Hessians via finite differences.  Tests compare package outputs against
these, so a bug in a shared dependency cannot cancel itself out.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# scalar oracles


def oracle_normal_cdf(x):
    """Standard normal CDF through mpmath's erfc."""
    return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


def oracle_normal_quantile(p):
    """Inverse standard normal CDF by bisection on the mpmath CDF."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    target = mpmath.mpf(p)

    def cdf(x):
        return 0.5 * mpmath.erfc(-x / mpmath.sqrt(2))

    lo, hi = mpmath.mpf(-40), mpmath.mpf(40)
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def oracle_beta_cdf_int(x, k, n):
    """CDF of Beta(k, n+1-k) at x for integer k, via the binomial-sum
    identity: Pr(Beta <= x) = Pr(Binomial(n, x) >= k)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    xm = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * xm ** j * (1 - xm) ** (n - j)
    return float(total)


# ---------------------------------------------------------------------------
# rejection-probability oracles for the limit experiment


def oracle_orthant_rp(alpha):
    """Exact rejection probability at the origin for the d=2 orthant null
    with identity covariance: the posterior is 1 - U1*U2 with the U's
    iid uniform, so Pr(U1*U2 >= 1-alpha) = alpha*(1 - ln(alpha))."""
    return float(alpha * (1.0 - math.log(alpha)))


def oracle_interval_rp(a, b, alpha):
    """Rejection probability at theta=0 for the scalar null [a, b].

    The posterior is p(x) = Phi(x-a) - Phi(x-b); it crosses alpha once on
    each side of the maximum.  Roots located by bisection at 30 digits,
    then RP = Phi(r_low) + 1 - Phi(r_high) for a standard normal draw.
    """

    def posterior(x):
        z = mpmath.sqrt(2)
        return 0.5 * mpmath.erfc(-(x - a) / z) - 0.5 * mpmath.erfc(-(x - b) / z)

    mid = mpmath.mpf(a + b) / 2
    if posterior(mid) <= alpha:
        raise ValueError("posterior never exceeds alpha; no rejection region split")

    def bisect(lo, hi):
        flo = posterior(lo) - alpha
        for _ in range(200):
            m = (lo + hi) / 2
            if (posterior(m) - alpha) * flo > 0:
                lo = m
            else:
                hi = m
        return (lo + hi) / 2

    r_low = bisect(mpmath.mpf(-60), mid)
    r_high = bisect(mid, mpmath.mpf(60))
    z = mpmath.sqrt(2)
    rp = 0.5 * mpmath.erfc(-r_low / z) + 0.5 * mpmath.erfc(r_high / z)
    return float(rp), float(r_low), float(r_high)


def oracle_signagree_posterior(x, cov):
    """Pr(theta1 * theta2 >= 0) for theta ~ N(x, cov), via the bivariate
    normal CDF: both-negative mass plus both-positive mass."""
    from scipy.stats import multivariate_normal
    x = np.asarray(x, dtype=float)
    dist = multivariate_normal(mean=np.zeros(2), cov=np.asarray(cov, dtype=float))
    return float(dist.cdf(-x) + dist.cdf(x))


def oracle_bivariate_normal_cdf_quad(u, v, rho):
    """Pr(Z1 <= u, Z2 <= v) for standard normals with correlation |rho| < 1,
    by mpmath quadrature of phi(z) Phi((v - rho z) / sqrt(1 - rho^2)) over
    z <= u.  The inner factor steps from 1 to 0 around z = v / rho within a
    few sqrt(1 - rho^2) / |rho|, so the range is split there."""
    with mpmath.workdps(20):
        u, v, rho = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho ** 2)

        def integrand(z):
            return mpmath.npdf(z) * mpmath.ncdf((v - rho * z) / s)

        points = [-mpmath.inf]
        if rho != 0:
            step, width = v / rho, 4 * s / abs(rho)
            points += [p for p in (step - width, step, step + width) if p < u]
        return float(mpmath.quad(integrand, points + [u]))


def oracle_signagree_posterior_quad(x, cov):
    """Pr(theta1 * theta2 >= 0) for theta ~ N(x, cov) with a nonsingular
    2 x 2 cov: the both-negative and both-positive masses, each a
    standardized bivariate normal CDF by quadrature."""
    x = np.asarray(x, dtype=float)
    cov = np.asarray(cov, dtype=float)
    sd = np.sqrt(np.diag(cov))
    rho = cov[0, 1] / (sd[0] * sd[1])
    u, v = -x / sd
    return (oracle_bivariate_normal_cdf_quad(u, v, rho)
            + oracle_bivariate_normal_cdf_quad(-u, -v, rho))


# ---------------------------------------------------------------------------
# matrix oracles


def oracle_is_nsd_eig(matrix, tol=0.0):
    """Eigenvalue route: NSD iff the largest eigenvalue is <= tol."""
    return bool(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[-1] <= tol)


def fd_cost_hessian(params, y, w, rel_step=1e-4):
    """Central finite-difference Hessian of C(y, w) = exp(log_cost) in w."""
    from ineqtest.translog import log_cost
    w = np.asarray(w, dtype=float)

    def cost(wv):
        return math.exp(log_cost(params, y, wv))

    out = np.empty((3, 3))
    steps = rel_step * w
    for m in range(3):
        for k in range(3):
            hm, hk = steps[m], steps[k]
            if m == k:
                wp, wm_ = w.copy(), w.copy()
                wp[m] += hm
                wm_[m] -= hm
                out[m, m] = (cost(wp) - 2.0 * cost(w) + cost(wm_)) / (hm * hm)
            else:
                wpp, wpm, wmp, wmm = w.copy(), w.copy(), w.copy(), w.copy()
                wpp[[m, k]] += [hm, hk]
                wpm[m] += hm
                wpm[k] -= hk
                wmp[m] -= hm
                wmp[k] += hk
                wmm[[m, k]] -= [hm, hk]
                out[m, k] = (cost(wpp) - cost(wpm) - cost(wmp) + cost(wmm)) / (4 * hm * hk)
    return out


def three_se(p, n):
    """Three binomial standard errors for a proportion estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# acceptance summary


_CRITERIA_TITLES = {
    1: "closed-form orthant posteriors",
    2: "half-space boundary exactness",
    3: "strict size inflation (interval union, orthant)",
    4: "sign-agreement size, both directions",
    5: "fixed-design table (p-values and posteriors)",
    6: "dominance rejection-rate table",
    7: "curvature rejection-rate table",
    8: "Hessian correctness",
    9: "NSD criterion vs eigenvalue oracle",
    10: "byte-identical output across worker counts",
}

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "criterion" not in name:
        return
    try:
        number = int(name.split("criterion_")[1].split("_")[0])
    except (IndexError, ValueError):
        return
    # keep the worst outcome per criterion (parameterized tests share one)
    prev = _acceptance_outcomes.get(number)
    outcome = report.outcome
    if prev != "failed":
        _acceptance_outcomes[number] = outcome if prev is None or outcome == "failed" else prev


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA_TITLES):
        if number not in _acceptance_outcomes:
            continue
        status = _acceptance_outcomes[number].upper()
        title = _CRITERIA_TITLES[number]
        terminalreporter.write_line(f"  criterion {number:2d} [{status:6s}] {title}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
