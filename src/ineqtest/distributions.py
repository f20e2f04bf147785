"""Scalar and multivariate probability primitives shared by all modules.

Everything here is a thin, validated layer over numpy/scipy specials: the
standard normal distribution, the bivariate normal CDF, covariance
matrices (possibly singular), regularized incomplete beta, and flat
Dirichlet weights.

``scipy.special`` is imported by the first call that needs it, not with
the module: about 0.3 s of the package's import is scipy's, and the
translog tables never call a special function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def std_normal_cdf(x):
    """Standard normal CDF, vectorized; saturates cleanly in the far tails."""
    from scipy import special

    return special.ndtr(x)


def _check_shapes(a, b, name):
    """Beta shape parameters must be > 0; nan fails the test too."""
    if not (np.all(np.asarray(a, dtype=float) > 0.0) and np.all(np.asarray(b, dtype=float) > 0.0)):
        raise ValueError(f"{name} requires a, b > 0")


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    from scipy import special

    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError("quantile requires 0 < p < 1")
    return special.ndtri(p)


def bivariate_normal_cdf(h, k, rho):
    """Pr(Z1 <= h, Z2 <= k) for standard normals with correlation |rho| < 1,
    vectorized over h and k, which may be +-inf.

    Owen (1956): Phi2 = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta
    with a_h = (k - rho h) / (h sqrt(1 - rho^2)), a_k symmetric, and beta
    = 1/2 when hk < 0, or hk = 0 and h + k < 0.  As h -> 0 the argument
    a_h tends to sign(k - rho h) inf, and Phi2(0, 0) = 1/4 + asin(rho)/2pi.
    An infinite edge takes its limit: Phi2(inf, k) = Phi(k), Phi2(h, inf)
    = Phi(h), and Phi2 = 0 when either edge is -inf; the finite entries
    are evaluated on their own.
    """
    from scipy import special

    if not abs(rho) < 1.0:
        raise ValueError("need |rho| < 1")
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    infinite = np.isinf(h) | np.isinf(k)
    if infinite.any():
        out = np.asarray(std_normal_cdf(np.where(h == np.inf, k,
                                                 np.where(k == np.inf, h, -np.inf))))
        out[~infinite] = bivariate_normal_cdf(h[~infinite], k[~infinite], rho)
        return out
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h = np.where(h == 0.0, np.sign(k - rho * h) * np.inf, (k - rho * h) / (h * s))
        a_k = np.where(k == 0.0, np.sign(h - rho * k) * np.inf, (h - rho * k) / (k * s))
    sign_product = np.sign(h) * np.sign(k)
    beta = np.where((sign_product < 0.0) | ((sign_product == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    out = (0.5 * std_normal_cdf(h) + 0.5 * std_normal_cdf(k)
           - special.owens_t(h, a_h) - special.owens_t(k, a_k) - beta)
    return np.where((h == 0.0) & (k == 0.0), 0.25 + math.asin(rho) / (2.0 * math.pi), out)


def beta_cdf(x, a, b):
    """Regularized incomplete beta I_x(a, b) on [0, 1]."""
    from scipy import special

    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise ValueError("beta_cdf requires x in [0, 1]")
    _check_shapes(a, b, "beta_cdf")
    return special.betainc(a, b, x)


def beta_quantile(p, a, b):
    """Inverse of beta_cdf in x: the p-quantile of Beta(a, b)."""
    from scipy import special

    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise ValueError("beta_quantile requires p in [0, 1]")
    _check_shapes(a, b, "beta_quantile")
    return special.betaincinv(a, b, p)


def dirichlet_flat_sample(n, rng, size=None, rest=0):
    """Flat Dirichlet(1, ..., 1) weights over n cells.

    Sampled as normalized standard exponentials.  With ``size`` set, returns
    an array of shape (size, n); otherwise shape (n,).

    With ``rest`` > 0, one more cell follows the n, of Dirichlet parameter
    ``rest``: the total weight of ``rest`` further flat cells, so the last
    axis has n + 1 entries.  It is a standard gamma variate, drawn after
    all the exponentials, and the cells are scaled by the reciprocal of
    their sum, one multiply each.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    shape = (n,) if size is None else (size, n)
    g = rng.standard_exponential(shape)
    if not rest:
        g /= g.sum(axis=-1, keepdims=True)
        return g
    tail = rng.standard_gamma(rest, shape[:-1] + (1,))
    scale = 1.0 / (g.sum(axis=-1, keepdims=True) + tail)
    out = np.empty(shape[:-1] + (n + 1,))
    np.multiply(g, scale, out=out[..., :n])
    np.multiply(tail, scale, out=out[..., n:])
    return out


@dataclass(frozen=True)
class CovarianceMatrix:
    """Validated d x d covariance matrix; singular matrices are allowed.

    The factor for sampling comes from an eigendecomposition rather than a
    plain Cholesky so that degenerate directions (for example perfect
    negative correlation) work; negative eigenvalues below -1e-10 are
    rejected, tiny negative ones are clipped to zero.
    """

    entries: np.ndarray
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.abs(m - m.T) <= 1e-12):
            raise ValueError("covariance must be symmetric")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        eigval, eigvec = np.linalg.eigh(m)
        if eigval.min() < -1e-10:
            raise ValueError(f"covariance not PSD: min eigenvalue {eigval.min():.3e}")
        factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
        factor.setflags(write=False)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self):
        return self.entries.shape[0]

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    @classmethod
    def from_correlation(cls, rho, d=2):
        m = np.full((d, d), float(rho))
        np.fill_diagonal(m, 1.0)
        return cls(m)

    def diag_sd(self):
        return np.sqrt(np.diag(self.entries))

    def quad_form(self, c):
        """c' Sigma c for a direction vector c."""
        c = np.asarray(c, dtype=float)
        return float(c @ self.entries @ c)


def mvn_sample(mean, cov: CovarianceMatrix, rng, size=None):
    """Draws from N(mean, cov); supports singular covariance.

    Returns shape (d,) for size=None, else (size, d).
    """
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (cov.dim,):
        raise ValueError("mean dimension does not match covariance")
    shape = (cov.dim,) if size is None else (size, cov.dim)
    z = rng.standard_normal(shape)
    return mean + z @ cov._factor.T
