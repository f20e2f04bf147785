"""Scalar and multivariate probability primitives shared by all modules.

Everything here is a thin, validated layer over numpy/scipy specials: the
standard normal location family, covariance matrices (possibly singular),
regularized incomplete beta, and flat Dirichlet weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special


def std_normal_cdf(x):
    """Standard normal CDF, vectorized; saturates cleanly in the far tails."""
    return special.ndtr(x)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile requires 0 < p < 1")
    return special.ndtri(p)


def beta_cdf(x, a, b):
    """Regularized incomplete beta I_x(a, b) on [0, 1]."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("beta_cdf requires x in [0, 1]")
    if np.any(np.asarray(a, dtype=float) <= 0.0) or np.any(np.asarray(b, dtype=float) <= 0.0):
        raise ValueError("beta_cdf requires a, b > 0")
    return special.betainc(a, b, x)


def beta_quantile(p, a, b):
    """Inverse of beta_cdf in x: the p-quantile of Beta(a, b)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise ValueError("beta_quantile requires p in [0, 1]")
    if np.any(np.asarray(a, dtype=float) <= 0.0) or np.any(np.asarray(b, dtype=float) <= 0.0):
        raise ValueError("beta_quantile requires a, b > 0")
    return special.betaincinv(a, b, p)


def dirichlet_flat_sample(n, rng, size=None):
    """Flat Dirichlet(1, ..., 1) weights over n cells.

    Sampled as normalized standard exponentials.  With ``size`` set, returns
    an array of shape (size, n); otherwise shape (n,).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    shape = (n,) if size is None else (size, n)
    g = rng.standard_exponential(shape)
    return g / g.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class SymmetricLocationFamily:
    """A symmetric location family F with full support; only the standard
    normal variant ships, but the tag keeps the door open."""

    name: str = "standard_normal"

    def __post_init__(self):
        if self.name != "standard_normal":
            raise ValueError(f"unsupported family: {self.name!r}")

    def cdf(self, x):
        return std_normal_cdf(x)

    def pdf(self, x):
        return std_normal_pdf(x)

    def quantile(self, p):
        return std_normal_quantile(p)


STANDARD_NORMAL = SymmetricLocationFamily()


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
