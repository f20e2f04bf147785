"""Translog cost function curvature testing.

A three-input translog cost model with symmetry and linear homogeneity in
input prices imposed.  The hypothesis of interest is local concavity in
prices at the unit point (y, w) = (1, 1, 1, 1): the price Hessian of the
cost function must be negative semidefinite there.  Inference is by a
Dirichlet-weighted least-squares posterior over the ten free coefficients
of the normalized cost regression; the reported quantity is the posterior
probability that every signed principal minor of the implied Hessian is
on the concave side, within a small absolute slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .distributions import dirichlet_flat_sample
from .mc_harness import McSummary, SeedPlan, check_alpha, mc_se, run_replications

NSD_TOL = 1e-7


class RankDeficientError(ValueError):
    """Raised when a (weighted) design matrix loses full column rank."""


# ---------------------------------------------------------------------------
# parameterizations


@dataclass(frozen=True)
class FreeParams:
    """The ten estimable coefficients of the normalized cost regression.

    Column order of the design matrix follows the field order below:
    intercept, ln y, (1/2)(ln y)^2, ln y * z1, ln y * z2, z1, z2,
    (1/2)z1^2, z1*z2, (1/2)z2^2, where z_k = ln(w_k / w_3).
    """

    a0: float
    ay: float
    ayy: float
    ay1: float
    ay2: float
    b1: float
    b2: float
    b11: float
    b12: float
    b22: float

    def as_vector(self):
        return np.array([self.a0, self.ay, self.ayy, self.ay1, self.ay2,
                         self.b1, self.b2, self.b11, self.b12, self.b22])

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (10,):
            raise ValueError("need a length-10 coefficient vector")
        return cls(*map(float, v))


@dataclass(frozen=True)
class TranslogParams:
    """Full coefficient set with symmetry and homogeneity holding exactly.

    b is the vector of first-order price coefficients (sums to 1), B the
    symmetric matrix of second-order ones (every row sums to 0), ayk the
    output/price interactions (sum to 0).
    """

    a0: float
    ay: float
    ayy: float
    ayk: np.ndarray
    b: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        ayk = np.asarray(self.ayk, dtype=float)
        b = np.asarray(self.b, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if ayk.shape != (3,) or b.shape != (3,) or B.shape != (3, 3):
            raise ValueError("ayk and b must be 3-vectors, B a 3x3 matrix")
        if not np.array_equal(B, B.T):
            raise ValueError("B must be exactly symmetric")
        for arr in (ayk, b, B):
            arr.setflags(write=False)
        object.__setattr__(self, "ayk", ayk)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "B", B)


def expand_params(free: FreeParams) -> TranslogParams:
    """Fills in the coefficients eliminated by symmetry and homogeneity.

    b3 = 1 - b1 - b2, ay3 = -ay1 - ay2, b13 = -(b11 + b12),
    b23 = -(b12 + b22), and b33 = -(b13 + b23) = b11 + 2 b12 + b22.
    Row sums of B cancel term against term, so they are exactly zero in
    floating point, not merely small.
    """
    b3 = 1.0 - free.b1 - free.b2
    ay3 = -(free.ay1 + free.ay2)
    b13 = -(free.b11 + free.b12)
    b23 = -(free.b12 + free.b22)
    b33 = -(b13 + b23)
    B = np.array([[free.b11, free.b12, b13],
                  [free.b12, free.b22, b23],
                  [b13, b23, b33]])
    return TranslogParams(a0=free.a0, ay=free.ay, ayy=free.ayy,
                          ayk=np.array([free.ay1, free.ay2, ay3]),
                          b=np.array([free.b1, free.b2, b3]), B=B)


def default_free_params(delta=0.001) -> FreeParams:
    """Symmetric benchmark coefficients with curvature slack ``delta``:
    the Hessian at the unit point is -delta * C on the diagonal of its
    core, so delta = 0 puts the model exactly on the concavity boundary.
    """
    return FreeParams(a0=1.0, ay=1.0, ayy=0.0, ay1=0.0, ay2=0.0,
                      b1=1.0 / 3.0, b2=1.0 / 3.0,
                      b11=2.0 / 9.0 - delta, b12=-1.0 / 9.0,
                      b22=2.0 / 9.0 - delta)


# ---------------------------------------------------------------------------
# cost function, shares, Hessian


def _check_point(y, w):
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("w must be a 3-vector")
    if not (y > 0) or not np.all(w > 0):
        raise ValueError("y and w must be strictly positive")
    return float(y), w


def log_cost(p: TranslogParams, y, w) -> float:
    """ln C(y, w) for the full translog specification."""
    y, w = _check_point(y, w)
    ly = math.log(y)
    lw = np.log(w)
    return float(p.a0 + p.ay * ly + 0.5 * p.ayy * ly * ly
                 + p.b @ lw + 0.5 * lw @ p.B @ lw + ly * (p.ayk @ lw))


def shares(p: TranslogParams, y, w):
    """Cost shares r_k = d ln C / d ln w_k = b_k + (B lw)_k + ay_k ln y."""
    y, w = _check_point(y, w)
    ly = math.log(y)
    lw = np.log(w)
    return p.b + p.B @ lw + p.ayk * ly


@dataclass(frozen=True)
class Hessian3:
    """Price Hessian of the cost function at one point, with the cost
    level it was scaled by."""

    matrix: np.ndarray
    cost_scale: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("need a 3x3 matrix")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > 1e-10 * scale:
            raise ValueError("Hessian must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hessian(p: TranslogParams, y, w) -> Hessian3:
    """d2 C / dw dw': H_mk = C (b_mk + r_m r_k - 1{m=k} r_k) / (w_m w_k)."""
    y, w = _check_point(y, w)
    r = shares(p, y, w)
    cost = math.exp(log_cost(p, y, w))
    core = p.B + np.outer(r, r) - np.diag(r)
    return Hessian3(matrix=cost * core / np.outer(w, w), cost_scale=cost)


def is_nsd(h, tol=NSD_TOL) -> bool:
    """Negative semidefiniteness by the all-principal-minors criterion.

    True iff every principal minor of order p, signed by (-1)^p, is at
    least -tol.  All seven nonempty index subsets are checked; leading
    minors alone are not sufficient for semidefiniteness.
    """
    m = h.matrix if isinstance(h, Hessian3) else np.asarray(h, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    d = m.shape[0]
    for order in range(1, d + 1):
        sign = (-1.0) ** order
        for idx in combinations(range(d), order):
            sub = m[np.ix_(idx, idx)]
            minor = sub[0, 0] if order == 1 else float(np.linalg.det(sub))
            if sign * minor < -tol:
                return False
    return True


def _nsd_flags_from_free(free_rows, tol=NSD_TOL):
    """Vectorized concavity check at the unit point for an (S, 10) array
    of free-coefficient rows; returns a boolean (S,) array.

    Same arithmetic as is_nsd(hessian(expand_params(...), 1, (1,1,1)))
    with explicit 2x2 and 3x3 determinant formulas.
    """
    free_rows = np.asarray(free_rows, dtype=float)
    b1, b2 = free_rows[:, 5], free_rows[:, 6]
    b11, b12, b22 = free_rows[:, 7], free_rows[:, 8], free_rows[:, 9]
    b13 = -(b11 + b12)
    b23 = -(b12 + b22)
    b33 = -(b13 + b23)
    b3 = 1.0 - b1 - b2
    cost = np.exp(free_rows[:, 0])

    # H = C * (B + r r' - diag(r)) at w = (1,1,1), where r = b
    h11 = cost * (b11 + b1 * b1 - b1)
    h22 = cost * (b22 + b2 * b2 - b2)
    h33 = cost * (b33 + b3 * b3 - b3)
    h12 = cost * (b12 + b1 * b2)
    h13 = cost * (b13 + b1 * b3)
    h23 = cost * (b23 + b2 * b3)

    ok = (h11 <= tol) & (h22 <= tol) & (h33 <= tol)
    ok &= h11 * h22 - h12 * h12 >= -tol
    ok &= h11 * h33 - h13 * h13 >= -tol
    ok &= h22 * h33 - h23 * h23 >= -tol
    det3 = (h11 * (h22 * h33 - h23 * h23)
            - h12 * (h12 * h33 - h23 * h13)
            + h13 * (h12 * h23 - h22 * h13))
    ok &= det3 <= tol
    return ok


# ---------------------------------------------------------------------------
# simulation DGP and estimation


@dataclass(frozen=True)
class TranslogDgp:
    """Sampling design for the curvature simulation.

    ln y and the three ln w_k are iid N(0, sigma_x^2), mutually
    independent; the response is the normalized regression evaluated at
    the benchmark coefficients (curvature slack ``delta``) plus
    N(0, sigma_eps^2) noise.
    """

    delta: float = 0.001
    sigma_x: float = 3.6
    sigma_eps: float = 0.5
    n: int = 100
    free: FreeParams = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.sigma_x < 0 or self.sigma_eps < 0:
            raise ValueError("sds must be nonnegative")
        if self.free is None:
            object.__setattr__(self, "free", default_free_params(self.delta))


@dataclass(frozen=True)
class TranslogData:
    """One simulated sample: raw log regressors and the normalized
    log-cost response ln(C / w3).  ``design`` is the read-only 10-column
    normalized design matrix of these regressors, built once here."""

    ln_y: np.ndarray
    ln_w: np.ndarray
    response: np.ndarray
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ly = np.asarray(self.ln_y, dtype=float)
        lw = np.asarray(self.ln_w, dtype=float)
        if lw.shape != (ly.size, 3) or np.asarray(self.response).shape != (ly.size,):
            raise ValueError("inconsistent sample shapes")
        z1 = lw[:, 0] - lw[:, 2]
        z2 = lw[:, 1] - lw[:, 2]
        design = np.column_stack([np.ones_like(ly), ly, 0.5 * ly * ly, ly * z1, ly * z2,
                                  z1, z2, 0.5 * z1 * z1, z1 * z2, 0.5 * z2 * z2])
        design.setflags(write=False)
        object.__setattr__(self, "design", design)


def simulate_dataset(dgp: TranslogDgp, rng) -> TranslogData:
    ln_y = rng.normal(0.0, dgp.sigma_x, dgp.n)
    ln_w = rng.normal(0.0, dgp.sigma_x, (dgp.n, 3))
    response = np.empty(dgp.n)
    data = TranslogData(ln_y=ln_y, ln_w=ln_w, response=response)
    # the response is filled in place, so the design is built only once
    np.matmul(data.design, dgp.free.as_vector(), out=response)
    if dgp.sigma_eps > 0:
        response += rng.normal(0.0, dgp.sigma_eps, dgp.n)
    return data


def weighted_fit(data: TranslogData, weights) -> FreeParams:
    """Weighted least squares of the response on the design.

    Weights are normalized by their maximum, so uniform weights of any
    level reproduce ols_fit bit for bit.  Raises RankDeficientError when
    the weighted design drops rank.
    """
    w = np.asarray(weights, dtype=float)
    x = data.design
    if w.shape != (x.shape[0],) or np.any(w < 0) or not w.max() > 0:
        raise ValueError("weights must be nonnegative, not all zero")
    s = np.sqrt(w / w.max())
    coef, _, rank, _ = np.linalg.lstsq(s[:, None] * x, s * data.response, rcond=None)
    if rank < x.shape[1]:
        raise RankDeficientError(f"weighted design has rank {rank} < {x.shape[1]}")
    return FreeParams.from_vector(coef)


def ols_fit(data: TranslogData) -> FreeParams:
    return weighted_fit(data, np.ones(np.asarray(data.ln_y).size))


def monotone_at_unit(free: FreeParams) -> bool:
    """Local monotonicity of the fitted cost function at the unit point:
    all three implied shares (= b_k there) are nonnegative."""
    return free.b1 >= 0.0 and free.b2 >= 0.0 and (1.0 - free.b1 - free.b2) >= 0.0


# ---------------------------------------------------------------------------
# Bayesian bootstrap posterior and the type I error simulation

_MAX_REDRAWS = 10
# OpenBLAS's default threshold: a GEMM of at most 2**18 multiply-adds
# runs on the calling thread alone
_GEMM_ELEMS = 1 << 18


def _product_table(data: TranslogData):
    """(n, 110) table: each observation's 100 products x_j x_k, row-major
    in (j, k), then its 10 products x_j y."""
    x = data.design
    return np.hstack([(x[:, :, None] * x[:, None, :]).reshape(len(x), 100),
                      x * data.response[:, None]])


def _normal_equations(table, wmat):
    """X'WX, shape (draws, 10, 10), and X'Wy, shape (draws, 10), for each
    row of weights in ``wmat``: one matrix product against the table, of
    which X'WX is a reshaped view."""
    g = np.empty((wmat.shape[0], table.shape[1]))
    step = max(1, _GEMM_ELEMS // table.size)
    for lo in range(0, g.shape[0], step):
        np.matmul(wmat[lo:lo + step], table, out=g[lo:lo + step])
    return g[:, :100].reshape(-1, 10, 10), g[:, 100:]


def _posterior_free_rows(data: TranslogData, draws, rng):
    """(draws, 10) Dirichlet-weighted least-squares coefficient rows, and
    the number of draws that had to be redrawn.

    The weighted normal equations of every draw come from one product of
    the (draws, n) weights with ``_product_table``, which is built once
    per dataset.  The table holds both triangles of x x', not only the 55
    distinct products, so X'WX needs no scatter into a second buffer: the
    product's (draws, 110) result is the only array it adds.

    The product runs in row blocks of at most ``_GEMM_ELEMS``
    multiply-adds.  A larger product can make OpenBLAS start its own
    threads (a 200-draw one at n = 100 does), and inside the worker
    processes that run table cells those oversubscribe the cores and cost
    more than they save.

    A draw is singular when its solve fails, gives a non-finite row, or
    has fewer than ten positive weights (then X'WX has rank below ten even
    where rounding hides it).  Each singular draw is redrawn, at most
    _MAX_REDRAWS times, then reported as an error; the other rows keep
    their values.  Fewer than ten observations make every draw singular,
    so they raise RankDeficientError before any weight is drawn.
    """
    n, k = data.design.shape
    if n < k:
        raise RankDeficientError(f"{n} observations cannot identify {k} coefficients")
    table = _product_table(data)

    def solve_rows(wmat):
        xtwx, xtwy = _normal_equations(table, wmat)
        try:
            rows = np.linalg.solve(xtwx, xtwy[..., None])[..., 0]
        except np.linalg.LinAlgError:
            rows = np.full(xtwy.shape, np.nan)
            for i in range(len(rows)):
                try:
                    rows[i] = np.linalg.solve(xtwx[i], xtwy[i])
                except np.linalg.LinAlgError:
                    pass
        if wmat.min() <= 0.0:
            rows[np.count_nonzero(wmat, axis=1) < k] = np.nan
        return rows

    rows = solve_rows(dirichlet_flat_sample(n, rng, size=draws))
    bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
    for i in bad:
        for _ in range(_MAX_REDRAWS):
            cand = solve_rows(dirichlet_flat_sample(n, rng, size=1))[0]
            if np.all(np.isfinite(cand)):
                rows[i] = cand
                break
        else:
            raise RankDeficientError(
                f"posterior draw {i} rank-deficient after {_MAX_REDRAWS} redraws")
    return rows, bad.size


@dataclass(frozen=True)
class NsdPosterior(McSummary):
    """The NSD posterior probability, with the number of its draws that
    were singular and redrawn."""

    redraws: int


def posterior_prob_nsd(data: TranslogData, draws=200, rng=None) -> NsdPosterior:
    """Posterior probability that the unit-point Hessian is NSD, under
    the flat Dirichlet weighting posterior for the coefficients."""
    if draws < 1:
        raise ValueError("need draws >= 1")
    if rng is None:
        rng = SeedPlan(0).stream(0)
    rows, redraws = _posterior_free_rows(data, draws, rng)
    p = float(_nsd_flags_from_free(rows).mean())
    return NsdPosterior(estimate=p, mc_se=mc_se(p, draws), reps=draws, master_seed=None,
                        redraws=redraws)


@dataclass(frozen=True)
class Type1Result:
    """Rejection-rate summary, the share of replications whose point
    estimate was locally monotone at the unit point, and the number of
    replications that redrew at least one singular posterior draw."""

    rejection: McSummary
    monotonicity_rate: float
    redrawn_reps: int


def type1_error_sim(dgp: TranslogDgp, alpha, reps=500, draws=200,
                    master_seed=0) -> Type1Result:
    """Simulated type I error of the curvature test: the fraction of
    samples whose posterior NSD probability falls at or below alpha."""
    check_alpha(alpha)

    def one_rep(_, rng):
        data = simulate_dataset(dgp, rng)
        post = posterior_prob_nsd(data, draws=draws, rng=rng)
        return [[post.estimate <= alpha, monotone_at_unit(ols_fit(data)), post.redraws > 0]]

    report = run_replications(one_rep, reps, SeedPlan.coerce(master_seed), 1)
    return Type1Result(rejection=report.summary,
                       monotonicity_rate=report.counts[1] / reps,
                       redrawn_reps=report.counts[2])
