"""First-order stochastic dominance (SD1) inference.

One sample against a reference CDF, or two samples against each other.
The Bayesian side puts a bootstrap posterior on the unknown CDFs and
reports the posterior probability that dominance holds everywhere on an
evaluation grid.  The frequentist side is a battery of p-values: one-sided
Kolmogorov-Smirnov for the null that dominance holds, and order-statistic /
minimum-t-statistic constructions for the null that it does not.

Conventions.  "X dominates" means F_X(t) <= F_Y(t) for all t (X puts more
mass on high values).  An opponent is a reference CDF, given as a
function that maps an array of points to CDF values, or a sample.
Empirical and bootstrap CDFs are evaluated right-continuously, and all
dominance checks run on the pooled sample points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (beta_cdf, beta_quantile, dirichlet_flat_sample,
                            std_normal_cdf)
from .mc_harness import (McSummary, SeedPlan, check_alpha, parallel_map,
                         run_replications)

RUBIN = "rubin"
BANKS = "banks"


def UNIFORM01(t):
    """The Unif(0, 1) reference CDF."""
    return np.clip(t, 0.0, 1.0)


@dataclass(frozen=True)
class SdConfig:
    """Knobs for the Bayesian dominance posterior.

    draws: posterior draw count per evaluation.
    bootstrap: "rubin" (weighted step CDF) or "banks" (weights spread
        linearly between order statistics, endpoint atoms at the sample
        min and max, no tail extrapolation).
    tol: dominance slack added to the opposing CDF (default 0, finite).
    dd_boot: bootstrap replicates for the two-sample min-t p-value.
    """

    draws: int = 2000
    bootstrap: str = BANKS
    tol: float = 0.0
    dd_boot: int = 999

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.bootstrap not in (RUBIN, BANKS):
            raise ValueError(f"unknown bootstrap variant {self.bootstrap!r}")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if self.dd_boot < 1:
            raise ValueError("dd_boot must be >= 1")


# ---------------------------------------------------------------------------
# samples and the fixed design


def _sorted_sample(sample):
    """The sample as a sorted 1-d float array.  An empty sample or a nan or
    inf value is refused: either would give a silent number downstream."""
    s = np.asarray(sample, dtype=float)
    if s.ndim != 1:
        raise ValueError("sample must be 1-d")
    if s.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(s).all():
        raise ValueError("sample holds non-finite values (nan or inf)")
    return np.sort(s)


def _opponent(xs, opponent):
    """What a test of the sorted sample ``xs`` reads of its opponent: the
    values of a reference CDF, a function of an array of points, at xs, or
    else the opponent sample sorted.  Reference values must be CDF values,
    one per point and each in [0, 1], which refuses nan and inf: anything
    else would give a silent p-value or posterior downstream."""
    if not callable(opponent):
        return _sorted_sample(opponent)
    values = np.asarray(opponent(xs), dtype=float)
    if values.shape != xs.shape or not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"reference CDF {opponent!r} must give one value in [0, 1] per point")
    return values


def fixed_design_sample(n, h):
    """Deterministic near-uniform samples: x_i = i/(n+1) + h/sqrt(n) for
    i = 1..n, y_i = i/n for i = 1..n-1.

    At h = 0 the x sample sits strictly inside (0, 1) and is dominated by
    the y sample and by the uniform reference; h > 0 shifts x upward at
    the local-alternative rate.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    i = np.arange(1, n + 1, dtype=float)
    x = i / (n + 1) + h / math.sqrt(n)
    y = np.arange(1, n, dtype=float) / n
    return x, y


# ---------------------------------------------------------------------------
# bootstrap posterior draws for a CDF


@dataclass(frozen=True)
class _RowTable:
    """Where each point of a sorted grid reads a bootstrap CDF row of
    ``cells`` weights (n under rubin, n + 1 under banks).

    With C[k] the running sum of a row's first k weights, grid column j
    reads 0 for j < lo, exactly 1 for j >= hi (from the sample max on,
    where C[n] would read 1 +- 1 ulp), and C[k[j]] + frac[j] * w[k[j]] in
    between.  rubin has no frac (the step CDF's value is C[k]).  banks
    weights are an atom at the sample min, one weight per gap spread
    linearly across it, and an atom at the max; with n = 1 the interior is
    empty and the row is the step at the single point.  k is nondecreasing
    because the grid is sorted.
    """

    k: np.ndarray
    frac: np.ndarray | None
    lo: int
    hi: int
    cells: int


def _row_table(sorted_sample, variant, grid):
    xs = sorted_sample
    n = xs.size
    seg = np.searchsorted(xs, grid, side="right")
    lo = int(np.searchsorted(seg, 0, side="right"))
    hi = int(np.searchsorted(seg, n, side="left"))
    if variant == RUBIN:
        return _RowTable(k=seg, frac=None, lo=lo, hi=hi, cells=n)
    k = seg[lo:hi]
    width = xs[k] - xs[k - 1]
    frac = np.where(width > 0, (grid[lo:hi] - xs[k - 1]) / np.where(width > 0, width, 1.0), 1.0)
    padded = np.zeros(grid.size)
    padded[lo:hi] = frac
    return _RowTable(k=seg, frac=padded, lo=lo, hi=hi, cells=n + 1)


# weights a sample's rows draw per step, for the draws still alive: the
# next _WEIGHT_CHUNK cells' weights and the rest of the unseen mass.  Part
# of the sampling scheme, like _BATCH_DRAWS: which weights a draw gets
# depends on it, so changing it re-rolls every posterior on a sample of
# more cells than it
_WEIGHT_CHUNK = 128
# grid columns evaluated per step of the dominance walk, at most; output
# does not depend on it.  A walk is one block of at most _POSTERIOR_BLOCK
# draws, so a step holds at most 500 x 64 values per sample
_CHUNK_COLS = 64
# posterior draws per block, at most: posterior_prob_sd1 walks its draws
# in consecutive blocks, each on substreams of its own, and adds up their
# counts.  Part of the sampling scheme, like _WEIGHT_CHUNK and
# _BATCH_DRAWS: a draw's weights depend on its block, so changing it
# re-rolls every posterior of more draws than it.  It is at least
# _BATCH_DRAWS, so that each batch of a simulated Bayesian replication is
# one block.  One block's rows per sample are all a posterior holds at
# once, which bounds its memory whatever its draws
_POSTERIOR_BLOCK = 500


def _running_sums(carry, w):
    """[carry, carry + w[0], carry + w[0] + w[1], ...] per draw (column):
    the running sum extended by a sequential cumsum down the cells, so
    every value is the same float a cumsum over the whole row gives."""
    cum = np.empty((w.shape[0] + 1, carry.size))
    cum[0] = carry
    cum[1:] = w
    return np.cumsum(cum, axis=0, out=cum)


class _LazyRows:
    """One sample's bootstrap CDF rows at the grid columns, for the
    posterior draws still alive, with the Dirichlet weights drawn a chunk
    at a time.

    The draws run along the last axis: ``w`` is (cells, alive), contiguous,
    and ``columns`` returns (columns, alive), so a step's sums, gathers and
    comparisons work on whole contiguous rows of draws.  A draw holds its
    running sum C[pos] (``carry``) and, in its column of ``w``, the weights
    of cells [pos, drawn), drawn but not yet summed, followed, while cells
    remain unseen, by their total mass.  With r cells unseen, the next
    chunk of c = min(_WEIGHT_CHUNK, r) weights and the new unseen mass are
    the old mass times a Dirichlet(1, ..., 1, r - c) draw (normalized, then
    scaled), so every assembled row is flat Dirichlet.

    The first chunk, of mass 1, is drawn for every draw at once and left
    unscaled, so a row of at most _WEIGHT_CHUNK cells is one
    dirichlet_flat_sample row, float for float.  A later chunk is drawn
    only when ``advance`` reaches ``ready``, the first column that reads a
    cell not yet drawn, and only for the draws then alive, in draw order:
    their exponentials row-major, then their gammas.  Each chunk is drawn
    (alive, cells) as dirichlet_flat_sample gives it, whose row sums set
    the floats, and then transposed in one copy.

    A walk with a floor (see _walk_count) drops its rows once too few
    draws are alive; the weights of the draws it reads do not depend on
    the floor.
    """

    def __init__(self, table, rng, draws):
        self.table = table
        self.rng = rng
        self.carry = np.zeros(draws)
        self.pos = self.drawn = 0
        self._draw()

    def _draw(self):
        r = self.table.cells - self.drawn
        c = min(_WEIGHT_CHUNK, r)
        e = dirichlet_flat_sample(c, self.rng, size=self.carry.size, rest=r - c).T.copy()
        if self.drawn:
            # sum the drawn cells into the carry and split the unseen mass
            self.carry = _running_sums(self.carry, self.w[:-1])[-1]
            self.pos = self.drawn
            e *= self.w[-1]
        self.w = e
        self.drawn += c
        # column j reads cells [0, k[j] + (frac is not None)) for lo <= j < hi
        t = self.table
        need = self.drawn - (t.frac is not None)
        self.ready = t.lo + int(np.searchsorted(t.k[t.lo:t.hi], need, side="right"))
        if self.ready == t.hi:
            self.ready = t.k.size

    def advance(self, j0, j1):
        """Draws the chunks column j0 reads, for the draws alive, and
        returns the end, at most j1, of the columns from j0 on that read
        only drawn cells."""
        while self.ready == j0:
            self._draw()
        return min(j1, self.ready)

    def columns(self, j0, j1):
        """The alive draws' values at grid columns [j0, j1), which must
        read only drawn cells, as (j1 - j0, alive); advances the carry."""
        t = self.table
        out = np.empty((j1 - j0, self.carry.size))
        a = min(max(j0, t.lo), j1)
        b = min(max(j0, t.hi), j1)
        out[:a - j0] = 0.0
        out[b - j0:] = 1.0
        if a < b:
            k = t.k[a:b] - self.pos
            q = int(k[-1])
            cum = _running_sums(self.carry, self.w[:q])
            vals = out[a - j0:b - j0]
            np.take(cum, k, axis=0, out=vals)
            if t.frac is not None:
                vals += t.frac[a:b, None] * self.w[k]
            self.carry = cum[q]
            self.w = self.w[q:]
            self.pos += q
        return out

    def keep(self, ok):
        """Drops the draws where ``ok`` is False."""
        self.w = self.w[:, ok]
        self.carry = self.carry[ok]


def _substreams(rng, k):
    """k PCG64 generators on children spawned from the SeedSequence behind
    ``rng``.  The bit generator's state is left as it is; its SeedSequence
    counts the children, so the next call on ``rng`` gets fresh ones."""
    return [np.random.Generator(np.random.PCG64(seq))
            for seq in rng.bit_generator.seed_seq.spawn(k)]


def _zero_posterior(xs, fixed_bound, ys, tol):
    """Whether some grid column violates the dominance bound in every
    posterior draw, so the posterior is exactly 0.

    ``xs`` and ``ys`` are sorted; ``fixed_bound`` is ref + tol on xs for a
    reference opponent.  Every row reads exactly 1.0 from its sample max
    on, in both variants.  The cases:
      - against a reference, when ref(x_(n)) + tol < 1: the row reads 1.0
        at the sample max;
      - two samples at tol == 0, when min x < min y: there X's row is at
        least its first weight and Y's is 0;
      - two samples at tol == 0, when max x < max y: X's row reads 1.0 at
        its max, and Y's is a partial sum short of its top weight.
    This screen is the exact posterior; the Monte Carlo count estimates
    it, and a draw could disagree with it only through an exponential
    weight of exactly 0.0 or a partial sum that rounds to 1.0.
    """
    if ys is None:
        return fixed_bound[-1] < 1.0
    return tol == 0 and (xs[0] < ys[0] or xs[-1] < ys[-1])


def _walk_setup(xs, opponent, variant, tol):
    """The dominance walk of the sorted sample ``xs`` against ``opponent``,
    a reference CDF function or a sample (see _opponent), as a function of
    (draws, rx, ry, floor=0): _walk_count with what every walk over them
    shares bound in, which is the pooled grid's size, ref + tol on the grid
    against a reference (None against a sample), each sample's _RowTable,
    and tol.  None when _zero_posterior screens the posterior out."""
    other = _opponent(xs, opponent)
    if callable(opponent):
        grid, fixed_bound, ys = xs, other + tol, None
    else:
        grid, fixed_bound, ys = np.sort(np.concatenate([xs, other])), None, other
    if _zero_posterior(xs, fixed_bound, ys, tol):
        return None
    tables = [_row_table(s, variant, grid) for s in (xs, ys) if s is not None]
    return functools.partial(_walk_count, grid.size, fixed_bound, tables, tol)


def _walk_count(width, fixed_bound, tables, tol, draws, rx, ry, floor=0):
    """Number of ``draws`` posterior draws with F_X <= bound + tol at every
    one of the pooled grid's ``width`` columns, on the set-up _walk_setup
    gives.

    X's weights come off the generator ``rx`` and the opponent sample's
    off ``ry``, each a chunk of cells at a time (see _LazyRows).  The grid
    is walked in steps of _CHUNK_COLS columns, the first step one column,
    keeping only the draws that have not yet violated the bound: each step
    extends the alive draws' running CDF sums from a per-draw carry,
    compares those columns, and drops every violating draw; the walk ends
    early once none is left.  A step stops short of the first column that
    reads a cell not yet drawn, so a sample's next chunk is drawn, for the
    draws then alive, only after every earlier column has been checked:
    the weights a draw gets depend on _WEIGHT_CHUNK but not on the steps.
    The count equals that of a whole-matrix evaluation of the same weights
    bit for bit, since the carry-extended cumsum adds the same terms in
    the same order as a cumsum over the whole row.  (With one generator as
    both sources, X's chunk comes before Y's wherever both draw.)  The
    one-column first step means a walk whose draws all die there sums and
    gathers no further cells.  Samples that _zero_posterior screens out
    get no walk, so count 0 before any weight is drawn.

    With a ``floor``, only whether the count reaches it is wanted: the walk
    returns the exact count when that is >= floor, and otherwise some count
    below floor, the draws still alive when fewer than floor are (before
    any weight is drawn, if draws < floor).  The draws it reads get the
    weights they get without a floor.
    """
    if draws < floor:
        return draws
    samples = [_LazyRows(table, rng, draws) for table, rng in zip(tables, (rx, ry))]
    j0, j1 = 0, 1
    while j0 < width:
        for sample in samples:
            j1 = sample.advance(j0, j1)
        f = [sample.columns(j0, j1) for sample in samples]
        if fixed_bound is not None:
            bound = fixed_bound[j0:j1, None]
        else:
            bound = f[1]
            bound += tol
        ok = np.all(f[0] <= bound, axis=0)
        if not ok.all():
            alive = int(np.count_nonzero(ok))
            if alive < max(floor, 1):
                return alive
            for sample in samples:
                sample.keep(ok)
        j0, j1 = j1, min(width, j1 + _CHUNK_COLS)
    return samples[0].carry.size


# ---------------------------------------------------------------------------
# Bayesian dominance posterior


def posterior_prob_sd1(x_sample, opponent, cfg: SdConfig = SdConfig(), rng=None,
                       workers=1, *, floor=0) -> McSummary:
    """Posterior probability that X's CDF dominates the opponent.

    ``opponent`` is a reference CDF, given as a function that maps an array
    of points to CDF values (UNIFORM01, say), or a sample; a reference's
    values at the sample must lie in [0, 1] (see _opponent).  The event
    checked per posterior draw is F_X(t) <= opponent(t) + tol at every t in
    the evaluation grid (union of sample points, right-continuous values).
    Against an opponent sample, both CDFs get independent posterior draws
    per iteration.

    The draws are walked in consecutive blocks of _POSTERIOR_BLOCK (500),
    the last one short, each a _walk_count walk of its own, and the
    blocks' counts add up to the posterior's.  X's weights come from PCG64
    substreams of ``rng`` and the opponent sample's from others (see
    _substreams), so ``rng`` must be built on a SeedSequence, as SeedPlan
    streams and np.random.default_rng are.  The call spawns two children
    of ``rng``'s SeedSequence, whatever the draws, and leaves its bit
    generator as it is, so a second call on it draws fresh weights.
    Block 0 reads those two children; block b >= 1 reads the (b - 1)-th
    child spawned from each of them.  So a posterior of at most 500 draws
    is one _walk_count walk on _substreams(rng, 2), and each block's
    weights depend on the block structure alone.

    ``workers`` runs the blocks in at most that many forked processes (see
    mc_harness.parallel_map).  The blocks and their streams do not depend
    on it, and their counts are exact integer sums, so neither does the
    result.  A posterior that _zero_posterior screens out counts 0 before
    any block is made or any process started.

    Each substream is read chunk by chunk, and a draw that violates
    dominance draws no later chunk (see _LazyRows), so which weights a
    draw gets depends on _WEIGHT_CHUNK; on a sample of at most
    _WEIGHT_CHUNK cells (n under rubin, n + 1 under banks) each draw's
    weights are one dirichlet_flat_sample row.  A block's rows, at most
    500 per sample, are all the weights a walk holds at once; beyond them
    a posterior holds only its blocks' substreams, about a kilobyte per
    block.

    With a ``floor``, only whether the dominated count reaches it is
    wanted, as with dd_pvalue_nonsd1's ``alpha``.  The estimate is then
    the exact one when the count is >= floor, and otherwise some count
    below floor over cfg.draws.  A block of s draws walks with the floor
    floor - (cfg.draws - s), the least it must count for the total to
    reach floor, and stops once fewer draws than that are alive (see
    _walk_count); a block that stops so leaves the total below floor.  The
    two children are spawned and the blocks' streams assigned as without
    a floor, so a later call on ``rng`` reads the same streams.
    """
    if rng is None:
        rng = SeedPlan(0).stream(0)
    rx, ry = _substreams(rng, 2)
    walk = _walk_setup(_sorted_sample(x_sample), opponent, cfg.bootstrap, cfg.tol)
    count = 0
    if walk is not None:
        sizes = [min(_POSTERIOR_BLOCK, cfg.draws - first)
                 for first in range(0, cfg.draws, _POSTERIOR_BLOCK)]
        streams = zip([rx, *_substreams(rx, len(sizes) - 1)],
                      [ry, *_substreams(ry, len(sizes) - 1)])
        count = sum(parallel_map([functools.partial(walk, draws, bx, by, floor - cfg.draws + draws)
                                  for draws, (bx, by) in zip(sizes, streams)], workers))
    return McSummary(count / cfg.draws, cfg.draws)


# ---------------------------------------------------------------------------
# frequentist p-values


def ks_pvalue_sd1(x_sample, opponent) -> float:
    """One-sided Kolmogorov-Smirnov p-value for the null that X dominates.

    ``opponent`` is a reference CDF function or a sample, as in
    posterior_prob_sd1.  Large upward excursions of F_X-hat above the
    opponent are evidence against dominance.  Uses the asymptotic
    exponential tail formula: one-sample exp(-2 n D+^2), two-sample
    exp(-2 D+^2 nm/(n+m)).

    A reference's values at the sample must be CDF values, in [0, 1], or
    the call raises ValueError.  The sample itself may lie anywhere;
    UNIFORM01 reads 0 below [0, 1] and 1 above it.
    """
    x = _sorted_sample(x_sample)
    n = x.size
    other = _opponent(x, opponent)
    if callable(opponent):
        fx, f_other, scale = np.arange(1, n + 1) / n, other, n
    else:
        m = other.size
        cx, cy = _pooled_counts(x, other)
        fx, f_other, scale = cx / n, cy / m, n * m / (n + m)
    d_plus = max(float(np.max(fx - f_other)), 0.0)
    return float(min(1.0, math.exp(-2.0 * scale * d_plus * d_plus)))


def iu_beta_pvalue_nonsd1(x_sample, f0=UNIFORM01) -> float:
    """Order-statistic p-value for the null that X does NOT dominate f0.

    f0 is a reference CDF, a function that maps an array of points to CDF
    values; this test has no two-sample form.  Under sampling from f0
    itself, f0(X_(k)) ~ Beta(k, n+1-k); values far in that distribution's
    upper tail at every k are evidence that X sits above f0 everywhere.
    Each k contributes the upper-tail p-value 1 - I_{f0(x_(k))}(k, n+1-k),
    and the overall p-value is the largest component (reject only if every
    pointwise test rejects).

    f0's values at the sample must be CDF values, in [0, 1], or the call
    raises ValueError, as it does for a sample in place of f0.  The sample
    itself may lie anywhere; UNIFORM01 reads 0 below [0, 1] and 1 above it.
    """
    if not callable(f0):
        raise ValueError("iu_beta has no two-sample form: f0 must be a reference CDF")
    x = _sorted_sample(x_sample)
    n = x.size
    u = _opponent(x, f0)
    k = np.arange(1, n + 1, dtype=float)
    comp = 1.0 - beta_cdf(u, k, n + 1.0 - k)
    return float(np.max(comp))


def _min_t_terms(fx, fy, n, m):
    """Dominance t-statistics (fy - fx) / se of empirical CDF values from
    samples of sizes n and m; inf where either CDF is 0 or 1 or se is 0,
    so those points never attain the minimum."""
    keep = (fx > 0.0) & (fx < 1.0) & (fy > 0.0) & (fy < 1.0)
    se = np.sqrt(fx * (1.0 - fx) / n + fy * (1.0 - fy) / m)
    return np.where(keep & (se > 0), (fy - fx) / np.where(se > 0, se, 1.0), np.inf)


def _pooled_counts(x_sorted, y_sorted):
    """Each sorted sample's count of points at or below each point of the
    sorted pooled grid: n and m times the empirical CDFs there."""
    grid = np.sort(np.concatenate([x_sorted, y_sorted]), kind="mergesort")
    return tuple(np.searchsorted(s, grid, side="right") for s in (x_sorted, y_sorted))


def _interior_min_t(x_sorted, y_sorted):
    """Minimum dominance t-statistic over pooled points with both empirical
    CDFs strictly inside (0, 1); returns (t_min, (kx, ky)), the samples'
    counts at or below the first pooled point that attains it, or
    (nan, None) when no such point exists."""
    n, m = x_sorted.size, y_sorted.size
    cx, cy = _pooled_counts(x_sorted, y_sorted)
    t = _min_t_terms(cx / n, cy / m, n, m)
    j = int(np.argmin(t))
    if t[j] == np.inf:
        return float("nan"), None
    return float(t[j]), (int(cx[j]), int(cy[j]))


def iu_maxt_pvalue_nonsd1(x_sample, y_sample) -> float:
    """Asymptotic max-p / min-t p-value for the null that X does not
    dominate Y: p = max over grid points of 1 - Phi(t), equivalently
    1 - Phi(min t)."""
    t_min, _ = _interior_min_t(_sorted_sample(x_sample), _sorted_sample(y_sample))
    if not np.isfinite(t_min):
        return 1.0
    return float(1.0 - std_normal_cdf(t_min))


# cap on replicate rows * pooled grid points drawn and reduced at once by
# the min-t bootstrap, small enough for a block's counts to stay in cache
# and for a decision-only test to stop after few rows; output does not
# depend on it
_DD_BLOCK_ELEMS = 25_000


def _two_sided_points(u, low, k):
    """Indices of the points a row of uniforms ``u`` resamples: the first
    low[r] of row r uniform on [0, k), the rest uniform on [k, size).  The
    floor of u * width is at most width - 1 for every float u < 1."""
    below = np.arange(u.shape[1]) < low[:, None]
    return np.where(below, 0, k) + (u * np.where(below, k, u.shape[1] - k)).astype(np.intp)


def _bootstrap_min_t_rows(x_sorted, y_sorted, kx, ky, q, n_boot, rng, t_obs, limit=None):
    """Min-t statistics, screened against t_obs, for n_boot resamples drawn
    from reweighted samples: mass q on the first kx points of x and the
    first ky points of y (0 < kx < n, 0 < ky < m).

    Each returned value equals its row's min-t whenever that min-t is >=
    t_obs, and is otherwise some value below t_obs, so the count of values
    >= t_obs is exact.  A resampled x point is one of the first kx with
    probability q, and then uniform on its side, so a row's split-point
    counts, how many of its x and y points lie among the first kx and ky,
    are Binomial(n, q) and Binomial(m, q).  They give the row's empirical
    CDFs at the split point, and the t-statistic they give is one term of
    the row's min.  A row whose split-point t is below t_obs keeps that t;
    only the other rows draw their points and are reduced in full.  Row r's
    first counts[r, 0] x points are floor(u * kx) and the rest kx +
    floor(u * (n - kx)), for one uniform u each; likewise for y.

    The full reduction evaluates every min-t on the original pooled grid,
    which is exact because the resampled empirical CDFs only change value
    at original sample points; per-row point counts come from one bincount
    per block of replicate rows.  ``rng`` gives the split-point counts of
    all n_boot rows first, row-major, then the n + m uniforms of each
    reduced row in row order, its x-uniforms before its y-uniforms, so the
    blocking does not change the uniforms of a row or its value.

    ``limit`` ends the drawing and the reduction after the first row block
    that brings the number of values >= t_obs to limit; only the rows up to
    the last one reduced are returned.
    """
    n, m = x_sorted.size, y_sorted.size
    grid = np.sort(np.concatenate([x_sorted, y_sorted]))
    big = grid.size
    # pooled-grid slot of each sample point, so a resampled point's slot
    # is a lookup instead of a search; ties are fine: counts land on the
    # first slot of a tie run and the cumulative sums below restore the
    # correct CDF values
    gx = np.searchsorted(grid, x_sorted, side="left")
    gy = np.searchsorted(grid, y_sorted, side="left")
    counts = rng.binomial((n, m), q, size=(n_boot, 2))
    # the same integer counts, and so the same floats, as the full
    # reduction's cumulative sums give at the split point's column
    t_min = _min_t_terms(counts[:, 0] / n, counts[:, 1] / m, n, m)
    live = np.flatnonzero(t_min >= t_obs)
    step = max(1, _DD_BLOCK_ELEMS // big)
    hits = 0
    for b0 in range(0, live.size, step):
        rows = live[b0:b0 + step]
        u = rng.random((rows.size, n + m))
        sx = gx[_two_sided_points(u[:, :n], counts[rows, 0], kx)]
        sy = gy[_two_sided_points(u[:, n:], counts[rows, 1], ky)]
        offset = np.arange(rows.size)[:, None] * big
        size = rows.size * big
        countx = np.bincount((sx + offset).ravel(), minlength=size).reshape(-1, big)
        county = np.bincount((sy + offset).ravel(), minlength=size).reshape(-1, big)
        fx = np.cumsum(countx, axis=1) / n
        fy = np.cumsum(county, axis=1) / m
        t_min[rows] = _min_t_terms(fx, fy, n, m).min(axis=1)
        hits += np.count_nonzero(t_min[rows] >= t_obs)
        if limit is not None and hits >= limit:
            return t_min[:rows[-1] + 1]
    return t_min


def dd_pvalue_nonsd1(x_sample, y_sample, n_boot=999, rng=None, *, alpha=None) -> float:
    """Bootstrap min-t p-value for the null that X does not dominate Y.

    The observed statistic is the minimum dominance t-statistic over the
    interior pooled grid.  When it is not positive (or no interior point
    exists) there is no dominance evidence and p = 1.  Otherwise both
    samples are reweighted to satisfy the least-favorable one-point null
    F_X = F_Y at the argmin: the common value is estimated by pooling,
    each sample's mass below/above the argmin is rescaled to match, and
    resamples from the weighted samples yield the reference distribution
    for the statistic.  p = (1 + #{t* >= t_obs}) / (n_boot + 1).  Each
    resample first draws its counts at or below the argmin, as binomials;
    one whose t there is already below t_obs draws no points and is not
    reduced over the whole grid (see _bootstrap_min_t_rows).

    The counts of every resample, then the uniforms of the resamples
    reduced in full, come from one PCG64 substream of ``rng`` (see
    _substreams); ``rng``'s bit generator is not advanced.

    With ``alpha`` set, only whether p <= alpha is wanted.  The bootstrap
    then stops drawing and reducing rows once #{t* >= t_obs} reaches the
    smallest count whose p, by the same float expression, exceeds alpha
    (the sequential Monte Carlo test of Besag and Clifford 1991), and
    returns the p of the rows drawn so far.  That value is the full
    p-value when it is <= alpha, and otherwise only known to exceed
    alpha, so ``p <= alpha`` is the same decision either way.  A row's
    counts and uniforms do not depend on the stop, so the rows drawn are
    the first rows of the full p-value's.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    if rng is None:
        rng = SeedPlan(0).stream(0)
    sub, = _substreams(rng, 1)
    x = _sorted_sample(x_sample)
    y = _sorted_sample(y_sample)
    n, m = x.size, y.size
    t_obs, split = _interior_min_t(x, y)
    if not np.isfinite(t_obs) or t_obs <= 0.0:
        return 1.0
    kx, ky = split
    q = (kx + ky) / (n + m)
    limit = None
    if alpha is not None:
        over = np.flatnonzero((1.0 + np.arange(n_boot + 1)) / (n_boot + 1.0) > alpha)
        if over.size:
            limit = int(over[0])
    # degenerate splits cannot occur: the argmin has both ECDFs in (0, 1)
    t_star = _bootstrap_min_t_rows(x, y, kx, ky, q, n_boot, sub, t_obs, limit)
    return float((1.0 + np.sum(t_star >= t_obs)) / (n_boot + 1.0))


# ---------------------------------------------------------------------------
# simulated rejection probabilities (uniform shift DGP)


def _draw_shifted_uniform(n, h, rng):
    shift = h / math.sqrt(n)
    return rng.uniform(shift, 1.0 + shift, n)


# draws per posterior call of a simulated Bayesian replication; it may stop
# after any batch but its last
_BATCH_DRAWS = 300
# bound on the chance that a Bayesian replication stops at a look whose
# Clopper-Pearson interval misses the exact posterior probability; split
# evenly over the looks (Bonferroni)
_TOPUP_ERROR = 1e-3


@functools.cache
def _topup_counts(draws, alpha, error):
    """Range (lo, hi) of counts k of null draws out of ``draws`` whose
    two-sided Clopper-Pearson interval at level 1 - error covers alpha.

    Both interval ends increase with k, so the covering counts are one
    range; consecutive intervals overlap, so it is never empty.
    """
    tail = error / 2.0
    k = np.arange(draws + 1, dtype=float)
    lower = np.zeros(draws + 1)
    lower[1:] = beta_quantile(tail, k[1:], draws - k[1:] + 1.0)
    upper = np.ones(draws + 1)
    upper[:-1] = beta_quantile(1.0 - tail, k[:-1] + 1.0, draws - k[:-1])
    covered = np.flatnonzero((lower <= alpha) & (alpha <= upper))
    return int(covered[0]), int(covered[-1])


def _decision_floor(nulls, done, take, null, alpha, covering):
    """The floor for a Bayesian replication's next batch of ``take`` draws,
    after ``nulls`` null draws out of ``done``: the least dominated count
    of the batch whose outcome differs from that of a count of 0, or take
    + 1 if none does, and 0 when a count of 0 continues.

    A batch's outcome, given its dominated count d, is what the
    replication does with it: continue, or stop with the decision nulls /
    done <= alpha.  It stops where the range ``covering`` = (lo, hi) of
    the look after the batch excludes the pooled null count; the last
    batch, which has no look, passes an empty range (lo > hi).  Every
    count below the floor has the outcome of 0, so a posterior that is
    only known to count below the floor decides the batch.  A count of 0
    that continues needs the exact count, since the next look pools it,
    so the scan counts every continuing d as a change.  The outcomes are
    the replication's own integer comparisons and float division, for
    every d at once, as dd_pvalue_nonsd1 finds its stop count.
    """
    d = np.arange(take + 1)
    pooled = nulls + (d if null == "sd1" else take - d)
    lo, hi = covering
    goes_on = (lo <= pooled) & (pooled <= hi)
    reject = pooled / (done + take) <= alpha
    differs = np.flatnonzero(goes_on | (reject != reject[0]))
    return int(differs[0]) if differs.size else take + 1


def sd_rejection_probability(h, n, two_sample, null, method, alpha, reps,
                             cfg: SdConfig = SdConfig(), master_seed=0) -> McSummary:
    """Simulated rejection rate for dominance tests under a uniform shift.

    Per replication, X ~ Unif(h/sqrt(n), 1 + h/sqrt(n)) with n points; the
    opponent is the exact Unif(0, 1) reference (one-sample) or an
    independent Unif(0, 1) sample of the same size (two-sample).

    null="sd1" tests the null that X dominates; null="non_sd1" tests the
    null that it does not.  method is "ks" (for null "sd1"), "iu_beta",
    "dd", "iu_maxt" (for null "non_sd1"), or "bayes" (for either); the
    Bayesian test rejects when the posterior probability of the null is
    <= alpha (for null="non_sd1" that probability is one minus the
    dominance posterior, computed from the same draws).  The dd test
    passes alpha to dd_pvalue_nonsd1, whose bootstrap stops once p > alpha
    is certain; the decision is that of the full p-value.

    The Bayesian test spends at most ``cfg.draws`` posterior draws per
    replication, in batches of _BATCH_DRAWS (300), each a fresh
    posterior_prob_sd1 call on the replication's stream; the last batch
    may be short, and cfg.draws <= 300 makes one call.  After every batch
    but the last, the null draws counted so far give a two-sided
    Clopper-Pearson interval for the null probability; the replication
    stops there, deciding on the pooled estimate, once that interval
    excludes alpha (multi-stage sequential Monte Carlo tests, Davidson and
    MacKinnon 2000 and Gandy 2009).  An interval that excludes alpha lies
    on the same side of it as the pooled estimate.  Each look's interval
    has level 1 - _TOPUP_ERROR / looks, so the chance that some look's
    interval excludes the exact posterior probability, and with it the
    chance that a replication which stops early decides differently from
    the exact posterior, is at most _TOPUP_ERROR (1e-3) by Bonferroni.
    The covering counts form one range per look, computed once per
    process, so each look is two integer comparisons.

    Only the side of alpha a replication's pooled estimate falls on is
    wanted, so each batch's posterior is called with the floor of
    _decision_floor: the least dominated count that would change what the
    replication does next.  The posterior stops once fewer draws than that
    are alive, and the replication continues or stops, and decides, as it
    would on the exact count (Besag and Clifford 1991 applied at each
    look).  A replication that would continue gets the exact count.
    """
    check_alpha(alpha)
    if null not in ("sd1", "non_sd1"):
        raise ValueError("null must be 'sd1' or 'non_sd1'")
    nulls = {"ks": "sd1", "iu_beta": "non_sd1", "dd": "non_sd1", "iu_maxt": "non_sd1",
             "bayes": null}
    if method not in nulls:
        raise ValueError(f"method must be one of {sorted(nulls)}")
    if nulls[method] != null:
        raise ValueError(f"{method} tests the null {nulls[method]!r}, not {null!r}")
    if method == "iu_beta" and two_sample:
        raise ValueError("iu_beta is a one-sample test")
    if method in ("dd", "iu_maxt") and not two_sample:
        raise ValueError(f"{method} is a two-sample test")

    if method == "bayes":
        batch = min(_BATCH_DRAWS, cfg.draws)
        # cumulative draw counts after which a replication may stop
        looks = range(batch, cfg.draws, batch)
        error = _TOPUP_ERROR / max(1, len(looks))
        covering = {d: _topup_counts(d, alpha, error) for d in looks}

    def bayes_rejects(x, opponent, rng):
        nulls = done = 0
        while True:
            take = min(batch, cfg.draws - done)
            # the last batch has no look: its empty range always stops
            lo, hi = covering.get(done + take, (1, 0))
            floor = _decision_floor(nulls, done, take, null, alpha, (lo, hi))
            p = posterior_prob_sd1(x, opponent, cfg=replace(cfg, draws=take), rng=rng,
                                   floor=floor).estimate
            dominated = round(p * take)
            nulls += dominated if null == "sd1" else take - dominated
            done += take
            if not lo <= nulls <= hi:
                return nulls / done <= alpha

    def one_rep(_, rng):
        x = _draw_shifted_uniform(n, h, rng)
        y = rng.uniform(0.0, 1.0, n) if two_sample else None
        if method == "bayes":
            return [bayes_rejects(x, y if two_sample else UNIFORM01, rng)]
        if method == "ks":
            p = ks_pvalue_sd1(x, y if two_sample else UNIFORM01)
        elif method == "iu_beta":
            p = iu_beta_pvalue_nonsd1(x, UNIFORM01)
        elif method == "dd":
            p = dd_pvalue_nonsd1(x, y, n_boot=cfg.dd_boot, rng=rng, alpha=alpha)
        else:
            p = iu_maxt_pvalue_nonsd1(x, y)
        return [p <= alpha]

    counts = run_replications(one_rep, reps, SeedPlan.coerce(master_seed), 1)
    return McSummary(counts[0] / reps, reps)
