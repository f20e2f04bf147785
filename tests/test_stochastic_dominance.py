"""Tests for the stochastic dominance module.

Small hand-computable samples pin the p-value formulas; the incomplete
beta route is cross-checked against the binomial-sum oracle in conftest;
posterior behaviors are pinned through deterministic extreme cases where
every bootstrap draw gives the same verdict.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

import ineqtest.stochastic_dominance as sd
from conftest import oracle_beta_cdf_int, oracle_normal_cdf
from ineqtest.distributions import dirichlet_flat_sample
from ineqtest.mc_harness import McSummary, SeedPlan
from ineqtest.stochastic_dominance import (
    BANKS,
    RUBIN,
    UNIFORM01,
    SdConfig,
    dd_pvalue_nonsd1,
    fixed_design_sample,
    iu_beta_pvalue_nonsd1,
    iu_maxt_pvalue_nonsd1,
    ks_pvalue_sd1,
    posterior_prob_sd1,
    sd_rejection_probability,
)


# ---------------------------------------------------------------------------
# reference CDFs and config


class TestReferenceCdf:
    def test_uniform01(self):
        np.testing.assert_array_equal(UNIFORM01(np.array([-1.0, 0.0, 0.25, 1.0, 2.0])),
                                      [0.0, 0.0, 0.25, 1.0, 1.0])


def _step_cdf(points):
    """The empirical CDF of ``points`` as a reference CDF function."""
    s = np.sort(np.asarray(points, dtype=float))
    return lambda t: np.searchsorted(s, t, side="right") / s.size


class TestSdConfig:
    def test_defaults(self):
        cfg = SdConfig()
        assert cfg.draws == 2000
        assert cfg.bootstrap == BANKS
        assert cfg.tol == 0.0
        assert cfg.dd_boot == 999

    def test_validation(self):
        with pytest.raises(ValueError):
            SdConfig(draws=0)
        with pytest.raises(ValueError):
            SdConfig(bootstrap="jackknife")

    def test_dd_boot_below_one_rejected(self):
        with pytest.raises(ValueError, match="dd_boot"):
            SdConfig(dd_boot=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SdConfig(tol=tol)


# ---------------------------------------------------------------------------
# sample validation and the fixed design


_GOOD = [0.1, 0.4, 0.6, 0.9]


@pytest.mark.parametrize("call", [
    lambda s: bb_draw(s, BANKS, np.random.default_rng(0)),
    lambda s: bb_draw(s, RUBIN, np.random.default_rng(0)),
    lambda s: posterior_prob_sd1(s, UNIFORM01, cfg=SdConfig(draws=10)),
    lambda s: posterior_prob_sd1(_GOOD, s, cfg=SdConfig(draws=10)),
    lambda s: ks_pvalue_sd1(s, UNIFORM01),
    lambda s: ks_pvalue_sd1(_GOOD, s),
    iu_beta_pvalue_nonsd1,
    lambda s: iu_maxt_pvalue_nonsd1(s, _GOOD),
    lambda s: iu_maxt_pvalue_nonsd1(_GOOD, s),
    lambda s: dd_pvalue_nonsd1(s, _GOOD, n_boot=9),
    lambda s: dd_pvalue_nonsd1(_GOOD, s, n_boot=9),
], ids=["bb_draw_banks", "bb_draw_rubin", "posterior_x", "posterior_y", "ks_x",
        "ks_y", "iu_beta", "iu_maxt_x", "iu_maxt_y", "dd_x", "dd_y"])
def test_bad_samples_refused(call):
    # every sample a dominance function reads passes one validator
    with pytest.raises(ValueError, match="empty sample"):
        call([])
    for bad in ([0.2, math.nan, 0.7], [0.2, math.inf], [-math.inf, 0.5, 0.6]):
        with pytest.raises(ValueError, match="non-finite"):
            call(bad)
    with pytest.raises(ValueError, match="1-d"):
        call([_GOOD, _GOOD])


@pytest.mark.parametrize("call", [
    lambda ref: ks_pvalue_sd1(_GOOD, ref),
    lambda ref: iu_beta_pvalue_nonsd1(_GOOD, ref),
    lambda ref: posterior_prob_sd1(_GOOD, ref, SdConfig(draws=10)),
], ids=["ks", "iu_beta", "posterior"])
def test_bad_reference_values_refused(call):
    # every reference a dominance function reads passes one validator;
    # a nan reference used to give p = 1.0 (ks), a posterior of 0.0, and
    # a beta_cdf range error (iu_beta), and values above 1 or below 0 gave
    # a number from each
    for ref in (lambda t: t * math.nan, lambda t: np.where(t > 0.5, math.inf, t),
                lambda t: -math.inf * t, lambda t: 0.5, lambda t: t[:-1],
                lambda t: t + 0.5, lambda t: t - 0.5):
        with pytest.raises(ValueError, match="reference CDF"):
            call(ref)


class TestFixedDesign:
    def test_small_case_values(self):
        x, y = fixed_design_sample(4, 0.5)
        np.testing.assert_allclose(x, np.array([1, 2, 3, 4]) / 5.0 + 0.25)
        np.testing.assert_allclose(y, [0.25, 0.5, 0.75])

    def test_h_zero_x_sits_left_of_y(self):
        # x_i = i/(n+1) < i/n = y_i, so the x sample's ECDF lies above the
        # uniform CDF at every sample point (no dominance of the reference).
        x, y = fixed_design_sample(50, 0.0)
        fx_at_x = np.arange(1, 51) / 50.0
        assert np.all(fx_at_x > x)
        assert np.all(x[:-1] < y)

    def test_n_too_small_rejected(self):
        with pytest.raises(ValueError):
            fixed_design_sample(1, 0.0)


# ---------------------------------------------------------------------------
# bootstrap draws


def _weighted_step(points, weights):
    """Right-continuous step CDF with mass ``weights`` at the sorted
    ``points``; reads exactly 1 from the last point on, where the weights'
    sum may round to 1 +- 1 ulp."""
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    cum[-1] = 1.0
    return lambda t: cum[np.searchsorted(points, t, side="right")]


def bb_draw(sample, variant, rng):
    """One bootstrap posterior draw of the sample's CDF, as a function of
    an array of points: the oracle the batched rows are checked against.

    rubin: Dirichlet(1,..,1) weights on the observed points (step CDF).
    banks: Dirichlet(1,..,1) weights over the n+1 cells delimited by the
    order statistics, spread linearly within each gap; the first and last
    cells sit as atoms at the sample min and max, so there is no mass
    outside the observed range.
    """
    xs = sd._sorted_sample(sample)
    if variant == RUBIN:
        return _weighted_step(xs, dirichlet_flat_sample(xs.size, rng))
    if xs.size == 1:
        return _weighted_step(xs, np.ones(1))
    w = dirichlet_flat_sample(xs.size + 1, rng)
    # knot values: F(min) = atom w0, interior knots accumulate the gap
    # weights up to 1 minus the top atom just below the max; a repeated
    # max knot carries the top atom's jump to 1 (np.interp evaluates the
    # last duplicate, keeping the CDF right-continuous there)
    knots = np.append(xs, xs[-1])
    values = np.concatenate([[w[0]], w[0] + np.cumsum(w[1:-1]), [1.0]])
    return lambda t: np.interp(t, knots, values, left=0.0, right=1.0)


def _posterior_rows(sample, variant, rng, draws, grid):
    """(draws, len(grid)) bootstrap CDF rows at the sorted ``grid``: the
    lazy rows walked over the whole grid, drawing every chunk it reads,
    with no draw dropped.  The lazy rows hold the draws last, so their
    columns are stacked and transposed."""
    xs = np.sort(np.asarray(sample, dtype=float))
    grid = np.asarray(grid, dtype=float)
    lazy = sd._LazyRows(sd._row_table(xs, variant, grid), rng, draws)
    cols, j0 = [], 0
    while j0 < grid.size:
        j1 = lazy.advance(j0, grid.size)
        cols.append(lazy.columns(j0, j1))
        j0 = j1
    return np.concatenate(cols, axis=0).T


def _first_weights(sample, variant, seed, draws):
    """The weights the lazy rows of ``sample`` draw before the walk: the
    whole rows, for a sample of at most _WEIGHT_CHUNK cells, one row per
    draw (the lazy rows hold them draws last)."""
    xs = np.sort(np.asarray(sample, dtype=float))
    return sd._LazyRows(sd._row_table(xs, variant, xs), np.random.default_rng(seed), draws).w.T


class TestBbDraw:
    def test_rubin_is_weighted_step(self):
        # a right-continuous step up at each sample point, flat in between
        draw = bb_draw([2.0, 1.0, 3.0], RUBIN, np.random.default_rng(3))
        vals = draw(np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
        assert vals[0] == 0.0
        assert 0.0 < vals[1] == vals[2] < vals[3] == vals[4] < vals[5] == vals[6] == 1.0

    def test_banks_is_piecewise_linear_with_endpoint_atoms(self):
        draw = bb_draw([1.0, 2.0, 4.0], BANKS, np.random.default_rng(4))
        # atom at the minimum: value jumps from 0 to w0 at the first knot
        assert draw(0.999) == 0.0
        assert draw(1.0) > 0.0
        # linear across each gap between order statistics
        assert draw(1.5) == pytest.approx((draw(1.0) + draw(2.0)) / 2.0, abs=1e-15)
        assert draw(3.0) == pytest.approx((draw(2.0) + draw(np.nextafter(4.0, 0.0))) / 2.0,
                                          abs=1e-15)
        # no mass beyond the max, and the top atom closes the CDF there
        assert draw(4.0) == 1.0
        assert draw(3.999) < 1.0

    def test_single_point_sample(self):
        draw = bb_draw([7.0], BANKS, np.random.default_rng(5))
        assert draw(7.0) == 1.0
        assert draw(6.9) == 0.0

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_reads_exactly_one_from_the_max(self, variant):
        # a cumsum of normalized weights ends at 1 +- 1 ulp; the rows and
        # the oracle must not
        sample = np.linspace(0.05, 0.95, 20)
        grid = np.append(sample, [0.95, 2.0])
        rows = _posterior_rows(sample, variant, np.random.default_rng(3), 500, grid)
        assert np.all(rows[:, -3:] == 1.0)
        for seed in range(200):
            draw = bb_draw(sample, variant, np.random.default_rng(seed))
            assert np.all(draw(np.array([0.95, 2.0])) == 1.0)

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_matches_batched_rows(self, variant):
        # bb_draw and the vectorized row evaluator consume the stream the
        # same way, so a same-seeded single draw must agree everywhere.
        sample = [0.3, 0.9, 0.1, 0.6]
        grid = np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9, 1.5])
        one = bb_draw(sample, variant, np.random.default_rng(11))(grid)
        rows = _posterior_rows(sample, variant, np.random.default_rng(11), 1, grid)
        np.testing.assert_allclose(one, rows[0], atol=1e-14)


class TestCdfRows:
    """The batched rows themselves, read against their own weights."""

    def test_rubin_right_continuous_values(self):
        sample = [0.0, 1.0, 2.0]
        grid = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        rows = _posterior_rows(sample, RUBIN, np.random.default_rng(6), 4, grid)
        w = _first_weights(sample, RUBIN, 6, 4)
        c1, c2 = w[:, 0], w[:, 0] + w[:, 1]
        expected = np.column_stack([np.zeros(4), c1, c1, c2, c2, np.ones(4), np.ones(4)])
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_tied_points_accumulate(self, variant):
        rows = _posterior_rows([1.0, 1.0], variant, np.random.default_rng(7), 50,
                               np.array([0.999, 1.0]))
        assert np.all(rows[:, 0] == 0.0)
        assert np.all(rows[:, 1] == 1.0)

    def test_banks_interior_tie_is_an_atom(self):
        # the zero-width gap between the tied points carries its weight as
        # a jump at the tie, so the row is right-continuous there
        grid = np.array([np.nextafter(1.0, 0.0), 1.0])
        rows = _posterior_rows([0.0, 1.0, 1.0, 2.0], BANKS, np.random.default_rng(8), 50, grid)
        w = _first_weights([0.0, 1.0, 1.0, 2.0], BANKS, 8, 50)
        np.testing.assert_allclose(rows[:, 1], w[:, :3].sum(axis=1), atol=1e-15)
        np.testing.assert_allclose(rows[:, 1] - rows[:, 0], w[:, 2], atol=1e-15)

    def test_banks_linear_between_order_statistics(self):
        grid = np.array([0.0, 1.0, np.nextafter(2.0, 0.0)])
        rows = _posterior_rows([0.0, 2.0], BANKS, np.random.default_rng(9), 50, grid)
        w = _first_weights([0.0, 2.0], BANKS, 9, 50)
        np.testing.assert_allclose(rows[:, 0], w[:, 0], atol=1e-15)
        np.testing.assert_allclose(rows[:, 1], w[:, 0] + w[:, 1] / 2.0, atol=1e-15)
        np.testing.assert_allclose(rows[:, 1], (rows[:, 0] + rows[:, 2]) / 2.0, atol=1e-15)

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    @given(k=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_rows_are_monotone_cdfs(self, variant, k, seed):
        sample = np.random.default_rng(seed).normal(size=k)
        rows = _posterior_rows(sample, variant, np.random.default_rng(seed), 20,
                               np.linspace(-3.0, 3.0, 41))
        assert np.all(np.diff(rows, axis=1) >= -1e-15)
        assert np.all((rows >= 0.0) & (rows <= 1.0))

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_no_mass_outside_the_sample_range(self, variant):
        sample = [0.2, 0.5, 0.7]
        grid = np.array([-1.0, np.nextafter(0.2, 0.0), 0.7, 5.0])
        rows = _posterior_rows(sample, variant, np.random.default_rng(10), 100, grid)
        assert np.all(rows[:, :2] == 0.0)
        assert np.all(rows[:, 2:] == 1.0)


def _recording_draws(monkeypatch):
    """Patches the posterior's weight draws to record (n, size, rest) per
    call, keyed by the generator drawn from."""
    calls = {}

    def recorded(n, rng, size=None, rest=0):
        calls.setdefault(id(rng), []).append((n, size, rest))
        return dirichlet_flat_sample(n, rng, size=size, rest=rest)

    monkeypatch.setattr(sd, "dirichlet_flat_sample", recorded)
    return calls


class TestLazyWeights:
    """Rows drawn a chunk at a time, for the draws still alive, are still
    flat Dirichlet."""

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_chunk_and_remainder_split_the_mass(self, variant):
        # drawing the second chunk before any column is read sums the
        # whole first chunk into the carry; the second chunk and the new
        # unseen mass sum to the unseen mass they split.  A banks column
        # also reads the gap weight after its point, one cell further
        xs = np.arange(1.0, 301.0)
        c = sd._WEIGHT_CHUNK
        ready = c - (variant == BANKS)
        lazy = sd._LazyRows(sd._row_table(xs, variant, xs), np.random.default_rng(22), 500)
        assert lazy.w.shape == (c + 1, 500)
        np.testing.assert_allclose(lazy.w.sum(axis=0), 1.0, rtol=1e-14)
        first, mass = lazy.w[:-1].sum(axis=0), lazy.w[-1].copy()
        assert lazy.ready == ready
        assert lazy.advance(ready, xs.size) == ready + c
        np.testing.assert_allclose(lazy.carry, first, rtol=1e-13)
        assert lazy.w.shape == (c + 1, 500)
        np.testing.assert_allclose(lazy.w.sum(axis=0), mass, rtol=1e-13)

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_rows_across_three_chunks_are_flat_dirichlet(self, variant):
        # the row of a sample at 1..300, read at its own points, is
        # C[k] at point k, the sum of k of the row's flat weights, so
        # Beta(k, cells - k); 128 and 256 end a chunk, 200 is mid-chunk
        xs = np.arange(1.0, 301.0)
        cells = xs.size + (variant == BANKS)
        rows = _posterior_rows(xs, variant, np.random.default_rng(23), 4000, xs)
        for k in (128, 200, 256):
            assert stats.kstest(rows[:, k - 1], stats.beta(k, cells - k).cdf).pvalue > 1e-3

    def test_survivors_draw_later_chunks_from_the_flat_dirichlet(self, monkeypatch):
        # a reference that binds only at C[100], in the first chunk of a
        # rubin row over 300 cells, and at C[280], in the third: about half
        # the draws die at the first, and only the rest draw chunks two and
        # three.  (C[100], C[280] - C[100]) comes from a flat Dirichlet
        # over 300 cells, so given C[100] = u, (C[280] - u) / (1 - u) is
        # Beta(180, 20)
        calls = _recording_draws(monkeypatch)
        xs = np.arange(1.0, 301.0)
        b1, b2 = 1 / 3, 0.94

        def ref(t):
            return np.select([t == xs[99], t == xs[279]], [b1, b2], 1.0)

        draws = 20_000
        count = sd._walk_setup(xs, ref, RUBIN, 0.0)(
            draws, *sd._substreams(np.random.default_rng(24), 2))
        exact = integrate.quad(lambda u: stats.beta.pdf(u, 100, 200)
                               * stats.beta.cdf((b2 - u) / (1 - u), 180, 20), 0.0, b1)[0]
        assert abs(count / draws - exact) < 4 * math.sqrt(exact * (1 - exact) / draws)
        (chunks,) = calls.values()
        assert [n for n, _, _ in chunks] == [128, 128, 44]
        sizes = [size for _, size, _ in chunks]
        assert sizes[0] == draws
        assert 0.4 * draws < sizes[1] == sizes[2] < 0.6 * draws

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_draw_sizes_follow_the_alive_rows(self, monkeypatch, variant):
        # in each 500-draw block of a 2000-draw posterior, each chunk is
        # drawn for no more rows than the one before, and its cells and
        # remainder split the cells the remainder held
        calls = _recording_draws(monkeypatch)
        x, y = _shifted_pair(1000, 0.9, 26)
        posterior_prob_sd1(x, y, SdConfig(draws=2000, bootstrap=variant),
                           np.random.default_rng(26))
        # one generator per sample and block
        assert len(calls) == 2 * 4
        for chunks in calls.values():
            sizes = [size for _, size, _ in chunks]
            assert sizes[0] == sd._POSTERIOR_BLOCK and len(sizes) > 2
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] < sd._POSTERIOR_BLOCK
            for (_, _, before), (n, _, rest) in zip(chunks, chunks[1:]):
                assert n + rest == before

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_draws_that_die_in_the_first_chunk_draw_once(self, monkeypatch, variant):
        # x's CDF climbs from its first point on while y's is still 0; the
        # tiny tol keeps the zero-posterior screen off.  Each sample draws
        # one chunk in each of the four blocks
        calls = _recording_draws(monkeypatch)
        x, y = np.linspace(0.0, 1.0, 300), np.linspace(0.5, 1.5, 300)
        cfg = SdConfig(draws=2000, bootstrap=variant, tol=1e-9)
        out = posterior_prob_sd1(x, y, cfg, np.random.default_rng(27))
        assert out.estimate == 0.0
        rest = 300 + (variant == BANKS) - 128
        assert sorted(calls.values()) == [[(128, sd._POSTERIOR_BLOCK, rest)]] * 8

    @staticmethod
    def _columns_read(monkeypatch, x, y, cfg):
        """The posterior's estimate and the width of every step that reads
        a sample's columns, in call order."""
        widths = []
        columns = sd._LazyRows.columns

        def counted(self, j0, j1):
            widths.append(j1 - j0)
            return columns(self, j0, j1)

        monkeypatch.setattr(sd._LazyRows, "columns", counted)
        out = posterior_prob_sd1(x, y, cfg, np.random.default_rng(27))
        return out.estimate, widths

    @pytest.mark.parametrize("variant", [RUBIN, BANKS])
    def test_draws_that_die_at_the_first_column_read_one_column(self, monkeypatch, variant):
        # every draw dies at the pooled minimum, x's first point: each of
        # the four blocks reads that one column of each sample
        x, y = np.linspace(0.0, 1.0, 50), np.linspace(0.5, 1.5, 50)
        cfg = SdConfig(draws=2000, bootstrap=variant, tol=1e-9)
        assert self._columns_read(monkeypatch, x, y, cfg) == (0.0, [1] * 8)

    def test_only_the_first_step_is_one_column(self, monkeypatch):
        # a walk whose draws survive the first column widens its next step
        x, y = fixed_design_sample(300, 0.9)
        estimate, widths = self._columns_read(monkeypatch, x, y, SdConfig(draws=500))
        assert 0.0 < estimate < 1.0
        assert widths[:2] == [1, 1]
        assert max(widths) > 1

    def test_memory_follows_the_chunk(self):
        # full weight rows of a 2000-draw banks posterior at n = 2500 are
        # 38 MiB per sample; its lazy rows hold at most 500 x 129 weights,
        # 0.5 MiB, per sample
        x, y = fixed_design_sample(2500, 0.9)
        tracemalloc.start()
        try:
            out = posterior_prob_sd1(x, y, SdConfig(draws=2000), np.random.default_rng(28))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < out.estimate < 1.0
        assert peak < 20 * 2 ** 20

    def test_memory_does_not_grow_with_the_draws(self):
        # the rows of 10 ** 5 banks draws at n = 50 (51 cells, one chunk) are
        # 39 MiB per sample when drawn at once; walked 500 draws at a time
        # they are 0.2 MiB.  Three quarters of the draws die on the way
        x, y = fixed_design_sample(50, 0.0)
        cfg = SdConfig(draws=100_000, bootstrap=BANKS, tol=0.05)
        tracemalloc.start()
        try:
            out = posterior_prob_sd1(x, y, cfg, np.random.default_rng(29))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < out.estimate < 1.0
        assert peak < 8 * 2 ** 20


class TestPosteriorBlocks:
    """A posterior is the sum of fixed blocks of draws, each a walk on
    substreams of its own, wherever the blocks run."""

    def test_every_table2_batch_is_one_block(self):
        assert sd._POSTERIOR_BLOCK >= sd._BATCH_DRAWS

    @pytest.mark.parametrize("draws", [1, 300, 500])
    @pytest.mark.parametrize("two_sample", [False, True])
    def test_one_block_is_one_walk_on_the_two_substreams(self, two_sample, draws):
        x, y = fixed_design_sample(40, 0.6)
        opponent = y if two_sample else UNIFORM01
        out = posterior_prob_sd1(x, opponent, SdConfig(draws=draws),
                                 np.random.default_rng(30))
        count = sd._walk_setup(x, opponent, BANKS, 0.0)(
            draws, *sd._substreams(np.random.default_rng(30), 2))
        assert out.estimate == count / draws

    @pytest.mark.parametrize("two_sample", [False, True])
    def test_blocks_read_children_of_the_two_substreams(self, two_sample):
        # 1001 draws are blocks of 500, 500 and 1; block 0 reads the two
        # children of the caller's SeedSequence, block b >= 1 the (b - 1)-th
        # child of each of those
        x, y = fixed_design_sample(40, 0.6)
        opponent = y if two_sample else UNIFORM01
        out = posterior_prob_sd1(x, opponent, SdConfig(draws=1001),
                                 np.random.default_rng(31))
        seqs = np.random.default_rng(31).bit_generator.seed_seq.spawn(2)
        children = [seq.spawn(2) for seq in seqs]
        streams = [seqs] + [[kids[b] for kids in children] for b in range(2)]
        walk = sd._walk_setup(x, opponent, BANKS, 0.0)
        count = sum(walk(draws, *[np.random.Generator(np.random.PCG64(seq)) for seq in pair])
                    for draws, pair in zip((500, 500, 1), streams))
        assert out.estimate * 1001 == count
        assert 0 < count < 1001

    @pytest.mark.parametrize("two_sample", [False, True])
    def test_workers_do_not_change_the_count(self, monkeypatch, two_sample):
        # four blocks of 500 draws on two worker processes
        runs = []
        run_blocks = sd.parallel_map

        def recorded(jobs, workers=1):
            runs.append((len(jobs), workers))
            return run_blocks(jobs, workers)

        monkeypatch.setattr(sd, "parallel_map", recorded)
        x, y = fixed_design_sample(300, 0.9)
        opponent = y if two_sample else UNIFORM01
        serial, parallel = (posterior_prob_sd1(x, opponent, SdConfig(draws=2000),
                                               np.random.default_rng(32), workers=workers)
                            for workers in (1, 2))
        assert serial == parallel
        assert 0.0 < serial.estimate < 1.0
        assert runs == [(4, 1), (4, 2)]

    def test_screened_posterior_starts_no_pool(self, monkeypatch):
        # x lies wholly below y at tol 0, so the screen gives 0 before any
        # block is made
        def no_blocks(jobs, workers=1):
            raise AssertionError("blocks made for a screened posterior")

        monkeypatch.setattr(sd, "parallel_map", no_blocks)
        out = posterior_prob_sd1([0.1, 0.2, 0.3], [0.5, 0.6, 0.7], SdConfig(draws=2000),
                                 np.random.default_rng(33), workers=2)
        assert out.estimate == 0.0 and out.reps == 2000


# ---------------------------------------------------------------------------
# dominance posterior


class TestPosteriorProbSd1:
    def test_impossible_dominance_is_exactly_zero(self):
        # Every bootstrap CDF reaches 1 at the sample max, and the uniform
        # reference is only 0.04 there, so no draw can dominate.
        x = [0.01, 0.02, 0.03, 0.04]
        for variant in (RUBIN, BANKS):
            out = posterior_prob_sd1(x, UNIFORM01, cfg=SdConfig(draws=200, bootstrap=variant))
            assert out.estimate == 0.0

    def test_near_certain_dominance(self):
        # the max must exceed 1, else F_X = 1 there beats the uniform's
        # value and no draw can ever dominate
        out = posterior_prob_sd1([0.96, 0.97, 0.98, 1.01], UNIFORM01,
                                 cfg=SdConfig(draws=2000))
        assert out.estimate > 0.9

    def test_two_sample_separated_is_deterministic(self):
        cfg = SdConfig(draws=100)
        right = posterior_prob_sd1([11.0, 12.0], [1.0, 2.0], cfg=cfg)
        left = posterior_prob_sd1([1.0, 2.0], [11.0, 12.0], cfg=cfg)
        assert right.estimate == 1.0
        assert left.estimate == 0.0

    @pytest.mark.parametrize("two_sample", [False, True])
    def test_rubin_max_is_not_a_violation(self, two_sample):
        # only the draws whose row would read 1 + 1 ulp at the max hang on
        # a tol of 1e-12, and no row does
        x, y = fixed_design_sample(20, 1.0)
        counts = {posterior_prob_sd1(x, y if two_sample else UNIFORM01,
                                     cfg=SdConfig(draws=20_000, bootstrap=RUBIN, tol=tol),
                                     rng=np.random.default_rng(3)).estimate
                  for tol in (0.0, 1e-12)}
        assert len(counts) == 1

    def test_tol_relaxes_the_check(self):
        x = [0.01, 0.02, 0.03, 0.04]
        out = posterior_prob_sd1(x, UNIFORM01, cfg=SdConfig(draws=50, tol=2.0))
        assert out.estimate == 1.0

    def test_default_rng_is_reproducible(self):
        x, _ = fixed_design_sample(30, 0.5)
        a = posterior_prob_sd1(x, UNIFORM01, cfg=SdConfig(draws=300))
        b = posterior_prob_sd1(x, UNIFORM01, cfg=SdConfig(draws=300))
        assert a.estimate == b.estimate

    def test_summary_fields_consistent(self):
        x, _ = fixed_design_sample(20, 0.3)
        out = posterior_prob_sd1(x, UNIFORM01, cfg=SdConfig(draws=400),
                                 rng=np.random.default_rng(2))
        assert out.reps == 400
        assert out.mc_se == pytest.approx(
            math.sqrt(out.estimate * (1 - out.estimate) / 400))

    @staticmethod
    def _estimates_over_chunk_cols(monkeypatch, x, opponent, draws):
        # a sample's next weight chunk is drawn at the first column that
        # reads it, whatever the walk's step, so the step does not decide
        # which weights a draw reads; 10 ** 4 columns walk from one weight
        # chunk to the next
        out = set()
        for cols in (1, 3, sd._CHUNK_COLS, 10 ** 4):
            monkeypatch.setattr(sd, "_CHUNK_COLS", cols)
            out.add(posterior_prob_sd1(x, opponent, cfg=SdConfig(draws=draws),
                                       rng=np.random.default_rng(9)).estimate)
        return out

    def test_chunk_cols_invariant_for_reference_opponent(self, monkeypatch):
        for n, h in ((40, 0.6), (300, 0.9)):
            x, _ = fixed_design_sample(n, h)
            estimates = self._estimates_over_chunk_cols(monkeypatch, x, UNIFORM01, 250)
            assert len(estimates) == 1
            assert 0.0 < estimates.pop() < 1.0

    def test_chunk_cols_invariant_for_sample_opponent(self, monkeypatch):
        for n, h in ((40, 0.6), (300, 0.9)):
            x, y = _shifted_pair(n, h, n)
            estimates = self._estimates_over_chunk_cols(monkeypatch, x, y, 1500)
            assert len(estimates) == 1
            assert 0.0 < estimates.pop() < 1.0

    def test_caller_stream_ignores_draws(self):
        # the weights come from spawned substreams: the caller's bit
        # generator never moves, and each call spawns the same number of
        # children whatever it draws or screens out
        x, y = fixed_design_sample(30, 0.5)
        ends = set()
        for opponent, draws in ((UNIFORM01, 1), (UNIFORM01, 3000), (y, 7), (y, 2500),
                                ([9.0, 9.5], 100)):
            rng = np.random.default_rng(4)
            state = rng.bit_generator.state
            posterior_prob_sd1(x, opponent, cfg=SdConfig(draws=draws), rng=rng)
            assert rng.bit_generator.state == state
            ends.add(rng.bit_generator.seed_seq.n_children_spawned)
        assert ends == {2}

    def test_calls_on_one_stream_draw_fresh_weights(self):
        x, y = fixed_design_sample(50, 0.9)
        rng = np.random.default_rng(5)
        first, second = (posterior_prob_sd1(x, y, cfg=SdConfig(draws=2000), rng=rng).estimate
                         for _ in range(2))
        assert first != second
        again = posterior_prob_sd1(x, y, cfg=SdConfig(draws=2000),
                                   rng=np.random.default_rng(5)).estimate
        assert again == first

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            posterior_prob_sd1([], UNIFORM01, cfg=SdConfig(draws=10))
        with pytest.raises(ValueError, match="empty"):
            posterior_prob_sd1([0.5], [], cfg=SdConfig(draws=10))

    def test_callable_opponent_accepted(self):
        x = [0.97, 0.98, 1.01]
        out = posterior_prob_sd1(x, lambda t: np.clip(t, 0.0, 1.0),
                                 cfg=SdConfig(draws=500))
        assert out.estimate > 0.8

    def test_step_opponent_accepted(self):
        out = posterior_prob_sd1([11.0, 12.0], _step_cdf([1.0, 2.0]), cfg=SdConfig(draws=50))
        assert out.estimate == 1.0


def _half_uniform(t):
    """The Unif(0, 2) reference CDF."""
    return np.clip(np.asarray(t) / 2.0, 0.0, 1.0)


class TestReferenceFunctions:
    """A reference CDF is read only at the points it is called on."""

    @pytest.mark.parametrize("test", [
        ks_pvalue_sd1,
        iu_beta_pvalue_nonsd1,
        lambda x, f: posterior_prob_sd1(x, f, SdConfig(draws=300, tol=0.02),
                                        np.random.default_rng(12)).estimate,
    ], ids=["ks", "iu_beta", "posterior"])
    def test_rescaled_reference_matches_uniform(self, test):
        # Unif(0, 2) at 2u reads exactly what Unif(0, 1) reads at u
        u = np.random.default_rng(13).uniform(0.0, 1.0, 40)
        assert test(2.0 * u, _half_uniform) == test(u, UNIFORM01)

    def test_ks_reads_reference_at_sample_points(self):
        assert ks_pvalue_sd1([0.5, 1.0, 1.5, 2.0], _half_uniform) == 1.0
        # F-hat minus Unif(0, 2) at 0.2, 0.4: 0.4, 0.8, so D+ = 0.8
        assert ks_pvalue_sd1([0.2, 0.4], _half_uniform) == pytest.approx(
            math.exp(-2 * 2 * 0.8 ** 2), abs=1e-14)

    def test_step_reference_and_sample_share_d_plus(self):
        # the opponent sample's empirical CDF as a function gives the same
        # D+; only the tail formula's scale differs (n against nm/(n+m))
        x, y = [0.1, 0.35, 0.6, 0.8], [0.3, 0.4, 0.5, 0.9, 0.95]
        d_ref = math.sqrt(-math.log(ks_pvalue_sd1(x, _step_cdf(y))) / (2 * 4))
        d_two = math.sqrt(-math.log(ks_pvalue_sd1(x, y)) / (2 * 4 * 5 / 9))
        assert d_ref == pytest.approx(d_two, abs=1e-12)
        assert d_ref == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# zero-posterior screen


def _never_draw(*args, **kwargs):
    raise AssertionError("weights drawn for a screened sample")


def _screened_cases(seed):
    """(label, x, opponent, variant, tol) cases whose exact posterior is 0,
    one group per screen rule, on samples drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = 30
    # one sample: the sample max sits below the point where the reference
    # plus tol reaches 1 (the step reference reaches 1 at 1.0)
    x1 = rng.uniform(0.0, 0.99, n)
    step = _step_cdf(np.append(rng.uniform(0.0, 1.0, n), 1.0))
    cases = [("one_sample", x1, UNIFORM01, BANKS, 0.0),
             ("one_sample", x1, UNIFORM01, BANKS, 0.005),
             ("one_sample", x1, lambda t: np.clip(t, 0.0, 1.0), BANKS, 0.0),
             ("one_sample", x1, step, BANKS, 0.0),
             ("one_sample", x1, UNIFORM01, RUBIN, 0.0),
             ("one_sample", x1, step, RUBIN, 0.005)]
    # two samples, tol 0: min x < min y, with max x above max y so only
    # this rule applies
    y2 = rng.uniform(0.1, 1.0, n)
    x2 = rng.uniform(0.0, 1.2, n)
    x2[0], x2[1] = y2.min() - 0.01, y2.max() + 0.01
    cases += [("min", x2, y2, variant, 0.0) for variant in (RUBIN, BANKS)]
    # two samples, tol 0: x strictly inside y's range, so max x < max y
    # while min x > min y
    y3 = rng.uniform(0.0, 1.0, n)
    x3 = rng.uniform(y3.min(), y3.max(), n + 5)
    cases += [("max", x3, y3, variant, 0.0) for variant in (RUBIN, BANKS)]
    return cases


def _screen_off(monkeypatch):
    monkeypatch.setattr(sd, "_zero_posterior", lambda *args: False)


class TestZeroPosteriorScreen:
    @pytest.mark.parametrize("seed", range(3))
    def test_screen_counts_zero_without_drawing(self, monkeypatch, seed):
        monkeypatch.setattr(sd, "dirichlet_flat_sample", _never_draw)
        cases = _screened_cases(seed)
        assert {label for label, *_ in cases} == {"one_sample", "min", "max"}
        for _, x, opponent, variant, tol in cases:
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            cfg = SdConfig(draws=500, bootstrap=variant, tol=tol)
            out = posterior_prob_sd1(x, opponent, cfg=cfg, rng=rng)
            assert out.estimate == 0.0
            assert out.reps == 500
            assert rng.bit_generator.state == state

    def test_walk_agrees_over_seeds(self, monkeypatch):
        # the screen is the exact posterior: without it, the Monte Carlo
        # walk finds a violation in every draw too
        _screen_off(monkeypatch)
        for seed in range(50):
            for _, x, opponent, variant, tol in _screened_cases(seed):
                count = sd._walk_setup(np.sort(x), opponent, variant, tol)(
                    200, *sd._substreams(np.random.default_rng(seed), 2))
                assert count == 0

    def test_rules_apply_only_where_exact(self):
        # both variants read exactly 1 from the sample max on, so the
        # rules do not depend on the variant
        def screened(x, opponent, tol):
            xs = np.sort(np.asarray(x, dtype=float))
            other = sd._opponent(xs, opponent)
            if callable(opponent):
                return sd._zero_posterior(xs, other + tol, None, tol)
            return sd._zero_posterior(xs, None, other, tol)

        x_low = [0.2, 0.5, 0.9]
        assert screened(x_low, UNIFORM01, 0.0)
        # ref(x_(n)) + tol reaching 1 exactly leaves the posterior open
        assert screened(x_low, UNIFORM01, 0.0999)
        assert not screened(x_low, UNIFORM01, 0.1)
        assert not screened([0.2, 0.5, 1.0], UNIFORM01, 0.0)
        below, above = [0.1, 0.5, 0.7], [0.2, 0.6, 0.8]
        assert screened(below, above, 0.0)
        assert not screened(below, above, 0.01)
        assert not screened(above, below, 0.0)
        inside, outside = [0.3, 0.5], [0.2, 0.9]
        assert screened(inside, outside, 0.0)
        assert not screened(inside, outside, 0.01)

    def test_unscreened_tol_gives_positive_posterior(self):
        # at ref(x_(n)) + tol == 1 the draws are walked and some dominate
        cfg = SdConfig(draws=400, tol=0.1)
        out = posterior_prob_sd1([0.2, 0.5, 0.9], UNIFORM01, cfg=cfg,
                                 rng=np.random.default_rng(1))
        assert out.estimate > 0.0

    @pytest.mark.parametrize("two_sample", [False, True])
    def test_table2_cells_unchanged(self, monkeypatch, two_sample):
        # nothing reads a replication's stream after its posterior, so
        # skipping the weights of a screened replication moves no decision
        kwargs = dict(h=0.0, n=60, two_sample=two_sample, null="sd1", method="bayes",
                      alpha=0.1, reps=16, master_seed=4, cfg=SdConfig(draws=1800))
        fired = []
        screen = sd._zero_posterior

        def counted(*args):
            fired.append(screen(*args))
            return fired[-1]

        monkeypatch.setattr(sd, "_zero_posterior", counted)
        screened = sd_rejection_probability(**kwargs)
        assert any(fired)
        _screen_off(monkeypatch)
        walked = sd_rejection_probability(**kwargs)
        assert screened.estimate == walked.estimate


# ---------------------------------------------------------------------------
# frequentist p-values


class TestKsPvalue:
    def test_one_sample_hand_case(self):
        # F-hat minus uniform at the order statistics: 0.15, 0.30, 0.45,
        # 0.10, so D+ = 0.45 and p = exp(-2 * 4 * 0.45^2).
        p = ks_pvalue_sd1([0.1, 0.2, 0.3, 0.9], UNIFORM01)
        assert p == pytest.approx(math.exp(-8 * 0.45 ** 2), abs=1e-14)

    def test_no_excursion_gives_one(self):
        assert ks_pvalue_sd1([1.5, 2.5], UNIFORM01) == 1.0

    def test_two_sample_hand_cases(self):
        assert ks_pvalue_sd1([1.0, 2.0], [0.5, 1.5]) == 1.0
        # D+ = 0.5 at the point 0.5; scale = 2*2/4 = 1
        assert ks_pvalue_sd1([0.5, 1.5], [1.0, 2.0]) == pytest.approx(
            math.exp(-0.5), abs=1e-14)

    def test_fixed_design_reference_value(self):
        x, _ = fixed_design_sample(100, 0.0)
        assert round(ks_pvalue_sd1(x, UNIFORM01), 3) == 0.981

    @given(st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1,
                    max_size=20))
    def test_p_in_unit_interval(self, xs):
        p = ks_pvalue_sd1(xs, UNIFORM01)
        assert 0.0 < p <= 1.0


class TestIuBetaPvalue:
    def test_matches_binomial_sum_oracle(self):
        x = [0.3, 0.6, 0.9]
        p = iu_beta_pvalue_nonsd1(x)
        comps = [1.0 - oracle_beta_cdf_int(u, k, 3) for k, u in enumerate(x, start=1)]
        assert p == pytest.approx(max(comps), abs=1e-12)

    def test_larger_oracle_case(self):
        x = np.linspace(0.05, 0.95, 10) ** 0.7
        p = iu_beta_pvalue_nonsd1(np.sort(x))
        comps = [1.0 - oracle_beta_cdf_int(u, k, 10)
                 for k, u in enumerate(np.sort(x), start=1)]
        assert p == pytest.approx(max(comps), abs=1e-12)

    def test_shift_right_decreases_p(self):
        base = iu_beta_pvalue_nonsd1([0.2, 0.4, 0.6])
        shifted = iu_beta_pvalue_nonsd1([0.4, 0.6, 0.8])
        assert shifted < base

    def test_fixed_design_reference_value(self):
        x, _ = fixed_design_sample(100, 0.0)
        assert iu_beta_pvalue_nonsd1(x) == pytest.approx(0.630, abs=5e-4)

    def test_sample_opponent_refused(self):
        # a sample in f0's place used to raise TypeError from calling it
        with pytest.raises(ValueError, match="no two-sample form"):
            iu_beta_pvalue_nonsd1(_GOOD, [0.2, 0.5, 0.8])

    def test_sample_above_one_contributes_zero(self):
        # f0 saturates at 1 there, so that order statistic cannot block
        p = iu_beta_pvalue_nonsd1([0.9, 1.7])
        comp1 = 1.0 - oracle_beta_cdf_int(0.9, 1, 2)
        assert p == pytest.approx(comp1, abs=1e-12)


class TestIuMaxtPvalue:
    def test_hand_case_zero_t(self):
        # Only interior pooled point is 1.0 where both ECDFs equal 0.5, so
        # min t = 0 and p = 1 - Phi(0) = 0.5.
        assert iu_maxt_pvalue_nonsd1([0.5, 1.5], [1.0, 2.0]) == pytest.approx(0.5)

    def test_separated_samples_give_one(self):
        assert iu_maxt_pvalue_nonsd1([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_fixed_design_reference_values(self):
        for h, want in ((0.0, 0.717), (0.5, 0.263), (0.9, 0.114)):
            x, y = fixed_design_sample(100, h)
            assert round(iu_maxt_pvalue_nonsd1(x, y), 3) == want

    def test_matches_normal_tail_of_min_t(self):
        x, y = fixed_design_sample(37, 0.8)
        t_min, _ = sd._interior_min_t(np.sort(x), np.sort(y))
        assert iu_maxt_pvalue_nonsd1(x, y) == pytest.approx(
            1.0 - oracle_normal_cdf(t_min), abs=1e-12)


class TestDdPvalue:
    def test_no_dominance_evidence_gives_one(self):
        # at h = 0 the x sample sits left of y, the observed min t is <= 0
        x, y = fixed_design_sample(100, 0.0)
        assert dd_pvalue_nonsd1(x, y) == 1.0

    def test_separated_samples_give_one(self):
        assert dd_pvalue_nonsd1([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_default_rng_deterministic(self):
        x, y = fixed_design_sample(60, 0.9)
        assert dd_pvalue_nonsd1(x, y) == dd_pvalue_nonsd1(x, y)

    def test_p_is_rank_over_boot_plus_one(self):
        x, y = fixed_design_sample(60, 0.9)
        p = dd_pvalue_nonsd1(x, y, n_boot=99, rng=np.random.default_rng(1))
        assert (p * 100) == pytest.approx(round(p * 100))
        assert 0.01 <= p <= 1.0

    def test_dominant_shift_gives_small_p(self):
        x, y = fixed_design_sample(100, 0.9)
        p = dd_pvalue_nonsd1(x, y, rng=np.random.default_rng(2))
        assert p < 0.1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            dd_pvalue_nonsd1([], [1.0])

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_no_resamples_refused(self, n_boot):
        # n_boot = 0 would return p = 1 from no resamples at all
        x, y = fixed_design_sample(50, 1.3)
        with pytest.raises(ValueError, match="n_boot must be >= 1"):
            dd_pvalue_nonsd1(x, y, n_boot=n_boot)


# ---------------------------------------------------------------------------
# pinned posterior counts and dd p-values
#
# Exact outputs of the current sampling scheme: PCG64 substreams spawned
# from the caller's generator, one per sample and posterior block.  Any
# change to the weights drawn, their order, or the CDF arithmetic moves at
# least one of these counts.


def _shifted_pair(n, h, seed):
    rng = np.random.default_rng(seed)
    return sd._draw_shifted_uniform(n, h, rng), rng.uniform(0.0, 1.0, n)


PINNED_SAMPLES = {
    "ties": ([0.3, 0.5, 0.5, 0.7, 0.7, 0.7, 0.9, 1.0],
             [0.1, 0.3, 0.3, 0.5, 0.5, 0.6, 0.9, 0.9]),
    "n1": ([0.95], [0.3, 0.97]),
    "n1_opp": ([0.3, 0.97], [0.95]),
    "n2": ([0.62, 0.97], [0.35, 0.9]),
    "sep_high": ([1.2, 1.5, 1.7], [0.1, 0.4, 0.6]),
    "sep_low": ([0.01, 0.02, 0.03], [0.5, 0.6]),
}
for _n in (50, 300):
    for _h in (0.0, 0.9):
        PINNED_SAMPLES[f"fd{_n}_h{_h}"] = fixed_design_sample(_n, _h)
        PINNED_SAMPLES[f"su{_n}_h{_h}"] = _shifted_pair(_n, _h, _n + int(10 * _h))

# Columns follow PINNED_ORDER.  The n = 300 samples take 15000 draws, and
# their rows span three _WEIGHT_CHUNK chunks; the others take 2000, and
# their rows are one chunk each.  Every posterior here spans several
# _POSTERIOR_BLOCK blocks.
PINNED_ORDER = [(two, variant, tol) for two in (False, True)
                for variant in (RUBIN, BANKS) for tol in (0.0, 0.05)]
PINNED_SD1_COUNTS = {
    "ties": (511, 767, 978, 1287, 937, 1184, 1033, 1236),
    "n1": (0, 2000, 0, 2000, 0, 107, 0, 153),
    "n1_opp": (0, 681, 0, 1156, 0, 112, 0, 228),
    "n2": (0, 1315, 0, 1778, 1005, 1086, 1378, 1472),
    "sep_high": (2000, 2000, 2000, 2000, 2000, 2000, 2000, 2000),
    "sep_low": (0, 0, 0, 0, 0, 0, 0, 0),
    "fd50_h0.0": (0, 465, 0, 672, 0, 310, 0, 440),
    "su50_h0.0": (0, 225, 0, 339, 0, 297, 0, 338),
    "fd50_h0.9": (1657, 1923, 1721, 1950, 1252, 1646, 1337, 1728),
    "su50_h0.9": (491, 1060, 531, 1126, 690, 1127, 770, 1226),
    "fd300_h0.0": (0, 11798, 0, 12082, 0, 8372, 0, 8683),
    "su300_h0.0": (0, 6468, 0, 6957, 166, 11835, 444, 12080),
    "fd300_h0.9": (12120, 14985, 12425, 14987, 8743, 14431, 9187, 14492),
    "su300_h0.9": (8541, 14934, 9304, 14956, 5595, 14251, 6114, 14375),
}

# The counts the walk gave when X's and Y's weights shared the caller's
# generator, X's weights before Y's.  Fed one generator as both weight
# sources, the walk must still give them: the re-roll changed where the
# weights come from, not the walk.  Each row of the n <= 50 samples is one
# weight chunk, so X's chunk still comes wholly before Y's.  The n = 300
# rows span three chunks, each drawn at the first column that reads it (X's
# before Y's at one column), so their entries were re-pinned when the
# weights became lazy.
SHARED_STREAM_SD1_COUNTS = {
    "ties": (476, 746, 990, 1302, 914, 1121, 1062, 1285),
    "n1": (0, 2000, 0, 2000, 0, 105, 0, 121),
    "n1_opp": (0, 728, 0, 1159, 0, 92, 0, 195),
    "n2": (0, 1360, 0, 1791, 1053, 1146, 1417, 1498),
    "sep_high": (2000, 2000, 2000, 2000, 2000, 2000, 2000, 2000),
    "sep_low": (0, 0, 0, 0, 0, 0, 0, 0),
    "fd50_h0.0": (0, 431, 0, 673, 0, 294, 0, 440),
    "su50_h0.0": (0, 212, 0, 353, 0, 265, 0, 322),
    "fd50_h0.9": (1664, 1932, 1748, 1950, 1230, 1651, 1362, 1731),
    "su50_h0.9": (432, 1028, 551, 1169, 644, 1125, 752, 1206),
    "fd300_h0.0": (0, 11770, 0, 12183, 0, 8328, 0, 8661),
    "su300_h0.0": (0, 6284, 0, 6825, 159, 11740, 471, 12048),
    "fd300_h0.9": (12211, 14972, 12448, 14979, 8732, 14386, 9098, 14472),
    "su300_h0.9": (8559, 14932, 9330, 14943, 5466, 14256, 6034, 14388),
}

# (sample, n_boot, rng seed, p-value)
PINNED_DD = [
    ("fd60_h0.9", 99, 1, 0.01),
    ("fd100_h0.9", 999, 2, 0.019),
    ("su300_h0.9", 499, 3, 0.17),
    ("ties", 199, 4, 1.0),
    ("fd50_h0.9", 999, 5, 0.027),
]
PINNED_DD_SAMPLES = dict(PINNED_SAMPLES,
                         **{"fd60_h0.9": fixed_design_sample(60, 0.9),
                            "fd100_h0.9": fixed_design_sample(100, 0.9)})


def _pinned_draws(name):
    return 15000 if "300" in name else 2000


def _pinned_estimates(name):
    x, y = PINNED_SAMPLES[name]
    draws = _pinned_draws(name)
    out = []
    for two, variant, tol in PINNED_ORDER:
        cfg = SdConfig(draws=draws, bootstrap=variant, tol=tol)
        est = posterior_prob_sd1(x, y if two else UNIFORM01, cfg=cfg,
                                 rng=np.random.default_rng(7)).estimate
        out.append(est)
    return tuple(out)


def _pinned_dd_pvalues():
    return [dd_pvalue_nonsd1(*PINNED_DD_SAMPLES[name], n_boot=n_boot,
                             rng=np.random.default_rng(seed))
            for name, n_boot, seed, _ in PINNED_DD]


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", list(PINNED_SD1_COUNTS))
    def test_posterior_counts(self, name):
        draws = _pinned_draws(name)
        want = tuple(count / draws for count in PINNED_SD1_COUNTS[name])
        assert _pinned_estimates(name) == want

    def test_dd_pvalues(self):
        assert _pinned_dd_pvalues() == [p for *_, p in PINNED_DD]

    # the n = 300 rows span three weight chunks, each drawn at the first
    # column that reads it; at 10_000 columns the walk's steps end only
    # there (TestPosteriorProbSd1 takes n = 300 through 1 and 3 columns)
    @pytest.mark.parametrize("name, cols", [
        (name, cols) for name in PINNED_SD1_COUNTS
        for cols in ([1, 3, 10_000] if _pinned_draws(name) == 2000 else [10_000])])
    def test_counts_ignore_chunk_width(self, monkeypatch, name, cols):
        monkeypatch.setattr(sd, "_CHUNK_COLS", cols)
        self.test_posterior_counts(name)

    @pytest.mark.parametrize("block", [1, 10 ** 8])
    def test_dd_pvalues_ignore_row_block(self, monkeypatch, block):
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", block)
        self.test_dd_pvalues()

    @pytest.mark.parametrize("cols", [sd._CHUNK_COLS, 8])
    @pytest.mark.parametrize("name", list(SHARED_STREAM_SD1_COUNTS))
    def test_walk_unchanged_on_a_shared_stream(self, monkeypatch, name, cols):
        # one walk of all the draws with one generator as both sources:
        # the chunks must come off the stream in the same order, at the
        # default step width and at 8 columns a step
        monkeypatch.setattr(sd, "_CHUNK_COLS", cols)
        x, y = PINNED_SAMPLES[name]
        draws = _pinned_draws(name)
        for (two, variant, tol), want in zip(PINNED_ORDER, SHARED_STREAM_SD1_COUNTS[name]):
            walk = sd._walk_setup(np.sort(x), y if two else UNIFORM01, variant, tol)
            shared = np.random.default_rng(7)
            assert (0 if walk is None else walk(draws, shared, shared)) == want


# ---------------------------------------------------------------------------
# decision-only dd test (Besag-Clifford stop)


def _dd_stop_count(n_boot, alpha):
    """Smallest exceedance count whose p-value exceeds alpha, by a loop
    over the p-value expression itself."""
    c = 0
    while c <= n_boot and (1.0 + c) / (n_boot + 1.0) <= alpha:
        c += 1
    return c


# (n, h, seed, n_boot, alpha, full p): shifted pairs drawn from seed, whose
# bootstrap (also seeded by seed) counts one short of the stop count or
# exactly the stop count, for every n_boot and alpha
DD_BOUNDARY = [
    (20, 1.3, 7, 19, 0.05, 0.05), (20, 1.3, 5, 19, 0.05, 0.1),
    (20, 1.3, 5, 19, 0.1, 0.1), (20, 1.3, 3, 19, 0.1, 0.15),
    (20, 1.3, 14, 99, 0.05, 0.05), (20, 1.3, 48, 99, 0.05, 0.06),
    (20, 1.3, 9, 99, 0.1, 0.1), (100, 1.3, 13, 99, 0.1, 0.11),
    (20, 1.3, 50, 199, 0.05, 0.05), (20, 1.3, 88, 199, 0.05, 0.055),
    (20, 1.3, 72, 199, 0.1, 0.1), (20, 1.3, 78, 199, 0.1, 0.105),
]
DD_BLOCKS = [1, sd._DD_BLOCK_ELEMS, 10 ** 8]


def _dd_decisions(x, y, n_boot, alpha, seed):
    full = dd_pvalue_nonsd1(x, y, n_boot=n_boot, rng=np.random.default_rng(seed))
    stopped = dd_pvalue_nonsd1(x, y, n_boot=n_boot, rng=np.random.default_rng(seed),
                               alpha=alpha)
    return full, stopped


class TestDecisionOnlyDd:
    @pytest.mark.parametrize("block", DD_BLOCKS)
    @pytest.mark.parametrize("n", [20, 100, 1000])
    @pytest.mark.parametrize("h", [0.9, 1.3, 3.0])
    def test_decision_matches_full_pvalue(self, monkeypatch, block, n, h):
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", block)
        for seed in range(1 if n == 1000 else 3):
            x, y = _shifted_pair(n, h, 1000 + seed)
            for n_boot in (19, 99, 199):
                for alpha in (0.05, 0.1):
                    full, stopped = _dd_decisions(x, y, n_boot, alpha, seed)
                    assert (stopped <= alpha) == (full <= alpha)
                    # a rejection is never stopped, so its p is the full one
                    if full <= alpha:
                        assert stopped == full

    @pytest.mark.parametrize("block", DD_BLOCKS)
    @pytest.mark.parametrize("case", DD_BOUNDARY)
    def test_boundary_counts(self, monkeypatch, block, case):
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", block)
        n, h, seed, n_boot, alpha, want = case
        x, y = _shifted_pair(n, h, seed)
        full, stopped = _dd_decisions(x, y, n_boot, alpha, seed)
        assert full == want
        count = round(full * (n_boot + 1)) - 1
        assert _dd_stop_count(n_boot, alpha) - count in (0, 1)
        assert (stopped <= alpha) == (full <= alpha)

    @pytest.mark.parametrize("case", DD_BOUNDARY)
    def test_rows_stop_at_the_stop_count(self, monkeypatch, case):
        # one row per block: the reduction ends on the row that brings the
        # count of t* >= t_obs to the stop count, and not before
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", 1)
        n, h, seed, n_boot, alpha, _ = case
        x, y = _shifted_pair(n, h, seed)
        rows = []
        bootstrap = sd._bootstrap_min_t_rows

        def recorded(*args):
            rows.append(bootstrap(*args))
            return rows[-1]

        monkeypatch.setattr(sd, "_bootstrap_min_t_rows", recorded)
        _dd_decisions(x, y, n_boot, alpha, seed)
        full, stopped = rows
        t_obs, _ = sd._interior_min_t(np.sort(x), np.sort(y))
        hits = np.flatnonzero(full >= t_obs)
        limit = _dd_stop_count(n_boot, alpha)
        want = n_boot if hits.size < limit else hits[limit - 1] + 1
        assert stopped.size == want
        np.testing.assert_array_equal(stopped, full[:want])

    @pytest.mark.parametrize("block", DD_BLOCKS)
    @pytest.mark.parametrize("case", DD_BOUNDARY)
    def test_stop_draws_only_the_rows_it_reduces(self, monkeypatch, block, case):
        # the substream ends where one that drew every row's two split-point
        # counts, then n + m uniforms for each returned row reduced in full,
        # ends, full or stopped
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", block)
        n, h, seed, n_boot, alpha, _ = case
        x, y = _shifted_pair(n, h, seed)
        seen = []
        bootstrap = sd._bootstrap_min_t_rows

        def recorded(*args):
            seen.append((bootstrap(*args), args))
            return seen[-1][0]

        monkeypatch.setattr(sd, "_bootstrap_min_t_rows", recorded)
        full, stopped = _dd_decisions(x, y, n_boot, alpha, seed)
        assert (stopped <= alpha) == (full <= alpha)
        for rows, args in seen:
            q, substream, t_obs = args[4], args[6], args[7]
            reference, = sd._substreams(np.random.default_rng(seed), 1)
            counts = reference.binomial((n, n), q, size=(n_boot, 2))[:rows.size]
            split_t = sd._min_t_terms(counts[:, 0] / n, counts[:, 1] / n, n, n)
            reference.random(np.count_nonzero(split_t >= t_obs) * 2 * n)
            assert substream.bit_generator.state == reference.bit_generator.state

    def test_stream_left_where_full_pvalue_leaves_it(self):
        x, y = _shifted_pair(100, 0.9, 3)
        ends = []
        for sample, alpha in (((x, y), None), ((x, y), 0.1), ((y, x), None)):
            rng = np.random.default_rng(8)
            state = rng.bit_generator.state
            dd_pvalue_nonsd1(*sample, n_boot=199, rng=rng, alpha=alpha)
            assert rng.bit_generator.state == state
            ends.append(rng.bit_generator.seed_seq.n_children_spawned)
        assert ends == [1, 1, 1]

    def test_table2_dd_cell_matches_full_pvalue(self, monkeypatch):
        kwargs = dict(h=1.3, n=100, two_sample=True, null="non_sd1", method="dd",
                      alpha=0.1, reps=30, cfg=SdConfig(dd_boot=199), master_seed=6)
        stopped = sd_rejection_probability(**kwargs)
        full_pvalue = sd.dd_pvalue_nonsd1
        monkeypatch.setattr(sd, "dd_pvalue_nonsd1",
                            lambda x, y, n_boot, rng, alpha: full_pvalue(x, y, n_boot, rng))
        assert sd_rejection_probability(**kwargs).estimate == stopped.estimate


# ---------------------------------------------------------------------------
# split-point screen of the dd bootstrap


def _resampled_min_t(x_sorted, y_sorted, ix, iy):
    """Min-t of the resample that takes the points ``ix`` of x and ``iy`` of
    y, over its own pooled points; inf when none is interior."""
    t, _ = sd._interior_min_t(np.sort(x_sorted[ix]), np.sort(y_sorted[iy]))
    return np.inf if math.isnan(t) else t


def _side_indices(u, count, k):
    """The first ``count`` uniforms of ``u`` pick from [0, k), the rest from
    [k, u.size)."""
    return np.concatenate([(u[:count] * k).astype(int),
                           k + (u[count:] * (u.size - k)).astype(int)])


def _unscreened_min_t_rows(x_sorted, y_sorted, kx, ky, q, n_boot, rng, t_obs, limit=None):
    """Oracle: _bootstrap_min_t_rows with every row reduced in full, one row
    at a time, over its own resampled points.  It reads the same stream:
    every row's split-point counts, then the uniforms of each row whose
    split-point t is >= t_obs, in row order.  The other rows, which the
    package never reduces, take their uniforms from a generator of their
    own, so every value is its row's min-t.  With ``limit`` it stops where
    the package does: after the block of reduced rows, _DD_BLOCK_ELEMS //
    (n + m) of them, that brings the count of values >= t_obs to limit."""
    n, m = x_sorted.size, y_sorted.size
    counts = rng.binomial((n, m), q, size=(n_boot, 2))
    split_t = sd._min_t_terms(counts[:, 0] / n, counts[:, 1] / m, n, m)
    own = np.random.default_rng(0)
    block = max(1, sd._DD_BLOCK_ELEMS // (n + m))
    t_min = np.empty(n_boot)
    reduced = hits = 0
    last = n_boot - 1
    for r in range(n_boot):
        source = rng if split_t[r] >= t_obs else own
        u = source.random(n + m)
        t_min[r] = _resampled_min_t(x_sorted, y_sorted, _side_indices(u[:n], counts[r, 0], kx),
                                    _side_indices(u[n:], counts[r, 1], ky))
        if source is rng:
            reduced, hits, last = reduced + 1, hits + (t_min[r] >= t_obs), r
            if limit is not None and hits >= limit and reduced % block == 0:
                return t_min[:r + 1]
    if limit is not None and hits >= limit:
        return t_min[:last + 1]
    return t_min


class TestSplitPointScreen:
    @pytest.mark.parametrize("block", DD_BLOCKS)
    @pytest.mark.parametrize("n", [20, 100, 1000, 2500])
    @pytest.mark.parametrize("h", [0.0, 0.9, 1.3, 4.0])
    def test_rows_agree_with_unscreened_oracle(self, monkeypatch, block, n, h):
        # per row: equal wherever either value is >= t_obs, and both below
        # t_obs otherwise; the p-values are equal
        monkeypatch.setattr(sd, "_DD_BLOCK_ELEMS", block)
        bootstrap = sd._bootstrap_min_t_rows
        rows = []

        def paired(*args):
            oracle = _unscreened_min_t_rows(*args[:6], copy.deepcopy(args[6]), *args[7:])
            rows.append((bootstrap(*args), oracle, args[7]))
            return rows[-1][0]

        monkeypatch.setattr(sd, "_bootstrap_min_t_rows", paired)
        for seed in range(1 if n >= 1000 else 3):
            x, y = _shifted_pair(n, h, 3000 + seed)
            for n_boot, alpha in ((199, None), (199, 0.1), (99, 0.05)):
                calls = len(rows)
                p = dd_pvalue_nonsd1(x, y, n_boot=n_boot, alpha=alpha,
                                     rng=np.random.default_rng(seed))
                if len(rows) > calls:
                    _, oracle, t_obs = rows[-1]
                    assert p == (1.0 + np.sum(oracle >= t_obs)) / (n_boot + 1.0)
        for screened, oracle, t_obs in rows:
            assert screened.size == oracle.size
            decided = (screened >= t_obs) | (oracle >= t_obs)
            np.testing.assert_array_equal(screened[decided], oracle[decided])
            assert np.all(screened[~decided] < t_obs)
        if h > 0.0:
            assert rows

    def test_dominant_pair_reduces_few_rows_in_full(self, monkeypatch):
        # far into the alternative the split-point t of nearly every row is
        # below t_obs, so nearly no row draws its points
        x, y = _shifted_pair(2500, 4.0, 11)
        two_sided_points = sd._two_sided_points
        seen = []

        def counted(u, low, k):
            seen.append(u.shape[0])
            return two_sided_points(u, low, k)

        monkeypatch.setattr(sd, "_two_sided_points", counted)
        p = dd_pvalue_nonsd1(x, y, n_boot=999, rng=np.random.default_rng(11))
        assert p == 1.0 / 1000.0
        # each row reduced in full resamples x, then y
        assert sum(seen) / 2 < 0.01 * 999


class TestResampler:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_min_t_matches_an_independent_resampler(self, seed):
        # t_obs = -inf reduces every row in full; its min-t values follow
        # the law of resamples drawn from explicit two-value weights
        gen = np.random.default_rng(100 + seed)
        x = np.sort(gen.uniform(0.1, 1.1, 20))
        y = np.sort(gen.uniform(0.0, 1.0, 15))
        n, m, kx, ky, rows = x.size, y.size, 8, 9, 3000
        q = (kx + ky) / (n + m)
        t = sd._bootstrap_min_t_rows(x, y, kx, ky, q, rows, np.random.default_rng(seed), -np.inf)
        wx = np.where(np.arange(n) < kx, q / kx, (1.0 - q) / (n - kx))
        wy = np.where(np.arange(m) < ky, q / ky, (1.0 - q) / (m - ky))
        rng = np.random.default_rng(50 + seed)
        ref = np.array([_resampled_min_t(x, y, rng.choice(n, n, p=wx), rng.choice(m, m, p=wy))
                        for _ in range(rows)])
        assert stats.ks_2samp(t[np.isfinite(t)], ref[np.isfinite(ref)]).pvalue > 1e-3


# ---------------------------------------------------------------------------
# simulated rejection probabilities


class TestSdRejectionProbability:
    def test_validation(self):
        with pytest.raises(ValueError):
            sd_rejection_probability(0.0, 20, False, "bogus", "ks", 0.1, 10)
        with pytest.raises(ValueError):
            sd_rejection_probability(0.0, 20, False, "sd1", "anova", 0.1, 10)
        with pytest.raises(ValueError):
            sd_rejection_probability(0.0, 20, True, "non_sd1", "iu_beta", 0.1, 10)
        with pytest.raises(ValueError):
            sd_rejection_probability(0.0, 20, False, "non_sd1", "dd", 0.1, 10)
        with pytest.raises(ValueError):
            sd_rejection_probability(0.0, 20, False, "non_sd1", "iu_maxt", 0.1, 10)
        # a frequentist test of the other null
        for args in [(1.0, 20, True, "sd1", "dd"), (1.0, 20, False, "sd1", "iu_beta"),
                     (1.0, 20, True, "sd1", "iu_maxt"), (0.0, 20, False, "non_sd1", "ks")]:
            with pytest.raises(ValueError, match="tests the null"):
                sd_rejection_probability(*args, 0.1, 10)

    def test_ks_smoke_reproducible(self):
        a = sd_rejection_probability(0.0, 25, False, "sd1", "ks", 0.1, 80,
                                     master_seed=5)
        b = sd_rejection_probability(0.0, 25, False, "sd1", "ks", 0.1, 80,
                                     master_seed=5)
        assert a.estimate == b.estimate
        assert 0.0 <= a.estimate <= 1.0

    def test_bayes_with_batched_draws(self):
        # 700 draws: batches of 300, 300 and 100
        cfg = SdConfig(draws=700)
        out = sd_rejection_probability(0.9, 25, False, "non_sd1", "bayes", 0.1,
                                       reps=40, cfg=cfg, master_seed=2)
        again = sd_rejection_probability(0.9, 25, False, "non_sd1", "bayes", 0.1,
                                         reps=40, cfg=cfg, master_seed=2)
        assert out.estimate == again.estimate
        assert 0.0 <= out.estimate <= 1.0

    def test_seedplan_accepted(self):
        plan = SeedPlan(44)
        a = sd_rejection_probability(0.0, 25, False, "sd1", "ks", 0.1, 50,
                                     master_seed=plan)
        b = sd_rejection_probability(0.0, 25, False, "sd1", "ks", 0.1, 50,
                                     master_seed=44)
        assert a.estimate == b.estimate


# ---------------------------------------------------------------------------
# sequential stop rule of the Bayesian cells


# the per-look error at 1800 draws: five looks that may stop
LOOK_ERROR = 1e-3 / 5


def _cp_covers(k, first, alpha, error=LOOK_ERROR):
    """Whether the Clopper-Pearson interval at level 1 - error for k
    successes out of first, from scipy.stats.beta quantiles, covers alpha."""
    tail = error / 2.0
    lower = 0.0 if k == 0 else stats.beta.ppf(tail, k, first - k + 1)
    upper = 1.0 if k == first else stats.beta.ppf(1.0 - tail, k + 1, first - k)
    return lower <= alpha <= upper


class TestTopupRule:
    @pytest.mark.parametrize("first", [40, 300])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.9])
    def test_range_matches_clopper_pearson(self, first, alpha):
        for draws, error in ((first, LOOK_ERROR), (first, 1e-3), (5 * first, LOOK_ERROR)):
            covered = [k for k in range(draws + 1) if _cp_covers(k, draws, alpha, error)]
            assert covered == list(range(covered[0], covered[-1] + 1))
            assert sd._topup_counts(draws, alpha, error) == (covered[0], covered[-1])

    def test_range_reaches_both_edges(self):
        # 0 of 40 still covers alpha = 0.05, and 40 of 40 covers 0.9
        assert sd._topup_counts(40, 0.05, LOOK_ERROR)[0] == 0
        assert sd._topup_counts(40, 0.9, LOOK_ERROR)[1] == 40

    @staticmethod
    def _count_posteriors(monkeypatch, null, null_counts, reps=6, draws=1800):
        """Draw counts of the posterior calls made by one bayes cell capped
        at ``draws``, and its rejection rate, when the posterior batches of
        every replication see ``null_counts`` null draws in turn, the last
        one repeated."""
        calls, streams = [], []

        def fake(x_sample, opponent, cfg=SdConfig(), rng=None, floor=0):
            # each replication has its own stream: this call's batch number
            # is the number of earlier calls on it
            batch = sum(seen is rng for seen in streams)
            streams.append(rng)
            calls.append(cfg.draws)
            k = null_counts[min(batch, len(null_counts) - 1)]
            count = k if null == "sd1" else cfg.draws - k
            return McSummary(count / cfg.draws, cfg.draws)

        monkeypatch.setattr(sd, "posterior_prob_sd1", fake)
        out = sd_rejection_probability(0.0, 20, False, null, "bayes", 0.1, reps=reps,
                                       cfg=SdConfig(draws=draws), master_seed=3)
        return calls, out.estimate

    @pytest.mark.parametrize("null", ["sd1", "non_sd1"])
    def test_decided_first_stage_never_tops_up(self, monkeypatch, null):
        assert not _cp_covers(0, 300, 0.1)
        assert self._count_posteriors(monkeypatch, null, [0]) == ([300] * 6, 1.0)

    @pytest.mark.parametrize("null", ["sd1", "non_sd1"])
    def test_straddling_count_always_tops_up(self, monkeypatch, null):
        # 30 null draws in every batch of 300 keeps the pooled estimate at
        # alpha itself, so every look's interval covers it
        assert all(_cp_covers(30 * b, 300 * b, 0.1) for b in range(1, 6))
        assert self._count_posteriors(monkeypatch, null, [30]) == ([300] * 36, 1.0)

    @pytest.mark.parametrize("null", ["sd1", "non_sd1"])
    @pytest.mark.parametrize("script", [[30, 0], [30, 30, 0], [35, 30, 30, 80],
                                        [40, 45], [25, 30, 20, 40, 30, 60]])
    def test_stops_at_the_first_decided_look(self, monkeypatch, null, script):
        # oracle: pool the scripted batches until a look's interval, from
        # scipy's beta quantiles, excludes alpha, or the sixth batch is in
        nulls = 0
        for batches in range(1, 7):
            nulls += script[min(batches, len(script)) - 1]
            if not _cp_covers(nulls, 300 * batches, 0.1):
                break
        assert 1 < batches
        rate = float(nulls / (300 * batches) <= 0.1)
        assert self._count_posteriors(monkeypatch, null, script) == ([300] * batches * 6, rate)

    def test_last_batch_is_short(self, monkeypatch):
        # 1300 draws look after 300, 600, 900 and 1200 draws, then end with
        # 100 more
        calls, _ = self._count_posteriors(monkeypatch, "sd1", [30], reps=2, draws=1300)
        assert calls == [300, 300, 300, 300, 100] * 2

    @pytest.mark.parametrize("draws", [1, 150, 300])
    def test_one_batch_makes_one_call(self, monkeypatch, draws):
        # at most one batch of draws leaves no look: one call per replication
        calls, _ = self._count_posteriors(monkeypatch, "sd1", [draws // 10], reps=3,
                                          draws=draws)
        assert calls == [draws] * 3


# ---------------------------------------------------------------------------
# decision floors: a posterior asked only whether its count reaches a floor


class TestPosteriorFloor:
    @staticmethod
    def _counts(x, opponent, draws, floors, workers=1):
        return [round(posterior_prob_sd1(x, opponent, SdConfig(draws=draws),
                                         np.random.default_rng(41), workers,
                                         floor=floor).estimate * draws)
                for floor in floors]

    @pytest.mark.parametrize("draws", [300, 1300])
    @pytest.mark.parametrize("two_sample", [False, True])
    def test_count_is_exact_from_the_floor_up(self, two_sample, draws):
        # 1300 draws are blocks of 500, 500 and 300, each with a floor of
        # its own
        x, y = _shifted_pair(100, 0.9, 41)
        opponent = y if two_sample else UNIFORM01
        exact, = self._counts(x, opponent, draws, [0])
        assert 0 < exact < draws
        floors = sorted({1, exact // 2, exact, exact + 1, (exact + draws) // 2, draws,
                         draws + 1})
        counts = self._counts(x, opponent, draws, floors)
        for floor, count in zip(floors, counts):
            assert count == exact if floor <= exact else count < floor
        # some walk stopped with draws still alive
        assert any(exact < count < floor for floor, count in zip(floors, counts))

    def test_workers_do_not_change_a_floored_count(self):
        x, y = _shifted_pair(100, 0.9, 42)
        floors = [0, 700, 1200, 1999]
        assert self._counts(x, y, 2000, floors) == self._counts(x, y, 2000, floors, workers=2)

    def test_floor_above_the_draws_draws_nothing(self, monkeypatch):
        # no weight is drawn, and the caller's stream spawns its two
        # children all the same, so a later call reads what it would have
        x, y = fixed_design_sample(50, 0.9)
        calls = _recording_draws(monkeypatch)
        rng = np.random.default_rng(43)
        out = posterior_prob_sd1(x, y, SdConfig(draws=1300), rng, floor=1301)
        assert out.estimate == 1.0 and not calls
        assert rng.bit_generator.seed_seq.n_children_spawned == 2
        later = posterior_prob_sd1(x, y, SdConfig(draws=300), rng)
        fresh = np.random.default_rng(43)
        posterior_prob_sd1(x, y, SdConfig(draws=1300), fresh)
        assert later == posterior_prob_sd1(x, y, SdConfig(draws=300), fresh)


def _batch_outcome(nulls, done, take, d, null, alpha, cap):
    """What a Bayesian replication capped at ``cap`` draws does with a
    batch of ``take`` draws of which ``d`` are dominated, after ``nulls``
    null draws out of ``done``: "continue", or its decision."""
    pooled = nulls + (d if null == "sd1" else take - d)
    total = done + take
    if total < cap and _cp_covers(pooled, total, alpha):
        return "continue"
    return pooled / total <= alpha


class TestDecisionFloor:
    @pytest.mark.parametrize("null", ["sd1", "non_sd1"])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.9])
    def test_floor_is_the_first_count_that_changes_the_outcome(self, null, alpha):
        # every look of an 1800-draw cap, after null counts that continued
        # at the look before: its range's ends, middle and alpha's share
        cap, take = 1800, 300
        floors = set()
        for done in range(0, cap, take):
            if done:
                lo, hi = sd._topup_counts(done, alpha, LOOK_ERROR)
                priors = {lo, (lo + hi) // 2, hi, min(max(round(alpha * done), lo), hi)}
            else:
                priors = {0}
            # the last batch passes an empty range: it has no look
            covering = (sd._topup_counts(done + take, alpha, LOOK_ERROR)
                        if done + take < cap else (1, 0))
            for nulls in priors:
                floor = sd._decision_floor(nulls, done, take, null, alpha, covering)
                first = _batch_outcome(nulls, done, take, 0, null, alpha, cap)
                floors.add(floor)
                if first == "continue":
                    assert floor == 0
                    continue
                assert 0 < floor <= take + 1
                assert all(_batch_outcome(nulls, done, take, d, null, alpha, cap) == first
                           for d in range(floor))
                if floor <= take:
                    assert _batch_outcome(nulls, done, take, floor, null, alpha, cap) != first
        # deciding batches occur, and continuing ones wherever a batch of
        # no dominated draw moves the pooled estimate toward alpha
        assert any(0 < f <= take for f in floors)
        assert (0 in floors) == ((null == "sd1") == (alpha < 0.5))


class TestFloorOracle:
    """The floors change no rejection: every Bayesian cell of table2 gives
    the rejections of the exact batch counts."""

    @staticmethod
    def _check(monkeypatch, cells, reps):
        stops = []
        walk = sd._walk_count

        def spied(*args):
            count = walk(*args)
            floor = args[-1]
            # a walk that returns with draws alive below its floor stopped
            # where a floorless walk goes on
            stops.append(0 < count < floor)
            return count

        monkeypatch.setattr(sd, "_walk_count", spied)
        cfg = SdConfig(draws=1800)
        floored = [sd_rejection_probability(h, n, two, null, "bayes", 0.1, reps, cfg=cfg,
                                            master_seed=seed)
                   for seed, (null, n, h, two) in enumerate(cells)]
        assert any(stops)
        posterior = sd.posterior_prob_sd1
        monkeypatch.setattr(sd, "posterior_prob_sd1",
                            lambda x, opponent, cfg, rng, floor: posterior(x, opponent, cfg, rng))
        exact = [sd_rejection_probability(h, n, two, null, "bayes", 0.1, reps, cfg=cfg,
                                          master_seed=seed)
                 for seed, (null, n, h, two) in enumerate(cells)]
        assert floored == exact

    def test_every_n100_cell(self, monkeypatch):
        cells = [("sd1", 100, 0.0, two) for two in (False, True)]
        cells += [("non_sd1", 100, h, two) for h in (0.0, 0.9, 1.3) for two in (False, True)]
        self._check(monkeypatch, cells, 20)

    def test_two_sample_n1000_h13_cell(self, monkeypatch):
        self._check(monkeypatch, [("non_sd1", 1000, 1.3, True)], 4)
