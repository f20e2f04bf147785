"""Acceptance gate: ten numbered end-to-end criteria.

Each test name carries its criterion number; the terminal summary hook in
conftest prints a per-criterion PASS/FAIL table after the run.  Reference
values appear as literals next to the tolerance they are held to; Monte
Carlo margins use the binomial standard error of the estimate itself.
"""

import time

import numpy as np
import pytest

from conftest import (
    fd_cost_hessian,
    oracle_interval_rp,
    oracle_is_nsd_eig,
    oracle_orthant_rp,
)
from ineqtest.cli import EXIT_OK, RunConfig, _with_defaults, cmd_table2, cmd_table3, main
from ineqtest.distributions import CovarianceMatrix, std_normal_quantile
from ineqtest.limit_experiment import (
    Box,
    Experiment,
    IntervalUnion,
    LowerHalfLine,
    SignAgreement,
    halfspace_rejection_prob_exact,
    kline_orthant_posterior,
    rejection_probability,
    size_over_boundary,
)
from ineqtest.mc_harness import SeedPlan
from ineqtest.stochastic_dominance import (
    UNIFORM01,
    SdConfig,
    dd_pvalue_nonsd1,
    fixed_design_sample,
    iu_beta_pvalue_nonsd1,
    iu_maxt_pvalue_nonsd1,
    ks_pvalue_sd1,
    posterior_prob_sd1,
)
from ineqtest.translog import (
    FreeParams,
    expand_params,
    hessian,
    is_nsd,
)

from test_translog import boundary_params


def test_criterion_1_kline_posteriors():
    xq = std_normal_quantile(0.95)
    for d, want in ((10, 0.40), (25, 0.72), (90, 0.99)):
        got = kline_orthant_posterior(np.full(d, xq))
        assert got == pytest.approx(want, abs=0.005), f"d={d}"


def test_criterion_2_halfspace_boundary_exactness():
    start = time.perf_counter()
    scalar = Experiment.scalar()
    line = LowerHalfLine(0.0)
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.32):
        exact = halfspace_rejection_prob_exact(line, [0.0], scalar, alpha)
        assert abs(exact - alpha) <= 1e-12
        auto = rejection_probability(line, [0.0], scalar, alpha, reps=10,
                                     master_seed=0)
        assert auto.mc_se == 0.0
        assert abs(auto.estimate - alpha) <= 1e-12
    # a non-axis direction with a correlated covariance, still on the boundary
    from ineqtest.limit_experiment import HalfSpace

    slanted = HalfSpace(c=np.array([1.0, -2.0]), c0=1.0)
    corr = Experiment(cov=CovarianceMatrix(np.array([[1.5, 0.2], [0.2, 0.8]])))
    exact2 = halfspace_rejection_prob_exact(slanted, [3.0, 1.0], corr, 0.05)
    assert abs(exact2 - 0.05) <= 1e-12

    mc = rejection_probability(line, [0.0], scalar, alpha=0.05, reps=100_000,
                               master_seed=21, method="mc")
    assert abs(mc.estimate - 0.05) <= 3 * mc.mc_se
    assert time.perf_counter() - start < 10.0


def test_criterion_3_strict_size_inflation():
    start = time.perf_counter()

    interval = IntervalUnion(intervals=((-1.0, 0.0),))
    mc_iu = rejection_probability(interval, [0.0], Experiment.scalar(),
                                  alpha=0.05, reps=100_000, master_seed=31)
    rp_iu, _, _ = oracle_interval_rp(-1.0, 0.0, 0.05)   # 0.059284
    assert mc_iu.estimate - 0.05 > 3 * mc_iu.mc_se
    assert abs(mc_iu.estimate - rp_iu) <= 3 * mc_iu.mc_se

    orthant = Box.orthant(2)
    mc_orth = rejection_probability(orthant, np.zeros(2), Experiment.identity(2),
                                    alpha=0.05, reps=100_000, master_seed=32)
    rp_orth = oracle_orthant_rp(0.05)   # alpha * (1 - ln alpha) = 0.199787
    assert mc_orth.estimate - 0.05 > 3 * mc_orth.mc_se
    assert abs(mc_orth.estimate - rp_orth) <= 3 * mc_orth.mc_se

    assert time.perf_counter() - start < 30.0


def test_criterion_4_signagree_size_both_directions():
    region = SignAgreement()

    near_degenerate = Experiment(cov=CovarianceMatrix.from_correlation(-0.99))
    res_neg = size_over_boundary(region, [np.zeros(2)], near_degenerate,
                                 alpha=0.05, reps=100_000, draws=2000,
                                 master_seed=41)
    top_neg = res_neg.max_summary
    assert top_neg.estimate - 0.05 > 3 * top_neg.mc_se

    independent = Experiment.identity(2)
    res_zero = size_over_boundary(region, [np.zeros(2)], independent,
                                  alpha=0.05, reps=100_000, draws=2000,
                                  master_seed=42)
    top_zero = res_zero.max_summary
    assert 0.05 - top_zero.estimate > 3 * top_zero.mc_se

    # supplementary sweep along the axes, the rest of the null boundary:
    # nothing there climbs back above alpha either
    axes = [np.array([2.0, 0.0]), np.array([-2.0, 0.0]),
            np.array([0.0, 2.0]), np.array([0.0, -2.0])]
    res_axes = size_over_boundary(region, axes, independent, alpha=0.05,
                                  reps=20_000, draws=2000, master_seed=43)
    top_axes = res_axes.max_summary
    assert 0.05 - top_axes.estimate > 3 * top_axes.mc_se


# fixed-design reference values, shown to three decimals in the source
# tables; keys are (n, h) or (n, comparison)
T1_KS = {(100, "one"): 0.981, (100, "two"): 0.990,
         (1000, "one"): 0.998, (1000, "two"): 0.999}
T1_BAYES_SD1 = {(100, "one"): 0.009, (100, "two"): 0.010,
                (1000, "one"): 0.000, (1000, "two"): 0.000}
T1_IU_BETA = {(100, 0.0): 0.630, (100, 0.5): 0.157, (100, 0.9): 0.035,
              (1000, 0.0): 0.632, (1000, 0.5): 0.159, (1000, 0.9): 0.036}
T1_DD = {(100, 0.0): 1.000, (100, 0.5): 0.020, (100, 0.9): 0.015,
         (1000, 0.0): 1.000, (1000, 0.5): 0.015, (1000, 0.9): 0.010}
T1_MAXT = {(100, 0.0): 0.717, (100, 0.5): 0.263, (100, 0.9): 0.114,
           (1000, 0.0): 0.718, (1000, 0.5): 0.244, (1000, 0.9): 0.109}
T1_BAYES_NON_1S = {(100, 0.0): 0.991, (100, 0.5): 0.526, (100, 0.9): 0.165,
                   (1000, 0.0): 0.998, (1000, 0.5): 0.587, (1000, 0.9): 0.175}
T1_BAYES_NON_2S = {(100, 0.0): 0.988, (100, 0.5): 0.688, (100, 0.9): 0.356,
                   (1000, 0.0): 0.998, (1000, 0.5): 0.729, (1000, 0.9): 0.410}

# posterior draw counts: enough that 3 MC standard errors stay well inside
# the 0.02 band; the grids grow with n, so the affordable count shrinks
T1_DRAWS_1S = {100: 150_000, 1000: 60_000}
T1_DRAWS_2S = {100: 20_000, 1000: 20_000}


@pytest.mark.slow
def test_criterion_5_fixed_design_table():
    start = time.perf_counter()
    plan = SeedPlan(20260823)
    failures = []

    def check(label, got, want, tol):
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got:.4f}, reference {want} (tol {tol})")

    for ni, n in enumerate((100, 1000)):
        x0, y0 = fixed_design_sample(n, 0.0)
        check(f"ks 1s n={n}", ks_pvalue_sd1(x0, UNIFORM01),
              T1_KS[(n, "one")], 0.02)
        check(f"ks 2s n={n}", ks_pvalue_sd1(x0, y0), T1_KS[(n, "two")], 0.02)
        cfg_1s = SdConfig(draws=T1_DRAWS_1S[n])
        cfg_2s = SdConfig(draws=T1_DRAWS_2S[n])
        check(f"bayes sd1 1s n={n}",
              posterior_prob_sd1(x0, UNIFORM01, cfg_1s, plan.stream(0, ni, 0)).estimate,
              T1_BAYES_SD1[(n, "one")], 0.02)
        check(f"bayes sd1 2s n={n}",
              posterior_prob_sd1(x0, y0, cfg_2s, plan.stream(0, ni, 1)).estimate,
              T1_BAYES_SD1[(n, "two")], 0.02)
        for hi, h in enumerate((0.0, 0.5, 0.9)):
            x, y = fixed_design_sample(n, h)
            check(f"iu_beta n={n} h={h}", iu_beta_pvalue_nonsd1(x),
                  T1_IU_BETA[(n, h)], 0.05)
            check(f"dd n={n} h={h}",
                  dd_pvalue_nonsd1(x, y, n_boot=999, rng=plan.stream(1, ni, hi)),
                  T1_DD[(n, h)], 0.05)
            check(f"iu_maxt n={n} h={h}", iu_maxt_pvalue_nonsd1(x, y),
                  T1_MAXT[(n, h)], 0.05)
            check(f"bayes non 1s n={n} h={h}",
                  1.0 - posterior_prob_sd1(x, UNIFORM01, cfg_1s,
                                           plan.stream(2, ni, hi)).estimate,
                  T1_BAYES_NON_1S[(n, h)], 0.02)
            check(f"bayes non 2s n={n} h={h}",
                  1.0 - posterior_prob_sd1(x, y, cfg_2s,
                                           plan.stream(3, ni, hi)).estimate,
                  T1_BAYES_NON_2S[(n, h)], 0.02)

    elapsed = time.perf_counter() - start
    assert not failures, "\n".join(failures)
    assert elapsed < 120.0


# simulated rejection rates at alpha = 0.1, 1000 replications per cell;
# keys are (null, n, h, comparison, method)
T2_RATES = {
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


@pytest.mark.slow
def test_criterion_6_dominance_rejection_table():
    start = time.perf_counter()
    rows = cmd_table2(_with_defaults(RunConfig(command="table2", seed=20260823, workers=4)))
    elapsed = time.perf_counter() - start

    rates = {(r["h0"], r["n"], r["h"], r["comparison"], r["method"]): r["rate"]
             for r in rows}
    assert set(rates) == set(T2_RATES)
    failures = [f"{key}: got {rates[key]:.3f}, reference {want}"
                for key, want in T2_RATES.items()
                if abs(rates[key] - want) > 0.04]
    assert not failures, "\n".join(failures)

    # strict orderings: the Bayesian test accepts a true dominance null
    # ~always while the frequentist holds its level, and the frequentist
    # tests out-reject the Bayesian ones under the non-dominance null
    for n in (100, 1000):
        for comp in ("one_sample", "two_sample"):
            assert rates[("sd1", n, 0.0, comp, "bayes")] > \
                rates[("sd1", n, 0.0, comp, "ks")]
        for h in (0.9, 1.3):
            assert rates[("non_sd1", n, h, "one_sample", "iu_beta")] > \
                rates[("non_sd1", n, h, "one_sample", "bayes")]
            assert rates[("non_sd1", n, h, "two_sample", "dd")] > \
                rates[("non_sd1", n, h, "two_sample", "bayes")]

    assert elapsed < 600.0


# curvature rejection rates: 500 replications, 200 draws, n=100,
# delta=0.001; keys are (sigma_eps, alpha)
T3_RATES = {
    (0.0, 0.05): 0.000, (0.0, 0.1): 0.000,
    (0.1, 0.05): 0.090, (0.1, 0.1): 0.172,
    (0.2, 0.05): 0.360, (0.2, 0.1): 0.546,
    (0.3, 0.05): 0.574, (0.3, 0.1): 0.756,
    (0.4, 0.05): 0.660, (0.4, 0.1): 0.810,
    (0.5, 0.05): 0.734, (0.5, 0.1): 0.882,
}


def test_criterion_7_curvature_rejection_table():
    start = time.perf_counter()
    table = cmd_table3(_with_defaults(RunConfig(command="table3", seed=20260823, workers=4)))
    elapsed = time.perf_counter() - start

    rows = {(r["sigma_eps"], r["alpha"]): r for r in table}
    assert set(rows) == set(T3_RATES)

    # the noise-free row cannot reject at all, and every least-squares
    # point estimate must be locally monotone
    for alpha in (0.05, 0.1):
        assert rows[(0.0, alpha)]["rate"] == 0.0
    for r in table:
        assert r["monotonicity_rate"] == 1.0

    failures = [f"sigma_eps={k[0]}, alpha={k[1]}: got {rows[k]['rate']:.3f}, "
                f"reference {want}"
                for k, want in T3_RATES.items()
                if abs(rows[k]["rate"] - want) > 0.06]
    assert not failures, "\n".join(failures)
    assert elapsed < 600.0


def test_criterion_8_hessian_correctness():
    rng = np.random.default_rng(88)
    for _ in range(50):
        free = FreeParams(
            a0=rng.uniform(-0.5, 1.5), ay=rng.uniform(0.5, 1.5),
            ayy=rng.uniform(-0.3, 0.3), ay1=rng.uniform(-0.2, 0.2),
            ay2=rng.uniform(-0.2, 0.2), b1=rng.uniform(0.1, 0.5),
            b2=rng.uniform(0.1, 0.5), b11=rng.uniform(-0.3, 0.3),
            b12=rng.uniform(-0.3, 0.3), b22=rng.uniform(-0.3, 0.3))
        p = expand_params(free)
        y = rng.uniform(0.5, 2.0)
        w = rng.uniform(0.5, 2.0, size=3)
        got = hessian(p, y, w).matrix
        want = fd_cost_hessian(p, y, w)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) / scale < 1e-5

        unit = hessian(p, 1.0, np.ones(3))
        unit_scale = max(1.0, float(np.max(np.abs(unit.matrix))))
        assert np.max(np.abs(unit.matrix @ np.ones(3))) < 1e-10 * unit_scale

    # on the concavity boundary the unit-point Hessian vanishes exactly
    h0 = hessian(boundary_params(), 1.0, np.ones(3))
    assert np.all(h0.matrix == 0.0)


def test_criterion_9_nsd_vs_eigenvalue_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(10_000):
        a = rng.normal(size=(3, 3))
        m = (a + a.T) / 2.0
        eigs = np.linalg.eigvalsh(m)
        if np.min(np.abs(eigs)) <= 1e-5:
            continue  # boundary band where tolerance conventions differ
        assert is_nsd(m) == oracle_is_nsd_eig(m)
        checked += 1
    assert checked > 9_900

    # NSD at the unit point implies the share-variance bound on b11
    rng2 = np.random.default_rng(100)
    monotone = 0
    nsd_count = 0
    while monotone < 1_000:
        b1 = rng2.uniform(0.05, 0.6)
        b2 = rng2.uniform(0.05, 0.6)
        if 1.0 - b1 - b2 < 0.05:
            continue
        free = FreeParams(a0=rng2.uniform(0.0, 1.0), ay=1.0, ayy=0.0,
                          ay1=0.0, ay2=0.0, b1=b1, b2=b2,
                          b11=rng2.uniform(-0.4, 0.3),
                          b12=rng2.uniform(-0.3, 0.3),
                          b22=rng2.uniform(-0.4, 0.3))
        monotone += 1
        if is_nsd(hessian(expand_params(free), 1.0, np.ones(3))):
            nsd_count += 1
            assert free.b11 <= b1 * (1.0 - b1) + 1e-6
    assert nsd_count > 30  # the implication must not be vacuous


def test_criterion_10_worker_byte_identity(tmp_path):
    jobs = [
        ("table1", ["--draws", "400", "--n", "100", "--dd-boot", "99"]),
        ("table2", ["--reps", "30", "--draws", "150", "--n", "60",
                    "--h", "0.0,0.9", "--dd-boot", "49"]),
        ("table3", ["--reps", "8", "--draws", "30",
                    "--sigma-eps", "0.0,0.3", "--n", "40"]),
    ]
    for command, extra in jobs:
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"{command}_w{workers}.csv"
            code = main(["--command", command, "--seed", "20260823",
                         "--workers", workers, "--out", str(out), *extra])
            assert code == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{command} output differs across workers"
