"""The four workloads: the CLI calls each one makes, the inputs they read,
and the check of every call's output against ``refs``.

A workload is built from the workload seed alone.  Master seeds passed to
``--seed`` and the sample files are derived from it, so the same seed
gives the same calls, inputs and outputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

import refs

DOMINANCE_REPS = 8
CURVATURE_REPS = 10
LIMIT_ALPHA = 0.05
LIMIT_CALLS = (  # region, theta, reps, reference rejection probability
    ("interval:[-1,0]", "0", 5_000, refs.interval_rp(LIMIT_ALPHA)),
    ("box:0..inf,0..inf", "0,0", 2_500, refs.orthant_rp(LIMIT_ALPHA)),
    ("signagree", "0,0", 2_000, refs.signagree_rp(LIMIT_ALPHA)),
)
SD_SMALL_N = 100
SD_LARGE_N = 2500
SD_REF_DRAWS = 2000
NSD_CHECK_SIGMAS = (0.1, 0.2, 0.3)
NSD_CHECK_DRAWS = 2000

# allowed distance from a reference, in binomial standard errors
DOMINANCE_SE, DOMINANCE_FLOOR = 6.0, 0.15
LIMIT_SE = 5.0
POSTERIOR_SE, POSTERIOR_FLOOR = 5.0, 0.01

MALFORMED = {"nan": "0.25\n0.5\nnan\n0.75\n", "inf": "0.25\n0.5\ninf\n0.75\n"}


@dataclass
class Call:
    """One CLI call and the check of its output.  ``check`` maps the
    parsed CSV rows to a list of problems; a call expected to be refused
    has no check and must exit with ``expect_exit`` and print nothing."""

    label: str
    argv: list
    check: object = None
    expect_exit: int = 0


@dataclass
class Workload:
    name: str
    warmup: list
    calls: list
    # checks of the package's kernels on generated data, made once per run
    side_checks: list = field(default_factory=list)


def master_seed(seed, *path):
    """A 32-bit master seed for one call, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _full(row, col):
    return float(row[f"{col}_full"])


# ---------------------------------------------------------------------------
# dominance: table2 on its default grid, reps reduced


def dominance(seed, workdir):
    m = master_seed(seed, 0)
    argv = ["--command", "table2", "--reps", str(DOMINANCE_REPS), "--seed", str(m)]
    return Workload("dominance",
                    warmup=["--command", "table2", "--reps", "1", "--n", "100", "--seed", str(m)],
                    calls=[Call("table2", argv, _check_table2)])


def _check_table2(rows):
    problems = []
    rates = {}
    for r in rows:
        key = (r["h0"], int(r["n"]), float(r["h"]), r["comparison"], r["method"])
        rates[key] = _full(r, "rate")
        if int(r["reps"]) != DOMINANCE_REPS:
            problems.append(f"{key}: reps {r['reps']}")
    if set(rates) != set(refs.TABLE2_RATES):
        return problems + [f"table2 cells differ: {sorted(set(rates) ^ set(refs.TABLE2_RATES))}"]
    for key, want in refs.TABLE2_RATES.items():
        band = refs.binomial_band(want, DOMINANCE_REPS, DOMINANCE_SE, DOMINANCE_FLOOR)
        if abs(rates[key] - want) > band:
            problems.append(f"{key}: rate {rates[key]:.3f}, paper {want} +- {band:.3f}")
    for n in (100, 1000):
        for comparison in ("one_sample", "two_sample"):
            bayes = rates[("sd1", n, 0.0, comparison, "bayes")]
            ks = rates[("sd1", n, 0.0, comparison, "ks")]
            if not bayes > ks:
                problems.append(f"sd1 n={n} {comparison}: bayes {bayes} <= ks {ks}")
    return problems


# ---------------------------------------------------------------------------
# curvature: table3 on its default grid, reps reduced

SIGMAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
CURVATURE_ALPHAS = (0.05, 0.1)
# the benchmark coefficients at curvature slack 0.001, in design-column order
_TRUE_COEF = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1 / 3, 1 / 3,
                       2 / 9 - 0.001, -1 / 9, 2 / 9 - 0.001])


def curvature(seed, workdir):
    m = master_seed(seed, 1)
    argv = ["--command", "table3", "--reps", str(CURVATURE_REPS), "--seed", str(m)]
    return Workload("curvature",
                    warmup=["--command", "table3", "--reps", "1", "--sigma-eps", "0.1",
                            "--seed", str(m)],
                    calls=[Call("table3", argv, _check_table3)],
                    side_checks=[lambda: _check_nsd_posteriors(seed)])


def _check_table3(rows):
    problems = []
    seen = set()
    for r in rows:
        key = (float(r["sigma_eps"]), float(r["alpha"]))
        seen.add(key)
        rate, mono = _full(r, "rate"), _full(r, "monotonicity_rate")
        if int(r["reps"]) != CURVATURE_REPS or int(r["draws"]) != 200:
            problems.append(f"{key}: reps {r['reps']}, draws {r['draws']}")
        if key[0] == 0.0 and rate != 0.0:
            problems.append(f"{key}: noise-free rate {rate}, must be 0")
        if not 0.0 <= rate <= 1.0:
            problems.append(f"{key}: rate {rate} outside [0, 1]")
        if mono != 1.0:
            problems.append(f"{key}: monotonicity_rate {mono}, must be 1")
    want = {(s, a) for s in SIGMAS for a in CURVATURE_ALPHAS}
    if seen != want or len(rows) != len(want):
        problems.append(f"table3 cells differ: {sorted(seen ^ want)}")
    return problems


def _check_nsd_posteriors(seed):
    """The package's NSD posterior on a few generated datasets against
    refs.nsd_posterior on the same data."""
    from ineqtest.mc_harness import SeedPlan
    from ineqtest.translog import TranslogData, posterior_prob_nsd

    problems = []
    for i, sigma in enumerate(NSD_CHECK_SIGMAS):
        rng = np.random.default_rng([seed, 1, i])
        ln_y = rng.normal(0.0, 3.6, 100)
        ln_w = rng.normal(0.0, 3.6, (100, 3))
        design = refs.translog_design(ln_y, ln_w)
        response = design @ _TRUE_COEF + rng.normal(0.0, sigma, 100)
        got = posterior_prob_nsd(TranslogData(ln_y=ln_y, ln_w=ln_w, response=response),
                                 draws=NSD_CHECK_DRAWS,
                                 rng=SeedPlan(master_seed(seed, 1, i)).stream(0)).estimate
        want = refs.nsd_posterior(design, response, NSD_CHECK_DRAWS, rng)
        band = _posterior_band(got, want, NSD_CHECK_DRAWS, NSD_CHECK_DRAWS)
        if abs(got - want) > band:
            problems.append(f"NSD posterior sigma_eps={sigma}: package {got}, "
                            f"reference {want} +- {band:.4f}")
    return problems


def _posterior_band(p1, p2, draws1, draws2):
    p = min(max((p1 * draws1 + p2 * draws2) / (draws1 + draws2), POSTERIOR_FLOOR),
            1.0 - POSTERIOR_FLOOR)
    return POSTERIOR_SE * math.sqrt(p * (1.0 - p) * (1.0 / draws1 + 1.0 / draws2))


# ---------------------------------------------------------------------------
# limit: three regions at theta = 0


def limit(seed, workdir):
    calls = []
    for i, (region, theta, reps, want) in enumerate(LIMIT_CALLS):
        argv = ["--command", "limit", "--region", region, "--theta", theta,
                "--alpha", str(LIMIT_ALPHA), "--reps", str(reps),
                "--seed", str(master_seed(seed, 2, i))]
        calls.append(Call(region.split(":")[0], argv, _limit_check(region, reps, want)))
    return Workload("limit",
                    warmup=["--command", "limit", "--region", "signagree", "--reps", "200",
                            "--seed", str(master_seed(seed, 2))],
                    calls=calls)


def _limit_check(region, reps, want):
    band = LIMIT_SE * math.sqrt(want * (1.0 - want) / reps)

    def check(rows):
        if len(rows) != 1:
            return [f"{region}: {len(rows)} rows"]
        got = _full(rows[0], "value")
        if abs(got - want) > band:
            return [f"{region}: rejection rate {got}, reference {want:.6f} +- {band:.6f}"]
        return []
    return check


# ---------------------------------------------------------------------------
# sd_test: the dominance battery on generated sample files


def sd_test(seed, workdir):
    rng = np.random.default_rng([seed, 3])

    def shifted(n, h):
        shift = h / math.sqrt(n)
        return rng.uniform(shift, 1.0 + shift, n)

    def save(name, data):
        path = workdir / f"{name}.txt"
        if isinstance(data, str):
            path.write_text(data)
        else:
            np.savetxt(path, data, fmt="%.17g")
        return str(path)

    m = master_seed(seed, 3)
    calls = []
    # h = 4 at the large n keeps the observed min-t positive, so the dd
    # bootstrap always runs in full
    for n, h in ((SD_SMALL_N, 1.0), (SD_LARGE_N, 1.0)):
        x = shifted(n, h)
        calls.append(Call(f"one_sample.n{n}",
                          ["--command", "sd-test", "--x-file", save(f"x1_{n}", x), "--seed", str(m)],
                          _sd_check(x, None, m)))
    for n, h in ((SD_SMALL_N, 1.0), (SD_LARGE_N, 4.0)):
        x, y = shifted(n, h), rng.uniform(0.0, 1.0, n)
        calls.append(Call(f"two_sample.n{n}",
                          ["--command", "sd-test", "--x-file", save(f"x2_{n}", x),
                           "--y-file", save(f"y2_{n}", y), "--seed", str(m)],
                          _sd_check(x, y, m)))
    for name, text in MALFORMED.items():
        calls.append(Call(f"malformed.{name}",
                          ["--command", "sd-test", "--x-file", save(f"bad_{name}", text),
                           "--seed", str(m)], expect_exit=2))
    return Workload("sd_test", warmup=calls[0].argv, calls=calls)


def _sd_check(x, y, m):
    memo = {}

    def reference_posterior():
        if "p" not in memo:
            rng = np.random.default_rng([m, len(x), 0 if y is None else 1])
            memo["p"] = refs.banks_posterior_sd1(x, y, SD_REF_DRAWS, rng)
        return memo["p"]

    def check(rows):
        values = {r["method"]: _full(r, "value") for r in rows}
        comparison = "one_sample" if y is None else "two_sample"
        methods = (["ks", "iu_beta"] if y is None else ["ks", "dd", "iu_maxt"])
        methods += ["bayes_sd1", "bayes_non_sd1"]
        if [r["method"] for r in rows] != methods or any(r["comparison"] != comparison
                                                          for r in rows):
            return [f"{comparison}: rows {[r['method'] for r in rows]}"]
        problems = []
        exact = {"ks": refs.ks_pvalue(x, y)}
        if y is None:
            exact["iu_beta"] = refs.order_stat_pvalue(x)
        else:
            exact["iu_maxt"] = refs.min_t_pvalue(x, y)
            if not 1.0 / 1000.0 <= values["dd"] <= 1.0:
                problems.append(f"dd p-value {values['dd']} outside [1/1000, 1]")
        for method, want in exact.items():
            if abs(values[method] - want) > 1e-9:
                problems.append(f"{method}: {values[method]}, reference {want}")
        if abs(values["bayes_sd1"] + values["bayes_non_sd1"] - 1.0) > 1e-12:
            problems.append("bayes_sd1 + bayes_non_sd1 != 1")
        want = reference_posterior()
        band = _posterior_band(values["bayes_sd1"], want, 2000, SD_REF_DRAWS)
        if abs(values["bayes_sd1"] - want) > band:
            problems.append(f"bayes_sd1 {values['bayes_sd1']}, reference {want} +- {band:.4f}")
        return problems
    return check


WORKLOADS = {"dominance": dominance, "curvature": curvature, "limit": limit,
             "sd_test": sd_test}
