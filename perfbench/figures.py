"""Reference figures for perfbench/README.md: the kernel costs of the
roadmap's baseline table, and the projected serial time of the full-size
table2 and table3 from the per-cell ms/rep of a traced run.

    python3 perfbench/figures.py

Run from the root of a checkout, on an otherwise idle machine.  Prints a
markdown table; every kernel time is the best of K timed calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import HERE, import_package

K = 7
TABLE2_REPS, TABLE3_REPS = 1000, 500  # the commands' default replications


def best(fn, k=K):
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def kernel_rows():
    import numpy as np
    from ineqtest.limit_experiment import Experiment, IntervalUnion, SignAgreement, \
        rejection_probability
    from ineqtest.mc_harness import SeedPlan
    from ineqtest.stochastic_dominance import UNIFORM01, SdConfig, dd_pvalue_nonsd1, \
        fixed_design_sample, posterior_prob_sd1
    from ineqtest.translog import TranslogDgp, posterior_prob_nsd, simulate_dataset

    plan = SeedPlan(0)
    rows = [("`SeedPlan.stream`", best(lambda: [plan.stream(i) for i in range(10_000)]) / 10_000,
             "us")]
    cfg = SdConfig(draws=2000)
    for n in (100, 1000):
        x, y = fixed_design_sample(n, 0.9)
        rows += [
            (f"`posterior_prob_sd1`, 2000 draws, one-sample, n={n}",
             best(lambda: posterior_prob_sd1(x, UNIFORM01, cfg, plan.stream(0))), "ms"),
            (f"`posterior_prob_sd1`, 2000 draws, two-sample, n={n}",
             best(lambda: posterior_prob_sd1(x, y, cfg, plan.stream(0))), "ms"),
            (f"`dd_pvalue_nonsd1`, 199 replicates, n={n}",
             best(lambda: dd_pvalue_nonsd1(x, y, n_boot=199, rng=plan.stream(1))), "ms"),
        ]
    data = simulate_dataset(TranslogDgp(sigma_eps=0.3), np.random.default_rng(0))
    rows.append(("`posterior_prob_nsd`, 200 draws",
                 best(lambda: posterior_prob_nsd(data, draws=200, rng=plan.stream(2))), "ms"))
    for label, region, exp, reps in (
            ("interval `[-1,0]`", IntervalUnion(((-1.0, 0.0),)), Experiment.scalar(), 5000),
            ("signagree (2000-draw posterior)", SignAgreement(), Experiment.identity(2), 1000)):
        theta = np.zeros(exp.dim)
        seconds = best(lambda: rejection_probability(region, theta, exp, 0.05, reps=reps,
                                                     master_seed=3), k=3)
        rows.append((f"`rejection_probability`, {label}, per rep", seconds / reps, "us"))
    return rows


def projections():
    """Sum of the traced per-cell ms/rep times the default replications."""
    rows = []
    for workload, prefix, reps, table in (
            ("dominance", "stochastic_dominance.cell.", TABLE2_REPS, "table2"),
            ("curvature", "translog.cell.", TABLE3_REPS, "table3")):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", "1", "--seconds", "1", "--trace", "1"],
                              stdout=subprocess.PIPE, text=True, check=True)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        ms_per_rep = sum(m["value"] for name, m in metrics.items() if name.startswith(prefix))
        rows.append((f"{table} at {reps} reps, serial projection", ms_per_rep * reps / 1e3, "s"))
    return rows


def main():
    import numpy
    import platform
    import scipy

    import_package()
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}
    rows = kernel_rows()
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}; kernel times are the best of {K} "
          f"(rejection_probability: best of 3)\n")
    print("| what | cost |\n|---|---|")
    for label, seconds, unit in rows:
        print(f"| {label} | {seconds * scale[unit]:.1f} {unit} |")
    for label, seconds, unit in projections():
        print(f"| {label} | {seconds:.0f} {unit} |")


if __name__ == "__main__":
    main()
