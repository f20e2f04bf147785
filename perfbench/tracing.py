"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at the name its caller
looks it up under (a module global, or ``SeedPlan.stream`` on the class)
and ``Tracer.remove`` puts the originals back.  Spans are kept in memory
as (name, start, end, parent, attrs) and reduced to per-layer metrics by
``layer_metrics``.  The traced run is single-threaded (``--workers 1``),
so one stack gives every span its parent.
"""

from __future__ import annotations

import inspect
import time

from ineqtest import cli, limit_experiment, stochastic_dominance, translog
from ineqtest.limit_experiment import Box, IntervalUnion, SignAgreement
from ineqtest.mc_harness import SeedPlan

# (module, attribute, span name); a function bound under several names
# gets one wrapper per name
_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "sd_rejection_probability", "cell.sd"),
    (cli, "type1_error_sim", "cell.translog"),
    (cli, "rejection_probability", "cell.limit"),
    (cli, "posterior_prob_sd1", "sd.posterior"),
    (cli, "dd_pvalue_nonsd1", "sd.dd"),
    (cli, "ks_pvalue_sd1", "sd.freq"),
    (cli, "iu_beta_pvalue_nonsd1", "sd.freq"),
    (cli, "iu_maxt_pvalue_nonsd1", "sd.freq"),
    (stochastic_dominance, "run_replications", "mc.run_replications"),
    (stochastic_dominance, "dirichlet_flat_sample", "dist.dirichlet"),
    (stochastic_dominance, "posterior_prob_sd1", "sd.posterior"),
    (stochastic_dominance, "dd_pvalue_nonsd1", "sd.dd"),
    (stochastic_dominance, "ks_pvalue_sd1", "sd.freq"),
    (stochastic_dominance, "iu_beta_pvalue_nonsd1", "sd.freq"),
    (stochastic_dominance, "iu_maxt_pvalue_nonsd1", "sd.freq"),
    (translog, "dirichlet_flat_sample", "dist.dirichlet"),
    (translog, "posterior_prob_nsd", "tl.posterior_nsd"),
    (translog, "simulate_dataset", "tl.simulate_dataset"),
    (translog, "ols_fit", "tl.ols_fit"),
    (limit_experiment, "run_replications", "mc.run_replications"),
    (limit_experiment, "mvn_sample", "dist.mvn_sample"),
    (limit_experiment, "bayes_test", "le.bayes_test"),
    (limit_experiment, "posterior_prob_region", "le.posterior_region"),
    (SeedPlan, "stream", "mc.stream"),
)

# spans whose arguments feed a metric; the rest record timing only
_BOUND = {"cell.sd", "cell.translog", "cell.limit", "sd.posterior",
          "mc.run_replications", "tl.posterior_nsd", "dist.dirichlet"}


def _region_kind(region):
    if isinstance(region, IntervalUnion):
        return "interval"
    if isinstance(region, Box):
        return "orthant"
    if isinstance(region, SignAgreement):
        return "signagree"
    return type(region).__name__


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        # adaptive top-up bookkeeping: the enclosing table2 cell and the
        # first-stage posterior of the current replication
        self._cell = None
        self._first = None

    def install(self):
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name):
        signature = inspect.signature(fn) if name in _BOUND else None
        stack = self._stack

        def traced(*args, **kwargs):
            attrs = self._enter(name, signature.bind(*args, **kwargs).arguments
                                if signature else None)
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, attrs)
            if name == "sd.posterior":
                self._after_posterior(attrs, result.estimate)
            elif name == "cell.sd":
                self._cell = None
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter(self, name, args):
        if name == "mc.stream":
            self._first = None
            return None
        if args is None:
            return None
        if name == "dist.dirichlet":
            return {"elems": args["n"] * (args.get("size") or 1)}
        if name == "mc.run_replications":
            return {"reps": args["reps"]}
        if name == "tl.posterior_nsd":
            return {"draws": args.get("draws", 200)}
        if name == "cell.sd":
            self._cell = args
            null, h, n = args["null"], float(args["h"]), args["n"]
            comparison = "two_sample" if args["two_sample"] else "one_sample"
            return {"reps": args["reps"],
                    "key": f"{null}.n{n}.h{h}.{comparison}.{args['method']}"}
        if name == "cell.translog":
            return {"reps": args.get("reps", 500),
                    "key": f"s{float(args['dgp'].sigma_eps)}.a{float(args['alpha'])}"}
        if name == "cell.limit":
            return {"reps": args.get("reps", 10_000), "key": _region_kind(args["region"])}
        # sd.posterior
        cfg = args.get("cfg") or stochastic_dominance.SdConfig()
        x = args["x_sample"]
        opponent = args["opponent"]
        grid = len(x) + (0 if callable(opponent) or hasattr(opponent, "evaluate")
                         else len(opponent))
        return {"draws": cfg.draws, "grid_elems": cfg.draws * grid, "topup": False,
                "useful": False}

    def _after_posterior(self, attrs, estimate):
        cell = self._cell
        if cell is None or cell.get("adaptive_draws") is None:
            return
        if self._first is None:
            self._first = (attrs["draws"], estimate)
            return
        # second posterior in one replication: the adaptive top-up
        first, p1 = self._first
        extra = attrs["draws"]
        pooled = (first * p1 + extra * estimate) / (first + extra)
        alpha = cell["alpha"]
        to_null = (lambda p: p) if cell["null"] == "sd1" else (lambda p: 1.0 - p)
        attrs["topup"] = True
        attrs["useful"] = (to_null(p1) <= alpha) != (to_null(pooled) <= alpha)
        self._first = None


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, sd_cells, tl_cells, le_cells):
    """Per-layer metrics of one traced pass.  Cells named in the three
    lists but absent from the spans, and layers the pass never reached,
    read 0."""
    selfs = _self_times(spans)
    total, self_s, calls, sums = {}, {}, {}, {}
    cells = {}
    for (name, start, end, _, attrs), own in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (attrs or {}).items():
            if key == "key":
                cells[(name, value)] = (end - start) / attrs["reps"]
            elif not isinstance(value, str):
                sums[(name, key)] = sums.get((name, key), 0) + value

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    dirichlet_elems = sums.get(("dist.dirichlet", "elems"), 0)
    grid_elems = sums.get(("sd.posterior", "grid_elems"), 0)
    topups = sums.get(("sd.posterior", "topup"), 0)
    nsd_draws = sums.get(("tl.posterior_nsd", "draws"), 0)
    out = {
        "mc_harness.reps": sums.get(("mc.run_replications", "reps"), 0),
        "mc_harness.stream.calls": calls.get("mc.stream", 0),
        "mc_harness.stream.us_per_call": ratio(total.get("mc.stream", 0.0),
                                               calls.get("mc.stream", 0), 1e6),
        "mc_harness.run_replications.self_s": self_s.get("mc.run_replications", 0.0),
        "distributions.dirichlet.calls": calls.get("dist.dirichlet", 0),
        "distributions.dirichlet.elems": dirichlet_elems,
        "distributions.dirichlet.ns_per_elem": ratio(total.get("dist.dirichlet", 0.0),
                                                     dirichlet_elems, 1e9),
        "distributions.mvn_sample.calls": calls.get("dist.mvn_sample", 0),
        "distributions.mvn_sample.s": total.get("dist.mvn_sample", 0.0),
        "stochastic_dominance.posterior.calls": calls.get("sd.posterior", 0),
        "stochastic_dominance.posterior.draws": sums.get(("sd.posterior", "draws"), 0),
        "stochastic_dominance.posterior.grid_elems": grid_elems,
        "stochastic_dominance.posterior.self_s": self_s.get("sd.posterior", 0.0),
        "stochastic_dominance.posterior.ns_per_grid_elem": ratio(
            self_s.get("sd.posterior", 0.0), grid_elems, 1e9),
        "stochastic_dominance.topup.calls": topups,
        "stochastic_dominance.topup.useful_ratio": ratio(
            sums.get(("sd.posterior", "useful"), 0), topups, 1.0),
        "stochastic_dominance.dd.calls": calls.get("sd.dd", 0),
        "stochastic_dominance.dd.s": total.get("sd.dd", 0.0),
        "stochastic_dominance.freq.s": total.get("sd.freq", 0.0),
    }
    for key in sd_cells:
        out[f"stochastic_dominance.cell.{key}"] = 1e3 * cells.get(("cell.sd", key), 0.0)
    out.update({
        "translog.posterior_nsd.calls": calls.get("tl.posterior_nsd", 0),
        "translog.posterior_nsd.self_s": self_s.get("tl.posterior_nsd", 0.0),
        "translog.posterior_nsd.us_per_draw": ratio(total.get("tl.posterior_nsd", 0.0),
                                                    nsd_draws, 1e6),
        "translog.simulate_dataset.s": total.get("tl.simulate_dataset", 0.0),
        "translog.ols_fit.s": total.get("tl.ols_fit", 0.0),
    })
    for key in tl_cells:
        out[f"translog.cell.{key}"] = 1e3 * cells.get(("cell.translog", key), 0.0)
    out.update({
        "limit_experiment.bayes_test.calls": calls.get("le.bayes_test", 0),
        "limit_experiment.posterior_region.self_s": self_s.get("le.posterior_region", 0.0),
    })
    for key in le_cells:
        out[f"limit_experiment.cell.{key}"] = 1e6 * cells.get(("cell.limit", key), 0.0)
    out["cli.self_s"] = self_s.get("cli.main", 0.0)
    return out
