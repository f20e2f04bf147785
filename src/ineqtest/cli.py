"""Command-line front end: reproduce the three result tables or run ad hoc
dominance / limit-experiment tests, emitting CSV or JSON.

Config files are flat ``key=value`` text (comma-separated lists, ``#``
comments); command-line flags override file values.  Every emitted row
carries the master seed and a hash of the resolved experiment config, and
float results appear twice: rounded to 3 decimals and at full precision.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .distributions import std_normal_quantile
from .limit_experiment import (Box, Complement, Experiment, HalfSpace,
                               IntervalUnion, SignAgreement,
                               kline_orthant_posterior, rejection_probability)
from .mc_harness import SeedPlan
from .stochastic_dominance import (BANKS, RUBIN, SdConfig, UNIFORM01,
                                   dd_pvalue_nonsd1, iu_beta_pvalue_nonsd1,
                                   iu_maxt_pvalue_nonsd1, ks_pvalue_sd1,
                                   posterior_prob_sd1,
                                   sd_rejection_probability)
from .translog import TranslogDgp, type1_error_sim

COMMANDS = ("table1", "table2", "table3", "kline", "sd-test", "limit")
FORMATS = ("csv", "json")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration (bad flag, file, or region spec)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one CLI invocation.  Unset fields stay None
    and fall back to per-command defaults."""

    command: str = None
    seed: int = 0
    reps: int = None
    draws: int = None
    alpha: tuple = None
    out: str = None
    format: str = "csv"
    bootstrap: str = None
    h: tuple = None
    n: tuple = None
    sigma_eps: tuple = None
    sigma_x: float = None
    delta: float = None
    region: str = None
    theta: tuple = None
    workers: int = 1
    dd_boot: int = None
    x_file: str = None
    y_file: str = None


def _parse_int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float(text):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_float_list(text):
    return tuple(_parse_float(part) for part in str(text).split(","))


def _parse_int_list(text):
    return tuple(_parse_int(part) for part in str(text).split(","))


def _parse_choice(allowed):
    def parse(text):
        if text not in allowed:
            raise ConfigError(f"invalid value {text!r}; choose one of {', '.join(allowed)}")
        return text
    return parse


# key -> parser for the config file; mirrors the flag names
CONFIG_PARSERS = {
    "command": _parse_choice(COMMANDS),
    "seed": _parse_int,
    "reps": _parse_int,
    "draws": _parse_int,
    "alpha": _parse_float_list,
    "out": str,
    "format": _parse_choice(FORMATS),
    "bootstrap": _parse_choice((RUBIN, BANKS)),
    "h": _parse_float_list,
    "n": _parse_int_list,
    "sigma_eps": _parse_float_list,
    "sigma_x": _parse_float,
    "delta": _parse_float,
    "region": str,
    "theta": _parse_float_list,
    "workers": _parse_int,
    "dd_boot": _parse_int,
    "x_file": str,
    "y_file": str,
}


def parse_config_file(path):
    """Flat key=value config; returns a dict of parsed values.

    Rejects unknown keys and malformed lines with the line number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_PARSERS[key](val)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def build_arg_parser():
    schema_doc = """\
CSV schemas (columns never reordered; every float column X is followed by
a full-precision companion X_full, and every row ends with master_seed and
config_hash):
  table1: h0, n, h, comparison, method, value
  table2: h0, n, h, comparison, method, alpha, reps, rate, mc_se
  table3: sigma_eps, alpha, reps, draws, rate, mc_se, monotonicity_rate
  kline:  d, x_coordinate, posterior
  sd-test: comparison, method, value
  limit:  region, theta, alpha, method, value, mc_se

Region spec grammar:
  halfspace:c1,c2,...:c0   linear constraint c.theta <= c0
  box:lo1..hi1,lo2..hi2    coordinate box (inf / -inf allowed)
  interval:[a,b]|[c,d]     union of disjoint closed intervals (scalar)
  signagree                theta1 * theta2 >= 0 (two-dimensional)
  complement(<spec>)       complement of any of the above

Config files are flat key=value lines (comma-separated lists, # comments);
keys match the long flag names with - replaced by _.  Flags override file
values.  config_hash covers the experiment-defining fields only, so output
bytes are invariant to --workers, --out, and --format; sample files enter it
by their bytes, not their paths.
"""
    parser = argparse.ArgumentParser(
        prog="ineqtest",
        description="Bayesian and frequentist tests of inequality hypotheses.",
        epilog=schema_doc,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--command", choices=COMMANDS,
                        help="what to run (required here or in the config file)")
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed (default 0)")
    parser.add_argument("--reps", type=int, metavar="N", help="Monte Carlo replications")
    parser.add_argument("--draws", type=int, metavar="N", help="posterior draws per test")
    parser.add_argument("--alpha", metavar="LIST", help="comma-separated levels")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    parser.add_argument("--bootstrap", choices=(RUBIN, BANKS),
                        help="bootstrap posterior variant (default banks)")
    parser.add_argument("--h", metavar="LIST", help="local shift values")
    parser.add_argument("--n", metavar="LIST", help="sample sizes (kline: dimensions)")
    parser.add_argument("--sigma-eps", metavar="LIST", help="table3 error sds")
    parser.add_argument("--sigma-x", type=float, metavar="R",
                        help="table3 regressor log sd override")
    parser.add_argument("--delta", type=float, metavar="R", help="table3 curvature slack")
    parser.add_argument("--region", metavar="SPEC", help="null region (limit command)")
    parser.add_argument("--theta", metavar="LIST", help="parameter point (limit command)")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="worker threads for replications (default 1)")
    parser.add_argument("--dd-boot", type=int, metavar="N",
                        help="bootstrap replicates for the dd p-value")
    parser.add_argument("--x-file", metavar="PATH",
                        help="newline-delimited sample for sd-test")
    parser.add_argument("--y-file", metavar="PATH",
                        help="second sample for sd-test (optional)")
    return parser


def resolve_config(argv) -> RunConfig:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    values = parse_config_file(args.config) if args.config else {}

    flag_parsers = {"alpha": _parse_float_list, "h": _parse_float_list,
                    "sigma_eps": _parse_float_list, "theta": _parse_float_list,
                    "n": _parse_int_list}
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_parsers.get(f.name, lambda v: v)(flag_val)
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in values.items() if k in known})

    if cfg.command is None:
        raise ConfigError("command required (use --command or a config file)")
    for name in ("reps", "draws", "workers", "dd_boot", "seed"):
        val = getattr(cfg, name)
        if val is not None and val < (0 if name == "seed" else 1):
            raise ConfigError(f"{name} must be positive, got {val}")
    for name in ("alpha", "h", "sigma_eps"):
        vals = getattr(cfg, name)
        if vals is not None and any(v < 0 for v in vals):
            raise ConfigError(f"{name} values must be nonnegative")
    if cfg.alpha is not None and any(not 0 < a < 1 for a in cfg.alpha):
        raise ConfigError("alpha values must lie in (0, 1)")
    if cfg.n is not None and any(v < 1 for v in cfg.n):
        raise ConfigError("n values must be positive")
    if cfg.region is not None:
        parse_region(cfg.region)   # fail fast with a config error
    return cfg


# ---------------------------------------------------------------------------
# region spec mini-grammar


def parse_region(spec):
    """Parses the region grammar documented in --help."""
    try:
        return _parse_region_inner(spec)
    except ValueError as exc:   # region constructors validate their inputs
        raise ConfigError(f"invalid region {spec!r}: {exc}") from exc


def _parse_region_inner(spec):
    spec = spec.strip()
    if spec == "signagree":
        return SignAgreement()
    if spec.startswith("complement(") and spec.endswith(")"):
        return Complement(inner=_parse_region_inner(spec[len("complement("):-1]))
    kind, _, rest = spec.partition(":")
    if kind == "halfspace":
        coeffs, _, c0 = rest.rpartition(":")
        if not coeffs:
            raise ConfigError(f"halfspace spec needs coefficients and a bound: {spec!r}")
        return HalfSpace(c=_parse_float_list(coeffs), c0=_parse_float(c0))
    if kind == "box":
        lowers, uppers = [], []
        for part in rest.split(","):
            lo, sep, hi = part.partition("..")
            if not sep:
                raise ConfigError(f"box coordinate needs lo..hi, got {part!r}")
            lowers.append(_parse_float(lo))
            uppers.append(_parse_float(hi))
        return Box(lower=lowers, upper=uppers)
    if kind == "interval":
        intervals = []
        for part in rest.split("|"):
            part = part.strip()
            if not (part.startswith("[") and part.endswith("]")):
                raise ConfigError(f"interval needs [a,b], got {part!r}")
            endpoints = _parse_float_list(part[1:-1])
            if len(endpoints) != 2:
                raise ConfigError(f"interval needs two endpoints, got {part!r}")
            intervals.append(tuple(endpoints))
        return IntervalUnion(intervals=tuple(intervals))
    raise ConfigError(f"unrecognized region spec {spec!r}")


# ---------------------------------------------------------------------------
# output


# fields whose values define the experiment (hashed into every row)
_HASH_FIELDS = ("command", "seed", "reps", "draws", "alpha", "bootstrap", "h",
                "n", "sigma_eps", "sigma_x", "delta", "region", "theta",
                "dd_boot", "x_file", "y_file")


# sample files enter the hash by content, so the hash names the data and
# not the path it was read from
_FILE_FIELDS = ("x_file", "y_file")


def _hash_value(cfg: RunConfig, name):
    value = getattr(cfg, name)
    if name not in _FILE_FIELDS or value is None:
        return repr(value)
    try:
        with open(value, "rb") as fh:
            return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {value}: {exc}") from exc


def config_hash(cfg: RunConfig) -> str:
    canon = "\n".join(f"{name}={_hash_value(cfg, name)}" for name in _HASH_FIELDS)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TableResult:
    """One command's output: ordered key columns, float columns, and rows
    of plain python values."""

    key_columns: tuple
    float_columns: tuple
    rows: tuple


def _format_key(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def render_csv(result: TableResult, cfg: RunConfig) -> str:
    header = list(result.key_columns)
    for col in result.float_columns:
        header += [col, f"{col}_full"]
    header += ["master_seed", "config_hash"]
    digest = config_hash(cfg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in result.rows:
        out = [_format_key(row[col]) for col in result.key_columns]
        for col in result.float_columns:
            out += [f"{row[col]:.3f}", repr(float(row[col]))]
        out += [str(cfg.seed), digest]
        writer.writerow(out)
    return buf.getvalue()


def render_json(result: TableResult, cfg: RunConfig) -> str:
    digest = config_hash(cfg)
    rows = []
    for row in result.rows:
        item = {col: (list(row[col]) if isinstance(row[col], tuple) else row[col])
                for col in result.key_columns}
        for col in result.float_columns:
            item[col] = float(row[col])
        item["master_seed"] = cfg.seed
        item["config_hash"] = digest
        rows.append(item)
    doc = {"command": cfg.command, "master_seed": cfg.seed,
           "config_hash": digest,
           "key_columns": list(result.key_columns),
           "float_columns": list(result.float_columns), "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


def emit_table(result: TableResult, cfg: RunConfig):
    """Renders and writes the result; errors if there is nothing to write."""
    if not result.rows:
        raise ValueError("empty result set, refusing to write")
    text = render_csv(result, cfg) if cfg.format == "csv" else render_json(result, cfg)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _load_sample(path):
    try:
        data = np.loadtxt(path, ndmin=1, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: expected newline-delimited numbers: {exc}") from exc
    if data.ndim != 1 or data.size == 0:
        raise ConfigError(f"{path}: expected a nonempty 1-column sample")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: sample holds non-finite values (nan or inf)")
    return data


def cmd_table1(cfg: RunConfig) -> TableResult:
    from .stochastic_dominance import fixed_design_sample

    ns = cfg.n or (100, 1000)
    hs = cfg.h or (0.0, 0.5, 0.9)
    sd_cfg = SdConfig(draws=cfg.draws or 2000, bootstrap=cfg.bootstrap or BANKS,
                      dd_boot=cfg.dd_boot or 999)
    plan = SeedPlan(cfg.seed)
    rows = []

    def post(x, opponent, *ids):
        return posterior_prob_sd1(x, opponent, sd_cfg, plan.stream(*ids)).estimate

    for ni, n in enumerate(ns):
        x0, y0 = fixed_design_sample(n, 0.0)
        rows += [
            dict(h0="sd1", n=n, h=0.0, comparison="one_sample", method="ks",
                 value=ks_pvalue_sd1(x0, UNIFORM01)),
            dict(h0="sd1", n=n, h=0.0, comparison="one_sample", method="bayes",
                 value=post(x0, UNIFORM01, ni, 0, 0)),
            dict(h0="sd1", n=n, h=0.0, comparison="two_sample", method="ks",
                 value=ks_pvalue_sd1(x0, y0)),
            dict(h0="sd1", n=n, h=0.0, comparison="two_sample", method="bayes",
                 value=post(x0, y0, ni, 0, 1)),
        ]
        for hi, h in enumerate(hs):
            x, y = fixed_design_sample(n, h)
            rows += [
                dict(h0="non_sd1", n=n, h=h, comparison="one_sample", method="iu_beta",
                     value=iu_beta_pvalue_nonsd1(x)),
                dict(h0="non_sd1", n=n, h=h, comparison="one_sample", method="bayes",
                     value=1.0 - post(x, UNIFORM01, ni, 1 + hi, 0)),
                dict(h0="non_sd1", n=n, h=h, comparison="two_sample", method="dd",
                     value=dd_pvalue_nonsd1(x, y, n_boot=sd_cfg.dd_boot,
                                            rng=plan.stream(ni, 1 + hi, 1))),
                dict(h0="non_sd1", n=n, h=h, comparison="two_sample", method="iu_maxt",
                     value=iu_maxt_pvalue_nonsd1(x, y)),
                dict(h0="non_sd1", n=n, h=h, comparison="two_sample", method="bayes",
                     value=1.0 - post(x, y, ni, 1 + hi, 2)),
            ]
    return TableResult(key_columns=("h0", "n", "h", "comparison", "method"),
                       float_columns=("value",), rows=tuple(rows))


def cmd_table2(cfg: RunConfig) -> TableResult:
    ns = cfg.n or (100, 1000)
    hs = cfg.h or (0.0, 0.9, 1.3)
    alphas = cfg.alpha or (0.1,)
    reps = cfg.reps or 1000
    sd_cfg = SdConfig(draws=cfg.draws or 2000, bootstrap=cfg.bootstrap or BANKS,
                      dd_boot=cfg.dd_boot or 199)
    # with no explicit draw count, spend draws only near the threshold
    adaptive = None if cfg.draws else (300, 1500)
    plan = SeedPlan(cfg.seed)
    rows = []
    cell = 0
    for n in ns:
        cells = [("sd1", 0.0, False, "ks"), ("sd1", 0.0, False, "bayes"),
                 ("sd1", 0.0, True, "ks"), ("sd1", 0.0, True, "bayes")]
        cells += [("non_sd1", h, two, m) for h in hs
                  for two, m in ((False, "iu_beta"), (False, "bayes"),
                                 (True, "dd"), (True, "bayes"))]
        for null, h, two_sample, method in cells:
            for ai, alpha in enumerate(alphas):
                summary = sd_rejection_probability(
                    h, n, two_sample, null, method, alpha, reps, cfg=sd_cfg,
                    master_seed=plan.subplan(cell, ai), workers=cfg.workers,
                    adaptive_draws=adaptive if method == "bayes" else None)
                rows.append(dict(h0=null, n=n, h=h,
                                 comparison="two_sample" if two_sample else "one_sample",
                                 method=method, alpha=alpha, reps=reps,
                                 rate=summary.estimate, mc_se=summary.mc_se))
            cell += 1
    return TableResult(key_columns=("h0", "n", "h", "comparison", "method",
                                    "alpha", "reps"),
                       float_columns=("rate", "mc_se"), rows=tuple(rows))


def cmd_table3(cfg: RunConfig) -> TableResult:
    sigmas = cfg.sigma_eps or (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    alphas = cfg.alpha or (0.05, 0.1)
    reps = cfg.reps or 500
    draws = cfg.draws or 200
    n = (cfg.n or (100,))[0]
    delta = 0.001 if cfg.delta is None else cfg.delta
    plan = SeedPlan(cfg.seed)
    rows = []
    for si, s_eps in enumerate(sigmas):
        kwargs = dict(delta=delta, sigma_eps=s_eps, n=n)
        if cfg.sigma_x is not None:
            kwargs["sigma_x"] = cfg.sigma_x
        dgp = TranslogDgp(**kwargs)
        for ai, alpha in enumerate(alphas):
            res = type1_error_sim(dgp, alpha, reps=reps, draws=draws,
                                  master_seed=plan.subplan(si, ai),
                                  workers=cfg.workers)
            rows.append(dict(sigma_eps=s_eps, alpha=alpha, reps=reps, draws=draws,
                             rate=res.rejection.estimate,
                             mc_se=res.rejection.mc_se,
                             monotonicity_rate=res.monotonicity_rate))
    return TableResult(key_columns=("sigma_eps", "alpha", "reps", "draws"),
                       float_columns=("rate", "mc_se", "monotonicity_rate"),
                       rows=tuple(rows))


def cmd_kline(cfg: RunConfig) -> TableResult:
    dims = cfg.n or (10, 25, 90)
    xq = std_normal_quantile(0.95)
    rows = [dict(d=d, x_coordinate=xq,
                 posterior=kline_orthant_posterior(np.full(d, xq)))
            for d in dims]
    return TableResult(key_columns=("d",),
                       float_columns=("x_coordinate", "posterior"),
                       rows=tuple(rows))


def cmd_sd_test(cfg: RunConfig) -> TableResult:
    if cfg.x_file is None:
        raise ConfigError("sd-test requires --x-file")
    x = _load_sample(cfg.x_file)
    sd_cfg = SdConfig(draws=cfg.draws or 2000, bootstrap=cfg.bootstrap or BANKS,
                      dd_boot=cfg.dd_boot or 999)
    plan = SeedPlan(cfg.seed)
    rows = []
    if cfg.y_file is None:
        comparison = "one_sample"
        p_sd1 = posterior_prob_sd1(x, UNIFORM01, sd_cfg, plan.stream(0)).estimate
        rows += [
            dict(comparison=comparison, method="ks", value=ks_pvalue_sd1(x, UNIFORM01)),
            dict(comparison=comparison, method="iu_beta", value=iu_beta_pvalue_nonsd1(x)),
        ]
    else:
        comparison = "two_sample"
        y = _load_sample(cfg.y_file)
        p_sd1 = posterior_prob_sd1(x, y, sd_cfg, plan.stream(0)).estimate
        rows += [
            dict(comparison=comparison, method="ks", value=ks_pvalue_sd1(x, y)),
            dict(comparison=comparison, method="dd",
                 value=dd_pvalue_nonsd1(x, y, n_boot=sd_cfg.dd_boot,
                                        rng=plan.stream(1))),
            dict(comparison=comparison, method="iu_maxt",
                 value=iu_maxt_pvalue_nonsd1(x, y)),
        ]
    rows += [
        dict(comparison=comparison, method="bayes_sd1", value=p_sd1),
        dict(comparison=comparison, method="bayes_non_sd1", value=1.0 - p_sd1),
    ]
    return TableResult(key_columns=("comparison", "method"),
                       float_columns=("value",), rows=tuple(rows))


def cmd_limit(cfg: RunConfig) -> TableResult:
    if cfg.region is None:
        raise ConfigError("limit requires --region")
    region = parse_region(cfg.region)
    theta = cfg.theta if cfg.theta is not None else tuple([0.0] * region.dim)
    if len(theta) != region.dim:
        raise ConfigError(f"theta has {len(theta)} coordinates, region needs {region.dim}")
    alphas = cfg.alpha or (0.05,)
    reps = cfg.reps or 10_000
    draws = cfg.draws or 2000
    exp = Experiment.identity(len(theta))
    plan = SeedPlan(cfg.seed)
    rows = []
    method = "exact" if isinstance(region, HalfSpace) else "mc"
    for ai, alpha in enumerate(alphas):
        summary = rejection_probability(region, np.asarray(theta), exp, alpha,
                                        reps=reps, draws=draws,
                                        master_seed=plan.subplan(ai),
                                        workers=cfg.workers)
        rows.append(dict(region=cfg.region, theta=theta, alpha=alpha,
                         method=method, value=summary.estimate,
                         mc_se=summary.mc_se))
    return TableResult(key_columns=("region", "theta", "alpha", "method"),
                       float_columns=("value", "mc_se"), rows=tuple(rows))


_DISPATCH = {"table1": cmd_table1, "table2": cmd_table2, "table3": cmd_table3,
             "kline": cmd_kline, "sd-test": cmd_sd_test, "limit": cmd_limit}


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = _DISPATCH[cfg.command](cfg)
        emit_table(result, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001, surfaced as the numeric exit code
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
