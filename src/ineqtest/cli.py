"""Command-line front end: reproduce the three result tables or run ad hoc
dominance / limit-experiment tests, emitting CSV or JSON.

Config files are flat ``key=value`` text (comma-separated lists, ``#``
comments); command-line flags override file values.  Each command reads
only its own options and refuses the rest.  Every emitted row carries the
master seed and a hash of the experiment config as given, and float
results appear twice: rounded to 3 decimals and at full precision.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import textwrap
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .distributions import std_normal_quantile
from .limit_experiment import (Box, Complement, Experiment, HalfSpace,
                               IntervalUnion, SignAgreement,
                               kline_orthant_posterior, rejection_probability)
from .mc_harness import SeedPlan, parallel_map
from .stochastic_dominance import (BANKS, RUBIN, SdConfig, UNIFORM01,
                                   dd_pvalue_nonsd1, iu_beta_pvalue_nonsd1,
                                   iu_maxt_pvalue_nonsd1, ks_pvalue_sd1,
                                   posterior_prob_sd1,
                                   sd_rejection_probability)
from .translog import TranslogDgp, type1_error_sim

# Every command reads the common fields.  _READS maps each command to the
# other fields it reads, each with the value it takes there when unset
# (None: the command requires it or works it out).  A run that sets any
# other field is refused.
_COMMON = ("command", "seed", "out", "format", "workers")
_SD = dict(draws=SdConfig.draws, bootstrap=SdConfig.bootstrap, dd_boot=SdConfig.dd_boot)
_READS = {
    "table1": dict(n=(100, 1000), h=(0.0, 0.5, 0.9), **_SD),
    "table2": dict(n=(100, 1000), h=(0.0, 0.9, 1.3), alpha=(0.1,), reps=1000, draws=1800,
                   bootstrap=SdConfig.bootstrap, dd_boot=199),
    "table3": dict(sigma_eps=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5), alpha=(0.05, 0.1), reps=500,
                   draws=200, n=(TranslogDgp.n,), delta=TranslogDgp.delta,
                   sigma_x=TranslogDgp.sigma_x),
    "kline": dict(n=(10, 25, 90)),
    "sd-test": dict(x_file=None, y_file=None, **_SD),
    "limit": dict(region=None, theta=None, alpha=(0.05,), reps=10_000),
}
COMMANDS = tuple(_READS)
FORMATS = ("csv", "json")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration (bad flag, file, or region spec)."""


# ---------------------------------------------------------------------------
# configuration


def _scalar(convert, check, need):
    """Parser of one value: ``convert(text)``, which must pass ``check``."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not check(value):
            raise ConfigError(f"expected {need}, got {text!r}")
        return value
    return parse


def _listed(parse):
    """Parser of a comma-separated list of values, each read by ``parse``."""
    return lambda text: tuple(parse(part) for part in text.split(","))


def _choice(allowed):
    return _scalar(str, lambda v: v in allowed, f"one of {', '.join(allowed)}")


_COUNT = _scalar(int, lambda v: v >= 1, "a positive integer")
_REAL = _scalar(float, math.isfinite, "a finite number")
_NONNEG = _scalar(float, lambda v: 0.0 <= v < math.inf, "a finite nonnegative number")
_LEVEL = _scalar(float, lambda v: 0.0 < v < 1.0, "a level in (0, 1)")


def _region_spec(text):
    parse_region(text)   # fail fast with a config error
    return text


def _file_digest(path):
    """Sample files enter config_hash by content, so the hash names the
    data and not the path it was read from."""
    if path is None:
        return repr(path)
    try:
        with open(path, "rb") as fh:
            return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc


def _option(parse, help, metavar, default=None, hashed=repr):
    """A RunConfig field with its flag and config-file parser.

    ``parse`` reads the flag or file text and raises ConfigError on bad
    input; ``hashed`` gives the value's text in config_hash, or is None
    for a field that leaves the experiment unchanged.
    """
    return field(default=default, metadata=dict(parse=parse, help=help, metavar=metavar,
                                                 hashed=hashed))


@dataclass(frozen=True)
class RunConfig:
    """Options for one CLI invocation, and the one table of them:
    each field's flag (--name with - for _), config-file key, parser and
    place in config_hash come from its metadata.  Unset fields stay None;
    main fills those its command reads from _READS.  Hashed fields enter
    config_hash in field order, so reordering them changes every hash."""

    command: str = _option(_choice(COMMANDS), "what to run (required here or in the "
                           "config file)", "|".join(COMMANDS))
    seed: int = _option(_scalar(int, lambda v: v >= 0, "a nonnegative integer"),
                        "master seed", "U64", default=0)
    reps: int = _option(_COUNT, "Monte Carlo replications", "N")
    draws: int = _option(_COUNT, "posterior draws per test; for table2 a cap per "
                         "replication, spent in batches of 300", "N")
    alpha: tuple = _option(_listed(_LEVEL), "comma-separated levels", "LIST")
    out: str = _option(str, "output path; stdout when unset", "PATH", hashed=None)
    format: str = _option(_choice(FORMATS), "output format", "|".join(FORMATS),
                          default="csv", hashed=None)
    bootstrap: str = _option(_choice((RUBIN, BANKS)), "posterior bootstrap", f"{RUBIN}|{BANKS}")
    h: tuple = _option(_listed(_NONNEG), "local shift values", "LIST")
    n: tuple = _option(_listed(_COUNT), "sample sizes (table3: one; kline: dimensions)", "LIST")
    sigma_eps: tuple = _option(_listed(_NONNEG), "error sds", "LIST")
    sigma_x: float = _option(_NONNEG, "regressor log sd", "R")
    delta: float = _option(_REAL, "curvature slack", "R")
    region: str = _option(_region_spec, "null region", "SPEC")
    theta: tuple = _option(_listed(_REAL), "parameter point; the origin when unset", "LIST")
    workers: int = _option(_COUNT, "worker processes for a table's cells or sd-test's "
                           "posterior draw blocks; output does not depend on it", "N",
                           default=1, hashed=None)
    dd_boot: int = _option(_COUNT, "bootstrap replicates for the dd p-value", "N")
    x_file: str = _option(str, "newline-delimited sample", "PATH", hashed=_file_digest)
    y_file: str = _option(str, "optional second sample", "PATH", hashed=_file_digest)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _flag(name):
    return "--" + name.replace("_", "-")


def _parse_field(name, text, label):
    try:
        return _FIELDS[name].metadata["parse"](text)
    except ConfigError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


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
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_field(key, val.strip(), f"{path}:{lineno}: {key}")
    return values


_NUMBER_WORD = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)"


class _ArgumentParser(argparse.ArgumentParser):
    """Reports its own errors (unknown flag, missing value) as a
    ConfigError instead of exiting, so main() returns EXIT_CONFIG.

    A word that starts with - is a value, not a flag, when it reads as a
    comma-separated list of numbers (``-1,0``, ``-1e-3``, ``-inf``);
    argparse alone takes only ``-1`` and ``-1.5``.  The field's parser
    then decides whether the value is usable.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"^-{_NUMBER_WORD}(?:,[+-]?{_NUMBER_WORD})*$", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    """Wraps help text at spaces only, so no flag such as --dd-boot is split
    at its hyphen."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_arg_parser():
    schemas = "\n".join(f"  {name + ':':<7} {', '.join(keys + floats)}"
                        for name, (_, keys, floats) in _DISPATCH.items())
    schema_doc = f"""\
CSV schemas (columns never reordered; every float column X is followed by
a full-precision companion X_full, and every row ends with master_seed and
config_hash):
{schemas}

Region spec grammar:
  halfspace:c1,c2,...:c0   linear constraint c.theta <= c0
  box:lo1..hi1,lo2..hi2    coordinate box (inf / -inf allowed)
  interval:[a,b]|[c,d]     union of disjoint closed intervals (scalar)
  signagree                theta1 * theta2 >= 0 (two-dimensional)
  complement(<spec>)       complement of any of the above

Brackets list the commands that read a flag, with its value there when unset;
any other command refuses the flag and its config-file key.  Config files are
flat key=value lines (comma-separated lists, # comments) keyed by the long
flag names with - as _; flags override them.  config_hash covers the fields
a run sets as given, except --workers, --out and --format, and files by content.
"""
    parser = _ArgumentParser(
        prog="ineqtest",
        description="Bayesian and frequentist tests of inequality hypotheses.",
        epilog=schema_doc,
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    for f in _FIELDS.values():
        # a common field's one default, else each command that reads the
        # field, with the field's value there when unset
        unset = [_flag_text(f.name, f.default)] if f.default is not None else [
            cmd if table[f.name] is None else f"{cmd} {_flag_text(f.name, table[f.name])}"
            for cmd, table in _READS.items() if f.name in table]
        parser.add_argument(_flag(f.name), metavar=f.metadata["metavar"],
                            help=f.metadata["help"] + (f" [{', '.join(unset)}]" if unset else ""))
    return parser


def _flag_text(name, value):
    """A field's flag and its value as typed after it."""
    return f"{_flag(name)} {','.join(map(str, value)) if isinstance(value, tuple) else value}"


def resolve_config(argv) -> RunConfig:
    """Config-file values overridden by flags; every value is read by its
    field's parser, so a bad one raises ConfigError naming the field."""
    args = build_arg_parser().parse_args(argv)
    values = parse_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        text = getattr(args, name)
        if text is not None:
            values[name] = _parse_field(name, text, _flag(name))
    cfg = RunConfig(**values)
    if cfg.command is None:
        raise ConfigError("command required (use --command or a config file)")
    if unread := [_flag(name) for name in values if name not in (*_COMMON, *_READS[cfg.command])]:
        raise ConfigError(f"{cfg.command} does not read {', '.join(unread)}")
    return cfg


def _with_defaults(cfg):
    """cfg with each unset field its command reads at the command's default."""
    return replace(cfg, **{k: v for k, v in _READS[cfg.command].items() if vars(cfg)[k] is None})


# ---------------------------------------------------------------------------
# region spec mini-grammar


def parse_region(spec):
    """Parses the region grammar documented in --help."""
    try:
        return _parse_region_inner(spec)
    except ValueError as exc:   # region constructors validate their inputs
        raise ConfigError(f"invalid region {spec!r}: {exc}") from exc


# region numbers may be infinite (box bounds), but not nan
_NUMBER = _scalar(float, lambda v: not math.isnan(v), "a number")


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
        return HalfSpace(c=_listed(_NUMBER)(coeffs), c0=_NUMBER(c0))
    if kind == "box":
        lowers, uppers = [], []
        for part in rest.split(","):
            lo, sep, hi = part.partition("..")
            if not sep:
                raise ConfigError(f"box coordinate needs lo..hi, got {part!r}")
            lowers.append(_NUMBER(lo))
            uppers.append(_NUMBER(hi))
        return Box(lower=lowers, upper=uppers)
    if kind == "interval":
        intervals = []
        for part in rest.split("|"):
            part = part.strip()
            if not (part.startswith("[") and part.endswith("]")):
                raise ConfigError(f"interval needs [a,b], got {part!r}")
            endpoints = _listed(_NUMBER)(part[1:-1])
            if len(endpoints) != 2:
                raise ConfigError(f"interval needs two endpoints, got {part!r}")
            intervals.append(tuple(endpoints))
        return IntervalUnion(intervals=tuple(intervals))
    raise ConfigError(f"unrecognized region spec {spec!r}")


# ---------------------------------------------------------------------------
# output


def config_hash(cfg: RunConfig) -> str:
    canon = "\n".join(f"{f.name}={f.metadata['hashed'](getattr(cfg, f.name))}"
                      for f in _FIELDS.values() if f.metadata["hashed"])
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _format_key(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def render_csv(keys, floats, rows, cfg: RunConfig) -> str:
    """A command's rows, plain python values keyed by column name, as CSV
    with the key columns, then each float column, in the order given."""
    header = list(keys)
    for col in floats:
        header += [col, f"{col}_full"]
    header += ["master_seed", "config_hash"]
    digest = config_hash(cfg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        out = [_format_key(row[col]) for col in keys]
        for col in floats:
            out += [f"{row[col]:.3f}", repr(float(row[col]))]
        out += [str(cfg.seed), digest]
        writer.writerow(out)
    return buf.getvalue()


def render_json(keys, floats, rows, cfg: RunConfig) -> str:
    digest = config_hash(cfg)
    items = []
    for row in rows:
        item = {col: (list(row[col]) if isinstance(row[col], tuple) else row[col])
                for col in keys}
        for col in floats:
            item[col] = float(row[col])
        item["master_seed"] = cfg.seed
        item["config_hash"] = digest
        items.append(item)
    doc = {"command": cfg.command, "master_seed": cfg.seed,
           "config_hash": digest,
           "key_columns": list(keys),
           "float_columns": list(floats), "rows": items}
    return json.dumps(doc, indent=2) + "\n"


def emit_table(keys, floats, rows, cfg: RunConfig):
    """Renders and writes the rows; errors if there are none."""
    if not rows:
        raise ValueError("empty result set, refusing to write")
    render = render_csv if cfg.format == "csv" else render_json
    text = render(keys, floats, rows, cfg)
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
        # numpy warns of an empty file, which is refused below as a config error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, ndmin=2, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: expected newline-delimited numbers: {exc}") from exc
    # one line of several numbers is a row, not a sample
    if data.shape[1] != 1 or data.size == 0:
        raise ConfigError(f"{path}: expected a nonempty 1-column sample")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: sample holds non-finite values (nan or inf)")
    return data[:, 0]


def cmd_table1(cfg: RunConfig) -> list:
    from .stochastic_dominance import fixed_design_sample

    if min(cfg.n) < 2:
        raise ConfigError(f"table1 needs n >= 2 points per sample, got {min(cfg.n)}")
    sd_cfg = SdConfig(draws=cfg.draws, bootstrap=cfg.bootstrap, dd_boot=cfg.dd_boot)
    plan = SeedPlan(cfg.seed)
    rows, jobs = [], []

    def post(x, opponent, ids):
        return posterior_prob_sd1(x, opponent, sd_cfg, plan.stream(*ids)).estimate

    def non_post(x, opponent, ids):
        return 1.0 - post(x, opponent, ids)

    def dd(x, y, ids):
        return dd_pvalue_nonsd1(x, y, n_boot=sd_cfg.dd_boot, rng=plan.stream(*ids))

    def add(h0, n, h, comparison, method, job, *args):
        rows.append(dict(h0=h0, n=n, h=h, comparison=comparison, method=method))
        jobs.append(partial(job, *args))

    for ni, n in enumerate(cfg.n):
        x0, y0 = fixed_design_sample(n, 0.0)
        add("sd1", n, 0.0, "one_sample", "ks", ks_pvalue_sd1, x0, UNIFORM01)
        add("sd1", n, 0.0, "one_sample", "bayes", post, x0, UNIFORM01, (ni, 0, 0))
        add("sd1", n, 0.0, "two_sample", "ks", ks_pvalue_sd1, x0, y0)
        add("sd1", n, 0.0, "two_sample", "bayes", post, x0, y0, (ni, 0, 1))
        for hi, h in enumerate(cfg.h):
            x, y = fixed_design_sample(n, h)
            add("non_sd1", n, h, "one_sample", "iu_beta", iu_beta_pvalue_nonsd1, x)
            add("non_sd1", n, h, "one_sample", "bayes", non_post, x, UNIFORM01, (ni, 1 + hi, 0))
            add("non_sd1", n, h, "two_sample", "dd", dd, x, y, (ni, 1 + hi, 1))
            add("non_sd1", n, h, "two_sample", "iu_maxt", iu_maxt_pvalue_nonsd1, x, y)
            add("non_sd1", n, h, "two_sample", "bayes", non_post, x, y, (ni, 1 + hi, 2))
    # every value reads its own stream, so each is a cell of its own
    for row, value in zip(rows, parallel_map(jobs, cfg.workers)):
        row["value"] = value
    return rows


def cmd_table2(cfg: RunConfig) -> list:
    sd_cfg = SdConfig(draws=cfg.draws, bootstrap=cfg.bootstrap, dd_boot=cfg.dd_boot)
    plan = SeedPlan(cfg.seed)
    rows, jobs = [], []
    cell = 0
    for n in cfg.n:
        cells = [("sd1", 0.0, False, "ks"), ("sd1", 0.0, False, "bayes"),
                 ("sd1", 0.0, True, "ks"), ("sd1", 0.0, True, "bayes")]
        cells += [("non_sd1", h, two, m) for h in cfg.h
                  for two, m in ((False, "iu_beta"), (False, "bayes"),
                                 (True, "dd"), (True, "bayes"))]
        for null, h, two_sample, method in cells:
            for ai, alpha in enumerate(cfg.alpha):
                jobs.append(partial(
                    sd_rejection_probability, h, n, two_sample, null, method, alpha, cfg.reps,
                    cfg=sd_cfg, master_seed=plan.subplan(cell, ai)))
                rows.append(dict(h0=null, n=n, h=h,
                                 comparison="two_sample" if two_sample else "one_sample",
                                 method=method, alpha=alpha, reps=cfg.reps))
            cell += 1
    for row, summary in zip(rows, parallel_map(jobs, cfg.workers)):
        row.update(rate=summary.estimate, mc_se=summary.mc_se)
    return rows


def cmd_table3(cfg: RunConfig) -> list:
    n, *more = cfg.n
    if more:
        raise ConfigError("table3 takes a single --n")
    plan = SeedPlan(cfg.seed)
    rows, jobs = [], []
    for si, s_eps in enumerate(cfg.sigma_eps):
        try:
            dgp = TranslogDgp(delta=cfg.delta, sigma_x=cfg.sigma_x, sigma_eps=s_eps, n=n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for ai, alpha in enumerate(cfg.alpha):
            jobs.append(partial(type1_error_sim, dgp, alpha, reps=cfg.reps, draws=cfg.draws,
                                master_seed=plan.subplan(si, ai)))
            rows.append(dict(sigma_eps=s_eps, alpha=alpha, reps=cfg.reps, draws=cfg.draws))
    for row, res in zip(rows, parallel_map(jobs, cfg.workers)):
        row.update(rate=res.rejection.estimate, mc_se=res.rejection.mc_se,
                   monotonicity_rate=res.monotonicity_rate)
    return rows


def cmd_kline(cfg: RunConfig) -> list:
    xq = std_normal_quantile(0.95)
    return [dict(d=d, x_coordinate=xq, posterior=kline_orthant_posterior(np.full(d, xq)))
            for d in cfg.n]


def cmd_sd_test(cfg: RunConfig) -> list:
    if cfg.x_file is None:
        raise ConfigError("sd-test requires --x-file")
    x = _load_sample(cfg.x_file)
    sd_cfg = SdConfig(draws=cfg.draws, bootstrap=cfg.bootstrap, dd_boot=cfg.dd_boot)
    plan = SeedPlan(cfg.seed)
    if cfg.y_file is None:
        comparison = "one_sample"
        p_sd1 = posterior_prob_sd1(x, UNIFORM01, sd_cfg, plan.stream(0),
                                   workers=cfg.workers).estimate
        rows = [
            dict(comparison=comparison, method="ks", value=ks_pvalue_sd1(x, UNIFORM01)),
            dict(comparison=comparison, method="iu_beta", value=iu_beta_pvalue_nonsd1(x)),
        ]
    else:
        comparison = "two_sample"
        y = _load_sample(cfg.y_file)
        p_dd = dd_pvalue_nonsd1(x, y, n_boot=sd_cfg.dd_boot, rng=plan.stream(1))
        p_sd1 = posterior_prob_sd1(x, y, sd_cfg, plan.stream(0), workers=cfg.workers).estimate
        rows = [
            dict(comparison=comparison, method="ks", value=ks_pvalue_sd1(x, y)),
            dict(comparison=comparison, method="dd", value=p_dd),
            dict(comparison=comparison, method="iu_maxt",
                 value=iu_maxt_pvalue_nonsd1(x, y)),
        ]
    rows += [
        dict(comparison=comparison, method="bayes_sd1", value=p_sd1),
        dict(comparison=comparison, method="bayes_non_sd1", value=1.0 - p_sd1),
    ]
    return rows


def cmd_limit(cfg: RunConfig) -> list:
    if cfg.region is None:
        raise ConfigError("limit requires --region")
    region = parse_region(cfg.region)
    theta = cfg.theta or (0.0,) * region.dim
    if len(theta) != region.dim:
        raise ConfigError(f"theta has {len(theta)} coordinates, region needs {region.dim}")
    exp = Experiment.identity(len(theta))
    plan = SeedPlan(cfg.seed)
    # every region spec has a closed-form posterior under the identity
    # covariance, so no posterior draws are spent
    jobs = [partial(rejection_probability, region, np.asarray(theta), exp, alpha,
                    reps=cfg.reps, master_seed=plan.subplan(ai))
            for ai, alpha in enumerate(cfg.alpha)]
    return [dict(region=cfg.region, theta=theta, alpha=alpha,
                 method="exact" if summary.exact else "mc",
                 value=summary.estimate, mc_se=summary.mc_se)
            for alpha, summary in zip(cfg.alpha, parallel_map(jobs, cfg.workers))]


# Each command's runner, which takes a config with its defaults filled and
# returns its rows, then its key and float output columns.  --help's CSV
# schemas and every emitted table's columns come from here.
_DISPATCH = {
    "table1": (cmd_table1, ("h0", "n", "h", "comparison", "method"), ("value",)),
    "table2": (cmd_table2, ("h0", "n", "h", "comparison", "method", "alpha", "reps"),
               ("rate", "mc_se")),
    "table3": (cmd_table3, ("sigma_eps", "alpha", "reps", "draws"),
               ("rate", "mc_se", "monotonicity_rate")),
    "kline": (cmd_kline, ("d",), ("x_coordinate", "posterior")),
    "sd-test": (cmd_sd_test, ("comparison", "method"), ("value",)),
    "limit": (cmd_limit, ("region", "theta", "alpha", "method"), ("value", "mc_se")),
}


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.workers > 1 and cfg.command != "table3":
        # loaded before the pool forks, so the workers share one copy
        # instead of each loading its own; table3 needs no special function
        import scipy.special  # noqa: F401
    run, keys, floats = _DISPATCH[cfg.command]
    try:
        # the run sees its command's defaults; the output hashes cfg as given
        emit_table(keys, floats, run(_with_defaults(cfg)), cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001, surfaced as the numeric exit code
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
