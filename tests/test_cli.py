"""Tests for the command line interface: the region grammar, config
resolution and precedence, renderers and their round-trip guarantees,
exit codes, and worker-count byte identity of outputs."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ineqtest.cli as cli
import ineqtest.stochastic_dominance as sd
from ineqtest.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    build_arg_parser,
    cmd_kline,
    cmd_limit,
    cmd_sd_test,
    cmd_table3,
    config_hash,
    emit_table,
    main,
    parse_config_file,
    parse_region,
    render_csv,
    render_json,
    resolve_config,
)
from ineqtest.distributions import std_normal_quantile
from ineqtest.mc_harness import McSummary, run_replications
from ineqtest.translog import RankDeficientError
from ineqtest.limit_experiment import (
    _REPS_PER_BLOCK,
    Box,
    Complement,
    HalfSpace,
    IntervalUnion,
    SignAgreement,
)


# ---------------------------------------------------------------------------
# region grammar


class TestParseRegion:
    def test_halfspace(self):
        region = parse_region("halfspace:1,2:0.5")
        assert isinstance(region, HalfSpace)
        np.testing.assert_array_equal(region.c, [1.0, 2.0])
        assert region.c0 == 0.5

    def test_box_with_infinities(self):
        region = parse_region("box:0..inf,-1..1")
        assert isinstance(region, Box)
        np.testing.assert_array_equal(region.lower, [0.0, -1.0])
        np.testing.assert_array_equal(region.upper, [np.inf, 1.0])

    def test_interval_union(self):
        region = parse_region("interval:[-1,0]|[2,3]")
        assert isinstance(region, IntervalUnion)
        assert region.intervals == ((-1.0, 0.0), (2.0, 3.0))

    def test_signagree(self):
        assert isinstance(parse_region("signagree"), SignAgreement)

    def test_complement(self):
        region = parse_region("complement(box:0..inf,0..inf)")
        assert isinstance(region, Complement)
        assert isinstance(region.inner, Box)

    def test_nested_complement(self):
        region = parse_region("complement(complement(signagree))")
        assert isinstance(region.inner, Complement)
        assert isinstance(region.inner.inner, SignAgreement)

    @pytest.mark.parametrize("spec", [
        "interval:[0,-1]",          # reversed endpoints
        "halfspace:0,0:1",          # zero direction
        "box:1..0",                 # lower above upper
        "box:1,2",                  # missing .. separator
        "interval:(0,1)",           # wrong brackets
        "interval:[1,2,3]",         # three endpoints
        "halfspace::",              # nothing at all
        "pentagon:1,2,3",           # unknown kind
        "halfspace:1,two:0",        # unparsable number
        "box:nan..1",               # nan bound
        "interval:[nan,1]",         # nan endpoint
        "halfspace:inf:0",          # infinite direction
    ])
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            parse_region(spec)


# ---------------------------------------------------------------------------
# config files and resolution


class TestParseConfigFile:
    def test_parses_values_comments_and_dashes(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# reduced smoke run\n"
            "command = table3\n"
            "\n"
            "sigma-eps = 0.1,0.3\n"
            "reps=5\n"
            "alpha = 0.05\n")
        values = parse_config_file(path)
        assert values == {"command": "table3", "sigma_eps": (0.1, 0.3),
                          "reps": 5, "alpha": (0.05,)}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = kline\nrepz = 5\n")
        with pytest.raises(ConfigError, match=r":2:.*repz"):
            parse_config_file(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = kline\njust some words\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("reps = soon\n")
        with pytest.raises(ConfigError, match=r":1:"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


class TestResolveConfig:
    def test_command_required(self):
        with pytest.raises(ConfigError, match="command required"):
            resolve_config([])

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = kline\nseed = 5\nformat = json\n")
        cfg = resolve_config(["--config", str(path), "--seed", "9"])
        assert cfg.command == "kline"
        assert cfg.seed == 9          # flag wins
        assert cfg.format == "json"   # file value survives

    def test_config_file_supplies_command(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = table1\n")
        assert resolve_config(["--config", str(path)]).command == "table1"

    def test_alpha_range_validated(self):
        with pytest.raises(ConfigError, match="alpha"):
            resolve_config(["--command", "table2", "--alpha", "1.5"])
        with pytest.raises(ConfigError):
            resolve_config(["--command", "table2", "--alpha", "0.05,0"])

    def test_positive_counts_validated(self):
        with pytest.raises(ConfigError, match="reps"):
            resolve_config(["--command", "table2", "--reps", "0"])
        with pytest.raises(ConfigError, match="workers"):
            resolve_config(["--command", "table2", "--workers", "0"])
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(["--command", "kline", "--seed", "-1"])

    def test_region_validated_early(self):
        with pytest.raises(ConfigError, match="invalid region"):
            resolve_config(["--command", "limit", "--region", "interval:[0,-1]"])

    def test_list_flags_parsed(self):
        cfg = resolve_config(["--command", "table2", "--h", "0.0,0.9",
                              "--n", "100", "--alpha", "0.1"])
        assert cfg.h == (0.0, 0.9)
        assert cfg.n == (100,)
        assert cfg.alpha == (0.1,)


class TestFieldTable:
    def test_every_field_has_flag_key_and_help(self, tmp_path):
        parser = build_arg_parser()
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            assert getattr(parser.parse_args([flag, "?"]), f.name) == "?"
            assert f.metadata["help"]
            path = tmp_path / f"{f.name}.cfg"
            path.write_text(f"{f.name} = ?\n")
            try:
                assert parse_config_file(path) == {f.name: "?"}
            except ConfigError as exc:   # a known key whose parser refused "?"
                assert f":1: {f.name}: " in str(exc)

    def test_hashed_fields(self):
        names = [f.name for f in fields(RunConfig)]
        hashed = [f.name for f in fields(RunConfig) if f.metadata["hashed"]]
        assert len(names) == 19
        assert hashed == [n for n in names if n not in ("out", "format", "workers")]

    def test_command_table_is_consistent(self):
        names = {f.name for f in fields(RunConfig)}
        assert set(cli._COMMON) <= names
        read = set().union(*cli._READS.values())
        assert read <= names
        assert read.isdisjoint(cli._COMMON)
        assert read == names - set(cli._COMMON)   # every field is read by some command
        assert cli.COMMANDS == tuple(cli._READS) == tuple(cli._DISPATCH)
        assert sum(len(cli._COMMON) + len(table) for table in cli._READS.values()) == 59
        assert len(_UNREAD) == 114 - 59


# a valid flag value for every field beyond the common ones
_UNREAD_VALUES = dict(reps="1", draws="1", alpha="0.1", bootstrap="banks", h="0.5", n="10",
                      sigma_eps="0.1", sigma_x="1", delta="0.01", region="signagree",
                      theta="0,0", dd_boot="9", x_file="x.txt", y_file="y.txt")
_UNREAD = [(command, name) for command in cli.COMMANDS for name in _UNREAD_VALUES
           if name not in cli._READS[command]]


class TestCommandFields:
    @pytest.mark.parametrize("command,name", _UNREAD)
    def test_unread_flag_is_refused(self, capsys, command, name):
        flag = "--" + name.replace("_", "-")
        assert main(["--command", command, flag, _UNREAD_VALUES[name]]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"config error: {command} does not read {flag}\n"

    def test_unread_config_key_is_refused(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("command = limit\nregion = signagree\nreps = 100\ndraws = 5\n")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "config error: limit does not read --draws\n"

    def test_read_fields_are_accepted(self):
        for command, table in cli._READS.items():
            argv = ["--command", command]
            for name in table:
                argv += ["--" + name.replace("_", "-"), _UNREAD_VALUES[name]]
            assert resolve_config(argv).command == command

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_defaults_fill_only_unset_fields(self, command):
        table = cli._READS[command]
        filled = cli._with_defaults(RunConfig(command=command))
        assert {name: getattr(filled, name) for name in table} == table
        unread = set(_UNREAD_VALUES) - set(table)
        assert all(getattr(filled, name) is None for name in unread)
        for name in table:   # a set field keeps its value
            kept = cli._with_defaults(RunConfig(command=command, **{name: "set"}))
            assert getattr(kept, name) == "set"

    def test_help_shows_each_default_in_flag_syntax(self):
        helps = {action.option_strings[-1]: action.help for action in build_arg_parser()._actions}
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.name in cli._COMMON:
                want = {} if f.default is None else {flag: f.default}
            else:
                want = {command: table[f.name] for command, table in cli._READS.items()
                        if f.name in table}
            bracket = re.search(r" \[(.*)\]$", helps[flag])
            shown = {}
            for item in bracket[1].split(", ") if bracket else []:
                who, *typed = item.split(" ")
                if who != flag:   # a command, then the flag and its value, if it has one
                    assert typed[:1] in ([], [flag])
                    typed = typed[1:]
                shown[who] = f.metadata["parse"](typed[0]) if typed else None
            assert shown == want, flag


def test_readme_command_table_matches_reads():
    # README's "its own flags" table lists each command's flags in _READS order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("| command  | its own flags |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` *\|(.*)\|$", section, re.MULTILINE)
    listed = [(command, re.findall(r"--[\w-]+", " ".join(re.findall(r"`([^`]*)`", flags))))
              for command, flags in rows]
    assert listed == [(command, [cli._flag(name) for name in table])
                      for command, table in cli._READS.items()]


def test_epilog_is_pinned():
    # the CSV schema lines come from _DISPATCH; the digest pins them, with
    # their alignment, as --help printed them when they were text
    digest = hashlib.sha256(build_arg_parser().epilog.encode("utf-8")).hexdigest()
    assert digest == "a5aa1b7c50d2849db1785978a9cd93d66ee84a792a44c911c742c15ba668a1af"


@pytest.mark.parametrize("columns", ["80", "40"])
def test_help_keeps_each_flag_on_one_line(monkeypatch, columns):
    # argparse reads the width from COLUMNS when it builds its formatter
    monkeypatch.setenv("COLUMNS", columns)
    lines = build_arg_parser().format_help().splitlines()
    assert not [line for line in lines if re.search(r"--\w+-$", line)]


# pinned config_hash values: renaming, reordering or re-encoding a hashed
# field changes them; x.txt and y.txt hold the bytes of _PIN_FILES
_PIN_FILES = {"x.txt": b"0.1\n0.5\n0.7\n", "y.txt": b"0.2\n0.4\n"}
_PINNED_HASHES = [
    (dict(command="kline"), "5191363183fe"),
    (dict(command="table2", seed=20260823, reps=8, h=(0.0, 0.9), n=(100,),
          alpha=(0.1,), workers=2), "5a7bd9c153fa"),
    (dict(command="table3", sigma_eps=(0.1,), sigma_x=3.0, delta=0.01, draws=50),
     "0398774f44b5"),
    (dict(command="limit", region="signagree", theta=(0.0, 0.5), alpha=(0.05, 0.1)),
     "585000707643"),
    (dict(command="sd-test", x_file="x.txt", y_file="y.txt", bootstrap="rubin",
          dd_boot=99), "f3b3f6915c76"),
]


class TestConfigHash:
    @pytest.mark.parametrize("kwargs,want", _PINNED_HASHES)
    def test_pinned_values(self, tmp_path, kwargs, want):
        for name, data in _PIN_FILES.items():
            (tmp_path / name).write_bytes(data)
        kwargs = {k: str(tmp_path / v) if k.endswith("_file") else v for k, v in kwargs.items()}
        assert config_hash(RunConfig(**kwargs)) == want

    def test_sensitive_to_experiment_fields(self):
        a = RunConfig(command="kline", seed=1)
        b = RunConfig(command="kline", seed=2)
        assert config_hash(a) != config_hash(b)

    def test_insensitive_to_presentation_fields(self):
        a = RunConfig(command="kline", seed=1, workers=1, out=None, format="csv")
        b = RunConfig(command="kline", seed=1, workers=8, out="x.csv", format="json")
        assert config_hash(a) == config_hash(b)

    def test_stable_length(self):
        assert len(config_hash(RunConfig(command="limit"))) == 12

    @pytest.mark.parametrize("field", ["x_file", "y_file"])
    def test_sample_file_bytes_change_the_hash(self, tmp_path, field):
        path = tmp_path / "s.txt"
        path.write_text("0.1\n0.5\n")
        cfg = RunConfig(command="sd-test", **{field: str(path)})
        before = config_hash(cfg)
        path.write_text("0.1\n0.6\n")
        assert config_hash(cfg) != before

    def test_sample_file_path_does_not_enter_the_hash(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b" / "x.txt"
        b.parent.mkdir()
        for path in (a, b):
            path.write_text("0.1\n0.5\n")
        assert (config_hash(RunConfig(command="sd-test", x_file=str(a), y_file=str(b)))
                == config_hash(RunConfig(command="sd-test", x_file=str(b), y_file=str(a))))

    def test_unreadable_sample_file_is_a_config_error(self, tmp_path):
        cfg = RunConfig(command="sd-test", x_file=str(tmp_path / "missing.txt"))
        with pytest.raises(ConfigError, match="cannot read"):
            config_hash(cfg)


# ---------------------------------------------------------------------------
# renderers


def tiny_table():
    """Key columns, float columns and rows of a small table."""
    return (("name", "knob"), ("value",),
            [dict(name="alpha", knob=2, value=1.0 / 3.0), dict(name="beta", knob=3, value=0.125)])


class TestRenderers:
    def test_csv_layout_and_full_precision(self):
        cfg = RunConfig(command="kline", seed=12)
        text = render_csv(*tiny_table(), cfg)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "knob", "value", "value_full",
                           "master_seed", "config_hash"]
        assert rows[1][2] == "0.333"            # display rounding
        assert float(rows[1][3]) == 1.0 / 3.0   # companion is bit exact
        assert rows[1][4] == "12"
        assert rows[1][5] == config_hash(cfg)
        assert rows[2][3] == "0.125"

    def test_json_round_trip_is_bit_exact(self):
        cfg = RunConfig(command="kline", seed=3)
        doc = json.loads(render_json(*tiny_table(), cfg))
        assert doc["command"] == "kline"
        assert doc["master_seed"] == 3
        assert doc["rows"][0]["value"] == 1.0 / 3.0
        assert doc["rows"][1]["value"] == 0.125
        assert doc["float_columns"] == ["value"]

    def test_emit_refuses_empty(self):
        with pytest.raises(ValueError, match="empty"):
            emit_table(("k",), (), [], RunConfig(command="kline"))

    def test_emit_to_file_and_stdout(self, tmp_path, capsys):
        cfg_file = RunConfig(command="kline", out=str(tmp_path / "o.csv"))
        emit_table(*tiny_table(), cfg_file)
        on_disk = (tmp_path / "o.csv").read_text()
        emit_table(*tiny_table(), RunConfig(command="kline"))
        assert capsys.readouterr().out == on_disk


# ---------------------------------------------------------------------------
# commands


def filled(**values):
    """A config as main hands it to the command's runner: its defaults filled."""
    return cli._with_defaults(RunConfig(**values))


class TestCmdKline:
    def test_rows_and_values(self):
        rows = cmd_kline(filled(command="kline"))
        assert [r["d"] for r in rows] == [10, 25, 90]
        assert rows[0]["x_coordinate"] == std_normal_quantile(0.95)
        for row, want in zip(rows, (0.40, 0.72, 0.99)):
            assert row["posterior"] == pytest.approx(want, abs=0.005)

    def test_custom_dimensions(self):
        rows = cmd_kline(filled(command="kline", n=(1,)))
        assert rows[0]["posterior"] == pytest.approx(0.05, abs=1e-12)


class TestCmdSdTest:
    def test_requires_x_file(self):
        with pytest.raises(ConfigError, match="x-file"):
            cmd_sd_test(filled(command="sd-test"))

    def test_one_sample_methods(self, tmp_path):
        xp = tmp_path / "x.txt"
        xp.write_text("".join(f"{v}\n" for v in np.linspace(0.05, 1.05, 40)))
        rows = cmd_sd_test(filled(command="sd-test", x_file=str(xp),
                                  draws=200))
        methods = [r["method"] for r in rows]
        assert methods == ["ks", "iu_beta", "bayes_sd1", "bayes_non_sd1"]
        by = {r["method"]: r["value"] for r in rows}
        assert by["bayes_sd1"] + by["bayes_non_sd1"] == pytest.approx(1.0)

    def test_two_sample_methods(self, tmp_path):
        xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
        rng = np.random.default_rng(0)
        xp.write_text("".join(f"{v}\n" for v in rng.uniform(0.1, 1.1, 50)))
        yp.write_text("".join(f"{v}\n" for v in rng.uniform(0, 1, 50)))
        rows = cmd_sd_test(filled(command="sd-test", x_file=str(xp),
                                  y_file=str(yp), draws=200))
        methods = [r["method"] for r in rows]
        assert methods == ["ks", "dd", "iu_maxt", "bayes_sd1", "bayes_non_sd1"]

    def test_bad_sample_file(self, tmp_path):
        xp = tmp_path / "x.txt"
        xp.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ConfigError, match="newline-delimited"):
            cmd_sd_test(filled(command="sd-test", x_file=str(xp)))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_non_finite_sample_exits_2_silently(self, tmp_path, capsys, bad, which):
        xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
        xp.write_text("0.2\n0.5\n0.9\n")
        yp.write_text("0.1\n0.4\n0.7\n")
        (xp if which == "x" else yp).write_text(f"0.3\n{bad}\n0.8\n")
        code = main(["--command", "sd-test", "--x-file", str(xp),
                     "--y-file", str(yp), "--draws", "50", "--dd-boot", "9"])
        out = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out.out == ""
        assert "non-finite" in out.err

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_empty_sample_file_prints_one_error_line(self, tmp_path, which):
        # a real interpreter, so a warning would reach stderr
        xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
        xp.write_text("0.2\n0.5\n0.9\n")
        yp.write_text("0.1\n0.4\n0.7\n")
        empty = xp if which == "x" else yp
        empty.write_text("")
        proc = _python("-m", "ineqtest.cli", "--command", "sd-test", "--x-file", str(xp),
                       "--y-file", str(yp))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == b""
        assert proc.stderr == f"config error: {empty}: expected a nonempty 1-column sample\n".encode()

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_one_line_of_several_numbers_exits_2(self, tmp_path, capsys, which):
        xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
        xp.write_text("0.2\n0.5\n0.9\n")
        yp.write_text("0.1\n0.4\n0.7\n")
        row = xp if which == "x" else yp
        row.write_text("0.2 0.5 0.9\n")
        code = main(["--command", "sd-test", "--x-file", str(xp), "--y-file", str(yp),
                     "--draws", "50", "--dd-boot", "9"])
        out = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out.out == ""
        assert out.err == f"config error: {row}: expected a nonempty 1-column sample\n"

    def test_one_value_file_runs(self, tmp_path, capsys):
        xp = tmp_path / "x.txt"
        xp.write_text("0.4\n")
        assert main(["--command", "sd-test", "--x-file", str(xp), "--draws", "50"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["ks", "iu_beta", "bayes_sd1",
                                                           "bayes_non_sd1"]

    def test_non_finite_one_sample_rejected(self, tmp_path):
        xp = tmp_path / "x.txt"
        xp.write_text("0.3\nnan\n")
        with pytest.raises(ConfigError, match="non-finite"):
            cmd_sd_test(filled(command="sd-test", x_file=str(xp)))


class TestCmdLimit:
    def test_requires_region(self):
        with pytest.raises(ConfigError, match="region"):
            cmd_limit(filled(command="limit"))

    def test_theta_dimension_checked(self):
        with pytest.raises(ConfigError, match="theta"):
            cmd_limit(filled(command="limit", region="signagree",
                             theta=(0.0, 0.0, 0.0)))

    def test_halfspace_is_exact(self):
        row, = cmd_limit(filled(command="limit", region="halfspace:1:0",
                                alpha=(0.05,), reps=10))
        assert row["method"] == "exact"
        assert row["value"] == pytest.approx(0.05, abs=1e-12)
        assert row["mc_se"] == 0.0

    @pytest.mark.parametrize("region,theta", [("interval:[-1,0]", "0"),
                                              ("box:0..inf,0..inf", "0,0"),
                                              ("box:-1..1,0..inf", "0.5,0"),
                                              ("signagree", "0,0")])
    @pytest.mark.parametrize("reps", [_REPS_PER_BLOCK // 3, _REPS_PER_BLOCK,
                                      2 * _REPS_PER_BLOCK + 452])
    def test_stdout_identical_across_workers(self, capsys, region, theta, reps):
        # reps below, equal to and not a multiple of the block size
        outputs = []
        for workers in ("1", "2", "7"):
            code = main(["--command", "limit", "--region", region, "--theta", theta,
                         "--alpha", "0.05,0.1", "--reps", str(reps), "--seed", "17",
                         "--workers", workers])
            assert code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("\n") == 3

    def test_interval_runs_mc(self):
        row, = cmd_limit(filled(command="limit", region="interval:[-1,0]",
                                alpha=(0.05,), reps=400))
        assert row["method"] == "mc"
        assert row["mc_se"] > 0.0
        assert 0.0 <= row["value"] <= 1.0


# ---------------------------------------------------------------------------
# main and exit codes


class TestMain:
    def test_ok_run_writes_csv(self, tmp_path):
        out = tmp_path / "kline.csv"
        assert main(["--command", "kline", "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "d"
        assert len(rows) == 4

    def test_missing_command_is_config_error(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_region_is_config_error(self, capsys):
        code = main(["--command", "limit", "--region", "interval:[3,1]"])
        assert code == EXIT_CONFIG

    def test_late_config_error_from_command(self, capsys):
        # resolve passes (no region flag needed at parse time), the
        # command itself then reports the gap
        assert main(["--command", "limit"]) == EXIT_CONFIG

    def test_unexpected_failure_maps_to_numerical_exit(self, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("synthetic failure")
        monkeypatch.setitem(cli._DISPATCH, "kline", (boom, *cli._DISPATCH["kline"][1:]))
        assert main(["--command", "kline"]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_json_output(self, tmp_path):
        out = tmp_path / "kline.json"
        code = main(["--command", "kline", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["command"] == "kline"
        assert len(doc["rows"]) == 3

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        paths = []
        for w in ("1", "2"):
            out = tmp_path / f"t3_w{w}.csv"
            code = main(["--command", "table3", "--seed", "7",
                         "--reps", "6", "--draws", "25",
                         "--sigma-eps", "0.3", "--alpha", "0.1",
                         "--n", "40", "--workers", w, "--out", str(out)])
            assert code == EXIT_OK
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv,field", [(["--command", "table2", "--reps", "abc"], "--reps"),
                                            (["--command", "bogus"], "--command"),
                                            (["--command", "kline", "--bogus", "1"], "--bogus")])
    def test_malformed_flag_returns_config_exit(self, capsys, argv, field):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert field in err

    @pytest.mark.parametrize("command,field,bad", [
        (command, field, bad)
        for command, field in (("limit", "theta"), ("table2", "h"), ("table3", "sigma_eps"),
                               ("table3", "sigma_x"), ("table3", "delta"))
        for bad in ("nan", "inf", "-inf")
    ] + [("limit", "theta", "0.5,nan"), ("table2", "h", "0.9,inf"),
         ("table3", "sigma_eps", "0.1,-inf")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, field, bad, source):
        argv = ["--command", command, "--reps", "1", "--region", "signagree"]
        if source == "flag":
            label = "--" + field.replace("_", "-")
            argv.append(f"{label}={bad}")
        else:
            label = f":1: {field}:"
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{field} = {bad}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert label in out.err

    @pytest.mark.parametrize("field,text,want", [("theta", "-1,0", (-1.0, 0.0)),
                                                 ("theta", "-0.5,-2", (-0.5, -2.0)),
                                                 ("theta", "-1e-3,2E+1", (-0.001, 20.0)),
                                                 ("delta", "-1e-3", -0.001),
                                                 ("delta", "-.5", -0.5)])
    @pytest.mark.parametrize("joined", [False, True])
    def test_negative_values_follow_their_flag(self, field, text, want, joined):
        flag = "--" + field
        command = "table3" if field == "delta" else "limit"
        argv = ["--command", command] + ([f"{flag}={text}"] if joined else [flag, text])
        assert getattr(resolve_config(argv), field) == want

    @pytest.mark.parametrize("field,text", [("delta", "-inf"), ("delta", "-Infinity"),
                                            ("theta", "-1,-inf"), ("theta", "-nan,0"),
                                            ("h", "-0.5")])
    @pytest.mark.parametrize("joined", [False, True])
    def test_unusable_negative_values_exit_2(self, capsys, field, text, joined):
        # the value reaches the field's parser, which refuses it by name
        flag = "--" + field
        argv = ["--command", "limit", "--region", "signagree", "--reps", "1"]
        argv += [f"{flag}={text}"] if joined else [flag, text]
        assert main(argv) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"config error: {flag}: expected")

    def test_flag_like_words_stay_flags(self, capsys):
        # a word that is not a list of numbers still reads as a flag
        assert main(["--command", "limit", "--theta", "-1,x"]) == EXIT_CONFIG
        assert "expected one argument" in capsys.readouterr().err

    def test_table3_takes_one_n(self, capsys):
        with pytest.raises(ConfigError, match="single --n"):
            cmd_table3(filled(command="table3", n=(50, 100)))
        assert main(["--command", "table3", "--n", "50,100", "--reps", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["5", "9"])
    def test_table3_refuses_fewer_points_than_coefficients(self, monkeypatch, capsys, n):
        # refused as config before any dataset is simulated
        monkeypatch.setattr(cli, "type1_error_sim",
                            lambda *args, **kwargs: pytest.fail("a job ran"))
        assert main(["--command", "table3", "--n", n, "--reps", "1"]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"config error: need n >= 10 observations, got {n}\n"

    @pytest.mark.parametrize("n", ["1", "100,1"])
    def test_table1_refuses_single_point_samples(self, monkeypatch, capsys, n):
        # refused as config before any cell runs
        monkeypatch.setattr(cli, "parallel_map",
                            lambda *args, **kwargs: pytest.fail("a cell ran"))
        assert main(["--command", "table1", "--n", n]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "config error: table1 needs n >= 2 points per sample, got 1\n"

    def test_config_file_end_to_end(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text("command = kline\nn = 5,10\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == ["5", "10"]


# ---------------------------------------------------------------------------
# golden output


# sha256 of the stdout of `table2 --reps 2 --n 100,1000 --seed 3`, recorded
# before table2's zero-posterior screen and decision-only dd test existed;
# neither may move a byte.  The PCG64 posterior and dd substreams left it
# as it was: every one of its two-replication decisions lies far from alpha.
TABLE2_GOLDEN_SHA256 = "5510edcdaf2a06b3918973ec8395ec0b985a0d8e8dfdbfa418b732c6629e5f3a"
# sha256 of the stdout of `table1 --n 100 --draws 400 --dd-boot 99 --seed 3`
# under the PCG64 posterior and dd substreams, with the dd bootstrap's
# binomial split-point counts; its full-precision posteriors and dd p-values
# move with any change to the weights, counts or uniforms drawn
TABLE1_GOLDEN_SHA256 = "4f6f89aa569fede2011b9fd851fd7f4b856b25ec5df74f4603dc599d2a6cf179"
# sha256 of the stdout of `table3 --reps 4 --seed 3` and of `limit --reps
# 5000 --seed 3` on three regions, recorded while the replication engine
# still took scalar tasks and ran blocks in worker processes of its own
TABLE3_GOLDEN_SHA256 = "d9bfdebf5dca662eaa4534b1990d14fad69e1f00a3c6c9676ca2b3f3ecc9ce02"
LIMIT_GOLDEN_SHA256 = {
    "interval:[-1,0]": "acf0da1fee6b397134bc2d5ae6d4be4c9c096a13830c70070a1fa02278211525",
    "box:0..inf,0..inf": "3b71f67e63c3ffd221a756091a8af74e9b4f0a889a3ebe50327dbc255a8983c7",
    "signagree": "f0a3760aa838c94e3980568a0961fcdda46be9e1b5d4e17d301474dbc09ed1c8",
}
# sha256 of the stdout of `sd-test --seed 3` on _sample_files(n=120) under
# both bootstraps: one-sample on the shifted x file (some points above the
# reference's support) and on the uniform y file, and two-sample x against
# y; and of default `kline`.  Recorded while the one-sample reference was
# still a CDF object with an evaluate method; the two-sample entries were
# re-recorded when the dd bootstrap began drawing binomial split-point
# counts, and the x entries when posteriors were cut into 500-draw blocks
# (the y entries' posteriors are screened out, so they did not move).
SD_TEST_GOLDEN_SHA256 = {
    ("x", "banks"):
        "6ff41da9173980d130a43347a9878d53c23568463b4d68f9b86e7e6563831217",
    ("x", "rubin"):
        "5747d9cd367b99de7d6e0a6b547a104d1e627e995eb23a4a65ea823ba3bc8116",
    ("y", "banks"):
        "d0c0448c433a07cb5b781d4a82cf116c168835d3c88950ee921af748f03d9a74",
    ("y", "rubin"):
        "9b78dd446cd39420f7583f6c7380ad06ebad6840efafd3adf0ba446173beacfe",
    ("x,y", "banks"):
        "88111928efa46b55c4d57818635c1a7dfc9a3d31f103a0debf76cf8da9325130",
    ("x,y", "rubin"):
        "3d5ce552564b65825f459df404238f5e7b2458f7e04827cbde2086bc87510004",
}
KLINE_GOLDEN_SHA256 = "23b2b9f1abce706cf0b40ecef49fe2abe5ecd712ffa16db209d1c9545d7222ae"
# sha256 of the `--format json` stdout of a simulated and an exact limit
# run and of a small table3, recorded while McSummary still stored mc_se,
# exact and master_seed beside the estimate and its count
JSON_GOLDEN_SHA256 = {
    "limit --region signagree --reps 3000":
        "0ff6609f89fcfee0c83dbec02ab2fe82381e4333635662d4d6ecc0cb653ede88",
    "limit --region halfspace:1,1:0 --theta 0.1,0":
        "0f34d78022a6d11e112a88ff2bb55cf4b9b67a711661027e490133ea2bcecf66",
    "table3 --reps 4 --sigma-eps 0.1,0.3":
        "f18b9bd9078b39109af8b4053142f0f95099fbe084c7e09e8e2e1c807e585ff5",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_table2_golden_output(capsys, workers):
    argv = ["--command", "table2", "--reps", "2", "--n", "100,1000", "--seed", "3",
            "--workers", workers]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE2_GOLDEN_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_table1_golden_output(capsys, workers):
    argv = ["--command", "table1", "--n", "100", "--draws", "400", "--dd-boot", "99",
            "--seed", "3", "--workers", workers]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE1_GOLDEN_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_table3_golden_output(capsys, workers):
    argv = ["--command", "table3", "--reps", "4", "--seed", "3", "--workers", workers]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE3_GOLDEN_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("region", sorted(LIMIT_GOLDEN_SHA256))
def test_limit_golden_output(capsys, region, workers):
    argv = ["--command", "limit", "--region", region, "--reps", "5000", "--seed", "3",
            "--workers", workers]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LIMIT_GOLDEN_SHA256[region]


def _sample_files(tmp_path, n=60):
    """Paths of an x sample shifted up and a uniform y sample."""
    rng = np.random.default_rng(n)
    xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
    np.savetxt(xp, rng.uniform(0.15, 1.15, n), fmt="%.17g")
    np.savetxt(yp, rng.uniform(0.0, 1.0, n), fmt="%.17g")
    return str(xp), str(yp)


@pytest.mark.parametrize("files, bootstrap", sorted(SD_TEST_GOLDEN_SHA256))
def test_sd_test_golden_output(capsys, tmp_path, files, bootstrap):
    paths = dict(zip("xy", _sample_files(tmp_path, n=120)))
    argv = ["--command", "sd-test", "--bootstrap", bootstrap, "--seed", "3"]
    for flag, name in zip(("--x-file", "--y-file"), files.split(",")):
        argv += [flag, paths[name]]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == SD_TEST_GOLDEN_SHA256[files, bootstrap])


def test_kline_golden_output(capsys):
    assert main(["--command", "kline"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == KLINE_GOLDEN_SHA256


@pytest.mark.parametrize("run", sorted(JSON_GOLDEN_SHA256))
def test_json_golden_output(capsys, run):
    command, *flags = run.split()
    assert main(["--command", command, *flags, "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_GOLDEN_SHA256[run]


def _stochastic_commands(tmp_path):
    xp, yp = _sample_files(tmp_path)
    return [["--command", "table1", "--n", "60", "--h", "0.0,0.9", "--draws", "300",
             "--dd-boot", "49"],
            ["--command", "table2", "--reps", "4", "--n", "60", "--h", "0.0,1.3",
             "--dd-boot", "49"],
            ["--command", "sd-test", "--x-file", xp, "--draws", "500"],
            ["--command", "sd-test", "--x-file", xp, "--y-file", yp, "--draws", "500",
             "--dd-boot", "99"]]


@pytest.mark.parametrize("argv", [
    ["--command", "table1", "--n", "20", "--h", "0.5", "--draws", "20", "--dd-boot", "9"],
    ["--command", "table2", "--reps", "1", "--n", "20", "--h", "0", "--draws", "20",
     "--dd-boot", "9"],
    ["--command", "table3", "--reps", "1", "--n", "10", "--sigma-eps", "0"],
    ["--command", "kline"],
    ["--command", "sd-test", "--draws", "20"],
    ["--command", "limit", "--region", "halfspace:1:0"],
], ids=lambda argv: argv[1])
def test_csv_header_matches_help_schema(capsys, tmp_path, argv):
    if argv[1] == "sd-test":
        argv = argv + ["--x-file", _sample_files(tmp_path, n=20)[0]]
    schemas = dict(re.findall(r"^  (\S+):\s+(.*)$", build_arg_parser().epilog, re.MULTILINE))
    assert main(argv) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0].split(",")
    # every float column X is followed by X_full, and every row ends with
    # master_seed and config_hash
    assert [c for c in header if not c.endswith("_full")] == (
        schemas[argv[1]].split(", ") + ["master_seed", "config_hash"])
    assert all(header[i - 1] + "_full" == c for i, c in enumerate(header) if c.endswith("_full"))


def test_stdout_ignores_block_constants(monkeypatch, capsys, tmp_path):
    # the walk chunks and dd row blocks only cut the work up
    settings = [dict(_CHUNK_COLS=1, _DD_BLOCK_ELEMS=1),
                dict(_CHUNK_COLS=10 ** 4, _DD_BLOCK_ELEMS=10 ** 8)]
    for argv in _stochastic_commands(tmp_path):
        assert main(argv) == EXIT_OK
        want = capsys.readouterr().out
        for setting in settings:
            for name, value in setting.items():
                monkeypatch.setattr(sd, name, value)
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == want
        monkeypatch.undo()


def test_table2_draws_cap_spent_in_batches(monkeypatch, capsys):
    # a posterior of 0.5 at alpha 0.5 straddles alpha at every look, so each
    # replication spends the whole cap of 900 draws in batches of 300
    calls = []

    def at_alpha(x_sample, opponent, cfg=sd.SdConfig(), rng=None, floor=0):
        calls.append(cfg.draws)
        return McSummary(0.5, cfg.draws)

    monkeypatch.setattr(sd, "posterior_prob_sd1", at_alpha)
    assert main(["--command", "table2", "--reps", "2", "--n", "20", "--h", "0",
                 "--alpha", "0.5", "--draws", "900", "--dd-boot", "9"]) == EXIT_OK
    # four bayes cells of two replications each
    assert calls == [300] * (3 * 2 * 4)


# ---------------------------------------------------------------------------
# table cells in forked worker processes


def _python(*args):
    """A fresh interpreter that imports this checkout's package, with
    stdout and stderr sent to real pipes and block-buffered, so a forked
    child that flushed its copy of a pending buffer would print it twice."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)


@pytest.mark.parametrize("argv", [
    ["--command", "table2", "--reps", "2", "--n", "100"],
    ["--command", "table3", "--reps", "3"],
    ["--command", "limit", "--region", "interval:[-1,0]", "--theta", "0",
     "--alpha", "0.05,0.1", "--reps", "3000"],
    ["--command", "table1", "--n", "100", "--draws", "400", "--dd-boot", "99"],
])
def test_piped_stdout_identical_across_workers(argv):
    outputs = []
    for workers in ("1", "2", "4"):
        proc = _python("-m", "ineqtest.cli", *argv, "--workers", workers)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == b""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") > 2


@pytest.mark.parametrize("two_sample", [False, True])
def test_piped_sd_test_identical_across_workers(tmp_path, two_sample):
    # the default 2000 draws are four posterior blocks, spread over the
    # worker processes
    xp, yp = _sample_files(tmp_path, n=400)
    argv = ["--command", "sd-test", "--x-file", xp] + (["--y-file", yp] if two_sample else [])
    outputs = []
    for workers in ("1", "2", "3", "4"):
        proc = _python("-m", "ineqtest.cli", *argv, "--workers", workers)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == b""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert outputs[0].count(b"\n") == (6 if two_sample else 5)


@pytest.mark.parametrize("two_sample", [False, True])
def test_sd_test_spreads_its_posterior_blocks(monkeypatch, capsys, tmp_path, two_sample):
    runs = []
    run_blocks = sd.parallel_map

    def recorded(jobs, workers=1):
        runs.append((len(jobs), workers))
        return run_blocks(jobs, workers)

    monkeypatch.setattr(sd, "parallel_map", recorded)
    xp, yp = _sample_files(tmp_path, n=400)
    argv = ["--command", "sd-test", "--x-file", xp, "--workers", "2"]
    assert main(argv + (["--y-file", yp] if two_sample else [])) == EXIT_OK
    assert runs == [(4, 2)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", [
    ["--command", "table2", "--reps", "1", "--n", "100", "--h", "0.9"],
    ["--command", "table3", "--reps", "1", "--n", "40", "--draws", "20"],
    ["--command", "limit", "--region", "interval:[-1,0]", "--theta", "0",
     "--alpha", "0.05,0.1", "--reps", "500"],
])
def test_no_worker_outlives_main(capsys, argv):
    assert main(argv + ["--workers", "2"]) == EXIT_OK
    assert multiprocessing.active_children() == []


def _lazy_modules_loaded(call, module="ineqtest.cli"):
    """Run ``call`` in a fresh interpreter that has imported ``module``;
    returns its exit code or value and which of the lazily imported
    modules it loaded."""
    script = ("import sys\n"
              f"import {module}\n"
              "try:\n"
              f"    code = {call}\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures.process',\n"
              "                               'scipy') if m in sys.modules))\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_two_sample_sd_test_runs_in_one_process(tmp_path):
    # a posterior of one 500-draw block starts no pool, so this sd-test runs
    # in its own process at any worker count
    xp, yp = _sample_files(tmp_path)
    call = (f"ineqtest.cli.main(['--command', 'sd-test', '--x-file', {xp!r}, "
            f"'--y-file', {yp!r}, '--dd-boot', '49', '--draws', '200', '--workers', '2'])")
    assert _lazy_modules_loaded(call) == b"0 ['scipy']"


def test_cli_import_loads_no_process_machinery():
    # the pool is imported only when a call runs more than one process, and
    # scipy only when a call needs a special function, which table3 never does
    call = ("ineqtest.cli.main(['--command', 'table3', '--reps', '1', '--n', '40', '--draws', "
            "'20', '--sigma-eps', '0.1', '--workers', '1'])")
    assert _lazy_modules_loaded(call) == b"0 []"


@pytest.mark.parametrize("module,call,code", [
    ("ineqtest.cli", "ineqtest.cli.main(['--help'])", EXIT_OK),
    ("ineqtest.cli", "ineqtest.cli.main(['--command', 'sd-test'])", EXIT_CONFIG),
    ("ineqtest", "None", None),
], ids=["help", "config-error", "bare-import"])
def test_cold_paths_load_no_scipy(module, call, code):
    # --help, a config error and a bare import never touch a special function
    assert _lazy_modules_loaded(call, module) == f"{code} []".encode()


def test_package_import_loads_nothing():
    loaded = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ineqtest.'))"
    assert _lazy_modules_loaded(loaded, "ineqtest") == b"[] []"


def test_translog_import_loads_only_its_dependencies():
    loaded = ("sorted(m for m in ('ineqtest.stochastic_dominance', 'ineqtest.limit_experiment')"
              " if m in sys.modules)")
    assert _lazy_modules_loaded(loaded, "ineqtest.translog") == b"[] []"


def test_two_worker_table3_loads_no_scipy():
    # the CLI loads scipy before forking for every command but table3
    call = ("ineqtest.cli.main(['--command', 'table3', '--reps', '1', '--n', '40', '--draws', "
            "'20', '--sigma-eps', '0.1,0.2', '--workers', '2'])")
    assert _lazy_modules_loaded(call) in (
        b"0 []", b"0 ['concurrent.futures.process', 'multiprocessing']")


def test_two_worker_table2_forks_with_scipy_loaded():
    # the workers inherit one copy of scipy.special instead of each
    # loading their own
    call = ("ineqtest.cli.main(['--command', 'table2', '--reps', '1', '--n', '100', "
            "'--h', '0.9', '--workers', '2'])")
    assert _lazy_modules_loaded(call) in (
        b"0 ['scipy']", b"0 ['concurrent.futures.process', 'multiprocessing', 'scipy']")


def test_pool_loads_no_scipy():
    loaded = _lazy_modules_loaded("ineqtest.mc_harness.parallel_map([int, int], 2)",
                                  "ineqtest.mc_harness")
    assert loaded in (b"[0, 0] []",
                      b"[0, 0] ['concurrent.futures.process', 'multiprocessing']")


def test_first_special_function_call_loads_scipy():
    assert _lazy_modules_loaded("ineqtest.distributions.std_normal_cdf(0.0)",
                                "ineqtest.distributions") == b"0.5 ['scipy']"


def test_failing_cell_reports_alike_across_workers(monkeypatch, capsys):
    # the workers are forks, so they inherit the patch; the lowest failing
    # cell decides the error although the last cells are handed out first
    real = cli.type1_error_sim

    def fragile(dgp, alpha, reps, draws, master_seed):
        def one_rep(indices, rng):
            if dgp.sigma_eps >= 0.2 and indices[0] == reps - 1:
                raise RankDeficientError(f"rank lost at sigma_eps {dgp.sigma_eps}")
            return [0]

        run_replications(one_rep, reps, master_seed, 1)
        return real(dgp, alpha, reps=reps, draws=draws, master_seed=master_seed)

    monkeypatch.setattr(cli, "type1_error_sim", fragile)
    seen = []
    for workers in ("1", "2"):
        code = main(["--command", "table3", "--reps", "2", "--draws", "20", "--n", "40",
                     "--sigma-eps", "0.1,0.2,0.3", "--alpha", "0.1", "--workers", workers])
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert seen[0] == seen[1]
    assert seen[0] == (EXIT_NUMERICAL, "", "numerical failure: replication 1 failed: "
                       "RankDeficientError('rank lost at sigma_eps 0.2')\n")
