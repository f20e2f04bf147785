"""The benchmark's tracer binds package names by ``owner.__dict__[attr]``,
so a renamed or deleted target breaks every traced run.  This checks that
each target still exists and that install and remove leave it as it was,
and that a traced run of each table still reads the arguments and results
the tracer's metrics come from."""

import importlib
import sys
from pathlib import Path

import pytest

from ineqtest import cli


@pytest.fixture
def tracing(monkeypatch):
    # no bytecode cache is left in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_tracer_install_remove_restores_every_target(tracing):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.remove()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"


def test_traced_runs_feed_the_layer_metrics(tracing, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["table2", "--reps", "1", "--n", "100"],
                     ["table3", "--reps", "1", "--sigma-eps", "0.1"],
                     ["limit", "--region", "signagree", "--reps", "200"]):
            assert cli.main(["--command", *argv, "--workers", "1"]) == cli.EXIT_OK
    finally:
        tracer.remove()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.take(), [], [], [])
    assert metrics["stochastic_dominance.posterior.calls"] > 0
    assert metrics["translog.posterior_nsd.calls"] > 0
    assert metrics["mc_harness.reps"] > 0
