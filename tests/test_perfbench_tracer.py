"""The benchmark's tracer binds package names by ``owner.__dict__[attr]``,
so a renamed or deleted target breaks every traced run.  This checks that
each target still exists and that install and remove leave it as it was."""

import importlib
import sys
from pathlib import Path


def test_tracer_install_remove_restores_every_target(monkeypatch):
    # no bytecode cache is left in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.remove()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"
