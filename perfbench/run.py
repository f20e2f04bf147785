"""Benchmark of the ineqtest command line, one workload per run.

    python3 perfbench/run.py --workload dominance --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the run times the workload's
CLI calls (all of them at ``--workers 1``, then all at ``--workers
nproc``) in whole rounds for about ``--seconds`` seconds and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it alternates
untraced and traced passes at ``--workers 1`` and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in its own
process.  The last line of standard output is the result as JSON; the
line before it is the full report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import ineqtest.cli
sys.exit(ineqtest.cli.main(sys.argv[2:]))
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_package():
    if not (SRC / "ineqtest" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'ineqtest'}")
    sys.path.insert(0, str(SRC))
    import ineqtest.cli

    if Path(ineqtest.cli.__file__).resolve().parent != SRC / "ineqtest":
        fail(f"imported {ineqtest.cli.__file__}, not the checkout's package")
    return ineqtest.cli


def nproc():
    return len(os.sched_getaffinity(0))


def invoke(cli, argv):
    """One in-process CLI call through ``ineqtest.cli.main``; returns the
    exit code, standard output and wall seconds of the call alone."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


class Ledger:
    """Operations attempted and failed, and the problems found.  A check
    verdict is cached by (call, output): an identical output of a later
    round gets the same verdict without recomputing the references."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = {}
        self._verdicts = {}

    def record(self, call, code, out, reference_out=None):
        self.attempted += 1
        if code != call.expect_exit or (call.check is None and out):
            self.failed += 1
            reason = f"exit {code}, expected {call.expect_exit}" + (
                f", printed {len(out.splitlines())} lines" if out else "")
            self.failures[call.label] = reason
            return
        if call.check is None:
            return
        if reference_out is not None and out != reference_out:
            self.problems.append(f"{call.label}: output differs across worker counts")
        key = (call.label, out)
        if key not in self._verdicts:
            self._verdicts[key] = call.check(workloads.parse_csv(out))
            self.problems += [f"{call.label}: {p}" for p in self._verdicts[key]]


def run_pass(cli, workload, workers, ledger, reference=None):
    """All of the workload's calls at one worker count; returns the summed
    call seconds and the outputs."""
    total = 0.0
    outputs = []
    for i, call in enumerate(workload.calls):
        code, out, elapsed = invoke(cli, call.argv + ["--workers", str(workers)])
        total += elapsed
        outputs.append(out)
        ledger.record(call, code, out, None if reference is None else reference[i])
    return total, outputs


def setup_seconds(warmup):
    """Wall times of fresh interpreters that import ineqtest.cli and make
    the warm-up call."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), *warmup],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"warm-up call failed in a fresh interpreter: {proc.stderr.decode()[-500:]}")
    return samples


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(cli, workload, seconds, ledger):
    """Whole rounds (every call at --workers 1, then at --workers nproc)
    while the next round is expected to end within ``seconds``."""
    walls, walls_n = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, outputs = run_pass(cli, workload, 1, ledger)
        wall_n, _ = run_pass(cli, workload, nproc(), ledger, reference=outputs)
        walls.append(wall)
        walls_n.append(wall_n)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return walls, walls_n


def measure_traced(cli, workload, seconds, ledger, trace_path):
    """Alternating untraced and traced passes at --workers 1.  Per-layer
    metrics are the per-pass medians; the spans of the last traced pass
    are written to ``trace_path``."""
    from tracing import Tracer, layer_metrics

    sd_cells = [f"{h0}.n{n}.h{h}.{c}.{m}" for (h0, n, h, c, m) in refs.TABLE2_RATES]
    tl_cells = [f"s{s}.a{a}" for s in workloads.SIGMAS for a in workloads.CURVATURE_ALPHAS]
    le_cells = ["interval", "orthant", "signagree"]
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        wall, outputs = run_pass(cli, workload, 1, ledger)
        plain.append(wall)
        tracer.install()
        try:
            wall, _ = run_pass(cli, workload, 1, ledger, reference=outputs)
        finally:
            tracer.remove()
        traced.append(wall)
        spans = tracer.take()
        per_pass.append(layer_metrics(spans, sd_cells, tl_cells, le_cells))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    trace_path.write_text(json.dumps(
        {"span_fields": ["name", "start_s", "end_s", "parent", "attrs"], "spans": spans}))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}


def run_workload(args, spec):
    cli = import_package()
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger()
        code, out, _ = invoke(cli, workload.warmup)
        if code != 0:
            fail(f"warm-up call exited {code}")
        for side_check in workload.side_checks:
            ledger.problems += side_check()
        if args.trace:
            metrics, detail = measure_traced(
                cli, workload, args.seconds, ledger,
                OUT / f"trace-{args.workload}-seed{args.seed}.json")
            declared = spec["per_layer"]
        else:
            setup = setup_seconds(workload.warmup)
            walls, walls_n = measure(cli, workload, args.seconds, ledger)
            metrics = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                       "wall_s.nproc": statistics.median(walls_n),
                       "peak_rss_mb": peak_rss_mb()}
            detail = {"setup_s": setup, "wall_s": walls, "wall_s.nproc": walls_n}
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    import numpy
    import scipy

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": nproc(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "operations": {"attempted": ledger.attempted, "failed": ledger.failed,
                       "failures": ledger.failures},
        "problems": ledger.problems, "rounds": detail,
    }
    for problem in ledger.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    result = {"correct": not ledger.problems, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(report))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process; the combined result prefixes each
    metric with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)} or all")
    run_workload(args, spec)


if __name__ == "__main__":
    main()
