"""Benchmark of the pmcgraph command line: four workloads, two kinds of run.

Run from the repository root:

    python3 perfbench/run.py --workload annulus-verify --seed 0 \\
        --seconds 45 --trace 0

BENCHMARK.json lists two of the workloads.  ``disc-stall`` and ``ledger``
are left out of it because their times are not steady enough to gate
changes (see PREDICTIONS.md); run them by hand to measure the layers only
they reach.

Each workload runs in-process calls to ``pmcgraph.cli.main`` on inputs
written during set-up and checks every operation's outputs.  One untimed
warm-up operation fills caches and finishes lazy imports.  Then the
operation repeats while the next one, at the median pace so far, would end
within ``--seconds`` of operation time (at least one timed operation).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and the figures behind the metrics.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start to the first operation:
imports plus input generation), ``wall_s`` (median seconds per operation)
and ``peak_rss_mib`` (peak resident memory of this process).

``--trace 1`` first runs the operations untraced, then again (without a
second warm-up) with spans recorded around the calls into each pmcgraph
layer (see spans.py), and reports the per-layer metrics of layers.py plus
``trace.overhead_s``, the traced minus the untraced median operation time.
PREDICTIONS.md says which layer metric should move which end-to-end metric
on which workload.

The program is imported from ``src/`` next to this directory; nothing is
installed.  Outputs go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
FIXTURE = ROOT / "tests" / "fixtures" / "annulus_trace.json"
WORKLOAD_NAMES = ("annulus-verify", "disc-stall", "polygon-field", "ledger")
# BLAS/OpenMP pools are capped below nproc: the program is single-threaded,
# and one BLAS thread keeps timings steady when other processes share cores
THREAD_CAP = 1
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
# no new operation starts once one more would end past this many seconds
# after process start
RUN_BUDGET_S = 150.0
T_START = time.monotonic()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="set up in DIR, print the ready time and exit")
    return p.parse_args(argv)


def set_up(workload, seed, inputs_dir):
    """Import the program and write the workload's inputs."""
    import workloads
    return workloads.WORKLOADS[workload](inputs_dir, seed)


def setup_sample(args, probe_dir):
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", str(probe_dir)]
    spawned = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    ready = float(done.stdout.strip().splitlines()[-1])
    shutil.rmtree(probe_dir, ignore_errors=True)
    return ready - spawned


def operate(workload, out, op, failures, tracer=None):
    """One operation, timed and then checked; returns its wall seconds."""
    from workloads import CheckFailed

    if tracer is not None:
        tracer.op = op
    start = time.perf_counter()
    try:
        codes = workload.operate(out)
    except Exception:  # a crash in the program is a failed operation
        codes = None
        failures.append(f"op {op}: {traceback.format_exc(limit=3)}")
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
    if codes is not None:
        try:
            workload.check(out, codes)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            failures.append(f"op {op}: {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    return wall


def run_ops(workload, phase_dir, seconds, warm_up, tracer=None):
    """Timed operations while the next fits in ``seconds``; checks each.

    Returns the warm-up's wall seconds (None without one), the timed
    operations' wall seconds and the failures of both.
    """
    failures = []
    warm = (operate(workload, phase_dir / "warm-up", "warm-up", failures)
            if warm_up else None)
    walls = []
    while True:
        walls.append(operate(workload, phase_dir / f"op{len(walls)}",
                             len(walls), failures, tracer))
        pace = statistics.median(walls)
        if math.fsum(walls) + pace > seconds:
            break
        if time.monotonic() - T_START + max(walls) > RUN_BUDGET_S:
            break
    return warm, walls, failures


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct <= 50:
        return None
    return {"percentile": pct,
            "value": statistics.quantiles(samples, n=100)[pct - 1]}


def environment():
    import numpy as np
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return {k: info.get(k) for k in ("name", "version",
                                          "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAP_VARS},
        "machine": platform.machine(),
    }


def emit(label, obj):
    print(f"{label}: {json.dumps(obj, sort_keys=True)}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_report(args, tracer, walls, traced_walls):
    """Per-layer metrics over the traced operations, plus the detail lines."""
    import layers

    views = [layers.OpView(tracer.spans, op) for op in range(len(traced_walls))]
    per_op = [layers.op_layer_metrics(v) for v in views]
    undefined = sorted(set().union(*(u for _, u in per_op)))
    unmeasured = layers.unmeasured_metrics(tracer.unmeasured)
    values = {}
    unsteady = []
    for name, unit, _ in layers.METRICS:
        series = [m[name] for m, _ in per_op]
        if unit in layers.COUNT_UNITS:
            values[name] = statistics.median_low(series)
            if len(set(series)) > 1:
                unsteady.append({"metric": name, "per_op": series})
        else:
            values[name] = statistics.median(series)
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(walls))
    values["trace.unmeasured_hooks"] = len(tracer.unmeasured)

    solves = layers.solve_breakdown(views[-1])
    emit("layers", {
        "unmeasured_hooks": tracer.unmeasured,
        "unmeasured_metrics": unmeasured,
        "not_applicable": undefined,
        "counts_repeat": not unsteady,
        "count_mismatches": unsteady,
        "waiting": "not applicable: every layer runs on the calling thread "
                   "and nothing queues",
        "factor_s_per_call_by_n_dof": layers.factor_times_by_size(views[-1]),
        "self_s_by_span": layers.self_times(views[-1]),
        "solves": solves,
        "untraced_walls_s": walls,
        "traced_walls_s": traced_walls,
    })
    if args.workload == "annulus-verify":
        emit("baseline", roadmap_baseline(solves))

    units = dict(layers.UNITS, **{"trace.overhead_s": "s",
                                  "trace.unmeasured_hooks": "count"})
    return {name: metric(v, units[name]) for name, v in values.items()}


def roadmap_baseline(solves):
    """Compare the traced annulus solves with the ROADMAP's baseline figures.

    Expected: 30 assemblies and 30 factorizations per solve; Newton
    iterations per step at 1/32 equal to the committed homotopy trace; the
    1/64 solve takes about 16-17 s with factorization at least 70 % of it.
    Disagreements are reported, never corrected.
    """
    disagreements = []
    for s in solves:
        for key in ("assemblies", "factorizations"):
            if s[key] != 30:
                disagreements.append(f"{key} = {s[key]} at n_dof {s['n_dof']}")
    if len(solves) != 2:
        disagreements.append(f"{len(solves)} solves, expected 2")
        return {"solves": solves, "agrees": False,
                "disagreements": disagreements}
    coarse, fine = sorted(solves, key=lambda s: s["n_dof"] or 0)
    try:
        fixture = json.loads(FIXTURE.read_text())
        expected = [step["newton_iters"] for step in fixture["trace"]]
    except (OSError, ValueError, KeyError) as exc:
        expected = None
        disagreements.append(f"trace fixture unreadable: {exc}")
    if expected is not None and coarse["step_iters"] != expected:
        disagreements.append(f"1/32 Newton iterations {coarse['step_iters']} "
                             f"vs fixture {expected}")
    if not 16.0 * 0.9 <= fine["wall_s"] <= 17.0 * 1.1:
        disagreements.append(f"1/64 solve took {fine['wall_s']:.2f} s, "
                             "not about 16-17 s")
    if fine["factor_share"] < 0.70:
        disagreements.append(f"factorization share {fine['factor_share']:.3f}"
                             " below 0.70")
    return {"solves": solves, "agrees": not disagreements,
            "disagreements": disagreements}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_CAP_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not (SRC / "pmcgraph" / "__init__.py").is_file():
        print(f"error: no pmcgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        print(repr(time.monotonic()), flush=True)
        return 0

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_samples = [setup_sample(args, run_dir / f"probe{k}")
                     for k in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    workload = set_up(args.workload, args.seed, run_dir / "inputs")
    in_process_setup = time.perf_counter() - start

    warm, walls, failures = run_ops(workload, run_dir / "untraced",
                                    args.seconds, warm_up=True)
    emit("env", environment())
    detail = {
        "workload": args.workload, "seed": args.seed,
        "setup_samples_s": setup_samples,
        "in_process_setup_s": in_process_setup,
        "warm_up_s": warm, "samples": len(walls), "walls_s": walls,
        "tail": tail_percentile(walls) or "omitted: fewer than ten samples "
                                          "above any percentile over the median",
        "loop": "closed: one operation at a time, each after the last ends",
    }

    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, traced_walls, traced_failures = run_ops(
                workload, run_dir / "traced", args.seconds, False, tracer)
        finally:
            tracer.uninstall()
        failures += traced_failures
        attempted = 1 + len(walls) + len(traced_walls)
        metrics = layer_report(args, tracer, walls, traced_walls)
        with open(run_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    else:
        attempted = 1 + len(walls)
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB"),
        }

    detail.update(workload.details())
    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = failures
    emit("detail", detail)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
