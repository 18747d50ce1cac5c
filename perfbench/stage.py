"""One stage of a benchmark run, in its own process: ``setup`` builds the
inputs several times, ``timed`` runs the timed region. ``run.py`` starts both
and reads the JSON object each prints as its last line.

The timed stage runs apart from set-up so that its peak resident memory is
that of the timed region alone.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import fairscarce
import tracer
import workloads

SETUP_REPEATS = 3

def environment() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "fairscarce_workers": int(os.environ["FAIRSCARCE_WORKERS"])}


def run_setup(args) -> dict:
    """Set the inputs up SETUP_REPEATS times from scratch; the last copy stays."""
    times, corpus_times, fixtures = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(args.work, ignore_errors=True)
        args.work.mkdir(parents=True)
        timings: dict = {}
        start = time.perf_counter()
        fixtures.append(workloads.setup(args.workload, args.work, args.seed, timings))
        times.append(time.perf_counter() - start)
        corpus_times.append(timings["synthdata.write_corpus_s"])
    failures = []
    if any(f != fixtures[0] for f in fixtures[1:]):
        failures.append("set-up repetitions built different fixtures")
    return {"setup_s": times, "synthdata.write_corpus_s": corpus_times,
            "fixture": fixtures[-1], "failures": failures}


def timed_rep(args) -> tuple[float, dict]:
    """One repetition: its wall time and what it wrote."""
    workloads.prepare_rep(args.workload, args.work)
    start = time.perf_counter()
    outcome = workloads.run_rep(args.workload, args.work, args.seed)
    wall = time.perf_counter() - start
    return wall, workloads.summarize_rep(args.workload, args.work, outcome)


def run_timed(args) -> dict:
    """Repeat the timed region while the next repetition would end less than
    half a repetition past ``seconds`` (at least once). With tracing, two
    untraced repetitions and then a traced one instead; the tracing overhead
    is the traced time minus the second, warm untraced time."""
    begin = time.perf_counter()
    wall, rep = timed_rep(args)
    walls, reps = [wall], [rep]
    # later repetitions can only add allocator growth, not pipeline memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer, trace_failures, spans = None, [], []
    if args.trace:
        warm_wall, rep = timed_rep(args)
        walls.append(warm_wall); reps.append(rep)
        rec = tracer.Tracer()
        rec.install(fairscarce)
        try:
            traced_wall, rep = timed_rep(args)
        finally:
            rec.uninstall()
        reps.append(rep)
        layer = tracer.layer_metrics(rec.spans)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - warm_wall
        layer["reduction.oracle_wall_frac"] = layer["reduction.oracle_s"] / traced_wall
        trace_failures = workloads.check_trace(args.workload, layer, rep)
        spans = [s.as_dict() for s in rec.spans]
    else:
        while time.perf_counter() - begin + statistics.median(walls) / 2 <= args.seconds:
            wall, rep = timed_rep(args)
            walls.append(wall); reps.append(rep)
    return {
        "environment": environment(),
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "reps": reps,
        "layer": layer,
        "spans": spans,
        "failures": workloads.check_outputs(args.workload, reps) + trace_failures,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stage", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_setup(args) if args.stage == "setup" else run_timed(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
