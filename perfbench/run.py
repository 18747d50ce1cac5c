"""fairscarce benchmark: one command for every workload and both modes.

    python3 perfbench/run.py --workload attr_phase --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. It builds the workload's inputs
from ``--seed`` in a set-up process (several times, timing each), runs the
timed region in a second process, checks what the program wrote, and prints
each metric by name and unit. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics from a traced repetition. A full report (environment,
output digests, every repetition) goes to ``.perfbench/reports/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "FAIRSCARCE_WORKERS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def stage(name: str, args, work: Path, deadline: float, root: Path) -> dict:
    """Run one stage process to completion and return its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "stage.py"), name, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} stage ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} stage exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def attempts(timed: dict) -> tuple[int, int]:
    """(attempted, failed): sweep cells over all repetitions, or phase-1
    runs for attr_phase (a failed run ends the stage instead)."""
    reps = timed["reps"]
    if "cells" in reps[0]:
        return sum(r["cells"] for r in reps), sum(r["cells_failed"] for r in reps)
    return len(reps), 0


def end_to_end(setup: dict, timed: dict) -> dict[str, float]:
    attempted, failed = attempts(timed)
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": statistics.median(timed["walls"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
        "accuracy": statistics.median(r["accuracy"] for r in timed["reps"]),
    }


def per_layer(setup: dict, timed: dict) -> dict[str, float]:
    """Layer metrics of the traced repetition, plus the phase-1 readings of
    whichever model fed the timed region."""
    out = dict(timed["layer"])
    rep = timed["reps"][-1]
    readings = rep if "mean_u" in rep else setup["fixture"]
    for key in ("mean_u", "proxy_acc", "certain_H", "certain_group0_frac"):
        out[f"attribute.{key}"] = readings[key]
    epochs = rep.get("epochs_run", 0)
    out["attribute.epochs"] = epochs
    out["attribute.epoch_s"] = (out["attribute.train_s"] / epochs) if epochs else 0.0
    out["synthdata.write_corpus_s"] = statistics.median(setup["synthdata.write_corpus_s"])
    out["metrics.dp_median"] = rep.get("dp_median", 0.0)
    out["harness.cells"] = rep.get("cells", 0)
    out["harness.cells_failed"] = rep.get("cells_failed", 0)
    return out


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (root / "src" / "fairscarce" / "__init__.py").is_file():
        print("error: run from the root of a fairscarce checkout (src/fairscarce missing)",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = root / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = stage("setup", args, work, deadline, root)
        timed = stage("timed", args, work, deadline, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(setup, timed) if args.trace else end_to_end(setup, timed)
    attempted, failed = attempts(timed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = setup["failures"] + timed["failures"]

    digests = dict(timed["reps"][0]["digests"])
    if "proxies_sha256" in setup["fixture"]:
        digests["proxies.csv"] = setup["fixture"]["proxies_sha256"]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": timed["environment"], "digests": digests, "setup": setup,
              "walls": timed["walls"], "reps": timed["reps"], "metrics": values,
              "failures": failures}
    reports = base / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (reports / f"{stem}-spans.json").write_text(json.dumps(timed["spans"]) + "\n")

    print(f"environment: {json.dumps(timed['environment'])}")
    print(f"digests: {json.dumps(digests)}")
    print(f"repetitions: {len(timed['reps'])}  set-ups: {len(setup['setup_s'])}")
    for m in wanted:
        direction = f"  ({m['better']} is better)" if "better" in m else ""
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}{direction}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
