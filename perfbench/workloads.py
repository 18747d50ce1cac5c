"""The benchmark's three workloads: fixture set-up, one timed repetition, and
the checks on what that repetition wrote.

attr_phase   phase 1 on the full demo corpus: tabular load/encode/save, the
             nn engine and the MC-dropout gate do the work, reduction none.
fair_sweep   exp-grad sweep (certain, weighted, proxy-dnn under dp) on a
             phase-1 fixture: short oracle calls plus the hull LP.
plain_sweep  unconstrained sweep (vanilla, uncertain with conformal sets) on
             the same fixture: one long oracle call per cell, no constraint
             set, LP or multiplier loop. A change to the exp-grad loop alone
             should leave it unchanged; an oracle change moves both sweeps.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from fairscarce import attribute, harness, synthdata, tabular, uncertainty

import tracer

WORKLOADS = ("attr_phase", "fair_sweep", "plain_sweep")

DEMO_ROWS = 48842  # the make-demo default
# phase-1 schedule of attr_phase: the gate runs in the 4 ramp epochs and is
# skipped in the last one; min_epochs = epochs rules out an early stop
ATTR_SCHEDULE = {"epochs": 5, "ramp_epochs": 4, "min_epochs": 5}

# sweep fixture: a corpus and schedule small enough to build three times per
# run; at the 0.6 entropy quantile proxy group 0 held 12% to 27% of the
# certain rows for seeds 0-39 (at the median, as little as 3%)
FIXTURE_ROWS = 8000
FIXTURE_SCHEDULE = {"epochs": 20, "ramp_epochs": 3, "min_epochs": 20, "lr": 0.005}
# H is this quantile of the fixture's proxy entropies, so a phase-1 change
# cannot resize the certain set
CERTAIN_QUANTILE = 0.6
MIN_GROUP_SHARE = 0.05  # least share of each proxy group on the certain side
CONFORMAL_EPSILON = 0.05
# least share of a traced sweep's wall time spent in oracle calls
MIN_ORACLE_WALL_FRAC = 0.9

# fair_sweep caps exp-grad at 2 iterations: uncapped, cells stop after a
# data-dependent number of iterations and the oracle-call count (hence the
# timing) moves with the seed; capped, every cell makes 5 oracle calls
SWEEP_CONFIGS = {
    "fair_sweep": ("variants = certain, weighted, proxy-dnn\n"
                   "constraint = dp\neps_grid = 0.05\nseeds = 2\n"
                   "exp_grad_iters = 2\noracle_max_iter = 600\n"),
    "plain_sweep": ("variants = vanilla, uncertain\n"
                    f"uncertainty_source = conformal({CONFORMAL_EPSILON})\n"
                    "constraint = dp\neps_grid = 0.05\nseeds = 3\n"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_corpus(work: Path, rows: int, seed: int, timings: dict) -> tuple[Path, Path]:
    csv_path, schema_path = work / "corpus.csv", work / "corpus.schema"
    start = time.perf_counter()
    synthdata.write_corpus(csv_path, rows, seed)
    timings["synthdata.write_corpus_s"] = time.perf_counter() - start
    synthdata.write_schema(schema_path)
    return csv_path, schema_path


def _proxy_readings(artifacts: harness.RunArtifacts, threshold: float) -> dict:
    """Phase-1 outputs that explain quality shifts downstream."""
    d1 = artifacts.split.d1
    order = np.argsort(d1.sample_ids)
    a_hat = np.array([r.a_hat for r in artifacts.proxies])
    u = np.array([r.u for r in artifacts.proxies])
    certain = u <= threshold
    return {
        "mean_u": float(u.mean()),
        "proxy_acc": float((a_hat == tabular.oracle_sensitive(d1)[order]).mean()),
        "certain_H": threshold,
        "certain_rows": int(certain.sum()),
        "certain_group0_frac": float((a_hat[certain] == 0).mean()) if certain.any() else 0.0,
    }


def _batches_per_epoch(split: tabular.ScarceSplit, cfg: attribute.AttrTrainConfig) -> int:
    """Training batches per epoch: d2 minus its validation and calibration
    slices, plus every d1 row."""
    n2 = len(split.d2)
    n_train = n2 - int(round(cfg.val_fraction * n2)) - int(round(cfg.calib_fraction * n2))
    return math.ceil((n_train + len(split.d1)) / cfg.batch_size)


# --- set-up ---------------------------------------------------------------------

def setup(workload: str, work: Path, seed: int, timings: dict) -> dict:
    """Build the workload's inputs under ``work`` from the seed alone; the
    time spent writing the corpus goes into ``timings``."""
    if workload == "attr_phase":
        _write_corpus(work, DEMO_ROWS, seed, timings)
        return {}
    csv_path, schema_path = _write_corpus(work, FIXTURE_ROWS, seed, timings)
    run_dir = work / "fixture"
    cfg = attribute.AttrTrainConfig(seed=seed, **FIXTURE_SCHEDULE)
    artifacts = harness.run_attribute_phase(csv_path, schema_path, run_dir,
                                            seed=seed, train_config=cfg)
    u = np.array([r.u for r in artifacts.proxies])
    threshold = float(np.quantile(u, CERTAIN_QUANTILE))
    readings = _proxy_readings(artifacts, threshold)
    share0 = readings["certain_group0_frac"]
    if not MIN_GROUP_SHARE <= share0 <= 1.0 - MIN_GROUP_SHARE:
        raise RuntimeError(f"fixture guard: proxy group 0 holds {share0:.3f} of the "
                           f"certain rows at H={threshold:.4f}; both groups need "
                           f">= {MIN_GROUP_SHARE}")
    cal = uncertainty.conformal_calibrate(artifacts.calib_probs, artifacts.calib_truth,
                                          CONFORMAL_EPSILON)
    ids = sorted(r.sample_id for r in artifacts.proxies)
    n_uncertain = sum(not s.certain for s in
                      uncertainty.conformal_sets(cal, artifacts.d1_eval_probs, ids))
    if n_uncertain == 0:
        raise RuntimeError("fixture guard: the conformal uncertain side is empty")
    for name, body in SWEEP_CONFIGS.items():
        (work / f"{name}.cfg").write_text(
            f"run_dir = {run_dir}\nout_dir = {work / name}\nbase_seed = {seed}\n"
            f"H = {threshold!r}\n" + body)
    return {"conformal_uncertain_rows": n_uncertain,
            "attr_test_acc": artifacts.config["test_attr_accuracy"],
            "proxies_sha256": sha256(run_dir / "proxies.csv"), **readings}


# --- one timed repetition ---------------------------------------------------------

def prepare_rep(workload: str, work: Path) -> None:
    """Clear the previous repetition's outputs (outside the timed region)."""
    target = work / ("attr_run" if workload == "attr_phase" else workload)
    shutil.rmtree(target, ignore_errors=True)


def run_rep(workload: str, work: Path, seed: int):
    """The timed region: the public entry points the CLI calls."""
    if workload == "attr_phase":
        cfg = attribute.AttrTrainConfig(seed=seed, **ATTR_SCHEDULE)
        return harness.run_attribute_phase(work / "corpus.csv", work / "corpus.schema",
                                           work / "attr_run", seed=seed, train_config=cfg)
    return harness.run_sweep(harness.parse_sweep_config(work / f"{workload}.cfg"))


def summarize_rep(workload: str, work: Path, outcome) -> dict:
    """What one repetition produced: digests, quality and the counts the
    checks need."""
    if workload == "attr_phase":
        run_dir = work / "attr_run"
        cfg = attribute.AttrTrainConfig(**ATTR_SCHEDULE)
        u = np.array([r.u for r in outcome.proxies])
        p = np.array([r.p_group for r in outcome.proxies])
        a_hat = np.array([r.a_hat for r in outcome.proxies])
        return {
            "digests": {"proxies.csv": sha256(run_dir / "proxies.csv")},
            "accuracy": outcome.config["test_attr_accuracy"],
            "epochs_run": outcome.config["epochs_run"],
            "d1_rows": len(outcome.split.d1),
            "proxy_rows": len(outcome.proxies),
            "proxies_in_range": bool(((u >= 0) & (u <= uncertainty.LN2 + 1e-12)).all()
                                     and ((p >= 0) & (p <= 1)).all()
                                     and (a_hat == (p >= 0.5)).all()),
            "batches_per_epoch": _batches_per_epoch(outcome.split, cfg),
            **_proxy_readings(outcome, float(np.quantile(u, CERTAIN_QUANTILE))),
        }
    out = work / workload
    manifest = json.loads(outcome.manifest_path.read_text())
    with open(outcome.results_path, newline="", encoding="utf-8") as fh:
        results = list(csv.DictReader(fh))
    accs = [float(r["accuracy"]) for r in results]
    return {
        "digests": {name: sha256(out / name) for name in ("results.csv", "pareto.csv")},
        "cells": len(manifest["cells"]),
        "cells_failed": sum(c["status"] != "ok" for c in manifest["cells"]),
        "result_rows": len(results),
        "pareto_rows": len((out / "pareto.csv").read_text().splitlines()) - 1,
        "accuracies": accs,
        "gaps": [float(r[k]) for r in results for k in ("dp", "eop", "eod")],
        "accuracy": float(np.median(accs)) if accs else 0.0,
        "dp_median": float(np.median([float(r["dp"]) for r in results])) if results else 0.0,
    }


# --- checks -----------------------------------------------------------------------

def check_outputs(workload: str, reps: list[dict]) -> list[str]:
    """Failed output checks over every repetition (empty when all pass)."""
    failures = []
    first = reps[0]
    if any(r["digests"] != first["digests"] for r in reps[1:]):
        failures.append("repetitions of the same inputs wrote different outputs")
    for r in reps:
        if workload == "attr_phase":
            if r["epochs_run"] != ATTR_SCHEDULE["epochs"]:
                failures.append(f"phase 1 ran {r['epochs_run']} epochs, "
                                f"expected {ATTR_SCHEDULE['epochs']}")
            if r["proxy_rows"] != r["d1_rows"]:
                failures.append(f"{r['proxy_rows']} proxies for {r['d1_rows']} d1 rows")
            if not r["proxies_in_range"]:
                failures.append("a proxy probability, entropy or label is out of range")
            if not 0.5 <= r["accuracy"] <= 1.0:
                failures.append(f"attribute test accuracy {r['accuracy']} outside [0.5, 1]")
            continue
        if r["cells_failed"]:
            failures.append(f"{r['cells_failed']} of {r['cells']} manifest cells failed")
        if r["result_rows"] != r["cells"]:
            failures.append(f"results.csv has {r['result_rows']} rows for {r['cells']} cells")
        if r["pareto_rows"] < 1:
            failures.append("pareto.csv is empty")
        if not all(0.5 <= a <= 1.0 for a in r["accuracies"]):
            failures.append(f"a cell accuracy lies outside [0.5, 1]: {r['accuracies']}")
        if not all(0.0 <= g <= 1.0 for g in r["gaps"]):
            failures.append("a fairness gap lies outside [0, 1]")
    return sorted(set(failures))


def check_trace(workload: str, layer: dict[str, float], rep: dict) -> list[str]:
    """Counter cross-checks and the layer split each workload must show."""
    failures = []
    must_run = {
        "attr_phase": ("tabular.prepare_split_s", "tabular.save_dataset_bytes",
                       "nn.value_and_grad_calls", "nn.adam_step_calls", "nn.forward_calls",
                       "attribute.gate_calls", "attribute.proxy_rows", "attribute.save_s"),
        "fair_sweep": ("tabular.load_dataset_s", "harness.load_run_s",
                       "harness.run_cell_calls", "reduction.oracle_calls",
                       "reduction.exp_grad_calls", "reduction.exp_grad_iterations",
                       "reduction.linprog_calls", "metrics.evaluate_report_calls"),
        "plain_sweep": ("tabular.load_dataset_s", "harness.load_run_s",
                        "harness.run_cell_calls", "reduction.oracle_calls",
                        "reduction.unconstrained_calls", "uncertainty.conformal_calibrate_calls",
                        "uncertainty.conformal_sets_calls", "metrics.evaluate_report_calls"),
    }[workload]
    must_stay_zero = {
        "attr_phase": ("reduction.oracle_calls", "harness.run_cell_calls"),
        "fair_sweep": ("nn.value_and_grad_calls", "nn.adam_step_calls", "nn.forward_calls",
                       "attribute.gate_calls"),
        "plain_sweep": ("nn.value_and_grad_calls", "nn.adam_step_calls", "nn.forward_calls",
                        "attribute.gate_calls", "reduction.linprog_calls",
                        "reduction.exp_grad_calls"),
    }[workload]
    for name in must_run:
        if layer[name] <= 0:
            failures.append(f"{name} is 0: a wrapped function was never called")
    for name in must_stay_zero:
        if layer[name] != 0:
            failures.append(f"{name} is {layer[name]}, expected 0 on {workload}")
    if workload == "attr_phase":
        batches = rep["batches_per_epoch"]
        if layer["nn.adam_step_calls"] != ATTR_SCHEDULE["epochs"] * batches:
            failures.append(f"adam steps {layer['nn.adam_step_calls']} != epochs x "
                            f"{batches} batches")
        if layer["attribute.gate_calls"] != ATTR_SCHEDULE["ramp_epochs"] * batches:
            failures.append(f"gate calls {layer['attribute.gate_calls']} != ramp epochs x "
                            f"{batches} batches")
        # the gate against every layer's self time, the rest of attribute included
        rivals = {f"{name}.self_s": layer[f"{name}.self_s"] for name in tracer.LAYERS}
        rivals["attribute.self_s"] -= layer["attribute.gate_self_s"]
        largest = max(rivals, key=rivals.get)
        if layer["attribute.gate_s"] <= rivals[largest]:
            failures.append(f"attribute.gate_s {layer['attribute.gate_s']:.3f} is not the "
                            f"largest layer self time ({largest} {rivals[largest]:.3f})")
    else:
        if layer["reduction.oracle_wall_frac"] < MIN_ORACLE_WALL_FRAC:
            failures.append(f"oracle calls took {layer['reduction.oracle_wall_frac']:.3f} of "
                            f"the traced wall time, expected >= {MIN_ORACLE_WALL_FRAC}")
        expected = layer["reduction.exp_grad_oracle_calls"] + layer["reduction.unconstrained_calls"]
        if layer["reduction.oracle_calls"] != expected:
            failures.append(f"oracle calls {layer['reduction.oracle_calls']} != exp-grad log "
                            f"calls + unconstrained cells ({expected})")
        if layer["harness.run_cell_calls"] != rep["cells"]:
            failures.append("run_cell spans do not match the manifest's cells")
    return failures
