"""End-to-end orchestration: attribute-model runs, threshold tuning, sweep
cells across (variant, slack, seed), median aggregation, Pareto fronts, and
the CSV artifacts every table and figure is built from.

A run directory produced by the attribute phase holds, one file each:

  d1.ds, d2.ds, test.ds   the encoded split, npz (CSR features + vectors)
  attr_checkpoint.npz     student and teacher weights, npz; never read back
  proxies.csv             sample_id, a_hat, p_group, u of every d1 row
  calibration.csv         teacher eval probability and true attribute of the
                          conformal calibration slice of d2, by ascending id
  d1_eval_probs.csv       teacher eval probability of every d1 row
  attr_log.csv            per-epoch training log
  attr_summary.json       the phase-1 configuration and summary numbers

proxies.csv and d1_eval_probs.csv list d1's rows in d1 row order, which
``split_scarce`` makes ascending sample id. Every later command (train-fair,
sweep, fig2, table) works off that directory; ``load_run`` reads and checks
all of it except the checkpoint and the log, so a missing or damaged file is
a ConfigError that names it.
Run directories from earlier versions must be rebuilt with train-attr.

A sweep shares unconstrained fits between its cells (``SharedFits``): each
distinct set of training rows is fitted once per sweep, and that fit serves
as the whole model of the vanilla and uncertain cells and as the seed member
of every exp-grad cell on the same rows.
"""
from __future__ import annotations

import json
import math
import os
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attribute as attr
from . import metrics, reduction, tabular, uncertainty
from .configio import read_kv_file
from .errors import ConfigError, DegenerateCell, DegenerateGroup, EmptySelection
from .uncertainty import LN2

VARIANTS = ("vanilla", "clean", "proxy-dnn", "proxy-knn", "certain", "weighted", "uncertain")
RESULTS_HEADER = "variant,constraint,eps_fair,seed,H,uncertainty_source,accuracy,dp,eop,eod"
PARETO_HEADER = ("variant,metric,eps_fair,accuracy_median,unfairness_median,"
                 "accuracy_min,accuracy_max")
FIG2_HEADER = "H,seed,n_rows,accuracy,dp,eop,eod"
WORKERS_ENV = "FAIRSCARCE_WORKERS"
_TRAIN_FRACTION = 0.7  # share of d1 each seed trains on; the rest evaluates


# --- run directory -----------------------------------------------------------

@dataclass
class RunArtifacts:
    """Everything the fair phase needs, loaded from a run directory."""

    split: tabular.ScarceSplit
    proxies: attr.Proxies  # d1 row order
    calib_probs: np.ndarray
    calib_truth: np.ndarray
    d1_eval_probs: np.ndarray  # teacher eval probability of every d1 row, d1 row order
    config: dict


def run_attribute_phase(csv_path, schema_path, out_dir, ratio: float = 0.2,
                        test_fraction: float = 0.3, seed: int = 0,
                        train_config: attr.AttrTrainConfig | None = None,
                        lenient: bool = False) -> RunArtifacts:
    """Phase 1 end to end: split, train, emit proxies plus conformal inputs,
    and cache everything under ``out_dir``. Bad settings raise ConfigError,
    and an unreadable corpus its own error, before ``out_dir`` is created."""
    if not (0.0 < ratio < 1.0 and 0.0 < test_fraction < 1.0):
        raise ConfigError(f"ratio and test fraction must lie in (0, 1), "
                          f"got {ratio} and {test_fraction}")
    cfg = train_config if train_config is not None else attr.AttrTrainConfig(seed=seed)
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    schema = tabular.Schema.from_file(schema_path)
    split = tabular.prepare_split(csv_path, schema, ratio, test_fraction, seed,
                                  strict=not lenient)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = attr.train_attribute_classifier(split, cfg)
    state = result.state

    proxies = attr.predict_proxy(state, split.d1, cfg.mc_passes, seed=seed + 4099)

    # conformal inputs: eval-mode teacher probabilities on the reserved
    # calibration slice of d2 and on d1
    calib_pos = np.isin(split.d2.sample_ids, result.calib_ids)
    calib_ds = split.d2.take(np.flatnonzero(calib_pos))
    calib_probs = attr.teacher_eval_probs(state, calib_ds)
    calib_truth = calib_ds.sensitive
    d1_eval_probs = attr.teacher_eval_probs(state, split.d1)

    tabular.save_dataset(out / "d1.ds", split.d1)
    tabular.save_dataset(out / "d2.ds", split.d2)
    tabular.save_dataset(out / "test.ds", split.test)
    attr.save_checkpoint(out / "attr_checkpoint.npz", state)
    attr.save_proxies(out / "proxies.csv", proxies)
    with open(out / "attr_log.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,loss_supervised,loss_consistency,lambda,r,mean_batch_u,val_accuracy\n")
        for row in result.log:
            fh.write(f"{row.epoch},{repr(row.loss_supervised)},{repr(row.loss_consistency)},"
                     f"{repr(row.lambda_value)},{repr(row.r_value)},"
                     f"{repr(row.mean_batch_uncertainty)},{repr(row.val_accuracy)}\n")
    _write_csv(out / "calibration.csv", "sample_id,p_eval,a_true",
               [f"{int(i)},{repr(float(p))},{int(a)}"
                for i, p, a in zip(calib_ds.sample_ids, calib_probs, calib_truth)])
    _write_csv(out / "d1_eval_probs.csv", "sample_id,p_eval",
               [f"{int(i)},{repr(float(p))}"
                for i, p in zip(split.d1.sample_ids, d1_eval_probs)])

    import platform

    from . import __version__
    test_logits_probs = attr.teacher_eval_probs(state, split.test)
    test_attr_acc = float(((test_logits_probs >= 0.5).astype(int)
                           == tabular.oracle_sensitive(split.test)).mean())
    summary = {
        "package_version": __version__,
        "python": platform.python_version(),
        "seed": seed,
        "ratio": ratio,
        "test_fraction": test_fraction,
        "train_config": asdict(cfg),
        "epochs_run": len(result.log),
        "best_epoch": result.best_epoch,
        "val_accuracy_last": result.log[-1].val_accuracy if result.log else None,
        "test_attr_accuracy": test_attr_acc,
        "d1_mean_uncertainty": float(proxies.u.mean()),
    }
    with open(out / "attr_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunArtifacts(split, proxies, calib_probs, calib_truth.copy(),
                        d1_eval_probs, summary)


def _bad_rows(path, bad: np.ndarray, what: str) -> None:
    """Raise ConfigError naming ``path`` and its first data row (1-based)
    where ``bad`` holds."""
    if bad.any():
        raise ConfigError(f"{path}: data row {int(np.argmax(bad)) + 1}: {what}")


def _read_columns(path: Path, header: str, kinds: Sequence[type]) -> list[np.ndarray]:
    """The columns of one of phase 1's small CSV files, parsed as ``int`` or
    ``float`` each by ``np.loadtxt`` (its floats are ``float()``'s). A file
    that cannot be read, or a wrong header, cell count or number, raises
    ConfigError naming the file."""
    try:
        first, _, body = path.read_text().partition("\n")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    if first != header:
        raise ConfigError(f"{path}: header is not {header!r}")
    if not body:
        return [np.empty(0, dtype=kind) for kind in kinds]
    try:
        table = np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=1,
                           dtype=[(str(j), kind) for j, kind in enumerate(kinds)])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return [np.ascontiguousarray(table[str(j)]) for j in range(len(kinds))]


def _require_d1_rows(path, ids: np.ndarray, d1_ids: np.ndarray) -> None:
    """Raise ConfigError naming ``path`` unless its ``ids`` list d1's sample
    ids ``d1_ids`` in d1 row order."""
    if np.array_equal(ids, d1_ids):
        return
    n = min(len(ids), len(d1_ids))
    at = n if np.array_equal(ids[:n], d1_ids[:n]) else int(np.argmax(ids[:n] != d1_ids[:n]))
    first = (f"first without a matching row: sample id {d1_ids[at]}"
             if at < len(d1_ids) else "rows past d1's last")
    raise ConfigError(f"{path}: {len(ids)} rows do not list the {len(d1_ids)} d1 "
                      f"sample ids in d1 row order ({first})")


def load_checked_proxies(path, d1_ids: np.ndarray) -> attr.Proxies:
    """A proxies.csv file, checked: numbers, ``p_group`` in [0, 1], ``u`` in
    [0, ln 2] (to 1e-12 for rounding), ``a_hat`` equal to ``p_group >= 0.5``,
    and one row per d1 sample id ``d1_ids`` in d1 row order. A bad file
    raises ConfigError naming it."""
    path = Path(path)
    sample_id, a_hat, p, u = _read_columns(path, attr.PROXY_HEADER, (int, int, float, float))
    _bad_rows(path, ~((p >= 0.0) & (p <= 1.0)), "p_group is not a number in [0, 1]")
    _bad_rows(path, ~((u >= 0.0) & (u <= LN2 + 1e-12)), "u is not a number in [0, ln 2]")
    _bad_rows(path, a_hat != (p >= 0.5), "a_hat is not p_group >= 0.5 as 0 or 1")
    _require_d1_rows(path, sample_id, d1_ids)
    return attr.Proxies(sample_id, a_hat, p, u)


def load_run(run_dir) -> RunArtifacts:
    """Read a run directory written by ``run_attribute_phase`` (all of it
    but the checkpoint and the log). A missing or damaged file raises
    ConfigError naming it: a summary without a ``ratio`` in (0, 1), a bad
    proxies file (``load_checked_proxies``), a calibration row whose id is
    not a d2 sample id or not above the id before, whose probability is not
    in [0, 1] or whose attribute is not 0 or 1, or conformal scores that are
    not in [0, 1] or do not list d1's sample ids in d1 row order."""
    run = Path(run_dir)
    for name in ("attr_summary.json", "d1.ds", "d2.ds", "test.ds", "proxies.csv",
                 "calibration.csv", "d1_eval_probs.csv"):
        if not (run / name).is_file():
            raise ConfigError(f"{run / name}: missing from the run directory; rerun train-attr")
    summary_path = run / "attr_summary.json"
    try:
        config = json.loads(summary_path.read_text())
        ratio = float(config["ratio"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{summary_path}: needs a number under 'ratio' "
                          f"({type(exc).__name__}: {exc})") from None
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"{summary_path}: ratio {ratio} is not in (0, 1)")
    split = tabular.ScarceSplit(
        tabular.load_dataset(run / "d1.ds"),
        tabular.load_dataset(run / "d2.ds"),
        tabular.load_dataset(run / "test.ds"),
        group_labeled_ratio=ratio,
    )
    d1_ids = split.d1.sample_ids
    proxies = load_checked_proxies(run / "proxies.csv", d1_ids)
    calib_path = run / "calibration.csv"
    calib_ids, calib_probs, calib_truth = _read_columns(
        calib_path, "sample_id,p_eval,a_true", (int, float, int))
    _bad_rows(calib_path, ~np.isin(calib_ids, split.d2.sample_ids),
              "sample_id is not a d2 sample id")
    _bad_rows(calib_path, np.diff(calib_ids, prepend=calib_ids[:1] - 1) <= 0,
              "sample_id does not ascend")
    _bad_rows(calib_path, ~((calib_probs >= 0.0) & (calib_probs <= 1.0)),
              "p_eval is not a number in [0, 1]")
    _bad_rows(calib_path, (calib_truth != 0) & (calib_truth != 1), "a_true is not 0 or 1")
    scores_path = run / "d1_eval_probs.csv"
    score_ids, d1_probs = _read_columns(scores_path, "sample_id,p_eval", (int, float))
    _require_d1_rows(scores_path, score_ids, d1_ids)
    _bad_rows(scores_path, ~((d1_probs >= 0.0) & (d1_probs <= 1.0)),
              "p_eval is not a number in [0, 1]")
    return RunArtifacts(split, proxies, calib_probs, calib_truth, d1_probs, config)


def _write_csv(path, header: str, rows: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# --- uncertainty sources -------------------------------------------------------

@dataclass(frozen=True)
class UncertaintySource:
    """How phase 2 decides which rows count as reliably labeled.

    kind 'mc-dropout' thresholds the proxy entropy at H; 'conformal' builds
    split-conformal sets at its epsilon and calls singletons certain;
    'confidence' applies the probability band at its tau.
    """

    kind: str = "mc-dropout"
    epsilon: float = 0.1
    tau: float = 0.9

    def describe(self) -> str:
        if self.kind == "conformal":
            return f"conformal({self.epsilon})"
        if self.kind == "confidence":
            return f"confidence({self.tau})"
        return self.kind


def parse_uncertainty_source(text: str) -> UncertaintySource:
    text = text.strip()
    if text in ("mc-dropout", "mc_dropout", "mc"):
        return UncertaintySource("mc-dropout")
    for kind, param in (("conformal", "epsilon"), ("confidence", "tau")):
        if text.startswith(kind):
            inner = text[len(kind):].strip("()")
            if not inner:
                return UncertaintySource(kind)
            try:
                value = float(inner)
            except ValueError:
                break
            # checked here, not per cell, so a bad value fails the config
            # instead of every sweep cell that uses it
            if kind == "conformal" and not 0.0 < value < 1.0:
                raise ConfigError(f"conformal epsilon must lie in (0, 1), got {inner}")
            if kind == "confidence" and not 0.5 <= value <= 1.0:
                raise ConfigError(f"confidence tau must lie in [0.5, 1], got {inner}")
            return UncertaintySource(kind, **{param: value})
    raise ConfigError(f"unknown uncertainty source {text!r}")


def certain_mask(artifacts: RunArtifacts, source: UncertaintySource,
                 threshold: float | None) -> np.ndarray:
    """Which d1 rows (in row order) count as reliably labeled under the given
    uncertainty machinery. Only mc-dropout reads ``threshold``; the other
    sources take None."""
    if source.kind == "mc-dropout":
        return artifacts.proxies.u <= threshold
    if source.kind == "conformal":
        cal = uncertainty.conformal_calibrate(artifacts.calib_probs,
                                              artifacts.calib_truth, source.epsilon)
        sets = uncertainty.conformal_sets(cal, artifacts.d1_eval_probs,
                                          artifacts.split.d1.sample_ids)
        return np.array([s.certain for s in sets], dtype=bool)
    if source.kind == "confidence":
        return uncertainty.confidence_band_filter(artifacts.d1_eval_probs, source.tau)
    raise ConfigError(f"unknown uncertainty source kind {source.kind!r}")


def select(artifacts: RunArtifacts, variant: str, rows: np.ndarray, threshold: float | None,
           source: UncertaintySource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training rows of one variant out of the d1 row indices ``rows``:
    their indices, the attribute each fairness constraint reads (-1 for the
    unconstrained vanilla and uncertain variants) and the weight of each
    row's constraint terms."""
    d1 = artifacts.split.d1
    ones = np.ones(len(rows))
    if variant == "vanilla":
        return rows, np.full(len(rows), -1), ones
    if variant == "clean":
        return rows, tabular.oracle_sensitive(d1)[rows], ones
    if variant == "proxy-knn":
        return rows, reduction.knn_impute(d1.take(rows), artifacts.split.d2, k=5), ones
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    a_hat, u = artifacts.proxies.a_hat, artifacts.proxies.u
    if variant == "proxy-dnn":
        return rows, a_hat[rows], ones
    if variant == "weighted" and source.kind == "mc-dropout":
        # entropy scaled to [0, 1]: weight 1 at u = 0, weight 0 at u = ln 2
        return rows, a_hat[rows], np.maximum(1.0 - u[rows] / LN2, 0.0)
    certain = certain_mask(artifacts, source, threshold)[rows]
    if variant == "weighted":
        return rows, a_hat[rows], certain.astype(float)
    idx = rows[certain] if variant == "certain" else rows[~certain]
    if len(idx) == 0:
        raise EmptySelection(f"{variant} variant kept no rows")
    a = a_hat[idx] if variant == "certain" else np.full(len(idx), -1)
    return idx, a, np.ones(len(idx))


# --- one sweep cell ------------------------------------------------------------

def _d1_train_eval(artifacts: RunArtifacts, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed resample of d1 into training and evaluation row indices."""
    n = len(artifacts.split.d1)
    order = np.random.default_rng((seed, 97)).permutation(n)
    cut = int(round(_TRAIN_FRACTION * n))
    return np.sort(order[:cut]), np.sort(order[cut:])


class SharedFits:
    """The unconstrained fits of one sweep, one per distinct set of training
    rows. Every variant but certain and uncertain trains on a seed's full
    training slice, and an exp-grad cell's seed member is the unconstrained
    fit on its rows, so without sharing each cell (and each slack) would
    redo the same fit. The first cell that asks for a fit computes it; cells
    that ask meanwhile, on other threads, wait for its result. Every sweep
    cell uses the same ``oracle_max_iter``, so the rows alone are the key."""

    def __init__(self):
        self._lock = threading.Lock()
        self._fits: dict[bytes, Future] = {}

    def get(self, rows: np.ndarray,
            fit: Callable[[], reduction.RandomizedClassifier]) -> reduction.RandomizedClassifier:
        key = rows.tobytes()
        with self._lock:
            future = self._fits.get(key)
            owner = future is None
            if owner:
                future = self._fits[key] = Future()
        if owner:
            try:
                future.set_result(fit())
            except Exception as exc:  # every cell on these rows fails alike
                future.set_exception(exc)
        return future.result()


def run_cell(artifacts: RunArtifacts, variant: str, constraint_kind: str,
             eps_fair: float, seed: int, threshold: float | None,
             source: UncertaintySource = UncertaintySource(),
             exp_grad_kw: dict | None = None,
             shared_fits: SharedFits | None = None) -> metrics.FairnessReport:
    """Train one variant on a per-seed 70 percent slice of d1 and score it on
    the held-out 30 percent against the true (masked) sensitive attributes.
    With ``shared_fits``, the unconstrained fit on the selected rows (the
    whole model of vanilla and uncertain, the seed member of the exp-grad
    variants) comes from there; the outputs are the same either way."""
    train_rows, eval_rows = _d1_train_eval(artifacts, seed)
    idx, a, w = select(artifacts, variant, train_rows, threshold, source)
    d1 = artifacts.split.d1
    max_iter = (exp_grad_kw or {}).get("oracle_max_iter", 5000)
    # vanilla and uncertain copy their training rows for the fit alone; an
    # exp-grad cell builds one copy and one design for both of its fits
    # (other layouts measured up to 2.7 MB more peak RSS on the benchmark
    # sweeps)
    if variant in ("vanilla", "uncertain"):
        def fit() -> reduction.RandomizedClassifier:
            return reduction.unconstrained_train(d1.features[idx], d1.labels[idx],
                                                 oracle_max_iter=max_iter)

        model = fit() if shared_fits is None else shared_fits.get(idx, fit)
    else:
        x, y = d1.features[idx], d1.labels[idx]
        design = reduction.oracle_design(x)
        start = None
        if shared_fits is not None:
            start = shared_fits.get(idx, lambda: reduction.unconstrained_train(
                x, y, oracle_max_iter=max_iter, design=design)).members[0]
        constraint = reduction.MomentConstraint(constraint_kind, eps_fair)
        model, _ = reduction.exp_grad_train(x, y, a, w, constraint, start=start,
                                            design=design, **(exp_grad_kw or {}))
    d1_eval = d1.take(eval_rows)
    preds = model.expected_predictions(d1_eval.features)
    return metrics.evaluate_report(preds, d1_eval.labels,
                                   tabular.oracle_sensitive(d1_eval))


# --- threshold tuning ----------------------------------------------------------

@dataclass
class TuneResult:
    threshold: float
    table: list[tuple[float, float, float, float]]  # H, accuracy, gap, objective


# threshold tuning: share of the training rows held out to score candidates,
# spacing of the H grid, and the slack every candidate is trained at
_TUNE_VALIDATION_FRACTION = 0.1
_TUNE_GRID_STEP = 0.05
_TUNE_EPS_FAIR = 0.01
# why a candidate could not be trained, most telling first: the error raised
# when every candidate failed is the first of these that occurred
_TUNE_FAILURES = ((DegenerateGroup, "kept one proxy group only"),
                  (DegenerateCell, "left a (group, label) cell empty"),
                  (EmptySelection, "kept no rows"))
# the gap each constraint bounds, as a FairnessReport field
_CONSTRAINT_GAP = {reduction.DEMOGRAPHIC_PARITY: "dp_diff",
                   reduction.EQUALIZED_ODDS: "eod_diff",
                   reduction.EQUAL_OPPORTUNITY: "eop_diff"}


def tune_threshold(artifacts: RunArtifacts, tune_range: tuple[float, float] = (0.1, LN2),
                   constraint_kind: str = reduction.DEMOGRAPHIC_PARITY, seed: int = 0,
                   budget: dict | None = None) -> TuneResult:
    """Pick the uncertainty cutoff for the certain variant: train candidates
    H = lo, lo + 0.05, ..., none above hi, under ``constraint_kind`` on d1's
    training portion minus a validation slice, score (accuracy - the gap
    that constraint bounds) on that slice, return the argmax (ties to the
    smallest H). The tuning loop runs on a reduced budget: fewer reduction
    iterations and a row cap, both overridable. When no candidate can be
    trained, the error names how many failed for each reason."""
    budget = dict(budget or {})
    iters = budget.get("iters", 10)
    max_rows = budget.get("max_rows", 8000)
    oracle_max_iter = budget.get("oracle_max_iter", 600)

    train_rows, _ = _d1_train_eval(artifacts, seed)
    k_val = max(1, int(round(_TUNE_VALIDATION_FRACTION * len(train_rows))))
    order = np.random.default_rng((seed, 131)).permutation(len(train_rows))
    val_rows = np.sort(train_rows[order[:k_val]])
    fit_rows = np.sort(train_rows[order[k_val:]])
    if len(fit_rows) > max_rows:
        fit_rows = np.sort(fit_rows[np.random.default_rng((seed, 137)).permutation(len(fit_rows))[:max_rows]])

    d1 = artifacts.split.d1
    d1_val = d1.take(val_rows)
    val_truth = tabular.oracle_sensitive(d1_val)

    lo, hi = tune_range
    # steps of _TUNE_GRID_STEP from lo, up to the last one that does not pass hi
    n_steps = int(round((hi - lo) / _TUNE_GRID_STEP))
    grid = [h for h in (round(lo + i * _TUNE_GRID_STEP, 10) for i in range(n_steps + 1))
            if h <= hi]
    table = []
    failures: Counter = Counter()
    best_h, best_obj = None, -math.inf
    for h_cand in grid:
        try:
            idx, a, w = select(artifacts, "certain", fit_rows, h_cand,
                               UncertaintySource("mc-dropout"))
            model, _ = reduction.exp_grad_train(
                d1.features[idx], d1.labels[idx], a, w,
                reduction.MomentConstraint(constraint_kind, _TUNE_EPS_FAIR),
                iters=iters, oracle_max_iter=oracle_max_iter)
        except (EmptySelection, DegenerateGroup, DegenerateCell) as exc:
            # a candidate that keeps no rows, or rows from one group only,
            # simply cannot win the tuning
            failures[type(exc)] += 1
            table.append((h_cand, math.nan, math.nan, -math.inf))
            continue
        preds = model.expected_predictions(d1_val.features)
        report = metrics.evaluate_report(preds, d1_val.labels, val_truth)
        gap = getattr(report, _CONSTRAINT_GAP[constraint_kind])
        objective = report.accuracy - gap
        table.append((h_cand, report.accuracy, gap, objective))
        if objective > best_obj + 1e-12:
            best_obj, best_h = objective, h_cand
    if best_h is None:
        reasons = [(kind, what) for kind, what in _TUNE_FAILURES if failures[kind]]
        counts = ", ".join(f"{failures[kind]} {what}" for kind, what in reasons)
        raise reasons[0][0](f"no tuning candidate could be trained: of {len(grid)}, {counts}")
    return TuneResult(best_h, table)


# --- pareto front ---------------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    eps_fair: float
    accuracy_median: float
    unfairness_median: float
    accuracy_min: float
    accuracy_max: float


def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset (higher accuracy, lower unfairness; strict in at
    least one coordinate), sorted by accuracy. Exact ties survive."""
    if not points:
        raise ValueError("pareto_front needs at least one point")
    kept = []
    for i, (acc_i, unf_i) in enumerate(points):
        dominated = False
        for j, (acc_j, unf_j) in enumerate(points):
            if j == i:
                continue
            if acc_j >= acc_i and unf_j <= unf_i and (acc_j > acc_i or unf_j < unf_i):
                dominated = True
                break
        if not dominated:
            kept.append((acc_i, unf_i))
    return sorted(kept)


# --- sweep ----------------------------------------------------------------------

@dataclass
class SweepConfig:
    data: str = ""
    schema: str = ""
    run_dir: str = ""
    out_dir: str = ""
    variants: tuple[str, ...] = ("certain",)
    constraint: str = reduction.DEMOGRAPHIC_PARITY
    eps_grid: tuple[float, ...] = field(default_factory=tuple)
    seeds: int = 7
    base_seed: int = 0
    threshold: float | None = None  # fixed H; None means tune (mc-dropout only)
    tune_lo: float = 0.1
    tune_hi: float = LN2
    source: UncertaintySource = UncertaintySource()
    ratio: float = 0.2
    test_fraction: float = 0.3
    exp_grad_iters: int = 50
    oracle_max_iter: int = 5000

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        # no oracle iterations would record untrained models as good cells,
        # and no exp-grad iterations leave no mixture to return
        if self.exp_grad_iters < 1:
            raise ConfigError(f"exp_grad_iters must be >= 1, got {self.exp_grad_iters}")
        if self.oracle_max_iter < 1:
            raise ConfigError(f"oracle_max_iter must be >= 1, got {self.oracle_max_iter}")
        if self.constraint not in _CONSTRAINT_GAP:
            raise ConfigError(f"unknown constraint {self.constraint!r}")
        if not all(math.isfinite(eps) and eps >= 0 for eps in self.eps_grid):
            raise ConfigError(f"eps_grid values must be finite and >= 0, got {self.eps_grid}")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ConfigError(f"H must be a finite number, got {self.threshold}")
        if not self.eps_grid:
            self.eps_grid = tuple(round(float(v), 12) for v in
                                  np.geomspace(0.001, 0.3, 12))
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")


def parse_sweep_config(path) -> SweepConfig:
    kv = read_kv_file(path)
    def split_list(text):
        return tuple(t.strip() for t in text.split(",") if t.strip())
    def number(kind, key, text):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    cfg = SweepConfig(
        data=kv.get("data", ""),
        schema=kv.get("schema", ""),
        run_dir=kv.get("run_dir", ""),
        out_dir=kv.get("out_dir", kv.get("run_dir", "sweep_out")),
        variants=split_list(kv.get("variants", "certain")) or ("certain",),
        constraint=kv.get("constraint", "dp"),
        eps_grid=tuple(number(float, "eps_grid", v) for v in split_list(kv.get("eps_grid", ""))),
        seeds=number(int, "seeds", kv.get("seeds", "7")),
        base_seed=number(int, "base_seed", kv.get("base_seed", "0")),
        threshold=(number(float, "H", kv["H"]) if "H" in kv else None),
        tune_lo=number(float, "tune_lo", kv.get("tune_lo", "0.1")),
        # the entropy scale tops out at ln 2, so a nominal 0.7 upper end
        # (a common way to say "no upper cut") clamps to it
        tune_hi=min(number(float, "tune_hi", kv.get("tune_hi", str(LN2))), LN2),
        source=parse_uncertainty_source(kv.get("uncertainty_source", "mc-dropout")),
        ratio=number(float, "ratio", kv.get("ratio", "0.2")),
        test_fraction=number(float, "test_fraction", kv.get("test_fraction", "0.3")),
        exp_grad_iters=number(int, "exp_grad_iters", kv.get("exp_grad_iters", "50")),
        oracle_max_iter=number(int, "oracle_max_iter", kv.get("oracle_max_iter", "5000")),
    )
    if not 0 < cfg.tune_lo <= cfg.tune_hi <= LN2 + 1e-9:
        raise ConfigError("tune range must lie within (0, ln 2]")
    return cfg


@dataclass
class SweepOutcome:
    results_path: Path
    pareto_path: Path
    manifest_path: Path
    n_failed: int


def _worker_count() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def run_sweep(config: SweepConfig, artifacts: RunArtifacts | None = None,
              progress: Callable[[str], None] | None = None) -> SweepOutcome:
    """Execute every (variant, eps, seed) cell, write results.csv, pareto.csv
    and a manifest sufficient to reproduce both byte for byte. The cells
    share one ``SharedFits``, so each distinct unconstrained fit runs once
    per sweep, serial or parallel, and the outputs equal those of cells run
    one by one."""
    out = Path(config.out_dir)
    say = progress or (lambda _msg: None)

    if artifacts is None:
        if config.run_dir and (Path(config.run_dir) / "attr_summary.json").exists():
            artifacts = load_run(config.run_dir)
        elif config.data and config.schema:
            run_dir = config.run_dir or str(out / "attr_run")
            say(f"training attribute model into {run_dir}")
            artifacts = run_attribute_phase(config.data, config.schema, run_dir,
                                            ratio=config.ratio,
                                            test_fraction=config.test_fraction,
                                            seed=config.base_seed)
        else:
            raise ConfigError("sweep needs a run_dir with attr_summary.json, or data+schema")
    out.mkdir(parents=True, exist_ok=True)

    # only the certain and uncertain variants under mc-dropout read H (the
    # mc-dropout weights of weighted do not); under conformal sets or a
    # confidence band the certain rows are the same for every H, so there is
    # nothing to tune
    tuned = (config.threshold is None and config.source.kind == "mc-dropout"
             and any(v in ("certain", "uncertain") for v in config.variants))
    threshold = config.threshold
    if tuned:
        say("tuning uncertainty threshold")
        tuning = tune_threshold(artifacts, (config.tune_lo, config.tune_hi),
                                config.constraint, seed=config.base_seed)
        threshold = tuning.threshold
        _write_csv(out / "tuning.csv", f"H,accuracy,{config.constraint},objective",
                   [f"{h},{repr(a)},{repr(g)},{repr(o)}" for h, a, g, o in tuning.table])
    h_text = "" if threshold is None else repr(threshold)

    cells = [(variant, eps, config.base_seed + j)
             for variant in config.variants
             for eps in config.eps_grid
             for j in range(config.seeds)]
    exp_grad_kw = {"iters": config.exp_grad_iters,
                   "oracle_max_iter": config.oracle_max_iter}
    shared_fits = SharedFits()

    def execute(cell):
        variant, eps, seed = cell
        try:
            report = run_cell(artifacts, variant, config.constraint, eps, seed,
                              threshold, config.source, exp_grad_kw, shared_fits)
            return cell, report, None
        except Exception as exc:  # recorded, never fabricated
            return cell, None, f"{type(exc).__name__}: {exc}"

    n_workers = _worker_count()
    say(f"running {len(cells)} cells on {n_workers} worker(s)")
    if n_workers == 1:
        outcomes = [execute(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(execute, cells))

    result_rows = []
    cell_status = []
    grouped: dict[tuple[str, float], list[metrics.FairnessReport]] = {}
    for (variant, eps, seed), report, error in outcomes:
        if error is None:
            result_rows.append(
                f"{variant},{config.constraint},{repr(eps)},{seed},{h_text},"
                f"{config.source.describe()},{repr(report.accuracy)},{repr(report.dp_diff)},"
                f"{repr(report.eop_diff)},{repr(report.eod_diff)}")
            grouped.setdefault((variant, eps), []).append(report)
        cell_status.append({"variant": variant, "eps_fair": eps, "seed": seed,
                            "status": "ok" if error is None else "failed",
                            "error": error})
    _write_csv(out / "results.csv", RESULTS_HEADER, result_rows)

    pareto_rows = []
    for variant in config.variants:
        for metric_name, getter in (("dp", lambda r: r.dp_diff),
                                    ("eop", lambda r: r.eop_diff),
                                    ("eod", lambda r: r.eod_diff)):
            pts = []
            for eps in config.eps_grid:
                reports = grouped.get((variant, eps), [])
                if not reports:
                    continue
                accs = sorted(r.accuracy for r in reports)
                unfs = sorted(getter(r) for r in reports)
                pts.append(ParetoPoint(eps, float(np.median(accs)), float(np.median(unfs)),
                                       accs[0], accs[-1]))
            if not pts:
                continue
            front = set(pareto_front([(p.accuracy_median, p.unfairness_median) for p in pts]))
            for p in pts:
                if (p.accuracy_median, p.unfairness_median) in front:
                    pareto_rows.append(
                        f"{variant},{metric_name},{repr(p.eps_fair)},{repr(p.accuracy_median)},"
                        f"{repr(p.unfairness_median)},{repr(p.accuracy_min)},{repr(p.accuracy_max)}")
    _write_csv(out / "pareto.csv", PARETO_HEADER, pareto_rows)

    manifest = {
        "config": {
            "data": config.data, "schema": config.schema, "run_dir": config.run_dir,
            "out_dir": str(config.out_dir), "variants": list(config.variants),
            "constraint": config.constraint, "eps_grid": list(config.eps_grid),
            "seeds": config.seeds, "base_seed": config.base_seed,
            "H": threshold, "tuned": tuned,
            "uncertainty_source": config.source.describe(),
            "ratio": config.ratio, "test_fraction": config.test_fraction,
            "exp_grad_iters": config.exp_grad_iters,
            "oracle_max_iter": config.oracle_max_iter,
        },
        "cells": cell_status,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_failed = sum(1 for c in cell_status if c["status"] == "failed")
    return SweepOutcome(out / "results.csv", out / "pareto.csv", manifest_path, n_failed)


# --- H study (unconstrained model on high-uncertainty rows) ---------------------

def fig2_study(artifacts: RunArtifacts, out_path,
               h_grid: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
               seeds: int = 7, base_seed: int = 0,
               oracle_max_iter: int = 5000) -> list[tuple[float, int, metrics.FairnessReport]]:
    """Unconstrained models trained on rows with uncertainty >= H, one row of
    metrics per (H, seed)."""
    rows_out = []
    results = []
    d1 = artifacts.split.d1
    u = artifacts.proxies.u
    for h_cut in h_grid:
        for j in range(seeds):
            seed = base_seed + j
            train_rows, eval_rows = _d1_train_eval(artifacts, seed)
            keep = train_rows[u[train_rows] >= h_cut]
            if len(keep) == 0:
                raise EmptySelection(f"H={h_cut} keeps no rows")
            model = reduction.unconstrained_train(d1.features[keep], d1.labels[keep],
                                                  oracle_max_iter=oracle_max_iter)
            d1_eval = d1.take(eval_rows)
            preds = model.expected_predictions(d1_eval.features)
            report = metrics.evaluate_report(preds, d1_eval.labels,
                                             tabular.oracle_sensitive(d1_eval))
            results.append((h_cut, seed, report))
            rows_out.append(f"{h_cut},{seed},{len(keep)},{repr(report.accuracy)},"
                            f"{repr(report.dp_diff)},{repr(report.eop_diff)},{repr(report.eod_diff)}")
    _write_csv(out_path, FIG2_HEADER, rows_out)
    return results


# --- table summaries -------------------------------------------------------------

_SUMMARY_METRICS = ("accuracy", "dp", "eop", "eod")


def table_summary(results_csv) -> list[str]:
    """Mean and std per (variant, eps) group from a results.csv, one line per
    group in the file's first-seen order. Columns are found by their header
    names, so their order and any further columns do not matter."""
    lines = Path(results_csv).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    if not {"variant", "eps_fair", *_SUMMARY_METRICS} <= set(header):
        raise ConfigError(f"{results_csv} is not a results file")
    variant_at, eps_at = header.index("variant"), header.index("eps_fair")
    metric_at = [header.index(name) for name in _SUMMARY_METRICS]
    groups: dict[tuple[str, str], list[list[float]]] = {}
    order: list[tuple[str, str]] = []
    for line in lines[1:]:
        parts = line.split(",")
        key = (parts[variant_at], parts[eps_at])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append([float(parts[i]) for i in metric_at])
    out = ["variant,eps_fair,n_runs,accuracy_mean,accuracy_std,dp_mean,dp_std,"
           "eop_mean,eop_std,eod_mean,eod_std"]
    for key in order:
        arr = np.array(groups[key])
        cells = [key[0], key[1], str(len(arr))]
        for col in range(len(_SUMMARY_METRICS)):
            cells.append(repr(float(arr[:, col].mean())))
            cells.append(repr(float(arr[:, col].std())))
        out.append(",".join(cells))
    return out
