"""End-to-end orchestration: attribute-model runs, threshold tuning, sweep
cells across (variant, slack, seed), median aggregation, Pareto fronts, and
the CSV artifacts every table and figure is built from.

A run directory produced by the attribute phase holds, one file each:

  d1.ds, d2.ds, test.ds   the encoded split, npz (CSR features + vectors)
  attr_checkpoint.npz     teacher weights and d2's calibration rows, npz
  proxies.csv             sample_id, a_hat, p_group, u of every d1 row
  attr_log.csv            per-epoch training log
  attr_summary.json       the phase-1 configuration and summary numbers

proxies.csv lists d1's rows in d1 row order, which
``tabular.split_scarce_rows`` makes ascending sample id; ``conformal_inputs``
derives phase 2's conformal inputs from the checkpoint. Every later command
(train-fair, sweep, fig2, table) works off that directory; ``load_run`` reads
and checks all of it except the log, so a missing or damaged file is a
ConfigError that names it.
Run directories from earlier versions must be rebuilt with train-attr.

Phase 2 trains through one helper, ``_fit``: a selection whose attribute
is -1 (vanilla, uncertain) gets the unconstrained fit on its rows, any other
selection exp-grad seeded by that fit. ``_fit`` keeps the unconstrained fits
in a map keyed by the training rows. A sweep reads a run directory and runs
its cells one after another through ``run_cell`` with one such map, so each
distinct set of training rows is fitted once per sweep. ``fig2_study`` runs
one ``uncertain`` cell per (H, seed), on the training rows with u >= H, the
same way: one map for the whole study, so H values that keep the same rows
share a fit. ``tune_threshold`` keeps a map of its own per call, since it
trains on a smaller budget.

A trained cell has one row format, ``results_row``'s: a sweep writes it to
results.csv, and train-fair prints it.
"""
from __future__ import annotations

import json
import math
import re
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attribute as attr
from . import metrics, nn, reduction, tabular, uncertainty
from .configio import read_kv_file
from .errors import ConfigError, DegenerateCell, DegenerateGroup, EmptySelection
from .uncertainty import LN2

VARIANTS = ("vanilla", "clean", "proxy-dnn", "proxy-knn", "certain", "weighted", "uncertain")
# the report columns of a results or fig2 row, and the metrics a table sums up
_REPORT_COLUMNS = ("accuracy", *metrics.GAPS)
RESULTS_HEADER = ",".join(("variant", "constraint", "eps_fair", "seed", "H",
                           "uncertainty_source", *_REPORT_COLUMNS))
PARETO_HEADER = ("variant,metric,eps_fair,accuracy_median,unfairness_median,"
                 "accuracy_min,accuracy_max")
FIG2_HEADER = ",".join(("H", "seed", "n_rows", *_REPORT_COLUMNS))
_TRAIN_FRACTION = 0.7  # share of d1 each seed trains on; the rest evaluates
# each part of a run directory's split and the vectors its role needs: d1's
# training labels and evaluation attribute, d2's attribute for phase 1,
# proxy-knn and conformal calibration, and test's labels and attribute
_PART_VECTORS = {"d1": ("labels", "masked_sensitive"), "d2": ("sensitive",),
                 "test": ("labels", "sensitive")}


# --- run directory -----------------------------------------------------------

@dataclass
class RunArtifacts:
    """Everything the fair phase needs, loaded from a run directory."""

    split: tabular.ScarceSplit
    proxies: attr.Proxies  # d1 row order
    # conformal inputs, derived from the checkpoint by ``conformal_inputs``
    calib_probs: np.ndarray  # teacher eval probability of d2's calibration rows
    calib_truth: np.ndarray  # their true attribute
    d1_eval_probs: np.ndarray  # teacher eval probability of every d1 row, d1 row order
    config: dict

    @cached_property
    def knn_a_hat(self) -> np.ndarray:
        """The proxy-knn attribute of every d1 row, in row order: the
        majority attribute of its 5 nearest d2 rows. Imputed on first use
        and kept, so a sweep's proxy-knn cells index one pass over d1."""
        d1, d2 = self.split.d1, self.split.d2
        return reduction.knn_impute(d1.features, d2.features, d2.sensitive, k=5)


def conformal_inputs(teacher: nn.MlpParams, split: tabular.ScarceSplit,
                     calib_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(calib_probs, calib_truth, d1_eval_probs)``: the teacher's
    eval-mode probabilities on the d2 rows ``calib_rows`` and their true
    attribute, and its eval-mode probabilities on every d1 row."""
    calib = split.d2.take(calib_rows)
    return (attr.teacher_eval_probs(teacher, calib), calib.sensitive,
            attr.teacher_eval_probs(teacher, split.d1))


def run_attribute_phase(csv_path, schema_path, out_dir, ratio: float = 0.2,
                        test_fraction: float = 0.3, seed: int = 0,
                        train_config: attr.AttrTrainConfig | None = None,
                        lenient: bool = False) -> RunArtifacts:
    """Phase 1 end to end: split, train, emit proxies plus conformal inputs,
    and cache everything under ``out_dir``. Bad settings, a bad corpus or
    schema, and a d2 too small to carve raise ConfigError before ``out_dir``
    is created."""
    if not (0.0 < ratio < 1.0 and 0.0 < test_fraction < 1.0):
        raise ConfigError(f"ratio and test fraction must lie in (0, 1), "
                          f"got {ratio} and {test_fraction}")
    cfg = train_config if train_config is not None else attr.AttrTrainConfig(seed=seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    schema = tabular.Schema.from_file(schema_path)
    split, rows_dropped = tabular.prepare_split(csv_path, schema, ratio, test_fraction, seed,
                                                strict=not lenient)
    attr.require_d2_slices(len(split.d2), cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = attr.train_attribute_classifier(split, cfg)
    teacher = result.teacher

    proxies = attr.predict_proxy(teacher, split.d1, cfg.mc_passes, seed=seed + 4099)

    tabular.save_dataset(out / "d1.ds", split.d1)
    tabular.save_dataset(out / "d2.ds", split.d2)
    tabular.save_dataset(out / "test.ds", split.test)
    attr.save_checkpoint(out / "attr_checkpoint.npz", teacher, result.calib_rows)
    attr.save_proxies(out / "proxies.csv", proxies)
    with open(out / "attr_log.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,loss_supervised,loss_consistency,lambda,r,mean_batch_u,val_accuracy\n")
        for row in result.log:
            fh.write(f"{row.epoch},{repr(row.loss_supervised)},{repr(row.loss_consistency)},"
                     f"{repr(row.lambda_value)},{repr(row.r_value)},"
                     f"{repr(row.mean_batch_uncertainty)},{repr(row.val_accuracy)}\n")

    import platform

    from . import __version__
    test_logits_probs = attr.teacher_eval_probs(teacher, split.test)
    test_attr_acc = float(((test_logits_probs >= 0.5).astype(int)
                           == tabular.oracle_sensitive(split.test)).mean())
    summary = {
        "package_version": __version__,
        "python": platform.python_version(),
        "seed": seed,
        "ratio": ratio,
        "test_fraction": test_fraction,
        "lenient": lenient,
        "rows_dropped": rows_dropped,
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
    return RunArtifacts(split, proxies, *conformal_inputs(teacher, split, result.calib_rows),
                        summary)


def _bad_rows(path, bad: np.ndarray, what: str) -> None:
    """Raise ConfigError naming ``path`` and its first data row (1-based)
    where ``bad`` holds."""
    if bad.any():
        raise ConfigError(f"{path}: data row {int(np.argmax(bad)) + 1}: {what}")


def load_checked_proxies(path, d1_ids: np.ndarray) -> attr.Proxies:
    """A proxies.csv file, checked: the header ``attr.PROXY_HEADER``,
    numbers (parsed by ``np.loadtxt``, whose floats are ``float()``'s),
    ``p_group`` in [0, 1], ``u`` in [0, ln 2] (to 1e-12 for rounding),
    ``a_hat`` equal to ``p_group >= 0.5``, and one row per d1 sample id
    ``d1_ids`` in d1 row order. A file that cannot be read or a bad file
    raises ConfigError naming it."""
    path = Path(path)
    try:
        first, _, body = path.read_text().partition("\n")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    if first != attr.PROXY_HEADER:
        raise ConfigError(f"{path}: header is not {attr.PROXY_HEADER!r}")
    columns = list(zip(attr.PROXY_HEADER.split(","), (int, int, float, float)))
    try:
        # an empty body is no rows, which np.loadtxt would warn about
        table = (np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=1,
                            dtype=columns) if body else np.empty(0, dtype=columns))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    sample_id, a_hat, p, u = (np.ascontiguousarray(table[name]) for name, _ in columns)
    _bad_rows(path, ~((p >= 0.0) & (p <= 1.0)), "p_group is not a number in [0, 1]")
    _bad_rows(path, ~((u >= 0.0) & (u <= LN2 + 1e-12)), "u is not a number in [0, ln 2]")
    _bad_rows(path, a_hat != (p >= 0.5), "a_hat is not p_group >= 0.5 as 0 or 1")
    if not np.array_equal(sample_id, d1_ids):
        n = min(len(sample_id), len(d1_ids))
        at = (n if np.array_equal(sample_id[:n], d1_ids[:n])
              else int(np.argmax(sample_id[:n] != d1_ids[:n])))
        first = (f"first without a matching row: sample id {d1_ids[at]}"
                 if at < len(d1_ids) else "rows past d1's last")
        raise ConfigError(f"{path}: {len(sample_id)} rows do not list the {len(d1_ids)} d1 "
                          f"sample ids in d1 row order ({first})")
    return attr.Proxies(sample_id, a_hat, p, u)


def load_run(run_dir) -> RunArtifacts:
    """Read a run directory written by ``run_attribute_phase`` (all of it
    but the log) and derive the conformal inputs from its checkpoint. A
    missing or damaged file raises ConfigError naming it: a summary that is
    not a JSON object, a d2 or test part whose feature width is not d1's, a
    part without a 0/1 vector its role needs, a bad proxies file
    (``load_checked_proxies``), or a checkpoint that
    ``attr.load_checkpoint`` rejects, whose teacher does not read d1's
    feature width, or whose calibration rows are not strictly ascending d2
    row indices, one or more."""
    run = Path(run_dir)
    for name in ("attr_summary.json", "d1.ds", "d2.ds", "test.ds", "proxies.csv",
                 "attr_checkpoint.npz"):
        if not (run / name).is_file():
            raise ConfigError(f"{run / name}: missing from the run directory; rerun train-attr")
    summary_path = run / "attr_summary.json"
    try:
        config = json.loads(summary_path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{summary_path}: not JSON ({exc})") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{summary_path}: not a JSON object")
    split = tabular.ScarceSplit(*(tabular.load_dataset(run / f"{part}.ds")
                                  for part in _PART_VECTORS))
    width = split.d1.features.shape[1]
    for part in ("d2", "test"):
        part_width = getattr(split, part).features.shape[1]
        if part_width != width:
            raise ConfigError(f"{run / part}.ds: holds {part_width} feature columns, "
                              f"d1.ds holds {width}; rerun train-attr")
    for part, vectors in _PART_VECTORS.items():
        for vector in vectors:
            values = getattr(getattr(split, part), vector)
            if values is None or not ((values == 0) | (values == 1)).all():
                raise ConfigError(f"{run / part}.ds: no 0/1 {vector} vector; rerun train-attr")
    proxies = load_checked_proxies(run / "proxies.csv", split.d1.sample_ids)
    checkpoint = run / "attr_checkpoint.npz"
    teacher, calib_rows = attr.load_checkpoint(checkpoint)
    if teacher.in_dim != width:
        raise ConfigError(f"{checkpoint}: the teacher reads {teacher.in_dim} features, "
                          f"d1 holds {width}")
    n_d2 = len(split.d2)
    if not (calib_rows.ndim == 1 and calib_rows.dtype.kind in "iu" and len(calib_rows)
            and calib_rows[0] >= 0 and calib_rows[-1] < n_d2
            and (calib_rows[1:] > calib_rows[:-1]).all()):
        raise ConfigError(f"{checkpoint}: calib_rows are not d2 row indices in "
                          f"[0, {n_d2}), one or more in strictly ascending order")
    return RunArtifacts(split, proxies, *conformal_inputs(teacher, split, calib_rows), config)


def _write_csv(path, header: str, rows: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# --- uncertainty sources -------------------------------------------------------

# the spellings of an uncertainty source, one per kind; ``describe`` writes them
SOURCE_FORMS = "mc-dropout, conformal(<epsilon in (0, 1)>) or confidence(<tau in [0.5, 1]>)"
_LEVELLED_SOURCE = re.compile(r"(conformal|confidence)\(((?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                              r"(?:[eE][+-]?[0-9]+)?)\)")


@dataclass(frozen=True)
class UncertaintySource:
    """How phase 2 decides which rows count as reliably labeled.

    kind 'mc-dropout' thresholds the proxy entropy at H and has no level;
    'conformal' builds split-conformal sets at miscoverage level epsilon and
    calls singletons certain; 'confidence' applies the probability band at
    tau. ``level`` is that epsilon or tau. A level out of its range raises
    ConfigError here, not per cell, so a bad value fails the config instead
    of every sweep cell that uses it.
    """

    kind: str = "mc-dropout"
    level: float | None = None

    def __post_init__(self):
        level = self.level
        in_range = {"mc-dropout": level is None,
                    "conformal": level is not None and 0.0 < level < 1.0,
                    "confidence": level is not None and 0.5 <= level <= 1.0}
        if not in_range.get(self.kind, False):
            raise ConfigError(f"uncertainty source {self.describe()!r} is none of "
                              f"{SOURCE_FORMS}")

    def describe(self) -> str:
        return self.kind if self.level is None else f"{self.kind}({self.level})"


def parse_uncertainty_source(text: str) -> UncertaintySource:
    """The source ``text`` spells: exactly ``mc-dropout``, ``conformal(e)``
    or ``confidence(t)`` for a number e or t in the kind's range, as
    ``describe`` writes it. Anything else raises ConfigError."""
    if text == "mc-dropout":
        return UncertaintySource()
    match = _LEVELLED_SOURCE.fullmatch(text)
    if match is None:
        raise ConfigError(f"unknown uncertainty source {text!r}; expected {SOURCE_FORMS}")
    return UncertaintySource(match[1], float(match[2]))


def certain_mask(artifacts: RunArtifacts, source: UncertaintySource,
                 threshold: float | None) -> np.ndarray:
    """Which d1 rows (in row order) count as reliably labeled under the given
    uncertainty machinery. Only mc-dropout reads ``threshold``; the other
    sources take None."""
    if source.kind == "mc-dropout":
        return artifacts.proxies.u <= threshold
    if source.kind == "conformal":
        q_hat = uncertainty.conformal_calibrate(artifacts.calib_probs,
                                                artifacts.calib_truth, source.level)
        sets = uncertainty.conformal_sets(q_hat, artifacts.d1_eval_probs,
                                          artifacts.split.d1.sample_ids)
        return np.array([s.certain for s in sets], dtype=bool)
    return uncertainty.confidence_band_filter(artifacts.d1_eval_probs, source.level)


def select(artifacts: RunArtifacts, variant: str, rows: np.ndarray, threshold: float | None,
           source: UncertaintySource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training rows of one variant out of the d1 row indices ``rows``:
    their indices, the attribute each fairness constraint reads (-1 for the
    unconstrained vanilla and uncertain variants) and the weight of each
    row's constraint terms. A certain selection that keeps no row raises
    EmptySelection, and failing that one that keeps no row of proxy group
    0, then 1, DegenerateGroup; each names the cut and, under mc-dropout,
    the least u of the training rows it missed. A weighted selection under
    a conformal or confidence source that counts no row of proxy group 0,
    then 1, certain raises DegenerateGroup naming the group and the source.
    proxy-knn indexes ``artifacts.knn_a_hat``, imputed once per run."""
    d1 = artifacts.split.d1
    ones = np.ones(len(rows))
    if variant == "vanilla":
        return rows, np.full(len(rows), -1), ones
    if variant == "clean":
        return rows, tabular.oracle_sensitive(d1)[rows], ones
    if variant == "proxy-knn":
        return rows, artifacts.knn_a_hat[rows], ones
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
        for group in (0, 1):
            if not certain[a_hat[rows] == group].any():
                raise DegenerateGroup(f"weighted variant kept no certain training row of proxy "
                                      f"group {group} under {source.describe()}")
        return rows, a_hat[rows], certain.astype(float)
    if variant == "certain":
        idx = rows[certain]
        kept = np.bincount(a_hat[idx], minlength=2)
        if not kept.all():
            group = int(np.argmin(kept)) if len(idx) else None
            missed = rows if group is None else rows[a_hat[rows] == group]
            what = "no training row" + ("" if group is None else f" of proxy group {group}")
            if source.kind != "mc-dropout":
                why = f"under {source.describe()}"
            elif len(missed):
                why = (f"at H {threshold!r}: the least u of its {len(missed)} training row(s) "
                       f"is {float(u[missed].min())!r}")
            else:
                why = f"at H {threshold!r}: no training row has that proxy group"
            raise (EmptySelection if group is None else DegenerateGroup)(
                f"certain variant kept {what} {why}")
        return idx, a_hat[idx], np.ones(len(idx))
    idx = rows[~certain]
    if len(idx) == 0:
        raise EmptySelection("uncertain variant kept no rows")
    return idx, np.full(len(idx), -1), np.ones(len(idx))


# --- one sweep cell ------------------------------------------------------------

def _d1_train_eval(artifacts: RunArtifacts, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed resample of d1 into training and evaluation row indices."""
    n = len(artifacts.split.d1)
    order = np.random.default_rng((seed, 97)).permutation(n)
    cut = int(round(_TRAIN_FRACTION * n))
    return np.sort(order[:cut]), np.sort(order[cut:])


def _score(model: reduction.RandomizedClassifier, d1: tabular.Dataset,
           eval_rows: np.ndarray) -> metrics.FairnessReport:
    """``model`` scored on the d1 rows ``eval_rows`` against their true
    (masked) sensitive attributes."""
    preds = model.expected_predictions(d1.features[eval_rows])
    return metrics.evaluate_report(preds, d1.labels[eval_rows],
                                   tabular.oracle_sensitive(d1)[eval_rows])


def _fit(d1: tabular.Dataset, idx: np.ndarray, a: np.ndarray, w: np.ndarray,
         constraint: reduction.MomentConstraint, iters: int, oracle_max_iter: int,
         fits: dict[bytes, reduction.RandomizedClassifier]) -> reduction.RandomizedClassifier:
    """The model of one selection ``(idx, a, w)`` of d1 rows: the one place
    phase 2 trains a selection. An ``a`` of -1 (``select``'s vanilla and
    uncertain) gives the unconstrained fit on the rows; any other ``a`` gives
    exp-grad under ``constraint``, seeded by that fit. Before any fit, a
    selection with a proxy group of no weight raises DegenerateGroup, and one
    with an empty (group, label) cell of the constraint's label slices (eop,
    eod) raises DegenerateCell (``reduction.constraint_matrix``); an
    unconstrained selection raises neither.

    ``fits`` maps a set of training rows (``idx.tobytes()``) to the
    unconstrained fit on them. A fit it lacks is made and stored, so callers
    that share one map fit each row set once, and the outputs are those of a
    fresh map per call. A map serves one ``oracle_max_iter`` only, since the
    rows alone are the key."""
    key = idx.tobytes()
    # an unconstrained fit copies its rows for the fit alone; exp-grad builds
    # one copy and one design for both of its fits (other layouts measured up
    # to 2.7 MB more peak RSS on the benchmark sweeps)
    if (a == -1).all():
        if key not in fits:
            fits[key] = reduction.unconstrained_train(d1.features[idx], d1.labels[idx],
                                                      oracle_max_iter=oracle_max_iter)
        return fits[key]
    x, y = d1.features[idx], d1.labels[idx]
    # a selection with an empty constraint cell fails here, before any
    # oracle call; exp-grad builds the same small matrix again
    reduction.constraint_matrix(constraint, y, a, w)
    design = reduction.oracle_design(x)
    if key not in fits:
        fits[key] = reduction.unconstrained_train(x, y, oracle_max_iter=oracle_max_iter,
                                                  design=design)
    model, _ = reduction.exp_grad_train(x, y, a, w, constraint, iters=iters,
                                        oracle_max_iter=oracle_max_iter,
                                        start=fits[key].members[0], design=design)
    return model


def run_cell(artifacts: RunArtifacts, variant: str, constraint_kind: str,
             eps_fair: float, seed: int, threshold: float | None,
             source: UncertaintySource = UncertaintySource(),
             iters: int = reduction.EXP_GRAD_ITERS,
             oracle_max_iter: int = reduction.ORACLE_MAX_ITER,
             fits: dict | None = None) -> tuple[metrics.FairnessReport, int]:
    """Train one variant on a per-seed 70 percent slice of d1 and score it on
    the held-out 30 percent against the true (masked) sensitive attributes:
    split, ``select``, ``_fit``, ``_score``. Returns the report and the
    number of rows the model trained on. ``fits`` is ``_fit``'s map of
    unconstrained fits; a sweep passes one map to all of its cells, and
    None gives the cell a fresh map of its own."""
    train_rows, eval_rows = _d1_train_eval(artifacts, seed)
    idx, a, w = select(artifacts, variant, train_rows, threshold, source)
    d1 = artifacts.split.d1
    model = _fit(d1, idx, a, w, reduction.MomentConstraint(constraint_kind, eps_fair),
                 iters, oracle_max_iter, {} if fits is None else fits)
    return _score(model, d1, eval_rows), len(idx)


def _report_cells(report: metrics.FairnessReport) -> list[str]:
    """``report``'s ``_REPORT_COLUMNS``, as results and fig2 rows write them."""
    return [repr(getattr(report, name)) for name in _REPORT_COLUMNS]


def results_row(variant: str, constraint_kind: str, eps_fair: float, seed: int,
                threshold: float | None, source: UncertaintySource,
                report: metrics.FairnessReport) -> str:
    """The results.csv row of one trained cell, under ``RESULTS_HEADER``; an
    H of None (one that is neither fixed nor tuned) is an empty cell."""
    return ",".join([variant, constraint_kind, repr(eps_fair), str(seed),
                     "" if threshold is None else repr(threshold), source.describe(),
                     *_report_cells(report)])


# --- threshold tuning ----------------------------------------------------------

@dataclass
class TuneResult:
    threshold: float
    table: list[tuple[float, float, float, float]]  # H, accuracy, proxy gap, objective


# threshold tuning: the candidate H values (steps of 0.05 from 0.1, none
# above ln 2), the share of the training rows held out to score them, and the
# slack every candidate is trained at
TUNE_GRID = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65)
_TUNE_VALIDATION_FRACTION = 0.1
_TUNE_EPS_FAIR = 0.01
# tuning's reduced budget per candidate: exp-grad iterations, a cap on the
# rows it trains on, and oracle iterations per fit
_TUNE_ITERS = 10
_TUNE_MAX_ROWS = 8000
_TUNE_ORACLE_MAX_ITER = 600
# why a candidate could not be trained, most telling first: the error raised
# when every candidate failed is the first of these that occurred
_TUNE_FAILURES = ((DegenerateGroup, "kept one proxy group only"),
                  (DegenerateCell, "left a (group, label) cell empty"),
                  (EmptySelection, "kept no rows"))


def tune_threshold(artifacts: RunArtifacts, constraint_kind: str = reduction.DEMOGRAPHIC_PARITY,
                   seed: int = 0) -> TuneResult:
    """Pick the uncertainty cutoff for the certain variant: train a
    candidate for each H of ``TUNE_GRID`` under ``constraint_kind`` on d1's
    training portion minus a validation slice, score (accuracy - the gap
    that constraint bounds) on that slice, return the argmax (ties to the
    smallest H). The gap is measured against the slice's proxy attribute
    ``a_hat``: d1's true attribute is hidden in the demographic-scarce
    regime, so choosing H never reads it. The tuning loop runs on a reduced
    budget: ``_TUNE_ITERS`` exp-grad iterations and ``_TUNE_ORACLE_MAX_ITER``
    oracle iterations on at most ``_TUNE_MAX_ROWS`` rows.

    Each candidate trains through ``_fit`` with a fits map of this call's
    own (tuning's budget is not the sweep's). When no candidate can be
    trained, the error names how many failed for each reason."""
    train_rows, _ = _d1_train_eval(artifacts, seed)
    k_val = max(1, int(round(_TUNE_VALIDATION_FRACTION * len(train_rows))))
    order = np.random.default_rng((seed, 131)).permutation(len(train_rows))
    val_rows = np.sort(train_rows[order[:k_val]])
    fit_rows = np.sort(train_rows[order[k_val:]])
    if len(fit_rows) > _TUNE_MAX_ROWS:
        fit_rows = np.sort(fit_rows[np.random.default_rng((seed, 137)).permutation(
            len(fit_rows))[:_TUNE_MAX_ROWS]])

    d1 = artifacts.split.d1
    val_x, val_labels = d1.features[val_rows], d1.labels[val_rows]
    val_proxies = artifacts.proxies.a_hat[val_rows]

    constraint = reduction.MomentConstraint(constraint_kind, _TUNE_EPS_FAIR)
    fits: dict[bytes, reduction.RandomizedClassifier] = {}
    table = []
    failures: Counter = Counter()
    best_h, best_obj = None, -math.inf
    for h_cand in TUNE_GRID:
        try:
            idx, a, w = select(artifacts, "certain", fit_rows, h_cand, UncertaintySource())
            model = _fit(d1, idx, a, w, constraint, _TUNE_ITERS, _TUNE_ORACLE_MAX_ITER, fits)
        except (EmptySelection, DegenerateGroup, DegenerateCell) as exc:
            # a candidate that keeps no rows, or rows from one group only,
            # simply cannot win the tuning
            failures[type(exc)] += 1
            table.append((h_cand, math.nan, math.nan, -math.inf))
            continue
        preds = model.expected_predictions(val_x)
        report = metrics.evaluate_report(preds, val_labels, val_proxies)
        gap = getattr(report, constraint_kind)
        objective = report.accuracy - gap
        table.append((h_cand, report.accuracy, gap, objective))
        if objective > best_obj + 1e-12:
            best_obj, best_h = objective, h_cand
    if best_h is None:
        reasons = [(kind, what) for kind, what in _TUNE_FAILURES if failures[kind]]
        counts = ", ".join(f"{failures[kind]} {what}" for kind, what in reasons)
        raise reasons[0][0](f"no tuning candidate could be trained: of {len(TUNE_GRID)}, {counts}")
    return TuneResult(best_h, table)


# --- pareto front ---------------------------------------------------------------

def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset (higher accuracy, lower unfairness; strict in at
    least one coordinate), sorted by accuracy. Exact ties survive."""
    if not points:
        raise ValueError("pareto_front needs at least one point")
    # neither a point nor an exact tie of it dominates it
    return sorted((acc, unf) for acc, unf in points
                  if not any(a >= acc and u <= unf and (a > acc or u < unf) for a, u in points))


# --- sweep ----------------------------------------------------------------------

# the slacks a sweep runs when its config sets none: 12 log-spaced from 0.001 to 0.3
_DEFAULT_EPS_GRID = tuple(round(float(v), 12) for v in np.geomspace(0.001, 0.3, 12))


@dataclass
class SweepConfig:
    run_dir: str = ""  # a run directory written by train-attr
    out_dir: str = ""  # empty means run_dir
    variants: tuple[str, ...] = ("certain",)
    constraint: str = reduction.DEMOGRAPHIC_PARITY
    eps_grid: tuple[float, ...] = _DEFAULT_EPS_GRID
    seeds: int = 7
    base_seed: int = 0
    threshold: float | None = None  # fixed H; None means tune (mc-dropout only)
    source: UncertaintySource = UncertaintySource()
    exp_grad_iters: int = reduction.EXP_GRAD_ITERS
    oracle_max_iter: int = reduction.ORACLE_MAX_ITER

    def __post_init__(self):
        if not self.run_dir:
            raise ConfigError("run_dir is required: the run directory train-attr wrote")
        if not self.out_dir:
            self.out_dir = self.run_dir
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
        if self.constraint not in metrics.GAPS:
            raise ConfigError(f"unknown constraint {self.constraint!r}")
        if not self.eps_grid:
            raise ConfigError("eps_grid must name at least one slack")
        if not all(math.isfinite(eps) and eps >= 0 for eps in self.eps_grid):
            raise ConfigError(f"eps_grid values must be finite and >= 0, got {self.eps_grid}")
        # no entropy is below 0, so a negative H would keep no certain row
        if self.threshold is not None and not (math.isfinite(self.threshold)
                                               and self.threshold >= 0):
            raise ConfigError(f"H must be a finite number >= 0, got {self.threshold}")
        if not self.variants:
            raise ConfigError("variants must name at least one variant")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")
        # a repeated value would repeat its cells in results.csv
        for name, values in (("variants", self.variants), ("eps_grid", self.eps_grid)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {', '.join(map(str, values))}")


# sweep config key -> (SweepConfig field, parser of one value); variants and
# eps_grid hold comma-separated lists of such values
_SWEEP_KEYS = {"run_dir": ("run_dir", str), "out_dir": ("out_dir", str),
               "variants": ("variants", str), "constraint": ("constraint", str),
               "eps_grid": ("eps_grid", float), "seeds": ("seeds", int),
               "base_seed": ("base_seed", int), "H": ("threshold", float),
               "uncertainty_source": ("source", parse_uncertainty_source),
               "exp_grad_iters": ("exp_grad_iters", int),
               "oracle_max_iter": ("oracle_max_iter", int)}
_LIST_KEYS = ("variants", "eps_grid")


def parse_sweep_config(path) -> SweepConfig:
    """A sweep config file; a key it does not set keeps SweepConfig's
    default. An unknown key, a missing ``run_dir`` or a bad value raises
    ConfigError."""
    fields = {}
    for key, text in read_kv_file(path).items():
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"unknown sweep key {key!r}; known keys: {', '.join(_SWEEP_KEYS)}")
        name, parse = _SWEEP_KEYS[key]
        try:
            if key in _LIST_KEYS:
                fields[name] = tuple(parse(t.strip()) for t in text.split(",") if t.strip())
            else:
                fields[name] = parse(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {parse.__name__}, got {text!r}") from None
    return SweepConfig(**fields)


@dataclass
class SweepOutcome:
    results_path: Path
    pareto_path: Path
    manifest_path: Path
    n_failed: int


def run_sweep(config: SweepConfig,
              progress: Callable[[str], None] | None = None) -> SweepOutcome:
    """Run every (variant, eps, seed) cell, one after another, on the run
    directory ``config.run_dir`` and write results.csv, pareto.csv and a
    manifest sufficient to reproduce both byte for byte. The cells share one
    map of unconstrained fits (``run_cell``'s ``fits``), so each distinct fit
    runs once per sweep and the outputs equal those of cells run one by one.
    A cell that raises is recorded as failed, with its error, in the
    manifest. ``progress`` gets one line per finished cell, in cell order:
    its number, variant, slack, seed, status and seconds."""
    out = Path(config.out_dir)
    say = progress or (lambda _msg: None)
    artifacts = load_run(config.run_dir)
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
        tuning = tune_threshold(artifacts, config.constraint, seed=config.base_seed)
        threshold = tuning.threshold
        _write_csv(out / "tuning.csv", f"H,accuracy,{config.constraint}_proxy,objective",
                   [f"{h},{repr(a)},{repr(g)},{repr(o)}" for h, a, g, o in tuning.table])

    cells = [(variant, eps, config.base_seed + j)
             for variant in config.variants
             for eps in config.eps_grid
             for j in range(config.seeds)]
    say(f"running {len(cells)} cells")
    fits: dict[bytes, reduction.RandomizedClassifier] = {}
    result_rows = []
    cell_status = []
    grouped: dict[tuple[str, float], list[metrics.FairnessReport]] = {}
    for number, (variant, eps, seed) in enumerate(cells, start=1):
        error = None
        started = time.perf_counter()
        try:
            report, _ = run_cell(artifacts, variant, config.constraint, eps, seed, threshold,
                                 config.source, config.exp_grad_iters, config.oracle_max_iter,
                                 fits)
        except Exception as exc:  # recorded, never fabricated
            error = f"{type(exc).__name__}: {exc}"
        else:
            result_rows.append(results_row(variant, config.constraint, eps, seed, threshold,
                                           config.source, report))
            grouped.setdefault((variant, eps), []).append(report)
        status = "ok" if error is None else "failed"
        cell_status.append({"variant": variant, "eps_fair": eps, "seed": seed,
                            "status": status, "error": error})
        say(f"cell {number}/{len(cells)} {variant} eps={eps} seed={seed}: {status} in "
            f"{time.perf_counter() - started:.2f} s" + ("" if error is None else f" ({error})"))
    _write_csv(out / "results.csv", RESULTS_HEADER, result_rows)

    # per variant and gap, the (median accuracy, median gap) point of each
    # slack with results, written when no other such point dominates it
    pareto_rows = []
    for variant in config.variants:
        for gap in metrics.GAPS:
            points = []
            for eps in config.eps_grid:
                reports = grouped.get((variant, eps))
                if reports:
                    accs = sorted(r.accuracy for r in reports)
                    gaps = sorted(getattr(r, gap) for r in reports)
                    points.append((eps, float(np.median(accs)), float(np.median(gaps)),
                                   accs[0], accs[-1]))
            if points:
                front = set(pareto_front([p[1:3] for p in points]))
                pareto_rows += [",".join([variant, gap, *map(repr, p)])
                                for p in points if p[1:3] in front]
    _write_csv(out / "pareto.csv", PARETO_HEADER, pareto_rows)

    manifest = {
        "config": {
            "run_dir": config.run_dir,
            "out_dir": str(config.out_dir), "variants": list(config.variants),
            "constraint": config.constraint, "eps_grid": list(config.eps_grid),
            "seeds": config.seeds, "base_seed": config.base_seed,
            "H": threshold, "tuned": tuned,
            "uncertainty_source": config.source.describe(),
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
               seeds: int = 7, base_seed: int = 0) -> None:
    """Write fig2.csv: one row of metrics per (H, seed), from an unconstrained
    model trained on the seed's training rows whose uncertainty u is >= H.
    Each row is one ``uncertain`` cell through ``run_cell``, and the cells
    share one fits map, so H values that keep the same rows share a fit. An
    H outside [0, ln 2] raises ConfigError, and an H above every u of a
    seed's training rows raises EmptySelection, both before any fit."""
    for h_cut in h_grid:
        if not 0.0 <= h_cut <= LN2:
            raise ConfigError(f"fig2 H must lie in [0, ln 2], got {h_cut}")
    for seed in range(base_seed, base_seed + seeds):
        top = float(artifacts.proxies.u[_d1_train_eval(artifacts, seed)[0]].max())
        for h_cut in h_grid:
            if h_cut > top:
                raise EmptySelection(f"fig2 H {h_cut} keeps no training row of seed {seed}: "
                                     f"its largest u is {top!r}")
    fits: dict[bytes, reduction.RandomizedClassifier] = {}
    rows_out = []
    for h_cut in h_grid:
        # uncertain keeps u > threshold; for float64 u, u > the next float below H is u >= H
        below = float(np.nextafter(h_cut, -np.inf))
        for seed in range(base_seed, base_seed + seeds):
            report, n_rows = run_cell(artifacts, "uncertain", reduction.DEMOGRAPHIC_PARITY,
                                      0.0, seed, below, fits=fits)
            rows_out.append(",".join([f"{h_cut}", str(seed), str(n_rows),
                                      *_report_cells(report)]))
    _write_csv(out_path, FIG2_HEADER, rows_out)


# --- table summaries -------------------------------------------------------------


def table_summary(results_csv) -> list[str]:
    """Mean and std per (variant, eps) group from a results.csv, one line per
    group in the file's first-seen order. Columns are found by their header
    names, so their order and any further columns do not matter. A row with
    the wrong number of cells or a metric that is not a number raises
    ConfigError naming the file and the row."""
    lines = Path(results_csv).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    if not {"variant", "eps_fair", *_REPORT_COLUMNS} <= set(header):
        raise ConfigError(f"{results_csv} is not a results file")
    variant_at, eps_at = header.index("variant"), header.index("eps_fair")
    metric_at = [header.index(name) for name in _REPORT_COLUMNS]
    groups: dict[tuple[str, str], list[list[float]]] = {}
    order: list[tuple[str, str]] = []
    for row, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{results_csv}: data row {row}: {len(parts)} cells "
                              f"for {len(header)} columns")
        try:
            values = [float(parts[i]) for i in metric_at]
        except ValueError as exc:
            raise ConfigError(f"{results_csv}: data row {row}: {exc}") from None
        key = (parts[variant_at], parts[eps_at])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(values)
    stats = [f"{name}_{stat}" for name in _REPORT_COLUMNS for stat in ("mean", "std")]
    out = [",".join(["variant", "eps_fair", "n_runs", *stats])]
    for key in order:
        arr = np.array(groups[key])
        cells = [key[0], key[1], str(len(arr))]
        for col in range(len(_REPORT_COLUMNS)):
            cells.append(repr(float(arr[:, col].mean())))
            cells.append(repr(float(arr[:, col].std())))
        out.append(",".join(cells))
    return out
