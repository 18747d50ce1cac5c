"""Group-fairness metrics from predictions, labels, and sensitive attributes.

Predictions may be hard {0,1} values or expected positive rates in [0, 1]
(the natural evaluation of a randomized classifier: group rates become
weighted means, accuracy becomes expected accuracy). All difference metrics
are absolute gaps between the two groups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCell, DegenerateGroup


def _as_arrays(*vecs):
    arrs = [np.asarray(v, dtype=float) for v in vecs]
    n = arrs[0].shape[0]
    for a in arrs:
        if a.shape != (n,):
            raise ValueError("all inputs must be equal-length vectors")
    return arrs


def demographic_parity_diff(preds, sensitive) -> float:
    """|E[pred | A=0] - E[pred | A=1]|."""
    p, a = _as_arrays(preds, sensitive)
    rates = []
    for grp in (0, 1):
        mask = a == grp
        if not mask.any():
            raise DegenerateGroup(f"group {grp} is empty")
        rates.append(p[mask].mean())
    return float(abs(rates[0] - rates[1]))


def alpha_j(preds, labels, sensitive, j: int) -> float:
    """|E[pred | A=0, Y=j] - E[pred | A=1, Y=j]|: the TPR gap for j=1,
    the FPR gap for j=0."""
    p, y, a = _as_arrays(preds, labels, sensitive)
    rates = []
    for grp in (0, 1):
        mask = (a == grp) & (y == j)
        if not mask.any():
            raise DegenerateCell(f"cell (A={grp}, Y={j}) is empty")
        rates.append(p[mask].mean())
    return float(abs(rates[0] - rates[1]))


def equalized_odds_diff(preds, labels, sensitive) -> float:
    """alpha_0 + alpha_1."""
    return alpha_j(preds, labels, sensitive, 0) + alpha_j(preds, labels, sensitive, 1)


def equal_opportunity_diff(preds, labels, sensitive) -> float:
    """alpha_1 alone."""
    return alpha_j(preds, labels, sensitive, 1)


@dataclass(frozen=True)
class GroupCounts:
    """Possibly fractional confusion counts for one group (fractional when
    predictions are expected rates)."""

    n: float
    positives: float
    tp: float
    fp: float
    fn: float
    tn: float


@dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    dp_diff: float
    eop_diff: float
    eod_diff: float
    group0: GroupCounts
    group1: GroupCounts


def _group_counts(p, y, a, grp) -> GroupCounts:
    mask = a == grp
    pm, ym = p[mask], y[mask]
    return GroupCounts(
        n=float(mask.sum()),
        positives=float(pm.sum()),
        tp=float((pm * ym).sum()),
        fp=float((pm * (1 - ym)).sum()),
        fn=float(((1 - pm) * ym).sum()),
        tn=float(((1 - pm) * (1 - ym)).sum()),
    )


def evaluate_report(preds, labels, sensitive) -> FairnessReport:
    """Accuracy plus all three gap metrics, with the per-group counts they
    were computed from."""
    p, y, a = _as_arrays(preds, labels, sensitive)
    accuracy = float((p * y + (1.0 - p) * (1.0 - y)).mean())
    dp = demographic_parity_diff(p, a)
    eop = equal_opportunity_diff(p, y, a)
    eod = equalized_odds_diff(p, y, a)
    return FairnessReport(accuracy, dp, eop, eod,
                          _group_counts(p, y, a, 0), _group_counts(p, y, a, 1))


REPORT_HEADER = ("method,seed,accuracy,dp,eop,eod,"
                 "n0,pos0,tp0,fp0,fn0,tn0,n1,pos1,tp1,fp1,fn1,tn1")


def report_csv_row(report: FairnessReport, method: str, seed: int) -> str:
    g0, g1 = report.group0, report.group1
    cells = [method, str(seed),
             repr(report.accuracy), repr(report.dp_diff),
             repr(report.eop_diff), repr(report.eod_diff)]
    for g in (g0, g1):
        cells.extend(repr(v) for v in (g.n, g.positives, g.tp, g.fp, g.fn, g.tn))
    return ",".join(cells)
