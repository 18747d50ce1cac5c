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


# the gaps a report holds, each named by the constraint kind that bounds it
# (reduction's kinds) and by its results column, in pareto.csv's metric order
GAPS = ("dp", "eop", "eod")


@dataclass(frozen=True)
class FairnessReport:
    """Accuracy and the gap each constraint kind bounds, named by that kind,
    with the per-group counts they were computed from."""

    accuracy: float
    dp: float
    eop: float
    eod: float
    group0: GroupCounts
    group1: GroupCounts


def _group_counts(pm, ym) -> GroupCounts:
    """The counts of one group from its predictions ``pm`` and labels ``ym``."""
    return GroupCounts(
        n=float(len(pm)),
        positives=float(pm.sum()),
        tp=float((pm * ym).sum()),
        fp=float((pm * (1 - ym)).sum()),
        fn=float(((1 - pm) * ym).sum()),
        tn=float(((1 - pm) * (1 - ym)).sum()),
    )


def evaluate_report(preds, labels, sensitive) -> FairnessReport:
    """Accuracy plus all three gaps between the groups A=0 and A=1: dp of
    E[pred | A], eop of E[pred | A, Y=1] (the TPR gap), and eod, the eop gap
    plus that of E[pred | A, Y=0] (the FPR gap). An empty group raises
    DegenerateGroup; failing that, an empty Y=1 cell and then an empty Y=0
    cell raise DegenerateCell."""
    p, y, a = _as_arrays(preds, labels, sensitive)
    accuracy = float((p * y + (1.0 - p) * (1.0 - y)).mean())
    # per group: its predictions and labels, and its predictions on Y=1 and
    # on Y=0 rows
    groups = []
    for grp in (0, 1):
        pm, ym = p[a == grp], y[a == grp]
        groups.append((pm, ym, pm[ym == 1], pm[ym == 0]))
    for grp, (pm, *_) in enumerate(groups):
        if not len(pm):
            raise DegenerateGroup(f"group {grp} is empty")
    for j, at in ((1, 2), (0, 3)):
        for grp, parts in enumerate(groups):
            if not len(parts[at]):
                raise DegenerateCell(f"cell (A={grp}, Y={j}) is empty")
    rate, tpr, fpr = ([parts[at].mean() for parts in groups] for at in (0, 2, 3))
    eop = float(abs(tpr[0] - tpr[1]))
    return FairnessReport(accuracy, float(abs(rate[0] - rate[1])), eop,
                          float(abs(fpr[0] - fpr[1])) + eop,
                          *(_group_counts(pm, ym) for pm, ym, _, _ in groups))


REPORT_HEADER = ("method,seed,accuracy,dp,eop,eod,"
                 "n0,pos0,tp0,fp0,fn0,tn0,n1,pos1,tp1,fp1,fn1,tn1")


def report_csv_row(report: FairnessReport, method: str, seed: int) -> str:
    g0, g1 = report.group0, report.group1
    cells = [method, str(seed),
             repr(report.accuracy), repr(report.dp), repr(report.eop), repr(report.eod)]
    for g in (g0, g1):
        cells.extend(repr(v) for v in (g.n, g.positives, g.tp, g.fp, g.fn, g.tn))
    return ",".join(cells)
