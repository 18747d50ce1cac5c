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


# the gaps a report holds, each named by the constraint kind that bounds it
# (reduction's kinds) and by its results column, in pareto.csv's metric order
GAPS = ("dp", "eop", "eod")


@dataclass(frozen=True)
class FairnessReport:
    """Accuracy and the gap each constraint kind bounds, named by that kind."""

    accuracy: float
    dp: float
    eop: float
    eod: float


def evaluate_report(preds, labels, sensitive) -> FairnessReport:
    """Accuracy plus all three gaps between the groups A=0 and A=1: dp of
    E[pred | A], eop of E[pred | A, Y=1] (the TPR gap), and eod, the eop gap
    plus that of E[pred | A, Y=0] (the FPR gap). An empty group raises
    DegenerateGroup; failing that, an empty Y=1 cell and then an empty Y=0
    cell raise DegenerateCell."""
    p, y, a = (np.asarray(v, dtype=float) for v in (preds, labels, sensitive))
    if p.ndim != 1 or not p.shape == y.shape == a.shape:
        raise ValueError("all inputs must be equal-length vectors")
    accuracy = float((p * y + (1.0 - p) * (1.0 - y)).mean())
    # per group: its predictions, and its predictions on Y=1 and on Y=0 rows
    groups = [(p[a == grp], p[(a == grp) & (y == 1)], p[(a == grp) & (y == 0)])
              for grp in (0, 1)]
    for grp, (pm, _, _) in enumerate(groups):
        if not len(pm):
            raise DegenerateGroup(f"group {grp} is empty")
    for j, at in ((1, 1), (0, 2)):
        for grp, parts in enumerate(groups):
            if not len(parts[at]):
                raise DegenerateCell(f"cell (A={grp}, Y={j}) is empty")
    rate, tpr, fpr = ([parts[at].mean() for parts in groups] for at in range(3))
    eop = float(abs(tpr[0] - tpr[1]))
    return FairnessReport(accuracy, float(abs(rate[0] - rate[1])), eop,
                          float(abs(fpr[0] - fpr[1])) + eop)
