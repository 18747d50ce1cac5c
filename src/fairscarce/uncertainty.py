"""Alternate uncertainty machinery: binary entropy, split conformal
prediction sets with marginal coverage, and the confidence-band mask."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FairscarceError

LN2 = math.log(2.0)


def binary_entropy(p) -> np.ndarray | float:
    """-[p ln p + (1-p) ln(1-p)] with 0 * ln 0 := 0; lies in [0, ln 2]."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -(arr * np.log(arr)) - (1.0 - arr) * np.log(1.0 - arr)
    out = np.where((arr == 0.0) | (arr == 1.0), 0.0, terms)
    return float(out) if np.isscalar(p) or out.ndim == 0 else out


def conformal_calibrate(probs: Sequence[float], truths: Sequence[int], epsilon: float) -> float:
    """Split-conformal threshold ``q_hat`` for binary prediction sets: the
    ceil((n+1)(1-eps))/n empirical quantile of the n calibration
    nonconformity scores (1 minus true-class probability), clamped to
    [0, 1]."""
    p = np.asarray(probs, dtype=float)
    a = np.asarray(truths, dtype=int)
    if p.size == 0:
        raise FairscarceError("no calibration rows")
    if p.shape != a.shape:
        raise ValueError("probs and truths must have equal length")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    scores = np.where(a == 1, 1.0 - p, p)
    n = scores.size
    rank = math.ceil((n + 1) * (1.0 - epsilon))
    if rank > n:
        q_hat = 1.0
    else:
        q_hat = float(np.sort(scores)[rank - 1])
        q_hat = min(max(q_hat, 0.0), 1.0)
    return q_hat


@dataclass(frozen=True)
class PredictionSet:
    """Subset of {0, 1} for one sample; possibly empty."""

    sample_id: int
    members: frozenset[int]

    @property
    def certain(self) -> bool:
        return len(self.members) == 1


def conformal_sets(q_hat: float, p_groups: Sequence[float],
                   sample_ids: Sequence[int]) -> list[PredictionSet]:
    """The split-conformal prediction set of each sample ``sample_ids[i]``:
    label a enters it iff its score 1 - p(a) is within the threshold
    ``q_hat``, where p(1) = ``p_groups[i]`` and p(0) = 1 - p(1)."""
    p = np.asarray(p_groups, dtype=float)
    sets = (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}))
    codes = 2 * (1.0 - p <= q_hat) + (p <= q_hat)
    return [PredictionSet(int(i), sets[c]) for i, c in zip(sample_ids, codes.tolist())]


def confidence_band_filter(probs: Sequence[float], tau: float) -> np.ndarray:
    """Low-uncertainty mask: p <= 1 - tau or p >= tau; tau in [0.5, 1]."""
    if not 0.5 <= tau <= 1.0:
        raise ValueError("tau must lie in [0.5, 1]")
    p = np.asarray(probs, dtype=float)
    return (p <= 1.0 - tau) | (p >= tau)
