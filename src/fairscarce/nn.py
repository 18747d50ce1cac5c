"""Minimal feed-forward network engine: relu MLP with a single output logit,
inverted dropout, analytic backprop, and bias-corrected Adam.

Everything is float64 and functional: operations return new parameter /
optimizer-state values instead of mutating. Stochastic forward passes draw
their dropout masks from (seed, counter) only, so any pass can be replayed
exactly by reusing the same plan.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch

TRAIN = "train"
EVAL = "eval"


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases of a relu MLP ending in one linear logit."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    dropout_rate: float = 0.0

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeMismatch("need one bias vector per weight matrix")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeMismatch("dropout_rate must lie in [0, 1)")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ShapeMismatch(f"layer {k}: bias shape {b.shape} vs weight {w.shape}")
            if k > 0 and w.shape[0] != self.weights[k - 1].shape[1]:
                raise ShapeMismatch(f"layer {k}: fan_in {w.shape[0]} does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ShapeMismatch(f"layer {k}: non-finite parameters")
        if self.weights[-1].shape[1] != 1:
            raise ShapeMismatch("output layer must produce a single logit")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class DropoutPlan:
    """Which masks a forward pass uses.

    ``train`` draws Bernoulli keep-masks as a pure function of
    (seed, counter); ``eval`` applies none. The caller advances the counter
    between steps, so replaying a pass is just reusing the same plan.
    """

    mode: str = EVAL
    seed: int = 0
    counter: int = 0

    def __post_init__(self):
        if self.mode not in (TRAIN, EVAL):
            raise ValueError(f"unknown dropout mode {self.mode!r}")

    @property
    def stochastic(self) -> bool:
        return self.mode == TRAIN


@dataclass(frozen=True)
class ForwardCache:
    """Per-layer records needed by backward: layer inputs, pre-activations,
    and the (already scaled) dropout masks applied to hidden activations."""

    inputs: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray | None, ...]


@dataclass(frozen=True)
class Gradients:
    """Loss gradients, one array per parameter tensor of an MlpParams."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class LossSpec:
    """What loss to differentiate on a batch.

    ``cross_entropy`` averages the stable binary cross-entropy over the rows
    selected by ``labeled_mask`` (all rows when None). ``consistency`` sums
    squared logit differences to ``teacher_logits`` over ``consistency_mask``
    rows and divides by ``universe_size`` (batch size when None).
    """

    kind: str
    targets: np.ndarray | None = None
    labeled_mask: np.ndarray | None = None
    teacher_logits: np.ndarray | None = None
    consistency_mask: np.ndarray | None = None
    universe_size: int | None = None

    def __post_init__(self):
        if self.kind not in ("cross_entropy", "consistency"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "cross_entropy" and self.targets is None:
            raise ValueError("cross-entropy loss needs targets")
        if self.kind == "consistency" and self.teacher_logits is None:
            raise ValueError("consistency loss needs teacher logits")


def init_mlp(layer_dims: Sequence[int], dropout_rate: float = 0.0, seed: int = 0) -> MlpParams:
    """Fan-in-scaled uniform weights, zero biases. ``layer_dims`` runs from
    input dimension to the final hidden width; the 1-unit logit layer is
    appended automatically when the last entry is not 1."""
    dims = list(layer_dims)
    if dims[-1] != 1:
        dims = dims + [1]
    if len(dims) < 2:
        raise ShapeMismatch("need at least an input dimension and the output")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(tuple(weights), tuple(biases), dropout_rate)


def _layer_masks(params: MlpParams, n_rows: int, plan: DropoutPlan) -> list[np.ndarray | None]:
    """Scaled keep-masks for every hidden layer, or None when dropout is off."""
    n_hidden = params.n_layers - 1
    p = params.dropout_rate
    if not plan.stochastic or p == 0.0 or n_hidden == 0:
        return [None] * n_hidden
    rng = np.random.default_rng((plan.seed, plan.counter))
    keep = 1.0 - p
    masks = []
    for k in range(n_hidden):
        width = params.weights[k].shape[1]
        masks.append((rng.random((n_rows, width)) < keep) / keep)
    return masks


def forward(params: MlpParams, x: np.ndarray, plan: DropoutPlan) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (logits, cache for backward)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ShapeMismatch(f"batch has {x.shape} but network expects (*, {params.in_dim})")
    masks = _layer_masks(params, x.shape[0], plan)
    inputs, preacts = [], []
    a = x
    for k in range(params.n_layers):
        inputs.append(a)
        z = a @ params.weights[k] + params.biases[k]
        preacts.append(z)
        if k < params.n_layers - 1:
            a = np.maximum(z, 0.0)
            if masks[k] is not None:
                a = a * masks[k]
    logits = preacts[-1][:, 0]
    cache = ForwardCache(tuple(inputs), tuple(preacts), tuple(masks))
    return logits, cache


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean of -[t*log(sigmoid(z)) + (1-t)*log(1-sigmoid(z))], computed in
    logit space so saturated logits cannot produce infinities."""
    z = np.asarray(logits, dtype=float)
    t = np.asarray(targets, dtype=float)
    if z.shape != t.shape:
        raise ShapeMismatch("logits and targets must have equal length")
    if z.size == 0:
        return 0.0
    per_row = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    return float(per_row.mean())


def _loss_and_logit_grad(logits: np.ndarray, spec: LossSpec) -> tuple[float, np.ndarray]:
    n = len(logits)
    loss = 0.0
    dz = np.zeros(n)
    if spec.kind == "cross_entropy":
        rows = np.ones(n, dtype=bool) if spec.labeled_mask is None else np.asarray(spec.labeled_mask, dtype=bool)
        m = int(rows.sum())
        if m > 0:
            t = np.asarray(spec.targets, dtype=float)
            if t.shape != logits.shape:
                raise ShapeMismatch("targets must match batch length")
            loss = binary_cross_entropy(logits[rows], t[rows])
            dz[rows] += (sigmoid(logits[rows]) - t[rows]) / m
    else:
        rows = np.ones(n, dtype=bool) if spec.consistency_mask is None else np.asarray(spec.consistency_mask, dtype=bool)
        universe = n if spec.universe_size is None else int(spec.universe_size)
        if universe > 0 and rows.any():
            h = np.asarray(spec.teacher_logits, dtype=float)
            if h.shape != logits.shape:
                raise ShapeMismatch("teacher logits must match batch length")
            diff = logits[rows] - h[rows]
            loss = float(np.square(diff).sum() / universe)
            dz[rows] += 2.0 * diff / universe
    return loss, dz


def _backward(params: MlpParams, cache: ForwardCache, dz_out: np.ndarray) -> Gradients:
    delta = dz_out[:, None]
    d_weights: list[np.ndarray] = [None] * params.n_layers  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * params.n_layers  # type: ignore[list-item]
    for k in range(params.n_layers - 1, -1, -1):
        d_weights[k] = cache.inputs[k].T @ delta
        d_biases[k] = delta.sum(axis=0)
        if k > 0:
            da = delta @ params.weights[k].T
            if cache.masks[k - 1] is not None:
                da = da * cache.masks[k - 1]
            delta = da * (cache.preacts[k - 1] > 0)
    return Gradients(tuple(d_weights), tuple(d_biases))


def value_and_grad(
    params: MlpParams, x: np.ndarray, spec: LossSpec, plan: DropoutPlan
) -> tuple[float, Gradients]:
    """Loss and its exact gradient for the forward pass defined by ``plan``."""
    logits, cache = forward(params, x, plan)
    loss, dz = _loss_and_logit_grad(logits, spec)
    return loss, _backward(params, cache, dz)


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus step counter and hyperparameters."""

    m_weights: tuple[np.ndarray, ...]
    m_biases: tuple[np.ndarray, ...]
    v_weights: tuple[np.ndarray, ...]
    v_biases: tuple[np.ndarray, ...]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: MlpParams, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros_w = tuple(np.zeros_like(w) for w in params.weights)
    zeros_b = tuple(np.zeros_like(b) for b in params.biases)
    return AdamState(zeros_w, zeros_b,
                     tuple(np.zeros_like(w) for w in params.weights),
                     tuple(np.zeros_like(b) for b in params.biases),
                     t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params: MlpParams, g: Gradients) -> tuple[AdamState, MlpParams]:
    """One bias-corrected Adam update; returns the new state and parameters."""
    for arr in (*g.weights, *g.biases):
        if not np.isfinite(arr).all():
            raise NonFiniteGradient("gradient contains NaN or infinity")
    t = state.t + 1
    corr1 = 1.0 - state.beta1 ** t
    corr2 = 1.0 - state.beta2 ** t

    def update(p, m, v, grad_arr):
        m_new = state.beta1 * m + (1.0 - state.beta1) * grad_arr
        v_new = state.beta2 * v + (1.0 - state.beta2) * np.square(grad_arr)
        step = state.lr * (m_new / corr1) / (np.sqrt(v_new / corr2) + state.eps)
        return p - step, m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for p, m, v, ga in zip(params.weights, state.m_weights, state.v_weights, g.weights):
        if p.shape != ga.shape:
            raise ShapeMismatch("gradient shape does not match parameters")
        pn, mn, vn = update(p, m, v, ga)
        new_w.append(pn); new_mw.append(mn); new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for p, m, v, ga in zip(params.biases, state.m_biases, state.v_biases, g.biases):
        if p.shape != ga.shape:
            raise ShapeMismatch("gradient shape does not match parameters")
        pn, mn, vn = update(p, m, v, ga)
        new_b.append(pn); new_mb.append(mn); new_vb.append(vn)

    new_state = replace(state, m_weights=tuple(new_mw), m_biases=tuple(new_mb),
                        v_weights=tuple(new_vw), v_biases=tuple(new_vb), t=t)
    new_params = MlpParams(tuple(new_w), tuple(new_b), params.dropout_rate)
    return new_state, new_params
