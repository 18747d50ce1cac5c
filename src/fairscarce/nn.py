"""Minimal feed-forward network engine: relu MLP with a single output logit,
inverted dropout, analytic backprop, and bias-corrected Adam.

Everything is float64 and functional: operations return new parameter /
optimizer-state values instead of mutating. A forward pass takes
``dropout``: a (seed, counter) pair draws its keep-masks from that pair
alone, so passing the same pair replays a pass exactly, and None runs the
network without dropout. ``forward`` keeps the per-layer records backward
needs and serves ``value_and_grad``; ``eval_logits`` is the dropout-free
forward that keeps none. Gradients are flat tuples in ``(*weights,
*biases)`` order, the order ``AdamState`` keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FairscarceError, ShapeMismatch

# rows per hidden-layer block in eval_logits: a block's 64-wide first layer
# takes 1 MB; a 2 MB block freed in load_run raises glibc's dynamic mmap
# threshold, which added 2.2 MB to the benchmark's fair_sweep peak RSS
EVAL_BLOCK_ROWS = 2048


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
class ForwardCache:
    """Per-layer records needed by backward: layer inputs, pre-activations,
    and the (already scaled) dropout masks applied to hidden activations."""

    inputs: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray | None, ...]


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


def _layer_masks(params: MlpParams, n_rows: int,
                 dropout: tuple[int, int] | None) -> list[np.ndarray | None]:
    """Scaled keep-masks for every hidden layer, drawn from the (seed,
    counter) pair ``dropout``; all None when dropout is None or off."""
    n_hidden = params.n_layers - 1
    p = params.dropout_rate
    if dropout is None or p == 0.0 or n_hidden == 0:
        return [None] * n_hidden
    rng = np.random.default_rng(dropout)
    keep = 1.0 - p
    masks = []
    for k in range(n_hidden):
        width = params.weights[k].shape[1]
        masks.append((rng.random((n_rows, width)) < keep) / keep)
    return masks


def _batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ShapeMismatch(f"batch has {x.shape} but network expects (*, {params.in_dim})")
    return x


def forward(params: MlpParams, x: np.ndarray,
            dropout: tuple[int, int] | None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (logits, cache for backward)."""
    x = _batch(params, x)
    masks = _layer_masks(params, x.shape[0], dropout)
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


def eval_logits(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The logits of ``forward`` without dropout, bit for bit (the same
    product, then bias, then relu, per layer), but no cache for backward is
    kept and only one block of a layer's rows is alive at once:

    - The hidden layers run on blocks of ``EVAL_BLOCK_ROWS`` rows, each
      writing its last hidden layer into one buffer of every row; gemm
      rounds a row the same whatever the block around it. A one-row product
      goes to gemv, which rounds differently, so a one-row last block joins
      the block before it.
    - The output layer is one product over that buffer: a one-column product
      goes to gemv, whose rounding depends on a row's position in the matrix.
    """
    x = _batch(params, x)
    n, last = len(x), params.n_layers - 1
    if last:
        hidden = np.empty((n, params.weights[last].shape[0]))
        starts = list(range(0, n, EVAL_BLOCK_ROWS))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        for start, stop in zip(starts, starts[1:] + [n]):
            a = x[start:stop]
            for k in range(last):
                a = np.matmul(a, params.weights[k],
                              out=hidden[start:stop] if k == last - 1 else None)
                a += params.biases[k]
                np.maximum(a, 0.0, out=a)
        x = hidden
    z = x @ params.weights[last]
    z += params.biases[last]
    return z[:, 0]


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


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray,
                       mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The binary cross-entropy averaged over the ``mask`` rows (all rows
    when None), and its gradient in the logits."""
    n = len(logits)
    rows = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    dz = np.zeros(n)
    m = int(rows.sum())
    if m == 0:
        return 0.0, dz
    t = np.asarray(targets, dtype=float)
    if t.shape != logits.shape:
        raise ShapeMismatch("targets must match batch length")
    dz[rows] += (sigmoid(logits[rows]) - t[rows]) / m
    return binary_cross_entropy(logits[rows], t[rows]), dz


def consistency_loss(logits: np.ndarray, teacher_logits: np.ndarray,
                     mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Squared differences to ``teacher_logits`` summed over the ``mask``
    rows (all rows when None) and divided by the batch size, and its
    gradient in the logits."""
    n = len(logits)
    rows = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    dz = np.zeros(n)
    if not rows.any():
        return 0.0, dz
    h = np.asarray(teacher_logits, dtype=float)
    if h.shape != logits.shape:
        raise ShapeMismatch("teacher logits must match batch length")
    diff = logits[rows] - h[rows]
    dz[rows] += 2.0 * diff / n
    return float(np.square(diff).sum() / n), dz


def _backward(params: MlpParams, cache: ForwardCache,
              dz_out: np.ndarray) -> tuple[np.ndarray, ...]:
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
    return (*d_weights, *d_biases)


def value_and_grad(params: MlpParams, x: np.ndarray, dropout: tuple[int, int] | None,
                   loss: Callable[..., tuple[float, np.ndarray]],
                   *loss_args) -> tuple[float, tuple[np.ndarray, ...]]:
    """``loss(logits, *loss_args)`` on the forward pass that ``dropout``
    defines, and its exact gradient in ``(*weights, *biases)`` order."""
    logits, cache = forward(params, x, dropout)
    value, dz = loss(logits, *loss_args)
    return value, _backward(params, cache, dz)


BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    """First and second moment accumulators, one array per parameter tensor
    (weights first, then biases), plus the step counter and learning rate."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    t: int = 0
    lr: float = 1e-3


def init_adam(params: MlpParams, lr: float = 1e-3) -> AdamState:
    tensors = (*params.weights, *params.biases)
    return AdamState(tuple(np.zeros_like(p) for p in tensors),
                     tuple(np.zeros_like(p) for p in tensors), t=0, lr=lr)


def adam_step(state: AdamState, params: MlpParams,
              grads: tuple[np.ndarray, ...]) -> tuple[AdamState, MlpParams]:
    """One bias-corrected Adam update by the gradients ``grads``, one per
    parameter tensor in ``(*weights, *biases)`` order; returns the new state
    and parameters."""
    for arr in grads:
        if not np.isfinite(arr).all():
            raise FairscarceError("gradient contains NaN or infinity")
    if len(grads) != len(state.m):
        raise ShapeMismatch(f"{len(grads)} gradients for {len(state.m)} parameter tensors")
    t = state.t + 1
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    new_p, new_m, new_v = [], [], []
    for p, m, v, grad in zip((*params.weights, *params.biases), state.m, state.v, grads):
        if p.shape != grad.shape:
            raise ShapeMismatch("gradient shape does not match parameters")
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * np.square(grad)
        new_p.append(p - state.lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    n = params.n_layers
    new_params = MlpParams(tuple(new_p[:n]), tuple(new_p[n:]), params.dropout_rate)
    return AdamState(tuple(new_m), tuple(new_v), t, state.lr), new_params
