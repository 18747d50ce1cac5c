"""Uncertainty-aware sensitive-attribute classifier.

A student MLP is trained on the group-labeled rows with cross-entropy while a
teacher (exponential moving average of the student) scores every row with
MC-dropout entropy; a consistency term pulls student logits toward teacher
logits on rows the teacher is already sure about. Both the consistency weight
and the uncertainty cutoff ramp up over early epochs.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import nn
from .errors import DivergedTraining
from .tabular import Dataset, ScarceSplit
from .uncertainty import LN2, binary_entropy

# d1 rows scored per MC-dropout call in predict_proxy
_PROXY_CHUNK = 4096
# most stacked MC-dropout rows (passes x input rows) in one hidden-layer block
_MC_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class RampSchedule:
    """Gaussian warm-up toward ``max_value`` over ``ramp_length`` epochs:
    value(t) = max_value * exp(-5 (1 - min(t / ramp_length, 1))^2)."""

    max_value: float
    ramp_length: int

    def value(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError("epoch must be nonnegative")
        if self.ramp_length <= 0 or epoch >= self.ramp_length:
            return self.max_value
        frac = 1.0 - epoch / self.ramp_length
        return self.max_value * math.exp(-5.0 * frac * frac)


@dataclass(frozen=True)
class StudentTeacherState:
    student: nn.MlpParams
    teacher: nn.MlpParams
    adam: nn.AdamState
    ema_decay: float
    lambda_schedule: RampSchedule
    r_schedule: RampSchedule

    def __post_init__(self):
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")


def ema_update(state: StudentTeacherState, decay: float | None = None) -> StudentTeacherState:
    """teacher <- decay * teacher + (1 - decay) * student, element-wise.

    ``decay`` defaults to the state's ema_decay; the trainer passes a
    warmed-up value in early steps so the teacher tracks the student instead
    of its random initialization."""
    a = state.ema_decay if decay is None else decay
    new_w = tuple(a * tw + (1.0 - a) * sw
                  for tw, sw in zip(state.teacher.weights, state.student.weights))
    new_b = tuple(a * tb + (1.0 - a) * sb
                  for tb, sb in zip(state.teacher.biases, state.student.biases))
    teacher = nn.MlpParams(new_w, new_b, state.teacher.dropout_rate)
    return replace(state, teacher=teacher)


ProxyRow = namedtuple("ProxyRow", "sample_id a_hat p_group u")


@dataclass(frozen=True, eq=False)
class Proxies:
    """Predicted sensitive attribute of every d1 row, as four columns in d1
    row order: the sample id, the hard label (ties at 0.5 go to 1), the mean
    group probability over the MC passes, and its entropy."""

    sample_id: np.ndarray
    a_hat: np.ndarray
    p_group: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_id)

    def __iter__(self) -> Iterator[ProxyRow]:
        # read-only rows for the benchmark's perfbench/workloads.py
        # (_proxy_readings, setup and summarize_rep), which still reads the
        # proxies as records; delete this once it reads the columns
        return map(ProxyRow, self.sample_id.tolist(), self.a_hat.tolist(),
                   self.p_group.tolist(), self.u.tolist())


def _uint32_reader(seeds: np.random.SeedSequence, start: int):
    """A function ``read(count)`` that returns the next ``count`` uint32 draws
    of the PCG64 stream seeded by ``seeds``, starting at uint32 position
    ``start``. PCG64 serves 32-bit draws as the low, then the high half of
    each 64-bit draw, so an odd start drops the low half of its first draw,
    and a read that ends inside a draw leaves the high half to the next."""
    gen = np.random.PCG64(seeds)
    gen.advance(start // 2)
    spare = gen.random_raw(1).view(np.uint32)[1:] if start % 2 else np.empty(0, np.uint32)

    def read(count: int) -> np.ndarray:
        nonlocal spare
        need = count - len(spare)
        fresh = gen.random_raw((need + 1) // 2).view(np.uint32)
        out = np.concatenate((spare, fresh[:need])) if len(spare) else fresh[:need]
        spare = fresh[need:]
        return out

    return read


def _mc_probs_f32(params: nn.MlpParams, x: np.ndarray, passes: int,
                  seed: int, counter: int) -> np.ndarray:
    """Mean sigmoid of ``passes`` stochastic forward passes in float32 (the
    scoring pass is memory-bound and does not need double precision);
    deterministic in (seed, counter).

    The output is bit-identical to stacking ``passes`` copies of ``x`` (row
    ``p * n + i`` is pass p of input row i) and running every layer on the
    stack with keep-masks drawn as ``rng.random(..., dtype=float32) < keep``,
    layer by layer, from ``default_rng((seed, counter))``:

    - Keep-masks come from raw PCG64 bits. numpy's float32 uniform is
      ``(next_uint32 >> 8) * 2**-24``, so ``u < keep`` is
      ``bits < ceil(keep * 2**24) * 256``. The stream is layer-major and
      row-major within a layer: hidden layer k's bits start at uint32
      position ``rows * sum(widths of layers before k)``, and each layer
      reads its own slice through a generator advanced to that position
      (``_uint32_reader``), so the layers can run block by block.
    - Layer 0 runs once per input row: ``relu(z) * (kept / keep)`` equals
      ``(relu(z) * (1 / keep)) * kept`` exactly, so a block's per-pass
      activations are one broadcast product of that with the masks.
    - The hidden layers run on blocks of whole passes, at most
      ``_MC_BLOCK_ROWS`` stacked rows each (one pass when a pass is longer),
      so no block holds more than that many rows of masks and activations
      at once; gemm rounds a row the same whatever the block around it.
    - The output layer stays one product over all rows, read from a buffer
      of the last hidden layer's activations: a one-column product goes to
      gemv, whose rounding depends on a row's position in the matrix.
    - numpy sends a one-row product to gemv, which rounds differently from
      the gemm a stack of two or more rows gets, so a single row with
      several passes runs layer 0 on two copies of itself, a one-row last
      block joins the block before it, and a net with no hidden layer keeps
      the tiled product.
    """
    keep = np.float32(1.0 - params.dropout_rate)
    scale = np.float32(1.0) / keep
    # bits <= limit, i.e. bits < ceil(keep * 2**24) * 256 without
    # overflowing uint32 when keep rounds to 1
    limit = np.uint32(math.ceil(float(keep) * 2.0 ** 24) * 256 - 1)
    a = np.asarray(x, dtype=np.float32)
    n = len(a)
    rows = passes * n
    weights = [w.astype(np.float32) for w in params.weights]
    biases = [b.astype(np.float32) for b in params.biases]
    hidden = [w.shape[1] for w in params.weights[:-1]]
    if not hidden:
        z = np.tile(a, (passes, 1)) @ weights[0]
        z += biases[0]
        return nn.sigmoid(z[:, 0].astype(float)).reshape(passes, n).mean(axis=0)

    z0 = (np.tile(a, (2, 1)) if n == 1 and passes > 1 else a) @ weights[0]
    z0 += biases[0]
    np.maximum(z0, np.float32(0.0), out=z0)
    z0 *= scale
    seeds = np.random.SeedSequence((seed, counter))
    readers = [_uint32_reader(seeds, rows * sum(hidden[:k])) for k in range(len(hidden))]
    per_block = max(1, _MC_BLOCK_ROWS // max(n, 1))  # passes per block
    starts = list(range(0, passes, per_block))
    if n == 1 and len(starts) > 1 and passes - starts[-1] == 1:
        starts.pop()
    last = np.empty((rows, hidden[-1]), dtype=np.float32)
    for p0, p1 in zip(starts, starts[1:] + [passes]):
        m = (p1 - p0) * n
        for k, h in enumerate(hidden):
            kept = readers[k](m * h) <= limit
            out = last[p0 * n:p1 * n] if k == len(hidden) - 1 else np.empty((m, h), np.float32)
            if k == 0:
                np.multiply(z0[:n], kept.reshape(p1 - p0, n, h), out=out.reshape(p1 - p0, n, h))
            else:
                np.matmul(a, weights[k], out=out)
                out += biases[k]
                np.maximum(out, np.float32(0.0), out=out)
                out *= scale
                out *= kept.reshape(m, h)
            a = out
    z = last @ weights[-1]
    z += biases[-1]
    return nn.sigmoid(z[:, 0].astype(float)).reshape(passes, n).mean(axis=0)


def mc_dropout_predict(params: nn.MlpParams, x: np.ndarray, passes: int,
                       seed: int, counter: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean sigmoid over ``passes`` stochastic forward passes and the binary
    entropy of that mean. Deterministic in (seed, counter)."""
    if passes < 1:
        raise ValueError("need at least one pass")
    if params.dropout_rate == 0.0:
        logits, _ = nn.forward(params, x, nn.DropoutPlan(nn.EVAL))
        p = nn.sigmoid(logits)
    else:
        p = _mc_probs_f32(params, x, passes, seed, counter)
    return p, binary_entropy(p)


@dataclass(frozen=True)
class AttrTrainConfig:
    hidden: tuple[int, ...] = (64, 32)
    dropout_rate: float = 0.3
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 100
    mc_passes: int = 30
    ema_decay: float = 0.99
    lambda_max: float = 1.0
    r_max: float = LN2
    ramp_epochs: int = 30
    val_fraction: float = 0.1
    calib_fraction: float = 0.1
    patience: int = 10
    min_epochs: int = 35  # no early stop before the ramp has settled
    min_delta: float = 1e-4
    seed: int = 0


@dataclass
class EpochLog:
    epoch: int
    loss_supervised: float
    loss_consistency: float
    lambda_value: float
    r_value: float
    mean_batch_uncertainty: float
    val_accuracy: float


@dataclass
class AttrTrainResult:
    state: StudentTeacherState
    log: list[EpochLog]
    val_ids: np.ndarray
    calib_ids: np.ndarray
    best_epoch: int


def _carve(n: int, fractions: Sequence[float], rng) -> list[np.ndarray]:
    """Disjoint index blocks of the given fractions, remainder last."""
    order = rng.permutation(n)
    out, start = [], 0
    for frac in fractions:
        k = int(round(frac * n))
        out.append(np.sort(order[start:start + k]))
        start += k
    out.append(np.sort(order[start:]))
    return out


def train_attribute_classifier(split: ScarceSplit,
                               config: AttrTrainConfig) -> AttrTrainResult:
    """Phase 1: fit the student on d2's sensitive labels plus the ramped
    consistency term over low-uncertainty rows of d1 and d2.

    The teacher trails the student by per-step EMA (with the usual 1-1/t
    warm-up so it starts as a copy rather than noise). Cross-entropy flows
    through the dropout-noised forward; the consistency gradient flows
    through the student's deterministic logits, because consistency on the
    noised forward penalizes logit variance and systematically inflates the
    MC entropy. A held-out slice of d2 drives early stopping; a second
    disjoint slice is reserved for conformal calibration."""
    d1, d2 = split.d1, split.d2
    if d2.sensitive is None:
        raise ValueError("d2 must carry sensitive attributes")
    rng = np.random.default_rng(config.seed)
    val_idx, calib_idx, train_idx = _carve(
        len(d2), [config.val_fraction, config.calib_fraction], rng)

    x_lab = d2.features[train_idx]
    a_lab = d2.sensitive[train_idx].astype(float)
    x_val = d2.features[val_idx]
    a_val = d2.sensitive[val_idx]

    # batches mix the labeled rows with every unlabeled d1 row
    x_all = np.vstack([x_lab, d1.features])
    labeled = np.zeros(len(x_all), dtype=bool)
    labeled[:len(x_lab)] = True
    targets_all = np.concatenate([a_lab, np.zeros(len(d1))])

    dims = [x_all.shape[1], *config.hidden]
    student = nn.init_mlp(dims, config.dropout_rate, seed=config.seed)
    teacher = student  # EMA starts as an exact copy
    adam = nn.init_adam(student, lr=config.lr)
    state = StudentTeacherState(student, teacher, adam, config.ema_decay,
                                RampSchedule(config.lambda_max, config.ramp_epochs),
                                RampSchedule(config.r_max, config.ramp_epochs))

    step = 0
    log: list[EpochLog] = []
    best_val, best_epoch = -math.inf, 0
    stale = 0
    order_rng = np.random.default_rng((config.seed, 1))

    for epoch in range(config.epochs):
        lam = state.lambda_schedule.value(epoch)
        r_cut = state.r_schedule.value(epoch)
        order = order_rng.permutation(len(x_all))
        sup_sum, cons_sum, unc_sum, n_batches = 0.0, 0.0, 0.0, 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            xb = x_all[rows]
            lab_mask = labeled[rows]
            spec_ce = nn.LossSpec("cross_entropy", targets=targets_all[rows],
                                  labeled_mask=lab_mask)
            ce_loss, grads = nn.value_and_grad(state.student, xb, spec_ce,
                                               nn.DropoutPlan(nn.TRAIN, config.seed + 13, step))
            loss = ce_loss
            if lam > 0.0:
                teacher_logits, _ = nn.forward(state.teacher, xb, nn.DropoutPlan(nn.EVAL))
                if r_cut >= LN2:
                    # entropy never exceeds ln 2, so the cutoff admits every
                    # row and the MC scoring pass can be skipped
                    cons_mask = np.ones(len(rows), dtype=bool)
                else:
                    _, u_batch = mc_dropout_predict(state.teacher, xb, config.mc_passes,
                                                    seed=(config.seed + 7919), counter=step)
                    cons_mask = u_batch <= r_cut
                    unc_sum += float(u_batch.mean())
                spec_cons = nn.LossSpec("consistency", teacher_logits=teacher_logits,
                                        consistency_mask=cons_mask)
                cons_loss, cons_grads = nn.value_and_grad(state.student, xb, spec_cons,
                                                          nn.DropoutPlan(nn.EVAL))
                loss += lam * cons_loss
                cons_sum += cons_loss
                grads = nn.Gradients(
                    tuple(a + lam * b for a, b in zip(grads.weights, cons_grads.weights)),
                    tuple(a + lam * b for a, b in zip(grads.biases, cons_grads.biases)))
            if not math.isfinite(loss):
                raise DivergedTraining(f"non-finite loss at epoch {epoch}")
            adam, student = nn.adam_step(state.adam, state.student, grads)
            state = replace(state, adam=adam, student=student)
            state = ema_update(state, decay=min(1.0 - 1.0 / (step + 1), config.ema_decay))
            step += 1
            n_batches += 1
            sup_sum += ce_loss

        val_logits, _ = nn.forward(state.teacher, x_val, nn.DropoutPlan(nn.EVAL))
        val_acc = float(((val_logits >= 0.0).astype(int) == a_val).mean()) if len(a_val) else 0.0
        log.append(EpochLog(epoch, sup_sum / max(n_batches, 1), cons_sum / max(n_batches, 1),
                            lam, r_cut, unc_sum / max(n_batches, 1), val_acc))
        if val_acc > best_val + config.min_delta:
            best_val, best_epoch = val_acc, epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience and epoch + 1 >= config.min_epochs:
                break

    # the plateau state is returned (not the best-accuracy snapshot): the
    # consistency term keeps sharpening logits after accuracy levels off
    return AttrTrainResult(state, log, d2.sample_ids[val_idx],
                           d2.sample_ids[calib_idx], best_epoch)


def predict_proxy(state: StudentTeacherState, d1: Dataset, passes: int,
                  seed: int) -> Proxies:
    """The proxies of every d1 row, in d1 row order: teacher MC-dropout
    passes over blocks of ``_PROXY_CHUNK`` rows give the mean probability and
    its entropy, and a_hat is that probability thresholded at 0.5."""
    p, u = np.empty(len(d1)), np.empty(len(d1))
    for start in range(0, len(d1), _PROXY_CHUNK):
        stop = start + _PROXY_CHUNK
        p[start:stop], u[start:stop] = mc_dropout_predict(
            state.teacher, d1.features[start:stop], passes, seed, counter=start)
    return Proxies(d1.sample_ids, (p >= 0.5).astype(int), p, u)


def teacher_eval_probs(state: StudentTeacherState, ds: Dataset) -> np.ndarray:
    """Deterministic (no-dropout) teacher probabilities; the score source for
    conformal calibration. Bit-identical to the sigmoid of ``nn.forward`` in
    eval mode (the same product, then bias, then relu, per layer), but each
    layer works in place and no cache for backward is kept."""
    params = state.teacher
    a = ds.features
    for k in range(params.n_layers):
        a = a @ params.weights[k]
        a += params.biases[k]
        if k < params.n_layers - 1:
            np.maximum(a, 0.0, out=a)
    return nn.sigmoid(a[:, 0])


# --- proxy csv io -------------------------------------------------------------

PROXY_HEADER = "sample_id,a_hat,p_group,u"


def save_proxies(path, proxies: Proxies) -> None:
    """Write ``proxies`` as a CSV under ``PROXY_HEADER``, one line per d1
    row in d1 row order, each float as its shortest round-trip repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROXY_HEADER + "\n")
        columns = (proxies.sample_id, proxies.a_hat, proxies.p_group, proxies.u)
        for sample_id, a_hat, p_group, u in zip(*(col.tolist() for col in columns)):
            fh.write(f"{sample_id},{a_hat},{p_group!r},{u!r}\n")


# --- checkpoint ---------------------------------------------------------------

def save_checkpoint(path, state: StudentTeacherState) -> None:
    """Write the trained networks as one uncompressed npz archive at exactly
    ``path``: ``student_w{k}``, ``student_b{k}``, ``teacher_w{k}`` and
    ``teacher_b{k}`` per layer k, plus the scalar ``dropout_rate``. The
    arrays round-trip bit-exactly through ``np.load``. Nothing in the package
    reads the file back: phase 2 works off the proxies and conformal inputs."""
    arrays = {"dropout_rate": np.float64(state.student.dropout_rate)}
    for role, params in (("student", state.student), ("teacher", state.teacher)):
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            arrays[f"{role}_w{k}"] = w
            arrays[f"{role}_b{k}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
