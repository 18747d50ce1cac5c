"""Uncertainty-aware sensitive-attribute classifier.

A student MLP is trained on the group-labeled rows with cross-entropy while a
teacher (exponential moving average of the student) scores every row with
MC-dropout entropy; a consistency term pulls student logits toward teacher
logits on rows the teacher is already sure about. Both the consistency weight
and the uncertainty cutoff ramp up over early epochs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from . import nn
from .errors import DivergedTraining
from .tabular import Dataset, ScarceSplit
from .uncertainty import LN2, binary_entropy

# d1 rows scored per MC-dropout call in predict_proxy
_PROXY_CHUNK = 4096


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


@dataclass(frozen=True)
class ProxyRecord:
    """Predicted sensitive attribute for one row: hard label (ties at 0.5 go
    to 1), mean group probability over the MC passes, and its entropy."""

    sample_id: int
    a_hat: int
    p_group: float
    u: float


def _mc_probs_f32(params: nn.MlpParams, x: np.ndarray, passes: int,
                  seed: int, counter: int) -> np.ndarray:
    """Mean sigmoid of ``passes`` stochastic forward passes in float32 (the
    scoring pass is memory-bound and does not need double precision);
    deterministic in (seed, counter).

    The output is bit-identical to stacking ``passes`` copies of ``x`` and
    running every layer on the stack with keep-masks drawn as
    ``rng.random(..., dtype=float32) < keep``, layer by layer:

    - Keep-masks come from raw PCG64 bits. numpy's float32 uniform is
      ``(next_uint32 >> 8) * 2**-24`` and PCG64 serves 32-bit draws as the
      low, then the high half of each 64-bit draw, so one ``random_raw``
      call viewed as uint32 is the same stream across all layers, odd
      counts included; ``u < keep`` is ``bits < ceil(keep * 2**24) * 256``.
    - Layer 0 runs once per input row: ``relu(z) * (kept / keep)`` equals
      ``(relu(z) * (1 / keep)) * kept`` exactly, so the per-pass activations
      are one broadcast product of that with the masks.
    - numpy sends a one-row product to gemv, which rounds differently from
      the gemm a stack of two or more rows gets, so a single row with
      several passes runs layer 0 on two copies of itself, and a net with
      no hidden layer keeps the tiled product.
    """
    rng = np.random.default_rng((seed, counter))
    keep = np.float32(1.0 - params.dropout_rate)
    scale = np.float32(1.0) / keep
    # bits <= limit, i.e. bits < ceil(keep * 2**24) * 256 without
    # overflowing uint32 when keep rounds to 1
    limit = np.uint32(math.ceil(float(keep) * 2.0 ** 24) * 256 - 1)
    a = np.asarray(x, dtype=np.float32)
    n = len(a)
    rows = passes * n
    hidden = [w.shape[1] for w in params.weights[:-1]]
    bits = rng.bit_generator.random_raw((rows * sum(hidden) + 1) // 2).view(np.uint32)
    if not hidden:
        a = np.tile(a, (passes, 1))
    elif n == 1 and passes > 1:
        a = np.tile(a, (2, 1))
    offset = 0
    for k in range(params.n_layers):
        z = a @ params.weights[k].astype(np.float32)
        z += params.biases[k].astype(np.float32)
        if k == params.n_layers - 1:
            break
        h = hidden[k]
        kept = bits[offset:offset + rows * h] <= limit
        offset += rows * h
        np.maximum(z, np.float32(0.0), out=z)
        z *= scale
        if k == 0:
            a = (z[:n] * kept.reshape(passes, n, h)).reshape(rows, h)
        else:
            z *= kept.reshape(rows, h)
            a = z
    logits = z[:, 0].astype(float)
    return nn.sigmoid(logits).reshape(passes, n).mean(axis=0)


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
    consistency_norm: str = "batch"  # or "global": divide by |d1| + |d2|
    proxy_source: str = "teacher"  # or "student": which logits pick a_hat
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
    universe = len(d1) + len(d2)

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
                spec_universe = universe if config.consistency_norm == "global" else len(rows)
                spec_cons = nn.LossSpec("consistency", teacher_logits=teacher_logits,
                                        consistency_mask=cons_mask,
                                        universe_size=spec_universe)
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
                  seed: int, config_proxy_source: str = "teacher") -> list[ProxyRecord]:
    """One ProxyRecord per d1 row, sorted by sample id. Uncertainty always
    comes from teacher MC passes; a_hat comes from the thresholded mean
    probability (or from student eval logits when so configured)."""
    records: list[ProxyRecord] = []
    order = np.argsort(d1.sample_ids)
    for start in range(0, len(order), _PROXY_CHUNK):
        rows = order[start:start + _PROXY_CHUNK]
        x = d1.features[rows]
        p, u = mc_dropout_predict(state.teacher, x, passes, seed, counter=start)
        if config_proxy_source == "student":
            logits, _ = nn.forward(state.student, x, nn.DropoutPlan(nn.EVAL))
            a_hat = (logits >= 0.0).astype(int)
        else:
            a_hat = (p >= 0.5).astype(int)
        for i, row in enumerate(rows):
            records.append(ProxyRecord(int(d1.sample_ids[row]), int(a_hat[i]),
                                       float(p[i]), float(u[i])))
    return records


def teacher_eval_probs(state: StudentTeacherState, ds: Dataset) -> np.ndarray:
    """Deterministic (no-dropout) teacher probabilities; the score source for
    conformal calibration."""
    logits, _ = nn.forward(state.teacher, ds.features, nn.DropoutPlan(nn.EVAL))
    return nn.sigmoid(logits)


# --- proxy csv io -------------------------------------------------------------

PROXY_HEADER = "sample_id,a_hat,p_group,u"


def write_proxies(fh: IO[str], records: Sequence[ProxyRecord]) -> None:
    fh.write(PROXY_HEADER + "\n")
    for r in records:
        fh.write(f"{r.sample_id},{r.a_hat},{repr(r.p_group)},{repr(r.u)}\n")


def read_proxies(fh: IO[str]) -> list[ProxyRecord]:
    if fh.readline().strip() != PROXY_HEADER:
        raise ValueError("not a proxy file")
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        sid, a_hat, p, u = line.split(",")
        out.append(ProxyRecord(int(sid), int(a_hat), float(p), float(u)))
    return out


def save_proxies(path, records: Sequence[ProxyRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_proxies(fh, records)


def load_proxies(path) -> list[ProxyRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_proxies(fh)


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
