"""Uncertainty-aware sensitive-attribute classifier.

A student MLP is trained on the group-labeled rows with cross-entropy while a
teacher (exponential moving average of the student) scores every row with
MC-dropout entropy; a consistency term pulls student logits toward teacher
logits on rows the teacher is already sure about. Both the consistency weight
and the uncertainty cutoff ramp up over early epochs.

Training returns both networks as plain ``nn.MlpParams`` values
(``AttrTrainResult``); scoring (``predict_proxy``, ``teacher_eval_probs``)
takes the teacher alone. ``save_checkpoint`` keeps the teacher and the d2
calibration rows, the inputs phase 2 derives its conformal scores from, and
``load_checkpoint`` reads them back.
Every dropout-free pass, in training and in scoring, goes through
``nn.eval_logits``; ``nn.value_and_grad`` runs the student's forwards that
gradients flow through.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import nn
from .errors import ConfigError, FairscarceError, ShapeMismatch
from .tabular import Dataset, ScarceSplit, read_npz
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


def ema_update(teacher: nn.MlpParams, student: nn.MlpParams, decay: float) -> nn.MlpParams:
    """teacher <- decay * teacher + (1 - decay) * student, element-wise."""
    new_w = tuple(decay * tw + (1.0 - decay) * sw
                  for tw, sw in zip(teacher.weights, student.weights))
    new_b = tuple(decay * tb + (1.0 - decay) * sb
                  for tb, sb in zip(teacher.biases, student.biases))
    return nn.MlpParams(new_w, new_b, teacher.dropout_rate)


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


class Scratch:
    """Work arrays that MC-dropout scoring keeps from one call to the next.

    Each call needs several MB of masks and activations, and the training
    gate makes one call per batch with the same shapes. glibc hands freed
    arrays that size back to the system, and faults them in again on the
    next call, whenever its trim threshold sits below them. That threshold
    follows the largest array the process freed before, so fresh arrays
    would make the cost of a call, a page fault per 4 KB, depend on the
    corpus size. A caller that scores many times keeps one Scratch for all
    its calls."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape``: a view of the
        buffer kept under ``name``, which grows when it is too small."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.dtype != dtype or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _mc_probs_f32(params: nn.MlpParams, x: np.ndarray, passes: int,
                  seed: int, counter: int, scratch: Scratch | None = None) -> np.ndarray:
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
    - The masks and the hidden activations live in ``scratch`` (a fresh one
      when None), whose arrays a caller can reuse from call to call.
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
    scratch = Scratch() if scratch is None else scratch
    last = scratch.take("last", (rows, hidden[-1]), np.float32)
    for p0, p1 in zip(starts, starts[1:] + [passes]):
        m = (p1 - p0) * n
        for k, h in enumerate(hidden):
            kept = np.less_equal(readers[k](m * h), limit,
                                 out=scratch.take("kept", (m * h,), np.bool_))
            out = (last[p0 * n:p1 * n] if k == len(hidden) - 1
                   else scratch.take(f"hidden{k}", (m, h), np.float32))
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


def mc_dropout_predict(params: nn.MlpParams, x: np.ndarray, passes: int, seed: int,
                       counter: int = 0,
                       scratch: Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean sigmoid over ``passes`` stochastic forward passes and the binary
    entropy of that mean. Deterministic in (seed, counter); ``scratch`` only
    lends the work arrays."""
    if passes < 1:
        raise ValueError("need at least one pass")
    if params.dropout_rate == 0.0:
        p = nn.sigmoid(nn.eval_logits(params, x))
    else:
        p = _mc_probs_f32(params, x, passes, seed, counter, scratch)
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

    def __post_init__(self):
        for name in ("epochs", "batch_size", "mc_passes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lambda_max) and self.lambda_max >= 0.0):
            raise ConfigError(f"lambda_max must be a finite number >= 0, got {self.lambda_max}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")


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
    """The teacher at the last epoch run, the per-epoch log, and the sorted
    d2 row indices reserved for conformal calibration."""

    teacher: nn.MlpParams
    log: list[EpochLog]
    calib_rows: np.ndarray
    best_epoch: int


def require_d2_slices(n_d2: int, config: AttrTrainConfig) -> None:
    """Raise ConfigError unless ``n_d2`` rows of d2 carve into a
    validation, a calibration and a training slice of one row or more each
    (``config.val_fraction`` and ``config.calib_fraction`` of the rows,
    rounded, and the rest)."""
    n_val = int(round(config.val_fraction * n_d2))
    n_calib = int(round(config.calib_fraction * n_d2))
    if min(n_val, n_calib, n_d2 - n_val - n_calib) < 1:
        raise ConfigError(
            f"d2 holds {n_d2} rows, too few to carve a validation ({config.val_fraction}), "
            f"a calibration ({config.calib_fraction}) and a training slice of one row or "
            "more each; raise the group-labelled ratio or use a larger corpus")


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
    disjoint slice is reserved for conformal calibration. A d2 too small to
    give each slice a row raises ConfigError.

    Returns the teacher after the last epoch run, the per-epoch
    log, the sorted d2 row indices of the calibration slice, and the epoch of
    the best validation accuracy."""
    d1, d2 = split.d1, split.d2
    if d2.sensitive is None:
        raise ValueError("d2 must carry sensitive attributes")
    require_d2_slices(len(d2), config)
    rng = np.random.default_rng(config.seed)
    val_idx, calib_idx, train_idx = _carve(
        len(d2), [config.val_fraction, config.calib_fraction], rng)

    a_lab = d2.sensitive[train_idx].astype(float)
    x_val = d2.features[val_idx]
    a_val = d2.sensitive[val_idx]

    # batches mix the labeled rows with every unlabeled d1 row: row r of the
    # shuffled range is training row r of d2 for r < n_lab, else d1 row
    # r - n_lab; each batch gathers its rows from d2 and d1 by index, with
    # no stacked copy of both
    n_lab, width = len(train_idx), d1.features.shape[1]

    def gather(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lab_mask = rows < n_lab
        xb = np.empty((len(rows), width))
        xb[lab_mask] = d2.features[train_idx[rows[lab_mask]]]
        xb[~lab_mask] = d1.features[rows[~lab_mask] - n_lab]
        targets = np.zeros(len(rows))
        targets[lab_mask] = a_lab[rows[lab_mask]]
        return xb, lab_mask, targets

    dims = [width, *config.hidden]
    student = nn.init_mlp(dims, config.dropout_rate, seed=config.seed)
    teacher = student  # EMA starts as an exact copy
    adam = nn.init_adam(student, lr=config.lr)
    lambda_schedule = RampSchedule(config.lambda_max, config.ramp_epochs)
    r_schedule = RampSchedule(config.r_max, config.ramp_epochs)

    scratch = Scratch()  # the gate's work arrays, reused batch after batch
    step = 0
    log: list[EpochLog] = []
    best_val, best_epoch = -math.inf, 0
    stale = 0
    order_rng = np.random.default_rng((config.seed, 1))

    for epoch in range(config.epochs):
        lam = lambda_schedule.value(epoch)
        r_cut = r_schedule.value(epoch)
        order = order_rng.permutation(n_lab + len(d1))
        sup_sum, cons_sum, unc_sum, n_batches = 0.0, 0.0, 0.0, 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            xb, lab_mask, targets = gather(rows)
            ce_loss, grads = nn.value_and_grad(student, xb, (config.seed + 13, step),
                                               nn.cross_entropy_loss, targets, lab_mask)
            loss = ce_loss
            if lam > 0.0:
                teacher_logits = nn.eval_logits(teacher, xb)
                if r_cut >= LN2:
                    # entropy never exceeds ln 2, so the cutoff admits every
                    # row and the MC scoring pass can be skipped
                    cons_mask = np.ones(len(rows), dtype=bool)
                else:
                    _, u_batch = mc_dropout_predict(teacher, xb, config.mc_passes,
                                                    seed=(config.seed + 7919), counter=step,
                                                    scratch=scratch)
                    cons_mask = u_batch <= r_cut
                    unc_sum += float(u_batch.mean())
                cons_loss, cons_grads = nn.value_and_grad(student, xb, None, nn.consistency_loss,
                                                          teacher_logits, cons_mask)
                loss += lam * cons_loss
                cons_sum += cons_loss
                grads = tuple(a + lam * b for a, b in zip(grads, cons_grads))
            if not math.isfinite(loss):
                raise FairscarceError(f"non-finite loss at epoch {epoch}")
            adam, student = nn.adam_step(adam, student, grads)
            # the 1 - 1/t warm-up lets the teacher track the student instead
            # of its random initialization in early steps
            teacher = ema_update(teacher, student, min(1.0 - 1.0 / (step + 1), config.ema_decay))
            step += 1
            n_batches += 1
            sup_sum += ce_loss

        val_logits = nn.eval_logits(teacher, x_val)
        val_acc = float(((val_logits >= 0.0).astype(int) == a_val).mean())
        log.append(EpochLog(epoch, sup_sum / max(n_batches, 1), cons_sum / max(n_batches, 1),
                            lam, r_cut, unc_sum / max(n_batches, 1), val_acc))
        if val_acc > best_val + config.min_delta:
            best_val, best_epoch = val_acc, epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience and epoch + 1 >= config.min_epochs:
                break

    # the plateau teacher is returned (not the best-accuracy snapshot):
    # the consistency term keeps sharpening logits after accuracy levels off
    return AttrTrainResult(teacher, log, calib_idx, best_epoch)


def predict_proxy(teacher: nn.MlpParams, d1: Dataset, passes: int,
                  seed: int) -> Proxies:
    """The proxies of every d1 row, in d1 row order: teacher MC-dropout
    passes over blocks of ``_PROXY_CHUNK`` rows give the mean probability and
    its entropy, and a_hat is that probability thresholded at 0.5."""
    p, u = np.empty(len(d1)), np.empty(len(d1))
    scratch = Scratch()
    for start in range(0, len(d1), _PROXY_CHUNK):
        stop = start + _PROXY_CHUNK
        p[start:stop], u[start:stop] = mc_dropout_predict(
            teacher, d1.features[start:stop], passes, seed, counter=start, scratch=scratch)
    return Proxies(d1.sample_ids, (p >= 0.5).astype(int), p, u)


def teacher_eval_probs(teacher: nn.MlpParams, ds: Dataset) -> np.ndarray:
    """Deterministic (no-dropout) teacher probabilities of every row of
    ``ds``, from ``nn.eval_logits``; the score source for conformal
    calibration."""
    return nn.sigmoid(nn.eval_logits(teacher, ds.features))


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

def save_checkpoint(path, teacher: nn.MlpParams, calib_rows: np.ndarray) -> None:
    """Write what phase 2 derives its conformal inputs from as one
    uncompressed npz archive at exactly ``path``: the teacher as
    ``teacher_w{k}`` and ``teacher_b{k}`` per layer k plus the scalar
    ``dropout_rate``, and ``calib_rows``, the sorted d2 row indices of the
    conformal calibration slice. ``load_checkpoint`` reads it back."""
    arrays = {"dropout_rate": np.float64(teacher.dropout_rate), "calib_rows": calib_rows}
    for k, (w, b) in enumerate(zip(teacher.weights, teacher.biases)):
        arrays[f"teacher_w{k}"] = w
        arrays[f"teacher_b{k}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[nn.MlpParams, np.ndarray]:
    """The teacher and calibration rows that ``save_checkpoint`` wrote at
    ``path``, bit-exact and read without unpickling. A file that is no such
    archive, a missing array, and weights that ``nn.MlpParams`` rejects (not
    finite, or not chaining into one logit) raise ConfigError naming it."""
    arrays = read_npz(path, "a phase-1 checkpoint")
    try:
        layers = range(sum(name.startswith("teacher_w") for name in arrays))
        teacher = nn.MlpParams(tuple(arrays[f"teacher_w{k}"] for k in layers),
                               tuple(arrays[f"teacher_b{k}"] for k in layers),
                               float(arrays["dropout_rate"]))
        return teacher, arrays["calib_rows"]
    except (KeyError, ValueError, TypeError, ShapeMismatch) as exc:
        raise ConfigError(f"{path} is not a phase-1 checkpoint ({type(exc).__name__}: "
                          f"{exc}); rerun train-attr") from None
