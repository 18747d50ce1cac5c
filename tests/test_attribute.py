import math
import tracemalloc

import numpy as np
import pytest

from fairscarce import attribute as attr
from fairscarce import harness, nn, tabular
from fairscarce.errors import ConfigError, FairscarceError
from fairscarce.uncertainty import LN2, binary_entropy

PROXY_COLUMNS = ("sample_id", "a_hat", "p_group", "u")


def test_gaussian_rampup_values():
    sched = attr.RampSchedule(max_value=2.0, ramp_length=30)
    assert sched.value(30) == 2.0
    assert sched.value(100) == 2.0
    assert sched.value(0) == pytest.approx(2.0 * math.exp(-5.0))
    assert sched.value(15) == pytest.approx(2.0 * math.exp(-1.25))


def test_rampup_monotone_and_clamped():
    sched = attr.RampSchedule(1.0, 25)
    values = [sched.value(t) for t in range(60)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0
    zero_ramp = attr.RampSchedule(0.7, 0)
    assert zero_ramp.value(0) == 0.7


def ema_of(alpha, t_val, s_val):
    student = nn.MlpParams((np.full((2, 1), s_val),), (np.array([s_val]),))
    teacher = nn.MlpParams((np.full((2, 1), t_val),), (np.array([t_val]),))
    return attr.ema_update(teacher, student, alpha)


def test_ema_update_arithmetic():
    teacher = ema_of(0.99, 0.0, 1.0)
    assert teacher.weights[0][0, 0] == pytest.approx(0.01)
    teacher = ema_of(0.0, 0.3, 1.0)
    assert teacher.weights[0][0, 0] == 1.0
    teacher = ema_of(0.9, 0.5, 0.5)
    assert teacher.weights[0][0, 0] == pytest.approx(0.5)


def test_ema_update_convex_combination():
    rng = np.random.default_rng(0)
    student = nn.init_mlp([3, 4], seed=1)
    teacher = nn.init_mlp([3, 4], seed=2)
    new = attr.ema_update(teacher, student, 0.9)
    for t_new, t_old, s in zip(new.weights, teacher.weights, student.weights):
        lo = np.minimum(t_old, s) - 1e-12
        hi = np.maximum(t_old, s) + 1e-12
        assert np.all((t_new >= lo) & (t_new <= hi))


def test_mc_dropout_zero_rate_matches_eval():
    params = nn.init_mlp([4, 8], dropout_rate=0.0, seed=3)
    x = np.random.default_rng(4).normal(size=(6, 4))
    p, u = attr.mc_dropout_predict(params, x, passes=5, seed=9)
    logits, _ = nn.forward(params, x, None)
    np.testing.assert_allclose(p, nn.sigmoid(logits))
    assert np.all((u >= 0) & (u <= LN2 + 1e-12))


def test_mc_dropout_deterministic_and_entropy_bounds():
    params = nn.init_mlp([4, 8, 8], dropout_rate=0.4, seed=5)
    x = np.random.default_rng(6).normal(size=(10, 4))
    p1, u1 = attr.mc_dropout_predict(params, x, passes=20, seed=11)
    p2, u2 = attr.mc_dropout_predict(params, x, passes=20, seed=11)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(u1, u2)
    p3, _ = attr.mc_dropout_predict(params, x, passes=20, seed=12)
    assert not np.array_equal(p1, p3)
    assert np.all((u1 >= 0) & (u1 <= LN2 + 1e-12))


def reference_mc_probs(params, x, passes, seed, counter):
    """The tiled MC-dropout kernel: every layer runs on ``passes`` stacked
    copies of ``x`` with float32 uniform keep-masks drawn layer by layer.
    Kept as the reference for the raw-bit, layer-0-once kernel."""
    rng = np.random.default_rng((seed, counter))
    keep = np.float32(1.0 - params.dropout_rate)
    a = np.tile(np.asarray(x, dtype=np.float32), (passes, 1))
    rows = a.shape[0]
    for k in range(params.n_layers):
        w = params.weights[k].astype(np.float32)
        b = params.biases[k].astype(np.float32)
        z = a @ w + b
        if k < params.n_layers - 1:
            mask = (rng.random((rows, w.shape[1]), dtype=np.float32) < keep) / keep
            a = np.maximum(z, np.float32(0.0)) * mask
    logits = z[:, 0].astype(float)
    return nn.sigmoid(logits).reshape(passes, len(x)).mean(axis=0)


@pytest.mark.parametrize("rate", [1e-9, 0.1, 0.3, 0.5, 0.6])
@pytest.mark.parametrize("dims", [[100, 64, 32], [3, 8], [10, 7, 5], [6]],
                         ids=["100-64-32", "3-8", "10-7-5", "no-hidden"])
def test_mc_probs_bit_identical_to_tiled_reference(dims, rate):
    # odd widths give odd mask-draw counts per layer; n == 1 with several
    # passes is the case where a one-row product would take gemv; rate 1e-9
    # rounds keep to 1 and rate 0.6 leaves keep * 2**24 between integers
    rng = np.random.default_rng(len(dims) * 1000 + int(rate * 100))
    base = nn.init_mlp(dims, dropout_rate=rate, seed=7)
    params = nn.MlpParams(base.weights,
                          tuple(rng.normal(scale=0.3, size=b.shape) for b in base.biases),
                          rate)
    x_all = rng.normal(size=(4096, dims[0]))
    # past 8,192 stacked rows the hidden layers run in blocks of whole
    # passes: 4,096 x 30 is 15 blocks; 2,775 x 5 ends on a one-pass block;
    # 2,731 x 7 has odd-sized blocks, so with odd widths a layer's stream
    # starts on an odd uint32 and reads end inside a 64-bit draw; 1 x 8,193
    # leaves a one-row last block
    # one Scratch lends its work arrays to every call, as the training gate's
    # does, whatever the shapes before
    shared = attr.Scratch()
    cases = [(n, passes) for n in (1, 2, 7, 256, 2775) for passes in (1, 5, 30)]
    for n, passes in cases + [(4096, 30), (2775, 5), (2731, 7), (1, 8193)]:
        x = x_all[:n]
        expected = reference_mc_probs(params, x, passes, seed=11, counter=n)
        got = attr._mc_probs_f32(params, x, passes, seed=11, counter=n)
        assert np.array_equal(got, expected), (n, passes)
        got = attr._mc_probs_f32(params, x, passes, seed=11, counter=n, scratch=shared)
        assert np.array_equal(got, expected), (n, passes, "shared scratch")


def test_scratch_reuses_its_buffers():
    scratch = attr.Scratch()
    a = scratch.take("h", (4, 3), np.float32)
    b = scratch.take("h", (2, 5), np.float32)
    assert b.shape == (2, 5) and b.flags.c_contiguous and np.shares_memory(a, b)
    assert not np.shares_memory(a, scratch.take("other", (4, 3), np.float32))
    # larger than the buffer: a new one, which later takes reuse
    grown = scratch.take("h", (5, 3), np.float32)
    assert not np.shares_memory(a, grown)
    assert np.shares_memory(grown, scratch.take("h", (3,), np.float32))


def test_predict_proxy_peak_memory():
    # 4,096 rows x 30 passes is 122,880 stacked rows; scoring them holds one
    # block of masks and activations at a time, not all of them
    params = nn.init_mlp([100, 64, 32], dropout_rate=0.3, seed=7)
    x = (np.random.default_rng(2).random((4096, 100)) < 0.13).astype(float)
    ds = tabular.Dataset(x, np.arange(4096))
    tracemalloc.start()
    try:
        attr.predict_proxy(params, ds, passes=30, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak / 2 ** 20


def test_teacher_eval_probs_equal_eval_forward():
    split = two_cluster_split(300, seed=4)
    result = attr.train_attribute_classifier(split, quick_config(epochs=2, hidden=(16, 8)))
    cases = [(result.teacher, ds) for ds in (split.d1, split.d2, split.test)]
    # datasets that end inside, on and one or two rows past the hidden layers'
    # row blocks (a one-row tail joins the block before it), for nets with
    # zero, one and two hidden layers; weights scaled so that logits reach
    # tens, where the probabilities show a one-ulp change in any layer
    chunk = nn.EVAL_BLOCK_ROWS
    rng = np.random.default_rng(9)
    for n in (1, 2, chunk - 1, chunk, chunk + 1, chunk + 2, 2 * chunk + 1, 2 * chunk + 777):
        x = rng.normal(size=(n, 100)) * (rng.random((n, 100)) < 0.13)
        for hidden in ((), (16,), (64, 32)):
            net = nn.init_mlp([100, *hidden], dropout_rate=0.3, seed=n)
            net = nn.MlpParams(tuple(8.0 * w for w in net.weights), net.biases, 0.3)
            cases.append((net, tabular.Dataset(x, np.arange(n))))
    for teacher, ds in cases:
        logits, _ = nn.forward(teacher, ds.features, None)
        expected = nn.sigmoid(logits)
        got = attr.teacher_eval_probs(teacher, ds)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), len(ds)


def test_teacher_eval_probs_peak_memory():
    # d1 of the full demo corpus: the 27,351 x 64 and x 32 layer outputs
    # (20 MB) are never alive at once; one block of the first and a buffer
    # of the last hidden layer are
    params = nn.init_mlp([100, 64, 32], dropout_rate=0.3, seed=7)
    x = (np.random.default_rng(2).random((27351, 100)) < 0.13).astype(float)
    ds = tabular.Dataset(x, np.arange(27351))
    tracemalloc.start()
    try:
        attr.teacher_eval_probs(params, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, peak / 2 ** 20


def two_cluster_split(n=600, gap=8.0, seed=0):
    # gap 8 sigma: the realized sample is linearly separable with margin
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 2)) + gap * a[:, None]
    y = rng.integers(0, 2, size=n)
    ds = tabular.Dataset(x, np.arange(n), labels=y, sensitive=a)
    d1, d2, test = (ds.take(rows) for rows in
                    tabular.split_scarce_rows(y, a, ratio=0.3, seed=seed, test_fraction=0.2))
    return tabular.ScarceSplit.of(d1, d2, test)


def quick_config(**kw):
    base = dict(hidden=(16,), epochs=30, ramp_epochs=6, mc_passes=5,
                batch_size=64, patience=30, lr=0.01, seed=0)
    base.update(kw)
    return attr.AttrTrainConfig(**base)


@pytest.mark.parametrize("field,value", [("ema_decay", 1.0), ("ema_decay", -0.1),
                                         ("lambda_max", math.nan), ("lambda_max", -1.0),
                                         ("lambda_max", math.inf), ("epochs", 0),
                                         ("batch_size", 0), ("mc_passes", 0)])
def test_attr_config_rejects_bad_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        attr.AttrTrainConfig(**{field: value})


def test_attr_config_accepts_range_ends():
    attr.AttrTrainConfig(ema_decay=0.0, lambda_max=0.0, epochs=1)


def test_train_separable_attribute_data():
    split = two_cluster_split()
    result = attr.train_attribute_classifier(split, quick_config(epochs=60, min_epochs=60,
                                                                patience=60))
    # the early-stop slice has only ~14 rows; the real bar is the test set
    assert result.log[-1].val_accuracy >= 0.9
    logits, _ = nn.forward(result.teacher, split.test.features, None)
    acc = ((logits >= 0) == tabular.oracle_sensitive(split.test)).mean()
    assert acc >= 0.99


def test_non_finite_loss_raises():
    # a step size this large sends the weights, and so the loss, past float range
    split = two_cluster_split(300)
    with np.errstate(all="ignore"), pytest.raises(FairscarceError,
                                                  match="non-finite loss at epoch 0"):
        attr.train_attribute_classifier(split, quick_config(epochs=3, lr=1e300))


@pytest.mark.parametrize("n_d2", [0, 2, 5])
def test_d2_too_small_to_carve(n_d2):
    # the 0.1 validation and calibration fractions round to no row below 6 rows
    cfg = attr.AttrTrainConfig()
    with pytest.raises(ConfigError, match=f"d2 holds {n_d2} rows"):
        attr.require_d2_slices(n_d2, cfg)
    split = two_cluster_split(300)
    small = tabular.ScarceSplit(split.d1, split.d2.take(np.arange(n_d2)), split.test)
    with pytest.raises(ConfigError, match=f"d2 holds {n_d2} rows"):
        attr.train_attribute_classifier(small, cfg)
    attr.require_d2_slices(6, cfg)


def test_train_determinism():
    split = two_cluster_split(300)
    cfg = quick_config(epochs=4)
    r1 = attr.train_attribute_classifier(split, cfg)
    r2 = attr.train_attribute_classifier(split, cfg)
    for w1, w2 in zip(r1.teacher.weights, r2.teacher.weights):
        np.testing.assert_array_equal(w1, w2)
    p1 = attr.predict_proxy(r1.teacher, split.d1, passes=5, seed=3)
    p2 = attr.predict_proxy(r2.teacher, split.d1, passes=5, seed=3)
    for name in PROXY_COLUMNS:
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name), err_msg=name)


def reference_trajectory(split, cfg):
    """The teacher after ``cfg.epochs`` epochs of the trainer's
    batch stream, written out on a stacked copy of the batches: cross-entropy
    on the dropout-noised student, and for lambda > 0 the consistency term
    toward teacher logits from ``nn.forward``, on the rows that
    ``mc_dropout_predict`` gates. The cutoff must stay below ln 2, so that
    the gate runs at every step."""
    d1, d2 = split.d1, split.d2
    rng = np.random.default_rng(cfg.seed)
    val_idx, calib_idx, train_idx = attr._carve(
        len(d2), [cfg.val_fraction, cfg.calib_fraction], rng)
    x_lab = d2.features[train_idx]
    a_lab = d2.sensitive[train_idx].astype(float)
    x_all = np.vstack([x_lab, d1.features])
    labeled = np.zeros(len(x_all), dtype=bool)
    labeled[:len(x_lab)] = True
    targets = np.concatenate([a_lab, np.zeros(len(d1))])

    dims = [x_all.shape[1], *cfg.hidden]
    student = nn.init_mlp(dims, cfg.dropout_rate, seed=cfg.seed)
    teacher = student
    adam = nn.init_adam(student, lr=cfg.lr)
    order_rng = np.random.default_rng((cfg.seed, 1))
    step = 0
    for epoch in range(cfg.epochs):
        lam = attr.RampSchedule(cfg.lambda_max, cfg.ramp_epochs).value(epoch)
        r_cut = attr.RampSchedule(cfg.r_max, cfg.ramp_epochs).value(epoch)
        assert r_cut < LN2
        order = order_rng.permutation(len(x_all))
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            xb = x_all[rows]
            _, grads = nn.value_and_grad(student, xb, (cfg.seed + 13, step),
                                         nn.cross_entropy_loss, targets[rows], labeled[rows])
            if lam > 0.0:
                teacher_logits, _ = nn.forward(teacher, xb, None)
                _, u = attr.mc_dropout_predict(teacher, xb, cfg.mc_passes,
                                               seed=cfg.seed + 7919, counter=step)
                _, cons = nn.value_and_grad(student, xb, None, nn.consistency_loss,
                                            teacher_logits, u <= r_cut)
                grads = tuple(g + lam * c for g, c in zip(grads, cons))
            adam, student = nn.adam_step(adam, student, grads)
            teacher = attr.ema_update(teacher, student,
                                      min(1.0 - 1.0 / (step + 1), cfg.ema_decay))
            step += 1
    return teacher


def test_lambda_zero_matches_plain_supervised_trajectory():
    # lambda 0 is plain supervised cross-entropy; lambda 0.5 adds the
    # consistency term, whose teacher logits the trainer takes from
    # nn.eval_logits and the reference from nn.forward, gated at a fixed
    # cutoff of 0.6 nats (no ramp) that keeps some rows in every epoch
    split = two_cluster_split(300)
    for lambda_max, ramp in ((0.0, {}), (0.5, {"r_max": 0.6, "ramp_epochs": 0})):
        cfg = quick_config(epochs=3, min_epochs=3, lambda_max=lambda_max,
                           val_fraction=0.1, calib_fraction=0.1, **ramp)
        result = attr.train_attribute_classifier(split, cfg)
        if lambda_max:
            assert all(entry.loss_consistency > 0.0 for entry in result.log)
        teacher = reference_trajectory(split, cfg)
        # the returned teacher is the plateau teacher, the EMA of every
        # student step, so it must match the reference bit for bit
        got = result.teacher
        for a, b in zip((*got.weights, *got.biases), (*teacher.weights, *teacher.biases)):
            assert a.tobytes() == b.tobytes(), lambda_max


def test_predict_proxy_contracts():
    split = two_cluster_split(200, seed=5)
    cfg = quick_config(epochs=3)
    result = attr.train_attribute_classifier(split, cfg)
    proxies = attr.predict_proxy(result.teacher, split.d1, passes=5, seed=2)
    assert len(proxies) == len(split.d1)
    np.testing.assert_array_equal(proxies.sample_id, split.d1.sample_ids)
    np.testing.assert_array_equal(proxies.a_hat, (proxies.p_group >= 0.5).astype(int))
    assert np.all((proxies.u >= 0.0) & (proxies.u <= LN2 + 1e-12))


def test_predict_proxy_identical_rows():
    params = nn.init_mlp([3, 8], dropout_rate=0.3, seed=7)
    x = np.tile(np.array([[0.5, -0.2, 1.0]]), (6, 1))
    ds = tabular.Dataset(x, np.arange(6))
    proxies = attr.predict_proxy(params, ds, passes=400, seed=1)
    # same row, i.i.d. mask draws: estimates agree up to MC noise
    assert proxies.p_group.std() < 0.05
    # all-zero weights and biases: every pass gives exactly 0.5, a tie that
    # goes to group 1 at the largest entropy
    zero = nn.MlpParams(tuple(np.zeros_like(w) for w in params.weights),
                        tuple(np.zeros_like(b) for b in params.biases), params.dropout_rate)
    tie = attr.predict_proxy(zero, ds, passes=30, seed=1)
    assert tie.p_group.tolist() == [0.5] * 6
    assert tie.a_hat.tolist() == [1] * 6
    assert tie.u.tolist() == [LN2] * 6


def test_consistency_mask_monotone_in_r():
    u = np.random.default_rng(0).uniform(0, LN2, size=50)
    small = u <= 0.2
    large = u <= 0.5
    assert np.all(large[small])


def test_checkpoint_roundtrip(tmp_path):
    split = two_cluster_split(150, seed=8)
    result = attr.train_attribute_classifier(split, quick_config(epochs=2))
    path = tmp_path / "attr_checkpoint.npz"
    attr.save_checkpoint(path, result.teacher, result.calib_rows)
    # the archive sits at exactly the given path and holds the teacher and
    # the calibration rows only
    assert [p.name for p in tmp_path.iterdir()] == ["attr_checkpoint.npz"]
    with np.load(path) as archive:
        assert sorted(archive.files) == sorted(
            ["dropout_rate", "calib_rows",
             *(f"teacher_{kind}{k}" for kind in "wb" for k in range(result.teacher.n_layers))])
    teacher, calib_rows = attr.load_checkpoint(path)
    assert teacher.dropout_rate == result.teacher.dropout_rate > 0.0
    assert teacher.n_layers == result.teacher.n_layers
    pairs = [(calib_rows, result.calib_rows),
             *zip((*teacher.weights, *teacher.biases),
                  (*result.teacher.weights, *result.teacher.biases))]
    for got, want in pairs:
        # bit-exact, signed zeros included
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_proxy_csv_roundtrip(tmp_path):
    path = tmp_path / "proxies.csv"
    hand_made = attr.Proxies(np.array([5, 3]), np.array([1, 0]), np.array([0.75, 0.25]),
                             np.array([0.5623, 0.5623]))
    attr.save_proxies(path, hand_made)
    assert path.read_text() == "sample_id,a_hat,p_group,u\n5,1,0.75,0.5623\n3,0,0.25,0.5623\n"
    p = np.random.default_rng(4).random(200)
    for proxies in (hand_made, attr.Proxies(np.arange(200) * 3, (p >= 0.5).astype(int), p,
                                            binary_entropy(p))):
        attr.save_proxies(path, proxies)
        back = harness.load_checked_proxies(path, proxies.sample_id)
        for name in PROXY_COLUMNS:
            want, got = getattr(proxies, name), getattr(back, name)
            # every float round-trips through its repr bit for bit
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
