import math
import tracemalloc

import numpy as np
import pytest

from fairscarce import attribute as attr
from fairscarce import harness, nn, tabular
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


def make_state(alpha, t_val, s_val):
    student = nn.MlpParams((np.full((2, 1), s_val),), (np.array([s_val]),))
    teacher = nn.MlpParams((np.full((2, 1), t_val),), (np.array([t_val]),))
    return attr.StudentTeacherState(student, teacher, nn.init_adam(student),
                                    alpha, attr.RampSchedule(1, 1), attr.RampSchedule(1, 1))


def test_ema_update_arithmetic():
    state = attr.ema_update(make_state(0.99, 0.0, 1.0))
    assert state.teacher.weights[0][0, 0] == pytest.approx(0.01)
    state = attr.ema_update(make_state(0.0, 0.3, 1.0))
    assert state.teacher.weights[0][0, 0] == 1.0
    state = attr.ema_update(make_state(0.9, 0.5, 0.5))
    assert state.teacher.weights[0][0, 0] == pytest.approx(0.5)


def test_ema_update_convex_combination():
    rng = np.random.default_rng(0)
    student = nn.init_mlp([3, 4], seed=1)
    teacher = nn.init_mlp([3, 4], seed=2)
    state = attr.StudentTeacherState(student, teacher, nn.init_adam(student), 0.9,
                                     attr.RampSchedule(1, 1), attr.RampSchedule(1, 1))
    new = attr.ema_update(state)
    for t_new, t_old, s in zip(new.teacher.weights, teacher.weights, student.weights):
        lo = np.minimum(t_old, s) - 1e-12
        hi = np.maximum(t_old, s) + 1e-12
        assert np.all((t_new >= lo) & (t_new <= hi))


def test_mc_dropout_zero_rate_matches_eval():
    params = nn.init_mlp([4, 8], dropout_rate=0.0, seed=3)
    x = np.random.default_rng(4).normal(size=(6, 4))
    p, u = attr.mc_dropout_predict(params, x, passes=5, seed=9)
    logits, _ = nn.forward(params, x, nn.DropoutPlan(nn.EVAL))
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
    cases = [(n, passes) for n in (1, 2, 7, 256, 2775) for passes in (1, 5, 30)]
    for n, passes in cases + [(4096, 30), (2775, 5), (2731, 7), (1, 8193)]:
        x = x_all[:n]
        expected = reference_mc_probs(params, x, passes, seed=11, counter=n)
        got = attr._mc_probs_f32(params, x, passes, seed=11, counter=n)
        assert np.array_equal(got, expected), (n, passes)


def test_predict_proxy_peak_memory():
    # 4,096 rows x 30 passes is 122,880 stacked rows; scoring them holds one
    # block of masks and activations at a time, not all of them
    params = nn.init_mlp([100, 64, 32], dropout_rate=0.3, seed=7)
    state = attr.StudentTeacherState(params, params, nn.init_adam(params), 0.99,
                                     attr.RampSchedule(1, 1), attr.RampSchedule(1, 1))
    x = (np.random.default_rng(2).random((4096, 100)) < 0.13).astype(float)
    ds = tabular.Dataset(x, np.arange(4096))
    tracemalloc.start()
    try:
        attr.predict_proxy(state, ds, passes=30, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak / 2 ** 20


def test_teacher_eval_probs_equal_eval_forward():
    split = two_cluster_split(300, seed=4)
    result = attr.train_attribute_classifier(split, quick_config(epochs=2, hidden=(16, 8)))
    for ds in (split.d1, split.d2, split.test):
        logits, _ = nn.forward(result.state.teacher, ds.features, nn.DropoutPlan(nn.EVAL))
        expected = nn.sigmoid(logits)
        got = attr.teacher_eval_probs(result.state, ds)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def two_cluster_split(n=600, gap=8.0, seed=0):
    # gap 8 sigma: the realized sample is linearly separable with margin
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 2)) + gap * a[:, None]
    y = rng.integers(0, 2, size=n)
    ds = tabular.Dataset(x, np.arange(n), labels=y, sensitive=a)
    return tabular.split_scarce(ds, ratio=0.3, seed=seed, test_fraction=0.2)


def quick_config(**kw):
    base = dict(hidden=(16,), epochs=30, ramp_epochs=6, mc_passes=5,
                batch_size=64, patience=30, lr=0.01, seed=0)
    base.update(kw)
    return attr.AttrTrainConfig(**base)


def test_train_separable_attribute_data():
    split = two_cluster_split()
    result = attr.train_attribute_classifier(split, quick_config(epochs=60, min_epochs=60,
                                                                patience=60))
    # the early-stop slice has only ~14 rows; the real bar is the test set
    assert result.log[-1].val_accuracy >= 0.9
    logits, _ = nn.forward(result.state.teacher, split.test.features, nn.DropoutPlan(nn.EVAL))
    acc = ((logits >= 0) == tabular.oracle_sensitive(split.test)).mean()
    assert acc >= 0.99


def test_train_determinism():
    split = two_cluster_split(300)
    cfg = quick_config(epochs=4)
    r1 = attr.train_attribute_classifier(split, cfg)
    r2 = attr.train_attribute_classifier(split, cfg)
    for w1, w2 in zip(r1.state.student.weights, r2.state.student.weights):
        np.testing.assert_array_equal(w1, w2)
    p1 = attr.predict_proxy(r1.state, split.d1, passes=5, seed=3)
    p2 = attr.predict_proxy(r2.state, split.d1, passes=5, seed=3)
    for name in PROXY_COLUMNS:
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name), err_msg=name)


def test_lambda_zero_matches_plain_supervised_trajectory():
    split = two_cluster_split(300)
    cfg = quick_config(epochs=3, min_epochs=3, lambda_max=0.0,
                       val_fraction=0.1, calib_fraction=0.1)
    result = attr.train_attribute_classifier(split, cfg)

    # reference: plain supervised cross-entropy over the identical batch stream
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
    adam = nn.init_adam(student, lr=cfg.lr)
    order_rng = np.random.default_rng((cfg.seed, 1))
    step = 0
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(x_all))
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            spec = nn.LossSpec("cross_entropy", targets=targets[rows],
                               labeled_mask=labeled[rows])
            _, grads = nn.value_and_grad(student, x_all[rows], spec,
                                         nn.DropoutPlan(nn.TRAIN, cfg.seed + 13, step))
            adam, student = nn.adam_step(adam, student, grads)
            step += 1

    # the returned state is the plateau state, so the student trajectory must
    # match the plain supervised reference bit for bit
    for w1, w2 in zip(result.state.student.weights, student.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(result.state.student.biases, student.biases):
        np.testing.assert_array_equal(b1, b2)


def test_predict_proxy_contracts():
    split = two_cluster_split(200, seed=5)
    cfg = quick_config(epochs=3)
    result = attr.train_attribute_classifier(split, cfg)
    proxies = attr.predict_proxy(result.state, split.d1, passes=5, seed=2)
    assert len(proxies) == len(split.d1)
    np.testing.assert_array_equal(proxies.sample_id, split.d1.sample_ids)
    np.testing.assert_array_equal(proxies.a_hat, (proxies.p_group >= 0.5).astype(int))
    assert np.all((proxies.u >= 0.0) & (proxies.u <= LN2 + 1e-12))


def test_predict_proxy_identical_rows():
    params = nn.init_mlp([3, 8], dropout_rate=0.3, seed=7)
    state = attr.StudentTeacherState(params, params, nn.init_adam(params), 0.99,
                                     attr.RampSchedule(1, 1), attr.RampSchedule(1, 1))
    x = np.tile(np.array([[0.5, -0.2, 1.0]]), (6, 1))
    ds = tabular.Dataset(x, np.arange(6))
    proxies = attr.predict_proxy(state, ds, passes=400, seed=1)
    # same row, i.i.d. mask draws: estimates agree up to MC noise
    assert proxies.p_group.std() < 0.05
    # all-zero weights and biases: every pass gives exactly 0.5, a tie that
    # goes to group 1 at the largest entropy
    zero = nn.MlpParams(tuple(np.zeros_like(w) for w in params.weights),
                        tuple(np.zeros_like(b) for b in params.biases), params.dropout_rate)
    state = attr.StudentTeacherState(zero, zero, nn.init_adam(zero), 0.99,
                                     attr.RampSchedule(1, 1), attr.RampSchedule(1, 1))
    tie = attr.predict_proxy(state, ds, passes=30, seed=1)
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
    attr.save_checkpoint(path, result.state)
    # the archive sits at exactly the given path and loads without pickles
    assert [p.name for p in tmp_path.iterdir()] == ["attr_checkpoint.npz"]
    with np.load(path) as archive:
        back = {name: archive[name] for name in archive.files}
    expected = {"dropout_rate": np.float64(result.state.student.dropout_rate)}
    for role in ("student", "teacher"):
        params = getattr(result.state, role)
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            expected[f"{role}_w{k}"] = w
            expected[f"{role}_b{k}"] = b
    assert sorted(back) == sorted(expected)
    assert back["dropout_rate"] == result.state.student.dropout_rate > 0.0
    for name, value in expected.items():
        assert back[name].dtype == np.float64 and back[name].shape == np.shape(value), name
        # bit-exact, signed zeros included
        assert back[name].tobytes() == np.asarray(value).tobytes(), name


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
