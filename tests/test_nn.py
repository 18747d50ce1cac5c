import math

import numpy as np
import pytest

from fairscarce import nn
from fairscarce.errors import NonFiniteGradient, ShapeMismatch


def weighted_value_and_grad(params, x, terms, plan):
    """Sum of ``weight * loss`` over (LossSpec, weight) terms and its
    gradient, added up term by term the way the trainer combines its
    cross-entropy and consistency gradients."""
    total = 0.0
    dw = [np.zeros_like(w) for w in params.weights]
    db = [np.zeros_like(b) for b in params.biases]
    for spec, weight in terms:
        loss, g = nn.value_and_grad(params, x, spec, plan)
        total += weight * loss
        for k in range(params.n_layers):
            dw[k] += weight * g.weights[k]
            db[k] += weight * g.biases[k]
    return total, nn.Gradients(tuple(dw), tuple(db))


def finite_difference_grad(params, x, terms, plan, h=1e-5):
    """Central-difference gradient oracle, independent of backprop. Uses the
    same dropout plan for every evaluation so the perturbed losses see
    identical masks."""

    def loss_at(p):
        return weighted_value_and_grad(p, x, terms, plan)[0]

    def perturb(arrays, layer, idx, delta):
        out = [a.copy() for a in arrays]
        out[layer][idx] += delta
        return tuple(out)

    dws, dbs = [], []
    for k, w in enumerate(params.weights):
        dw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            up = nn.MlpParams(perturb(params.weights, k, idx, h), params.biases, params.dropout_rate)
            dn = nn.MlpParams(perturb(params.weights, k, idx, -h), params.biases, params.dropout_rate)
            dw[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
        dws.append(dw)
    for k, b in enumerate(params.biases):
        db = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            up = nn.MlpParams(params.weights, perturb(params.biases, k, idx, h), params.dropout_rate)
            dn = nn.MlpParams(params.weights, perturb(params.biases, k, idx, -h), params.dropout_rate)
            db[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
        dbs.append(db)
    return nn.Gradients(tuple(dws), tuple(dbs))


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip((*analytic.weights, *analytic.biases), (*numeric.weights, *numeric.biases)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_net_and_batch(rng, with_dropout=False):
    n_hidden = rng.integers(0, 3)
    dims = [int(rng.integers(2, 6))] + [int(rng.integers(2, 17)) for _ in range(n_hidden)]
    p = 0.3 if with_dropout else 0.0
    params = nn.init_mlp(dims, dropout_rate=p, seed=int(rng.integers(1 << 30)))
    # random nonzero biases keep preactivations away from the relu kink,
    # where central differences and the subgradient legitimately disagree
    params = nn.MlpParams(params.weights,
                          tuple(rng.normal(scale=0.5, size=b.shape) for b in params.biases),
                          params.dropout_rate)
    n = int(rng.integers(2, 9))
    x = rng.normal(size=(n, dims[0]))
    return params, x, n


def random_terms(rng, n, kind):
    """(LossSpec, weight) terms; ``combined`` is cross-entropy plus a random
    multiple of the consistency loss."""
    targets = rng.integers(0, 2, size=n).astype(float)
    teacher = rng.normal(size=n)
    labeled = rng.random(n) < 0.6
    cons = rng.random(n) < 0.6
    if not labeled.any():
        labeled[0] = True
    ce = nn.LossSpec("cross_entropy", targets=targets, labeled_mask=labeled)
    consistency = nn.LossSpec("consistency", teacher_logits=teacher, consistency_mask=cons,
                              universe_size=n)
    if kind == "cross_entropy":
        return [(ce, 1.0)]
    if kind == "consistency":
        return [(consistency, 1.0)]
    return [(ce, 1.0), (consistency, float(rng.uniform(0.1, 2.0)))]


@pytest.mark.parametrize("kind", ["cross_entropy", "consistency", "combined"])
def test_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(7)
    for trial in range(12):
        params, x, n = random_net_and_batch(rng, with_dropout=(trial % 3 == 0))
        plan = nn.DropoutPlan(nn.TRAIN if params.dropout_rate else nn.EVAL, seed=trial, counter=5)
        terms = random_terms(rng, n, kind)
        _, analytic = weighted_value_and_grad(params, x, terms, plan)
        numeric = finite_difference_grad(params, x, terms, plan)
        assert max_relative_error(analytic, numeric) < 1e-4


def test_forward_zero_weights_gives_half_probability():
    params = nn.MlpParams((np.zeros((3, 4)), np.zeros((4, 1))),
                          (np.zeros(4), np.zeros(1)))
    logits, _ = nn.forward(params, np.random.default_rng(0).normal(size=(5, 3)),
                           nn.DropoutPlan(nn.EVAL))
    assert np.all(logits == 0.0)
    assert np.allclose(nn.sigmoid(logits), 0.5)


def test_forward_single_linear_layer_hand_value():
    params = nn.MlpParams((np.array([[2.0]]),), (np.array([1.0]),))
    logits, _ = nn.forward(params, np.array([[3.0]]), nn.DropoutPlan(nn.EVAL))
    assert logits[0] == pytest.approx(7.0)


def test_train_mode_with_zero_dropout_equals_eval():
    params = nn.init_mlp([4, 8, 8], dropout_rate=0.0, seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4))
    lg_train, _ = nn.forward(params, x, nn.DropoutPlan(nn.TRAIN, seed=3))
    lg_ev, _ = nn.forward(params, x, nn.DropoutPlan(nn.EVAL))
    np.testing.assert_array_equal(lg_train, lg_ev)


def test_mask_sequence_is_pure_function_of_seed_and_counter():
    params = nn.init_mlp([4, 8], dropout_rate=0.4, seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4))
    plan = nn.DropoutPlan(nn.TRAIN, seed=9, counter=3)
    a, _ = nn.forward(params, x, plan)
    b, _ = nn.forward(params, x, plan)
    np.testing.assert_array_equal(a, b)
    c, _ = nn.forward(params, x, nn.DropoutPlan(nn.TRAIN, seed=9, counter=4))
    assert not np.array_equal(a, c)


def test_dropout_expectation_matches_eval_on_linear_regime():
    # All-positive weights and inputs keep every relu active, so the net is
    # linear and inverted dropout should be unbiased.
    rng = np.random.default_rng(5)
    params = nn.MlpParams(
        (np.abs(rng.normal(size=(3, 8))), np.abs(rng.normal(size=(8, 1)))),
        (np.zeros(8), np.zeros(1)),
        dropout_rate=0.5,
    )
    x = np.abs(rng.normal(size=(4, 3))) + 0.1
    eval_logits, _ = nn.forward(params, x, nn.DropoutPlan(nn.EVAL))
    total = np.zeros(4)
    draws = 10_000
    for i in range(draws):
        lg, _ = nn.forward(params, x, nn.DropoutPlan(nn.TRAIN, seed=11, counter=i))
        total += lg
    assert np.max(np.abs(total / draws - eval_logits) / np.abs(eval_logits)) < 0.02


def test_binary_cross_entropy_values():
    assert nn.binary_cross_entropy(np.array([0.0]), np.array([1.0])) == pytest.approx(math.log(2))
    assert nn.binary_cross_entropy(np.array([20.0]), np.array([1.0])) < 1e-8
    assert nn.binary_cross_entropy(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(math.log(2))
    # stabilized: extreme logits stay finite
    assert math.isfinite(nn.binary_cross_entropy(np.array([800.0, -800.0]), np.array([0.0, 1.0])))


def consistency(student, teacher, mask, universe_size=None):
    """Consistency loss of the logits ``student``, through a one-weight
    identity network whose logits are its inputs."""
    identity = nn.MlpParams((np.array([[1.0]]),), (np.array([0.0]),))
    spec = nn.LossSpec("consistency", teacher_logits=teacher, consistency_mask=mask,
                       universe_size=universe_size)
    x = np.asarray(student, dtype=float)[:, None]
    return nn.value_and_grad(identity, x, spec, nn.DropoutPlan(nn.EVAL))[0]


def test_consistency_loss_values():
    z = np.array([1.0, 3.0])
    assert consistency(z, z, np.array([True, True])) == 0.0
    assert consistency(z, np.zeros(2), np.array([False, False])) == 0.0
    got = consistency(z, np.zeros(2), np.array([True, False]), universe_size=2)
    assert got == pytest.approx(0.5)


def test_loss_positivity_and_minima():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(size=5)
        t = rng.integers(0, 2, size=5).astype(float)
        assert nn.binary_cross_entropy(z, t) >= 0.0
        assert consistency(z, rng.normal(size=5), rng.random(5) < 0.5) >= 0.0


def test_grad_zero_at_stationary_points():
    params = nn.init_mlp([3, 5], seed=0)
    x = np.random.default_rng(1).normal(size=(4, 3))
    plan = nn.DropoutPlan(nn.EVAL)
    logits, _ = nn.forward(params, x, plan)
    # consistency against identical teacher logits, all rows masked
    spec = nn.LossSpec("consistency", teacher_logits=logits,
                       consistency_mask=np.ones(4, dtype=bool))
    _, g = nn.value_and_grad(params, x, spec, plan)
    for arr in (*g.weights, *g.biases):
        np.testing.assert_allclose(arr, 0.0, atol=1e-12)


def test_cross_entropy_grad_zero_when_predictions_saturate_to_targets():
    # Large logits of the right sign: sigmoid is within 1e-15 of the target,
    # so the output-layer gradient vanishes numerically.
    params = nn.MlpParams((np.array([[40.0]]),), (np.array([0.0]),))
    x = np.array([[1.0], [-1.0]])
    spec = nn.LossSpec("cross_entropy", targets=np.array([1.0, 0.0]))
    _, g = nn.value_and_grad(params, x, spec, nn.DropoutPlan(nn.EVAL))
    for arr in (*g.weights, *g.biases):
        np.testing.assert_allclose(arr, 0.0, atol=1e-12)


def test_adam_zero_gradient_is_fixed_point():
    params = nn.init_mlp([3, 4], seed=2)
    state = nn.init_adam(params)
    zero = nn.Gradients(tuple(np.zeros_like(w) for w in params.weights),
                        tuple(np.zeros_like(b) for b in params.biases))
    state2, params2 = nn.adam_step(state, params, zero)
    assert state2.t == 1
    for a, b in zip(params.weights, params2.weights):
        np.testing.assert_array_equal(a, b)


def test_adam_first_step_magnitude_matches_hand_computation():
    # one scalar parameter, g=10: m_hat=g, v_hat=g^2, step = lr*g/(|g|+eps)
    params = nn.MlpParams((np.array([[0.0]]),), (np.array([0.0]),))
    state = nn.init_adam(params, lr=0.001)
    g = nn.Gradients((np.array([[10.0]]),), (np.array([0.0]),))
    _, params2 = nn.adam_step(state, params, g)
    assert params2.weights[0][0, 0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_determinism():
    params = nn.init_mlp([3, 4], seed=2)
    state = nn.init_adam(params)
    g = nn.Gradients(tuple(np.full_like(w, 0.3) for w in params.weights),
                     tuple(np.full_like(b, -0.2) for b in params.biases))
    out1 = nn.adam_step(state, params, g)
    out2 = nn.adam_step(state, params, g)
    for a, b in zip(out1[1].weights, out2[1].weights):
        np.testing.assert_array_equal(a, b)


def test_adam_rejects_non_finite_gradient():
    params = nn.init_mlp([2, 3], seed=0)
    state = nn.init_adam(params)
    bad = nn.Gradients(tuple(np.full_like(w, np.nan) for w in params.weights),
                       tuple(np.zeros_like(b) for b in params.biases))
    with pytest.raises(NonFiniteGradient):
        nn.adam_step(state, params, bad)


def test_forward_shape_mismatch():
    params = nn.init_mlp([3, 4], seed=0)
    with pytest.raises(ShapeMismatch):
        nn.forward(params, np.zeros((2, 5)), nn.DropoutPlan(nn.EVAL))

