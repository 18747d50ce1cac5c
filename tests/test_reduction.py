import io
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from fairscarce import reduction as red
from fairscarce import synthdata, tabular
from fairscarce.errors import EmptySelection, NonFiniteCost
from fairscarce.uncertainty import LN2


class Rec:
    def __init__(self, sample_id, a_hat, u):
        self.sample_id = sample_id
        self.a_hat = a_hat
        self.u = u


def make_rows(x, y, a=None, w=None):
    n = len(y)
    return [red.WeightedSample(i, x[i], int(y[i]),
                               None if a is None else int(a[i]),
                               1.0 if w is None else float(w[i]))
            for i in range(n)]


def separable_instance(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x @ np.array([2.0, -1.0]) + 0.3 > 0).astype(int)
    return x, y


# --- cost-sensitive oracle ----------------------------------------------------

def test_logreg_separable_accuracy():
    x, y = separable_instance()
    model = red.fit_cost_sensitive(x, (1.0 - 2.0 * y) / len(y))
    assert (model.predict(x) == y).mean() >= 0.99


def test_logreg_zero_features_predicts_cost_weighted_majority():
    x = np.zeros((10, 3))
    y = np.array([1] * 7 + [0] * 3, dtype=float)
    model = red.fit_cost_sensitive(x, (1.0 - 2.0 * y) / len(y))
    assert np.all(model.predict(x) == 1.0)
    y2 = np.array([1] * 3 + [0] * 7, dtype=float)
    model2 = red.fit_cost_sensitive(x, (1.0 - 2.0 * y2) / len(y2))
    assert np.all(model2.predict(x) == 0.0)


def test_logreg_weight_mass_invariance():
    x, y = separable_instance(40, seed=3)
    costs = (1.0 - 2.0 * y) / len(y)
    model_a = red.fit_cost_sensitive(x, costs)
    x_dup = np.vstack([x, x])
    costs_dup = np.concatenate([costs, costs]) / 2.0
    model_b = red.fit_cost_sensitive(x_dup, costs_dup)
    np.testing.assert_allclose(model_a.coef, model_b.coef, atol=1e-4)
    assert model_a.intercept == pytest.approx(model_b.intercept, abs=1e-4)


def test_logreg_rejects_non_finite_costs():
    with pytest.raises(NonFiniteCost):
        red.fit_cost_sensitive(np.zeros((2, 1)), np.array([np.nan, 1.0]))


def dense_reference_fit(features, signed_costs, max_iter=5000, tol=1e-6, ridge=1e-3):
    """The oracle's gradient-descent loop on a dense design (BLAS products,
    masked sigmoid), kept as the reference for the sparse kernel. Returns
    theta with the intercept last."""
    x = np.asarray(features, dtype=float)
    c = np.asarray(signed_costs, dtype=float)
    n, d = x.shape
    targets = (c < 0).astype(float)
    weights = np.abs(c)
    weights = weights * (n / weights.sum())
    design = np.column_stack([x, np.ones(n)])
    theta = np.zeros(d + 1)
    penalty_mask = np.ones(d + 1)
    penalty_mask[-1] = 0.0

    def loss_and_grad(th):
        z = design @ th
        per_row = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
        value = float((weights * per_row).mean())
        value += 0.5 * ridge * float((penalty_mask * th * th).sum())
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        sig[~pos] = ez / (1.0 + ez)
        g = design.T @ (weights * (sig - targets)) / n + ridge * penalty_mask * th
        return value, g

    value, g = loss_and_grad(theta)
    step = 1.0
    for _ in range(max_iter):
        gnorm2 = float(g @ g)
        if math.sqrt(gnorm2) < tol:
            break
        accepted_first_try = True
        while True:
            candidate = theta - step * g
            cand_value, cand_grad = loss_and_grad(candidate)
            if cand_value <= value - 1e-4 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
            accepted_first_try = False
        theta, value, g = candidate, cand_value, cand_grad
        if accepted_first_try:
            step = min(step * 2.0, 1e6)
    return theta


@pytest.fixture(scope="module")
def demo_d1(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    synthdata.write_corpus(root / "census.csv", 2000, seed=11)
    synthdata.write_schema(root / "census.schema")
    schema = tabular.Schema.from_file(root / "census.schema")
    split, _ = tabular.prepare_split(root / "census.csv", schema, ratio=0.2,
                                     test_fraction=0.3, seed=11)
    return split.d1


def test_sparse_oracle_matches_dense_reference(demo_d1):
    x = demo_d1.features
    y = demo_d1.labels.astype(float)
    a = tabular.oracle_sensitive(demo_d1)
    n = len(y)
    base_cost = (1.0 - 2.0 * y) / n
    cons = red._ConstraintSet(red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.02),
                              y, a, np.ones(n))
    signed = base_cost + cons.cost_contribution(np.array([0.6, 0.0]))
    flipped = np.sign(signed) != np.sign(base_cost)
    assert 0 < flipped.sum() < n  # the multiplier moves some targets, not all
    for costs in (base_cost, signed):
        reference = dense_reference_fit(x, costs)
        model = red.fit_cost_sensitive(x, costs)
        theta = np.append(model.coef, model.intercept)
        assert np.abs(theta - reference).max() <= 1e-10
        reference_preds = (x @ reference[:-1] + reference[-1] >= 0.0).astype(float)
        np.testing.assert_array_equal(model.predict(x), reference_preds)


# --- brute-force oracle for the reduction --------------------------------------

def brute_force_fair_mixture(y, a, eps=0.0):
    """LP over mixtures of all 2^n deterministic labelings: maximize expected
    accuracy subject to |rate gap| <= eps. Independent of the reduction."""
    n = len(y)
    labelings = list(itertools.product([0, 1], repeat=n))
    acc = np.array([np.mean(np.array(h) == y) for h in labelings])
    n0, n1 = np.sum(a == 0), np.sum(a == 1)
    gap = np.array([np.array(h)[a == 0].sum() / n0 - np.array(h)[a == 1].sum() / n1
                    for h in labelings])
    m = len(labelings)
    res = linprog(c=-acc,
                  A_ub=np.vstack([gap, -gap]),
                  b_ub=np.array([eps, eps]),
                  A_eq=np.ones((1, m)), b_eq=np.array([1.0]),
                  bounds=[(0, 1)] * m, method="highs")
    assert res.success
    q = res.x
    best_acc = float(acc @ q)
    best_gap = abs(float(gap @ q))
    return best_acc, best_gap


def test_exp_grad_matches_brute_force_on_8_point_instances():
    # 8 points in 8 dimensions are linearly shatterable, so the linear base
    # learner can realize every labeling the brute-force oracle mixes over
    rng = np.random.default_rng(0)
    for trial in range(20):
        while True:
            x = rng.normal(size=(8, 8))
            y = rng.integers(0, 2, size=8)
            a = rng.integers(0, 2, size=8)
            if 0 < a.sum() < 8:
                break
        oracle_acc, _ = brute_force_fair_mixture(y, a, eps=0.0)
        rows = make_rows(x, y, a)
        model, log = red.exp_grad_train(
            rows, red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.0), seed=trial)
        preds = model.expected_predictions(x)
        acc = float((preds * y + (1 - preds) * (1 - y)).mean())
        r0 = preds[a == 0].mean()
        r1 = preds[a == 1].mean()
        assert abs(r0 - r1) <= 0.05, f"trial {trial}: dp {abs(r0 - r1)}"
        assert acc >= oracle_acc - 0.1, f"trial {trial}: acc {acc} vs {oracle_acc}"


def test_exp_grad_inactive_constraint_equals_unconstrained():
    x, y = separable_instance(80, seed=5)
    a = (np.random.default_rng(6).random(80) < 0.5).astype(int)
    rows = make_rows(x, y, a)
    fair, _ = red.exp_grad_train(rows, red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 1.0))
    plain = red.unconstrained_train(rows)
    np.testing.assert_allclose(fair.expected_predictions(x), plain.expected_predictions(x))


def test_exp_grad_feasible_start_stays_put():
    # symmetric, already fair, separable: group is independent of everything
    x = np.array([[1.0], [2.0], [-1.0], [-2.0], [1.5], [2.5], [-1.5], [-2.5]])
    y = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    rows = make_rows(x, y, a)
    model, log = red.exp_grad_train(rows, red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.01))
    preds = model.expected_predictions(x)
    assert float((preds * y + (1 - preds) * (1 - y)).mean()) >= 0.99
    assert log.max_violation <= 0.01 + 1e-9


def test_exp_grad_monotone_dial():
    rng = np.random.default_rng(11)
    n = 300
    a = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 3))
    x[:, 0] += 1.1 * a  # group leaks into a predictive feature
    logits = 1.5 * x[:, 0] - 0.8 * x[:, 1]
    y = (logits + rng.normal(scale=0.7, size=n) > 0.4).astype(int)
    rows = make_rows(x, y, a)
    grid = [0.3, 0.1, 0.03, 0.01]
    dps = []
    for eps in grid:
        model, _ = red.exp_grad_train(rows, red.MomentConstraint(red.DEMOGRAPHIC_PARITY, eps))
        preds = model.expected_predictions(x)
        dps.append(abs(preds[a == 0].mean() - preds[a == 1].mean()))
    for wide, tight in zip(dps, dps[1:]):
        assert tight <= wide + 0.02


def test_exp_grad_equalized_odds_reduces_gap():
    rng = np.random.default_rng(4)
    n = 400
    a = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 3))
    x[:, 0] += 1.4 * a
    y = ((x[:, 0] + x[:, 1] + rng.normal(scale=0.8, size=n)) > 0.7).astype(int)
    rows = make_rows(x, y, a)
    plain = red.unconstrained_train(rows)

    def eod(preds):
        out = 0.0
        for j in (0, 1):
            m = y == j
            out += abs(preds[m & (a == 0)].mean() - preds[m & (a == 1)].mean())
        return out

    fair, _ = red.exp_grad_train(rows, red.MomentConstraint(red.EQUALIZED_ODDS, 0.02))
    assert eod(fair.expected_predictions(x)) < eod(plain.expected_predictions(x)) * 0.5


def test_mixture_rate_identity():
    x, y = separable_instance(50, seed=9)
    a = (np.random.default_rng(10).random(50) < 0.4).astype(int)
    model, _ = red.exp_grad_train(make_rows(x, y, a),
                                  red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.05))
    expected = model.expected_predictions(x)
    manual = np.zeros(len(x))
    for q, member in zip(model.mix_weights, model.members):
        manual += q * member.predict(x)
    np.testing.assert_array_equal(expected, manual)
    assert model.mix_weights.sum() == pytest.approx(1.0, abs=1e-9)


# --- selections ----------------------------------------------------------------

def tiny_d1(n=6):
    rng = np.random.default_rng(1)
    return tabular.Dataset(rng.normal(size=(n, 2)), np.arange(n),
                           labels=rng.integers(0, 2, size=n))


def test_filter_certain_membership_and_boundary():
    d1 = tiny_d1(2)
    rows = red.filter_certain([Rec(0, 1, 0.1), Rec(1, 0, 0.4)], d1, 0.3)
    assert [r.sample_id for r in rows] == [0]
    assert rows[0].fairness_weight == 1.0 and rows[0].a_hat == 1
    rows = red.filter_certain([Rec(0, 1, 0.3), Rec(1, 0, 0.3)], d1, 0.3)
    assert len(rows) == 2  # <= is inclusive
    rows = red.filter_certain([Rec(0, 1, 0.5), Rec(1, 0, LN2)], d1, LN2)
    assert len(rows) == 2  # ln 2 keeps everything


def test_filter_certain_empty_selection():
    d1 = tiny_d1(2)
    with pytest.raises(EmptySelection):
        red.filter_certain([Rec(0, 1, 0.5), Rec(1, 0, 0.6)], d1, 0.1)


def test_weight_from_uncertainty_endpoints():
    d1 = tiny_d1(3)
    rows = red.weight_from_uncertainty(
        [Rec(0, 1, 0.0), Rec(1, 0, LN2), Rec(2, 1, LN2 / 2)], d1)
    weights = {r.sample_id: r.fairness_weight for r in rows}
    assert weights[0] == pytest.approx(1.0)
    assert weights[1] == pytest.approx(0.0)
    assert weights[2] == pytest.approx(0.5)


def test_select_uncertain_membership():
    d1 = tiny_d1(2)
    ds = red.select_uncertain([Rec(0, 1, 0.2), Rec(1, 0, 0.5)], d1, 0.4)
    assert ds.sample_ids.tolist() == [1]
    assert ds.sensitive is None and ds.masked_sensitive is None
    ds_all = red.select_uncertain([Rec(0, 1, 0.2), Rec(1, 0, 0.5)], d1, 0.0)
    assert len(ds_all) == 2


def test_filter_nesting():
    rng = np.random.default_rng(7)
    d1 = tiny_d1(30)
    recs = [Rec(i, int(rng.integers(0, 2)), float(rng.uniform(0, LN2))) for i in range(30)]
    lo = {r.sample_id for r in red.filter_certain(recs, d1, 0.2)}
    hi = {r.sample_id for r in red.filter_certain(recs, d1, 0.5)}
    assert lo <= hi
    un_lo = set(red.select_uncertain(recs, d1, 0.2).sample_ids.tolist())
    un_hi = set(red.select_uncertain(recs, d1, 0.5).sample_ids.tolist())
    assert un_hi <= un_lo


def test_knn_impute_rules():
    d2 = tabular.Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]),
                         np.arange(3), sensitive=np.array([1, 1, 0]))
    d1 = tabular.Dataset(np.array([[0.0, 0.0], [4.9, 4.9]]), np.array([10, 11]))
    np.testing.assert_array_equal(red.knn_impute(d1, d2, k=1), [1, 0])
    # k=3 majority {1,1,0} -> 1 for anything
    np.testing.assert_array_equal(red.knn_impute(d1, d2, k=3), [1, 1])
    # k=2 tie {1,0} resolves to 1
    d2_tie = tabular.Dataset(np.array([[0.0, 0.0], [0.2, 0.0]]), np.arange(2),
                             sensitive=np.array([1, 0]))
    probe = tabular.Dataset(np.array([[0.1, 0.0]]), np.array([0]))
    np.testing.assert_array_equal(red.knn_impute(probe, d2_tie, k=2), [1])


def test_mixture_file_roundtrip():
    x, y = separable_instance(30, seed=2)
    a = (np.random.default_rng(3).random(30) < 0.5).astype(int)
    model, _ = red.exp_grad_train(make_rows(x, y, a),
                                  red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.1))
    buf = io.StringIO()
    red.write_mixture(buf, model)
    buf.seek(0)
    back = red.read_mixture(buf)
    np.testing.assert_array_equal(model.expected_predictions(x),
                                  back.expected_predictions(x))
