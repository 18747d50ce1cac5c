import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from fairscarce import attribute as attr
from fairscarce import harness, synthdata, tabular
from fairscarce import reduction as red
from fairscarce.errors import DegenerateCell, DegenerateGroup, EmptySelection, FairscarceError
from fairscarce.uncertainty import LN2


def separable_instance(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x @ np.array([2.0, -1.0]) + 0.3 > 0).astype(int)
    return x, y


def seeded_exp_grad(x, y, a, w, constraint):
    """``exp_grad_train`` at its default budget, seeded as the harness seeds
    it: by the unconstrained fit on the same rows."""
    start = red.unconstrained_train(x, y).members[0]
    return red.exp_grad_train(x, y, a, w, constraint, start=start)


# --- cost-sensitive oracle ----------------------------------------------------

def test_logreg_separable_accuracy():
    x, y = separable_instance()
    model = red.fit_cost_sensitive(red.oracle_design(x), (1.0 - 2.0 * y) / len(y))
    assert (model.predict(x) == y).mean() >= 0.99


def test_logreg_zero_features_predicts_cost_weighted_majority():
    x = np.zeros((10, 3))
    y = np.array([1] * 7 + [0] * 3, dtype=float)
    design = red.oracle_design(x)
    model = red.fit_cost_sensitive(design, (1.0 - 2.0 * y) / len(y))
    assert np.all(model.predict(x) == 1.0)
    y2 = np.array([1] * 3 + [0] * 7, dtype=float)
    model2 = red.fit_cost_sensitive(design, (1.0 - 2.0 * y2) / len(y2))
    assert np.all(model2.predict(x) == 0.0)


def test_logreg_weight_mass_invariance():
    x, y = separable_instance(40, seed=3)
    costs = (1.0 - 2.0 * y) / len(y)
    model_a = red.fit_cost_sensitive(red.oracle_design(x), costs)
    x_dup = np.vstack([x, x])
    costs_dup = np.concatenate([costs, costs]) / 2.0
    model_b = red.fit_cost_sensitive(red.oracle_design(x_dup), costs_dup)
    np.testing.assert_allclose(model_a.coef, model_b.coef, atol=1e-4)
    assert model_a.intercept == pytest.approx(model_b.intercept, abs=1e-4)


def test_logreg_rejects_non_finite_costs():
    with pytest.raises(FairscarceError, match="signed costs contain NaN or infinity"):
        red.fit_cost_sensitive(red.oracle_design(np.zeros((2, 1))), np.array([np.nan, 1.0]))


def reference_fit(features, signed_costs, max_iter=5000, tol=1e-6, ridge=1e-3):
    """The oracle's gradient-descent loop as it was before the in-place
    kernel: its own CSR design per call, a gradient for every line-search
    candidate and freshly allocated temporaries. Kept as the bit-exact
    reference for ``fit_cost_sensitive``. Returns theta with the intercept
    last."""
    x = np.asarray(features, dtype=float)
    c = np.asarray(signed_costs, dtype=float)
    n, d = x.shape
    targets = (c < 0).astype(float)
    weights = np.abs(c)
    weights = weights * (n / weights.sum())
    design = sparse.csr_array(np.column_stack([x, np.ones(n)]))
    design_t = design.T.tocsr()
    theta = np.zeros(d + 1)
    penalty_mask = np.ones(d + 1)
    penalty_mask[-1] = 0.0

    def loss_and_grad(th):
        z = design @ th
        e = np.exp(-np.abs(z))
        per_row = np.maximum(z, 0.0) - z * targets + np.log1p(e)
        value = float((weights * per_row).mean())
        value += 0.5 * ridge * float((penalty_mask * th * th).sum())
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        g = design_t @ (weights * (sig - targets)) / n + ridge * penalty_mask * th
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
    cons = red.constraint_matrix(red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.02),
                                  y, a, np.ones(n))
    signed = base_cost + np.array([0.6, 0.0]) @ cons
    flipped = np.sign(signed) != np.sign(base_cost)
    assert 0 < flipped.sum() < n  # the multiplier moves some targets, not all
    for costs in (base_cost, signed):
        reference = dense_reference_fit(x, costs)
        model = red.fit_cost_sensitive(red.oracle_design(x), costs)
        theta = np.append(model.coef, model.intercept)
        assert np.abs(theta - reference).max() <= 1e-10
        reference_preds = (x @ reference[:-1] + reference[-1] >= 0.0).astype(float)
        np.testing.assert_array_equal(model.predict(x), reference_preds)


def demo_costs(d1):
    """The base costs of ``d1`` and a dp-shifted copy whose multiplier moves
    some targets."""
    y = d1.labels.astype(float)
    n = len(y)
    base_cost = (1.0 - 2.0 * y) / n
    cons = red.constraint_matrix(red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.02),
                                  y, tabular.oracle_sensitive(d1), np.ones(n))
    return base_cost, base_cost + np.array([0.6, 0.0]) @ cons


@pytest.mark.parametrize("max_iter", [5000, 50])
def test_oracle_matches_reference_fit_bit_for_bit(demo_d1, max_iter):
    x = demo_d1.features
    design = red.oracle_design(x)
    for costs in demo_costs(demo_d1):
        model = red.fit_cost_sensitive(design, costs, max_iter=max_iter)
        theta = np.append(model.coef, model.intercept)
        np.testing.assert_array_equal(theta, reference_fit(x, costs, max_iter=max_iter))


def test_oracle_matches_reference_fit_on_saturated_rows(demo_d1):
    # a feature that separates the labels at scale 1e4 sends the first
    # line-search candidate (theta = -gradient at 0) past |z| = 745, where
    # exp(-|z|) underflows to 0 and the per-row loss is max(s * z, 0) alone
    y = demo_d1.labels.astype(float)
    x = np.column_stack([demo_d1.features, 1e4 * (2.0 * y - 1.0)])
    design = np.column_stack([x, np.ones(len(y))])
    for costs in demo_costs(demo_d1):
        targets = (costs < 0).astype(float)
        weights = np.abs(costs) * (len(y) / np.abs(costs).sum())
        first = design @ -(design.T @ (weights * (0.5 - targets)) / len(y))
        assert (np.exp(-np.abs(first)) == 0.0).mean() > 0.5
        model = red.fit_cost_sensitive(red.oracle_design(x), costs, max_iter=200)
        theta = np.append(model.coef, model.intercept)
        np.testing.assert_array_equal(theta, reference_fit(x, costs, max_iter=200))


def test_csr_kernel_equals_matmul_bit_for_bit():
    # the oracle calls scipy's private CSR kernel directly, imported as the
    # oracle imports it; a scipy release that changes it must fail here, not
    # deep inside a sweep
    from scipy.sparse._sparsetools import csr_matvec

    rng = np.random.default_rng(5)
    dense = rng.normal(size=(300, 40)) * (rng.random((300, 40)) < 0.15)
    dense[7] = 0.0  # a row with no nonzeros
    for matrix in red.oracle_design(dense):
        v = rng.normal(size=matrix.shape[1])
        out = np.zeros(matrix.shape[0])
        csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, v, out)
        assert out.tobytes() == (matrix @ v).tobytes()


def test_exp_grad_members_equal_fresh_oracle_calls(demo_d1, monkeypatch):
    # exp-grad shares its caller's design across its oracle calls; each
    # member after the seed is either ``start`` itself, registered where the
    # multipliers cancel (at t = 0 at least), or the model of a fresh oracle
    # call, which must equal an oracle call on a design of its own
    x = demo_d1.features
    y = demo_d1.labels
    a = tabular.oracle_sensitive(demo_d1)
    base_cost = (1.0 - 2.0 * y) / len(y)
    design = red.oracle_design(x)
    start = red.unconstrained_train(x, y, oracle_max_iter=300, design=design).members[0]
    oracle = red.fit_cost_sensitive
    fitted = []

    def recording(design, costs, **kw):
        model = oracle(design, costs, **kw)
        fitted.append((model, np.array(costs), kw))
        return model

    monkeypatch.setattr(red, "fit_cost_sensitive", recording)
    # exp-grad scores each member once, as it registers it
    registered = []
    predict = red.LinearModel.predict
    monkeypatch.setattr(red.LinearModel, "predict",
                        lambda model, rows: registered.append(model) or predict(model, rows))
    mixture, log = red.exp_grad_train(x, y, a, np.ones(len(y)),
                                      red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.01),
                                      iters=4, oracle_max_iter=300, start=start, design=design)
    monkeypatch.undo()
    assert len(fitted) == log.oracle_calls >= 2
    assert registered[0] is start and registered[1] is start  # the seed, then t = 0
    assert [id(m) for m in registered[2:] if m is not start] == [id(m) for m, _, _ in fitted]
    for _, costs, _ in fitted:
        # a fresh call's multipliers do not cancel: its costs move off the base
        assert np.abs(costs - base_cost).max() > 1e-6
    for member in mixture.members:
        if member is start:
            continue
        (costs, kw), = [(c, kw) for m, c, kw in fitted if m is member]
        fresh = oracle(red.oracle_design(x), costs, **kw)
        np.testing.assert_array_equal(member.coef, fresh.coef)
        assert member.intercept == fresh.intercept


@pytest.mark.parametrize("kind", [red.DEMOGRAPHIC_PARITY, red.EQUAL_OPPORTUNITY,
                                  red.EQUALIZED_ODDS])
def test_cancelling_multipliers_leave_the_seed_fit(demo_d1, kind):
    # exp-grad takes ``start`` as the best response to multipliers that are
    # equal in each (gap, -gap) pair; the costs they add are rounding residue
    # and the oracle's fit on them predicts as the seed on every row
    x = demo_d1.features
    y = demo_d1.labels.astype(float)
    n = len(y)
    base_cost = (1.0 - 2.0 * y) / n
    cons = red.constraint_matrix(red.MomentConstraint(kind, 0.02), y,
                                 tabular.oracle_sensitive(demo_d1), np.ones(n))
    design = red.oracle_design(x)
    start = red.fit_cost_sensitive(design, base_cost)
    first = np.full(len(cons), red.BOUND / (1.0 + len(cons)))  # exp-grad's t = 0 multipliers
    paired = np.repeat(np.random.default_rng(1).uniform(0.0, 50.0, len(cons) // 2), 2)
    for lam in (first, paired):
        residue = lam @ cons
        assert np.abs(residue).max() <= 1e-15 * np.abs(lam).sum()
        fit = red.fit_cost_sensitive(design, base_cost + residue)
        np.testing.assert_array_equal(fit.predict(x), start.predict(x))


@pytest.mark.parametrize("instance", ["symmetric", "inactive"])
def test_feasible_seed_converges_without_oracle_calls(instance):
    # a seed that meets the slack: the t = 0 best response is the seed, the
    # hull LP's dual is zero and its certification is the seed again
    if instance == "symmetric":
        x = np.array([[1.0], [2.0], [-1.0], [-2.0], [1.5], [2.5], [-1.5], [-2.5]])
        y = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        slack = 0.01
    else:
        x, y = separable_instance(80, seed=5)
        a = (np.random.default_rng(6).random(80) < 0.5).astype(int)
        slack = 1.0
    start = red.unconstrained_train(x, y).members[0]
    model, log = red.exp_grad_train(x, y, a, np.ones(len(y)),
                                    red.MomentConstraint(red.DEMOGRAPHIC_PARITY, slack),
                                    start=start)
    assert log.converged and log.iterations == 1 and log.oracle_calls == 0
    assert all(member is start for member in model.members)
    np.testing.assert_array_equal(model.expected_predictions(x), start.predict(x))


# --- constraint cells (reduction.constraint_matrix) ----------------------------

CONSTRAINT_KINDS = [red.DEMOGRAPHIC_PARITY, red.EQUAL_OPPORTUNITY, red.EQUALIZED_ODDS]
# eight rows, each proxy group holding two rows of each label
CELL_Y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
CELL_A = np.array([0, 0, 0, 0, 1, 1, 1, 1])


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_constraint_matrix_one_proxy_group_is_a_degenerate_group(kind):
    with pytest.raises(DegenerateGroup, match="^proxy group 0 holds no constraint weight$"):
        red.constraint_matrix(red.MomentConstraint(kind, 0.0), CELL_Y,
                              np.ones(8, dtype=int), np.ones(8))


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_constraint_matrix_weightless_group_is_a_degenerate_group(kind):
    # the weighted variant under a conformal source weighs a row 1 when its
    # set is a singleton and 0 otherwise: here no group-1 row is certain
    w = np.where(CELL_A == 1, 0.0, 1.0)
    with pytest.raises(DegenerateGroup, match="^proxy group 1 holds no constraint weight$"):
        red.constraint_matrix(red.MomentConstraint(kind, 0.0), CELL_Y, CELL_A, w)


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_constraint_matrix_group_without_a_label_1_row(kind):
    y = np.where(CELL_A == 1, 0, CELL_Y)  # group 1 holds label-0 rows only
    constraint = red.MomentConstraint(kind, 0.0)
    if kind == red.DEMOGRAPHIC_PARITY:
        # dp's one slice is every row, so both groups hold weight
        gap = np.where(CELL_A == 0, 0.25, -0.25)
        np.testing.assert_array_equal(red.constraint_matrix(constraint, y, CELL_A, np.ones(8)),
                                      [gap, -gap])
        return
    with pytest.raises(DegenerateCell, match=r"^the \(proxy group 1, label 1\) cell holds no "
                                             "constraint weight$"):
        red.constraint_matrix(constraint, y, CELL_A, np.ones(8))


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_tuning_names_one_proxy_group_under_every_kind(kind):
    # every candidate H keeps all 200 rows, and every proxy names group 1
    arts = tiny_artifacts([(i, 1, 0.05) for i in range(200)])
    with pytest.raises(DegenerateGroup, match="of 12, 12 kept one proxy group only$"):
        harness.tune_threshold(arts, kind)


# --- hull LP (reduction.linprog) -----------------------------------------------

def hull_instance(rng, m, k):
    """Random errors and signed violations shaped like exp-grad's members:
    each gap column is followed by its negation, as ``constraint_matrix``
    emits them."""
    gaps = rng.normal(scale=0.1, size=(m, k // 2))
    viols = np.empty((m, k))
    viols[:, 0::2] = gaps
    viols[:, 1::2] = -gaps
    return rng.uniform(0.1, 0.5, size=m), viols


def assert_hull_optimum(errors, viols, slack):
    """``red.linprog`` reaches HiGHS's objective, returns a mixture, and its
    multipliers certify optimality: they are dual feasible and their dual
    objective equals the primal, however many optimal duals there are."""
    m, k = viols.shape
    ref = linprog(c=np.append(errors, red.BOUND),
                  A_ub=np.column_stack([viols.T, -np.ones(k)]), b_ub=np.full(k, slack),
                  A_eq=np.append(np.ones(m), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0, None)] * (m + 1), method="highs")
    assert ref.success
    q, lam = red.linprog(errors, viols, slack)
    assert q.shape == (m,) and lam.shape == (k,)
    assert q.min() >= -1e-12 and abs(q.sum() - 1.0) <= 1e-12
    excess = max(0.0, float((q @ viols - slack).max()))
    primal = float(errors @ q) + red.BOUND * excess
    assert abs(primal - ref.fun) <= 1e-12
    assert lam.min() >= 0.0 and lam.sum() <= red.BOUND + 1e-12
    dual = float(np.min(errors + (viols - slack) @ lam))
    assert abs(dual - primal) <= 1e-12
    return q, excess


@pytest.mark.parametrize("slack", [0.0, 0.05])
@pytest.mark.parametrize("k", [2, 4], ids=["dp", "eod"])
def test_hull_lp_matches_highs_on_random_hulls(k, slack):
    rng = np.random.default_rng(17 * k + int(100 * slack))
    for m in range(1, 61):
        assert_hull_optimum(*hull_instance(rng, m, k), slack)


@pytest.mark.parametrize("k", [2, 4], ids=["dp", "eod"])
def test_hull_lp_matches_highs_on_degenerate_hulls(k):
    rng = np.random.default_rng(5)
    errors, viols = hull_instance(rng, 12, k)
    # duplicated members: every column appears twice
    assert_hull_optimum(np.tile(errors, 2), np.tile(viols, (2, 1)), 0.05)
    # the cheapest member sits exactly at the slack, so the start basis is
    # degenerate
    at_slack = viols.copy()
    cheapest = int(np.argmin(errors))
    at_slack[cheapest, 0::2] = 0.05
    at_slack[cheapest, 1::2] = -0.05
    assert_hull_optimum(errors, at_slack, 0.05)
    # every gap is at least 0.3, so every mixture breaks the slack: s > 0
    broken = viols.copy()
    broken[:, 0::2] = 0.3 + np.abs(viols[:, 0::2])
    broken[:, 1::2] = -broken[:, 0::2]
    _, excess = assert_hull_optimum(errors, broken, 0.05)
    assert excess >= 0.25


def test_hull_lp_returns_none_on_a_singular_basis():
    # an infinite violation on the cheapest member: eliminating it leaves an
    # exact zero pivot, so the start basis is singular in floating point
    assert red.linprog(np.array([0.2, 0.4]), np.array([[np.inf, 0.0], [0.1, -0.1]]),
                       0.0) is None


def test_exp_grad_keeps_the_uniform_candidate_when_the_lp_fails(monkeypatch):
    rng = np.random.default_rng(11)
    n = 300
    a = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 3))
    x[:, 0] += 1.1 * a
    y = (1.5 * x[:, 0] - 0.8 * x[:, 1] + rng.normal(scale=0.7, size=n) > 0.4).astype(int)
    calls = []
    monkeypatch.setattr(red, "linprog", lambda *args: calls.append(args))
    model, log = seeded_exp_grad(x, y, a, np.ones(n),
                                 red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.01))
    assert calls  # the LP was tried and failed
    assert math.isfinite(log.best_gap)
    weights = model.mix_weights
    assert weights.min() > 0.0 and weights.sum() == pytest.approx(1.0, abs=1e-12)
    # a uniform candidate weighs each member by its count among the first t
    # best responses, for some t <= iterations
    assert any(np.allclose(weights * t, np.round(weights * t), rtol=0, atol=1e-9)
               for t in range(1, log.iterations + 1))


# --- brute-force oracle for the reduction --------------------------------------

def brute_force_fair_optimum(y, a, eps=0.0):
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
        oracle_acc, _ = brute_force_fair_optimum(y, a, eps=0.0)
        model, log = seeded_exp_grad(
            x, y, a, np.ones(8), red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.0))
        preds = model.expected_predictions(x)
        acc = float((preds * y + (1 - preds) * (1 - y)).mean())
        r0 = preds[a == 0].mean()
        r1 = preds[a == 1].mean()
        assert abs(r0 - r1) <= 0.05, f"trial {trial}: dp {abs(r0 - r1)}"
        assert acc >= oracle_acc - 0.1, f"trial {trial}: acc {acc} vs {oracle_acc}"


def test_exp_grad_inactive_constraint_equals_unconstrained():
    x, y = separable_instance(80, seed=5)
    a = (np.random.default_rng(6).random(80) < 0.5).astype(int)
    fair, _ = seeded_exp_grad(x, y, a, np.ones(80),
                              red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 1.0))
    plain = red.unconstrained_train(x, y)
    np.testing.assert_allclose(fair.expected_predictions(x), plain.expected_predictions(x))


def test_exp_grad_feasible_start_stays_put():
    # symmetric, already fair, separable: group is independent of everything
    x = np.array([[1.0], [2.0], [-1.0], [-2.0], [1.5], [2.5], [-1.5], [-2.5]])
    y = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model, log = seeded_exp_grad(x, y, a, np.ones(8),
                                 red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.01))
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
    grid = [0.3, 0.1, 0.03, 0.01]
    dps = []
    for eps in grid:
        model, _ = seeded_exp_grad(x, y, a, np.ones(n),
                                   red.MomentConstraint(red.DEMOGRAPHIC_PARITY, eps))
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
    plain = red.unconstrained_train(x, y)

    def eod(preds):
        out = 0.0
        for j in (0, 1):
            m = y == j
            out += abs(preds[m & (a == 0)].mean() - preds[m & (a == 1)].mean())
        return out

    fair, _ = seeded_exp_grad(x, y, a, np.ones(n),
                              red.MomentConstraint(red.EQUALIZED_ODDS, 0.02))
    assert eod(fair.expected_predictions(x)) < eod(plain.expected_predictions(x)) * 0.5


def test_mixture_rate_identity():
    x, y = separable_instance(50, seed=9)
    a = (np.random.default_rng(10).random(50) < 0.4).astype(int)
    model, _ = seeded_exp_grad(x, y, a, np.ones(50),
                               red.MomentConstraint(red.DEMOGRAPHIC_PARITY, 0.05))
    expected = model.expected_predictions(x)
    manual = np.zeros(len(x))
    for q, member in zip(model.mix_weights, model.members):
        manual += q * member.predict(x)
    np.testing.assert_array_equal(expected, manual)
    assert model.mix_weights.sum() == pytest.approx(1.0, abs=1e-9)


# --- selections (harness.select) ---------------------------------------------

MC_DROPOUT = harness.UncertaintySource("mc-dropout")


def tiny_artifacts(records, d1=None, d2=None, d1_eval_probs=(), calib=((), ())):
    """A hand-built run: d1 (sample id i on row i by default), proxies given
    as one (sample_id, a_hat, u) per d1 row in d1 row order, and the
    conformal inputs (eval probabilities in d1 row order too)."""
    if d1 is None:
        rng = np.random.default_rng(1)
        d1 = tabular.Dataset(rng.normal(size=(len(records), 2)), np.arange(len(records)),
                             labels=rng.integers(0, 2, size=len(records)))
    split = tabular.ScarceSplit(d1, d2, d1)
    ids, a_hat, u = zip(*records)
    proxies = attr.Proxies(np.array(ids), np.array(a_hat), np.full(len(records), 0.5),
                           np.array(u, dtype=float))
    return harness.RunArtifacts(split, proxies, np.array(calib[0]), np.array(calib[1]),
                                np.array(d1_eval_probs), {})


def select_all(records, variant, threshold, source=MC_DROPOUT):
    arts = tiny_artifacts(records)
    return harness.select(arts, variant, np.arange(len(records)), threshold, source)


def test_filter_certain_membership_and_boundary():
    idx, a, w = select_all([(0, 1, 0.1), (1, 0, 0.4), (2, 0, 0.2)], "certain", 0.3)
    assert idx.tolist() == [0, 2]
    assert w.tolist() == [1.0, 1.0] and a.tolist() == [1, 0]
    # a cut that keeps one proxy group only fails in the selection itself
    with pytest.raises(DegenerateGroup, match="^certain variant kept no training row of "
                                              "proxy group 0 at H 0.3: "):
        select_all([(0, 1, 0.1), (1, 0, 0.4)], "certain", 0.3)
    with pytest.raises(DegenerateGroup, match="0 at H 0.3: no training row has that proxy group$"):
        select_all([(0, 1, 0.1), (1, 1, 0.4)], "certain", 0.3)
    idx, _, _ = select_all([(0, 1, 0.3), (1, 0, 0.3)], "certain", 0.3)
    assert len(idx) == 2  # <= is inclusive
    idx, _, _ = select_all([(0, 1, 0.5), (1, 0, LN2)], "certain", LN2)
    assert len(idx) == 2  # ln 2 keeps everything


def test_filter_certain_empty_selection():
    with pytest.raises(EmptySelection):
        select_all([(0, 1, 0.5), (1, 0, 0.6)], "certain", 0.1)


def test_weight_from_uncertainty_endpoints():
    idx, a, w = select_all([(0, 1, 0.0), (1, 0, LN2), (2, 1, LN2 / 2)], "weighted", 0.3)
    assert idx.tolist() == [0, 1, 2] and a.tolist() == [1, 0, 1]
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(0.0)
    assert w[2] == pytest.approx(0.5)


def test_select_uncertain_membership():
    idx, a, _ = select_all([(0, 1, 0.2), (1, 0, 0.5)], "uncertain", 0.4)
    assert idx.tolist() == [1]
    assert a.tolist() == [-1]  # no attribute attached: training is unconstrained
    idx, _, _ = select_all([(0, 1, 0.2), (1, 0, 0.5)], "uncertain", 0.0)
    assert len(idx) == 2


def test_filter_nesting():
    rng = np.random.default_rng(7)
    recs = [(i, int(rng.integers(0, 2)), float(rng.uniform(0, LN2))) for i in range(30)]
    lo = set(select_all(recs, "certain", 0.2)[0].tolist())
    hi = set(select_all(recs, "certain", 0.5)[0].tolist())
    assert lo <= hi
    un_lo = set(select_all(recs, "uncertain", 0.2)[0].tolist())
    un_hi = set(select_all(recs, "uncertain", 0.5)[0].tolist())
    assert un_hi <= un_lo


def test_select_every_variant_and_source_on_unsorted_ids():
    # d1 rows hold sample ids 40, 10, 30, 0, 50, 20: row order is not id order
    ids = np.array([40, 10, 30, 0, 50, 20])
    near_a = np.array([True, False, True, False, False, True])
    features = np.where(near_a[:, None], 10.0, -10.0) + np.arange(12.0).reshape(6, 2) / 100
    d1 = tabular.Dataset(features, ids, labels=np.array([1, 0, 1, 1, 0, 0]),
                         masked_sensitive=np.array([1, 1, 0, 0, 1, 0]))
    # five d2 rows near (10, 10) vote 1 by 4 to 1, five near (-10, -10) vote 0
    d2 = tabular.Dataset(np.repeat([[10.0, 10.0], [-10.0, -10.0]], 5, axis=0), np.arange(10),
                         sensitive=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0]))
    a_hat = [1, 0, 0, 1, 1, 0]
    u = [0.1, 0.6, 0.3, 0.69, 0.0, 0.45]
    # proxies and eval probabilities listed in d1 row order
    records = list(zip(ids.tolist(), a_hat, u))
    # calibration scores 0.1..0.4 at eps 0.7: q_hat = 0.2
    arts = tiny_artifacts(records, d1, d2, d1_eval_probs=[0.6, 0.97, 0.05, 0.5, 0.92, 0.15],
                          calib=([0.1, 0.2, 0.3, 0.4], [0, 0, 0, 0]))
    sources = {
        # u <= 0.3
        "mc-dropout": (MC_DROPOUT, {0, 2, 4}),
        # singleton set iff p >= 0.8 or p <= 0.2
        "conformal": (harness.UncertaintySource("conformal", 0.7), {1, 2, 4, 5}),
        # p <= 0.1 or p >= 0.9
        "confidence": (harness.UncertaintySource("confidence", 0.9), {1, 2, 4}),
    }
    rows = np.array([0, 1, 2, 4, 5])  # row 3 is held out
    for name, (source, certain) in sources.items():
        kept = [r for r in rows if r in certain]
        dropped = [r for r in rows if r not in certain]
        if name == "mc-dropout":
            weights = [1.0 - u[r] / LN2 for r in rows]
        else:
            weights = [1.0 if r in certain else 0.0 for r in rows]
        expected = {
            "vanilla": (rows, [-1] * 5, [1.0] * 5),
            "clean": (rows, [1, 1, 0, 1, 0], [1.0] * 5),
            "proxy-knn": (rows, [1, 0, 1, 0, 1], [1.0] * 5),
            "proxy-dnn": (rows, [1, 0, 0, 1, 0], [1.0] * 5),
            "certain": (kept, [a_hat[r] for r in kept], [1.0] * len(kept)),
            "weighted": (rows, [1, 0, 0, 1, 0], weights),
            "uncertain": (dropped, [-1] * len(dropped), [1.0] * len(dropped)),
        }
        assert set(expected) == set(harness.VARIANTS)
        for variant, (want_idx, want_a, want_w) in expected.items():
            idx, a, w = harness.select(arts, variant, rows, 0.3, source)
            assert idx.tolist() == list(want_idx), (name, variant)
            assert a.tolist() == want_a, (name, variant)
            np.testing.assert_array_equal(w, want_w, err_msg=f"{name} {variant}")


def test_knn_impute_rules():
    ref_x = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    ref_a = np.array([1, 1, 0])
    x = np.array([[0.0, 0.0], [4.9, 4.9]])
    np.testing.assert_array_equal(red.knn_impute(x, ref_x, ref_a, k=1), [1, 0])
    # k=3 majority {1,1,0} -> 1 for anything
    np.testing.assert_array_equal(red.knn_impute(x, ref_x, ref_a, k=3), [1, 1])
    # k=2 tie {1,0} resolves to 1
    tie_x, tie_a = np.array([[0.0, 0.0], [0.2, 0.0]]), np.array([1, 0])
    np.testing.assert_array_equal(red.knn_impute(np.array([[0.1, 0.0]]), tie_x, tie_a, k=2), [1])


def test_knn_impute_matches_brute_force_across_chunks():
    # knn_impute scores x in chunks of 2_000_000 // len(ref_x) rows; these
    # sizes give three chunks, the last one partial. Continuous random
    # features leave no two reference rows at the same distance from a row.
    rng = np.random.default_rng(11)
    ref_x = rng.normal(size=(4000, 4))
    ref_a = rng.integers(0, 2, size=len(ref_x))
    x = rng.normal(size=(1200, 4))
    assert 2 < len(x) / (2_000_000 // len(ref_x)) < 3
    ks = (1, 4, 5, len(ref_x))
    want = {k: [] for k in ks}
    for row in x:
        order = np.argsort(((ref_x - row) ** 2).sum(axis=1))
        for k in ks:
            votes = int(ref_a[order[:k]].sum())
            want[k].append(1 if 2 * votes >= k else 0)
    for k in ks:
        np.testing.assert_array_equal(red.knn_impute(x, ref_x, ref_a, k), want[k],
                                      err_msg=f"k={k}")
