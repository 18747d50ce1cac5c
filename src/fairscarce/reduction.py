"""Fair classification by reduction: a cost-sensitive logistic-regression
oracle inside an exponentiated-gradient saddle-point loop, plus the
nearest-neighbor imputation baseline. Every entry point takes plain arrays:
training takes features ``x``, labels ``y``, the attribute ``a`` each
fairness constraint reads and the weight ``w`` of each row's constraint
terms, and imputation (``knn_impute``) the rows to label and the reference
rows' features and attributes.

The reduction alternates (1) a best-response fit against signed per-row costs
built from the current multipliers with (2) a multiplicative-weights update
of the multipliers by the observed constraint violations, and returns a
mixture of the iterates chosen by a duality-gap criterion.

The oracle works on a CSR design (``oracle_design``) with scipy's CSR
kernel. ``scipy.sparse`` is imported on the first ``oracle_design`` or
``fit_cost_sensitive`` call, so a process that only imports the package or
runs phase 1 does not load it. The hull LP that re-mixes exp-grad's members
is a small dense simplex in numpy (``linprog``), so no phase-2 run loads
``scipy.optimize``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateCell, DegenerateGroup, FairscarceError

if TYPE_CHECKING:
    from scipy.sparse import csr_array

DEMOGRAPHIC_PARITY = "dp"
EQUALIZED_ODDS = "eod"
EQUAL_OPPORTUNITY = "eop"

# oracle: gradient-norm stopping tolerance, the default iteration budget of
# a fit and the L2 penalty on coefficients
ORACLE_TOL = 1e-6
ORACLE_MAX_ITER = 5000
RIDGE = 1e-3
# exp-grad: the default iteration budget, multiplier learning rate, the bound
# on the multipliers' 1-norm (also the price of a violation in the duality
# gap) and the gap that counts as converged
EXP_GRAD_ITERS = 50
ETA = 2.0
BOUND = 100.0
GAP_TOL = 1e-3
# hull LP: the reduced cost below which a column enters and the smallest
# pivot the ratio test accepts
LP_TOL = 1e-10


# the oracle's CSR design of a set of rows and a CSR copy of its transpose
OracleDesign = tuple["csr_array", "csr_array"]


@dataclass(frozen=True)
class LinearModel:
    """Thresholded linear scorer: predicts 1 iff x @ coef + intercept >= 0."""

    coef: np.ndarray
    intercept: float

    def decision(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.coef + self.intercept

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.decision(x) >= 0.0).astype(float)


def linprog(errors: np.ndarray, viols: np.ndarray,
            slack: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Exp-grad's hull LP over m members with errors ``errors`` (m,) and
    signed violations ``viols`` (m, K):

        minimise errors @ q + BOUND * s
        subject to viols.T @ q - s <= slack (K rows), sum(q) = 1, q, s >= 0.

    Returns the mixture ``q`` and the multipliers ``lam = max(-y[:K], 0)``,
    where ``y`` are the duals of the K inequality rows, or None when the
    solve fails: a singular basis (``LinAlgError``), an entering column
    with no positive pivot (q is bounded and s costs ``BOUND``, so only
    rounding gets there), or more than 50 * (m + K + 1) pivots.

    A dense revised simplex on the columns (q, s, r), with r the K slack
    variables of the inequality rows, and K + 1 equality rows. The start
    basis is feasible, so no phase 1 runs: the cheapest member at weight 1,
    the slack variables of the K rows, and ``s`` in place of the slack
    variable of the most violated row when that member breaks the slack.
    Pivots follow Bland's (1977) rule, which cannot cycle: the entering
    column is the lowest index whose reduced cost is below ``-LP_TOL``, and
    of the basic columns tied in the ratio test, the lowest index leaves.
    Each pivot solves the (K + 1)-square basis with ``np.linalg.solve``.
    """
    m, k = viols.shape
    cols = np.zeros((k + 1, m + 1 + k))
    cols[:k, :m] = viols.T
    cols[:k, m] = -1.0
    cols[:k, m + 1:] = np.eye(k)
    cols[k, :m] = 1.0
    rhs = np.append(np.full(k, float(slack)), 1.0)
    cost = np.concatenate([errors, [BOUND], np.zeros(k)])
    cheapest = int(np.argmin(errors))
    basis = np.array([cheapest, *range(m + 1, m + 1 + k)])
    excess = viols[cheapest] - slack
    if excess.max() > 0.0:
        basis[1 + int(np.argmax(excess))] = m
    try:
        for _ in range(50 * (m + k + 1)):
            mat = cols[:, basis]
            y = np.linalg.solve(mat.T, cost[basis])
            reduced = cost - y @ cols
            reduced[basis] = 0.0
            entering = np.flatnonzero(reduced < -LP_TOL)
            x_basis = np.linalg.solve(mat, rhs)
            if len(entering) == 0:
                x = np.zeros(m + 1 + k)
                x[basis] = x_basis
                return np.maximum(x[:m], 0.0), np.maximum(-y[:k], 0.0)
            step = np.linalg.solve(mat, cols[:, entering[0]])
            rows = np.flatnonzero(step > LP_TOL)
            if len(rows) == 0:
                return None
            ratios = np.maximum(x_basis[rows], 0.0) / step[rows]
            tied = rows[ratios == ratios.min()]
            basis[tied[np.argmin(basis[tied])]] = entering[0]
    except np.linalg.LinAlgError:
        return None
    return None


def oracle_design(x: np.ndarray) -> OracleDesign:
    """The oracle's design for rows ``x``: the features plus an intercept
    column as a CSR matrix, and a CSR copy of its transpose. Built once per
    training call and shared by every oracle call on the same rows."""
    from scipy.sparse import csr_array

    x = np.asarray(x, dtype=float)
    design = csr_array(np.column_stack([x, np.ones(len(x))]))
    return design, design.T.tocsr()


def fit_cost_sensitive(design: OracleDesign,
                       signed_costs: np.ndarray,
                       max_iter: int = ORACLE_MAX_ITER) -> LinearModel:
    """Best-response oracle: minimize sum_i c_i * h(x_i) over linear
    classifiers, trained as weighted logistic regression with targets
    1{c_i < 0} and weights |c_i|. ``design`` is the ``oracle_design`` of the
    rows, built once per sweep cell.

    A small L2 penalty, ``RIDGE``, applies to the coefficients but not the
    intercept, so constant-within-subset one-hot blocks settle into the
    intercept instead of acting as phantom offsets on out-of-subset rows, and
    rare one-hot levels cannot be memorized with huge weights.

    Full-batch gradient descent with line-halving, stopping when the
    gradient 2-norm drops below ``ORACLE_TOL`` or after ``max_iter`` iterations.
    Deterministic: the start point is always zero.

    The CSR design and its CSR transpose make the two products of an
    iteration one pass over the nonzeros each; the one-hot encoded corpora
    are mostly zeros. Both products call scipy's ``csr_matvec`` kernel
    directly, into a preallocated buffer zeroed first: that is all
    ``csr_array @ vector`` does once its operator dispatch, shape checks and
    fresh output array are done, so the result is the same to the bit, and
    an oracle call makes thousands of products. scipy exposes the kernel
    only in the private ``scipy.sparse._sparsetools`` module, so a test
    pins it against ``csr_array @ vector`` bit for bit.

    A loss evaluation keeps ``z`` and ``exp(-|z|)`` in one preallocated
    pair; the gradient is computed only for an accepted step, and always
    right after that step's loss, so one pair is enough and a rejected
    line-search candidate costs one product, not two. The per-row loss
    ``max(z, 0) - z * t + log1p(e)`` is computed as ``max(s * z, 0) +
    log1p(e)`` with ``s = 1 - 2t``: for t in {0, 1} the two agree exactly
    up to the sign of a zero, which adding ``log1p(e) >= 0`` removes. The
    mean is ``np.add.reduce(row) / n``, the same pairwise sum and division
    as ``ndarray.mean``. Every other step writes into preallocated buffers
    in the order of the plain expressions, so the iterates are
    bit-identical to those of a loop that allocates every temporary and
    computes every gradient.
    """
    from scipy.sparse._sparsetools import csr_matvec

    matrix, matrix_t = design
    c = np.asarray(signed_costs, dtype=float)
    if not np.isfinite(c).all():
        raise FairscarceError("signed costs contain NaN or infinity")
    n, cols = matrix.shape
    targets = (c < 0).astype(float)
    weights = np.abs(c)
    total = weights.sum()
    if total == 0.0:
        return LinearModel(np.zeros(cols - 1), 0.0)
    weights = weights * (n / total)  # mean-one weights keep gradients scale-free

    theta = np.zeros(cols)
    penalty_mask = np.ones(cols)
    penalty_mask[-1] = 0.0  # free intercept
    ridge_mask = RIDGE * penalty_mask
    signs = 1.0 - 2.0 * targets
    z = np.empty(n)
    e = np.empty(n)
    row = np.empty(n)
    tmp = np.empty(n)
    nonneg = np.empty(n, dtype=bool)
    g = np.empty(cols)
    small = np.empty(cols)
    fwd = (n, cols, matrix.indptr, matrix.indices, matrix.data)
    back = (cols, n, matrix_t.indptr, matrix_t.indices, matrix_t.data)

    def loss(th) -> float:
        z.fill(0.0)
        csr_matvec(*fwd, th, z)
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # per row: max(s * z, 0) + log1p(e), then weighted
        np.multiply(signs, z, out=row)
        np.maximum(row, 0.0, out=row)
        np.add(row, np.log1p(e, out=tmp), out=row)
        np.multiply(weights, row, out=row)
        value = float(np.add.reduce(row) / n)
        np.multiply(penalty_mask, th, out=small)
        np.multiply(small, th, out=small)
        value += 0.5 * RIDGE * float(np.add.reduce(small))
        return value

    def grad(th) -> None:
        # into g, from the z and e of the last loss call; sigmoid(z) = 1 / (1 + e)
        # for z >= 0 and e / (1 + e) below
        np.copyto(row, e)
        np.putmask(row, np.greater_equal(z, 0.0, out=nonneg), 1.0)
        np.divide(row, np.add(1.0, e, out=tmp), out=row)
        np.subtract(row, targets, out=row)
        np.multiply(weights, row, out=row)
        g.fill(0.0)
        csr_matvec(*back, row, g)
        np.divide(g, n, out=g)
        np.add(g, np.multiply(ridge_mask, th, out=small), out=g)

    value = loss(theta)
    grad(theta)
    step = 1.0
    for _ in range(max_iter):
        gnorm2 = float(g @ g)
        if math.sqrt(gnorm2) < ORACLE_TOL:
            break
        accepted_first_try = True
        while True:
            candidate = theta - step * g
            cand_value = loss(candidate)
            if cand_value <= value - 1e-4 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
            accepted_first_try = False
        theta, value = candidate, cand_value
        grad(theta)
        if accepted_first_try:
            step = min(step * 2.0, 1e6)
    return LinearModel(theta[:-1], float(theta[-1]))


@dataclass(frozen=True)
class MomentConstraint:
    """A group-fairness moment set with slack.

    Each base gap (positive-rate gap for dp, the per-label-slice rate gaps
    for eod/eop) appears with both inequality directions, so the signed
    constraint count is 2 for dp, 4 for eod, 2 for eop.
    """

    kind: str
    slack: float

    def __post_init__(self):
        if self.kind not in (DEMOGRAPHIC_PARITY, EQUALIZED_ODDS, EQUAL_OPPORTUNITY):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.slack < 0:
            raise ValueError("slack must be nonnegative")

    def label_slices(self, y: np.ndarray) -> list[tuple[int | None, np.ndarray]]:
        """Each label slice a gap is measured on: its label (None for dp's
        one slice of every row) and the mask of its rows."""
        if self.kind == DEMOGRAPHIC_PARITY:
            return [(None, np.ones(len(y), dtype=bool))]
        if self.kind == EQUAL_OPPORTUNITY:
            return [(1, y == 1)]
        return [(0, y == 0), (1, y == 1)]


def constraint_matrix(constraint: MomentConstraint, y, a, w) -> np.ndarray:
    """The signed conditional-rate constraints over proxy-attribute cells as
    one (K, n) matrix: row k is d(g_k)/d(h_i), so ``M @ preds`` gives the
    signed gaps g_k(h), which the constraints read as g_k <= slack, and
    ``lam @ M`` the multipliers' share of the per-row costs.

    A selection with a proxy group of no total weight ``w`` raises
    DegenerateGroup naming the group, under every kind. Failing that, one
    with a (group, label) cell of no weight in one of the kind's label
    slices raises DegenerateCell naming both; under dp the one slice is
    every row, so only DegenerateGroup can arise."""
    for group in (0, 1):
        if float(w[a == group].sum()) <= 0.0:
            raise DegenerateGroup(f"proxy group {group} holds no constraint weight")
    rows = []
    for label, sl in constraint.label_slices(y):
        cell0 = (a == 0) & sl
        cell1 = (a == 1) & sl
        w0 = float(w[cell0].sum())
        w1 = float(w[cell1].sum())
        for group, mass in ((0, w0), (1, w1)):
            if mass <= 0.0:
                raise DegenerateCell(f"the (proxy group {group}, label {label}) cell "
                                     "holds no constraint weight")
        base = np.where(cell0, w / w0, 0.0) - np.where(cell1, w / w1, 0.0)
        rows.append(base)
        rows.append(-base)
    return np.vstack(rows)


@dataclass(frozen=True)
class RandomizedClassifier:
    """Mixture of linear members; evaluation uses expected prediction rates."""

    members: tuple[LinearModel, ...]
    mix_weights: np.ndarray

    def __post_init__(self):
        if abs(float(self.mix_weights.sum()) - 1.0) > 1e-9 or (self.mix_weights < 0).any():
            raise ValueError("mixture weights must be nonnegative and sum to 1")

    def expected_predictions(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        for q, member in zip(self.mix_weights, self.members):
            if q > 0.0:
                out += q * member.predict(x)
        return out


@dataclass
class ExpGradLog:
    """How one ``exp_grad_train`` call went; ``oracle_calls`` counts its
    fresh oracle calls only: never the caller's seed fit, nor a member taken
    from that seed because the multipliers cancelled."""

    converged: bool
    best_gap: float
    iterations: int
    oracle_calls: int
    max_violation: float


def exp_grad_train(x: np.ndarray, y: np.ndarray, a: np.ndarray, w: np.ndarray,
                   constraint: MomentConstraint, iters: int = EXP_GRAD_ITERS,
                   oracle_max_iter: int = ORACLE_MAX_ITER, *, start: LinearModel,
                   design: OracleDesign | None = None) -> tuple[RandomizedClassifier, ExpGradLog]:
    """Train a randomized fair classifier by exponentiated gradient on rows
    ``x`` with labels ``y``, attributes ``a`` (0 or 1) and constraint weights
    ``w``.

    Per iteration: form signed costs from the current multipliers, fit the
    best response, measure its constraint violations, and update the
    multipliers multiplicatively (log-weights shifted by (ETA / BOUND) *
    (violation - slack); the exponentiated-weights normalization keeps their
    1-norm below ``BOUND``). Candidate solutions are the uniform mixture over
    iterates and, while the gap stays above ``GAP_TOL``, the small LP re-mix
    over all generated classifiers; the candidate with the smallest duality
    gap is returned and ``converged`` says whether that gap beat ``GAP_TOL``.

    The first member is ``start``, required: the single member of
    ``unconstrained_train(x, y, oracle_max_iter)``, the seed of the gap
    bound. The caller fits it (or reuses a fit on the same rows).
    ``design``, when given, is ``oracle_design(x)`` built by that caller, so
    one design serves both fits.

    ``constraint_matrix`` emits each gap row followed by its negation, so a
    multiplier vector whose pairs are equal (``lam[0::2] == lam[1::2]``)
    adds nothing to the costs in exact arithmetic, and its best response is
    the unconstrained fit. Such a vector (always the first one, where theta
    is 0, and a certification against an all-zero LP dual) registers
    ``start`` again as a member of its own, with no oracle call; any other
    goes to the oracle. ``log.oracle_calls`` counts those fresh calls.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a)
    if len(x) == 0:
        raise ValueError("no training rows")
    if (a < 0).any():
        raise ValueError("every row needs a proxy attribute under fairness constraints")
    cons = constraint_matrix(constraint, y, a, np.asarray(w, dtype=float))  # (K, n)
    slack = constraint.slack
    n = len(x)
    base_cost = (1.0 - 2.0 * y) / n  # derivative of expected error wrt h_i

    if design is None:
        design = oracle_design(x)
    members: list[LinearModel] = []
    member_err: list[float] = []
    member_viol: list[np.ndarray] = []

    def register(model: LinearModel) -> int:
        preds = model.predict(x)
        members.append(model)
        member_err.append(float(np.abs(preds - y).mean()))
        member_viol.append(cons @ preds)
        return len(members) - 1

    def best_response(lam_vec) -> int:
        if np.array_equal(lam_vec[0::2], lam_vec[1::2]):
            return register(start)  # the multipliers cancel: the seed is the fit
        log.oracle_calls += 1
        costs = base_cost + lam_vec @ cons
        return register(fit_cost_sensitive(design, costs, max_iter=oracle_max_iter))

    theta = np.zeros(len(cons))
    lambda_sum = np.zeros(len(cons))
    eta_step = ETA / BOUND
    chosen: list[int] = []
    log = ExpGradLog(False, math.inf, 0, 0, 0.0)
    best_mix: np.ndarray | None = None

    register(start)  # the unconstrained seed, used by the gap bound

    def gap_of(mix, lam_vec) -> tuple[float, np.ndarray]:
        """Duality gap of the pair (mix, lam_vec), with the lower bound taken
        over the members generated so far, and the mixture's violations."""
        errors = np.array(member_err)
        viols = np.vstack(member_viol)
        mix_err = float(mix @ errors)
        mix_viol = mix @ viols
        l_mid = mix_err + float(lam_vec @ (mix_viol - slack))
        l_low = float(np.min(errors + viols @ lam_vec)) - slack * float(lam_vec.sum())
        l_high = mix_err + BOUND * max(0.0, float((mix_viol - slack).max()))
        return max(l_mid - l_low, l_high - l_mid), mix_viol

    def consider(mix, lam_vec) -> None:
        """Track the candidate; on a would-converge gap, certify the lower
        bound with one more best response against the candidate's lambda."""
        gap, mix_viol = gap_of(mix, lam_vec)
        if gap < GAP_TOL:
            best_response(lam_vec)
            gap, mix_viol = gap_of(np.pad(mix, (0, 1)), lam_vec)
            mix = np.pad(mix, (0, 1))
        if gap < log.best_gap:
            log.best_gap = gap
            nonlocal best_mix
            best_mix = np.array(mix, dtype=float)
            log.max_violation = float(mix_viol.max())

    for t in range(iters):
        expt = np.exp(theta - theta.max())
        lam = BOUND * expt / (math.exp(-theta.max()) + expt.sum())
        lambda_sum += lam

        idx = best_response(lam)
        chosen.append(idx)

        uniform = np.zeros(len(members))
        for i in chosen:
            uniform[i] += 1.0 / len(chosen)
        consider(uniform, lambda_sum / (t + 1))
        if log.best_gap >= GAP_TOL:
            # the hull LP: the cheapest mixture of the members so far (max
            # violation beyond the slack priced at BOUND) and its constraints'
            # multipliers, the candidate's lambda; None (a failed solve) keeps
            # the uniform candidate alone
            lp_pair = linprog(np.array(member_err), np.vstack(member_viol), slack)
            if lp_pair is not None:
                consider(np.pad(lp_pair[0], (0, len(members) - len(lp_pair[0]))), lp_pair[1])
        log.iterations = t + 1
        if log.best_gap < GAP_TOL:
            log.converged = True
            break

        theta = theta + eta_step * (member_viol[idx] - slack)

    assert best_mix is not None
    best_mix = np.pad(best_mix, (0, len(members) - len(best_mix)))
    keep = best_mix > 1e-12
    kept_members = tuple(m for m, k in zip(members, keep) if k)
    kept_weights = best_mix[keep]
    kept_weights = kept_weights / kept_weights.sum()
    return RandomizedClassifier(kept_members, kept_weights), log


def unconstrained_train(x: np.ndarray, y: np.ndarray,
                        oracle_max_iter: int = ORACLE_MAX_ITER, design: OracleDesign | None = None) -> RandomizedClassifier:
    """Plain accuracy-only logistic fit wrapped as a single-member mixture;
    ``design``, when given, is the caller's ``oracle_design(x)``."""
    y = np.asarray(y, dtype=float)
    if design is None:
        design = oracle_design(x)
    model = fit_cost_sensitive(design, (1.0 - 2.0 * y) / len(y), max_iter=oracle_max_iter)
    return RandomizedClassifier((model,), np.array([1.0]))


def knn_impute(x: np.ndarray, ref_x: np.ndarray, ref_a: np.ndarray, k: int) -> np.ndarray:
    """Majority attribute among each row of ``x``'s k Euclidean-nearest
    reference rows, whose features are ``ref_x`` and attributes (0 or 1)
    ``ref_a``; ties resolve to 1. ``x`` is taken in chunks of about two
    million distances each."""
    if not 1 <= k <= len(ref_x):
        raise ValueError("k must lie in [1, len(ref_x)]")
    if np.shape(ref_a) != (len(ref_x),):
        raise ValueError("ref_a must hold one attribute per reference row")
    ref_norm2 = np.einsum("ij,ij->i", ref_x, ref_x)
    out = np.empty(len(x), dtype=int)
    chunk = max(1, 2_000_000 // len(ref_x))
    for start in range(0, len(x), chunk):
        block = x[start:start + chunk]
        dist = ref_norm2[None, :] - 2.0 * (block @ ref_x.T)  # + ||x||^2, constant per row
        if k < len(ref_x):
            nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
        else:
            nearest = np.broadcast_to(np.arange(len(ref_x)), (len(block), len(ref_x)))
        votes = ref_a[nearest].sum(axis=1)
        out[start:start + len(block)] = (2 * votes >= k).astype(int)
    return out
