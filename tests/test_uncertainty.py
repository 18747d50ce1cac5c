import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairscarce import uncertainty as unc
from fairscarce.errors import FairscarceError


def test_binary_entropy_values():
    assert unc.binary_entropy(0.5) == pytest.approx(math.log(2))
    assert unc.binary_entropy(0.0) == 0.0
    assert unc.binary_entropy(1.0) == 0.0
    assert unc.binary_entropy(0.25) == pytest.approx(0.5623351446188083)
    assert unc.binary_entropy(0.9) == pytest.approx(0.3250829733914482)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_bounds(p):
    u = unc.binary_entropy(p)
    assert 0.0 <= u <= math.log(2) + 1e-12
    if p in (0.0, 1.0):
        assert u == 0.0


def test_conformal_calibrate_perfect_predictions():
    probs = [1.0] * 5 + [0.0] * 5
    truths = [1] * 5 + [0] * 5
    assert unc.conformal_calibrate(probs, truths, epsilon=0.2) == 0.0


def test_conformal_calibrate_hand_quantile():
    # scores come out as {0.1, 0.2, 0.3, 0.4}; with n = 4 calibration rows,
    # ceil(5 * 0.8) = 4 -> 0.4
    probs = [0.9, 0.8, 0.7, 0.6]
    truths = [1, 1, 1, 1]
    q_hat = unc.conformal_calibrate(probs, truths, epsilon=0.2)
    assert type(q_hat) is float and q_hat == pytest.approx(0.4)


def test_conformal_calibrate_clamps_to_one():
    assert unc.conformal_calibrate([0.9, 0.8], [1, 1], epsilon=0.01) == 1.0


def test_conformal_calibrate_empty():
    with pytest.raises(FairscarceError, match="no calibration rows"):
        unc.conformal_calibrate([], [], 0.1)


def test_conformal_set_hand_cases():
    assert unc.conformal_sets(0.4, [0.7], [1])[0].members == frozenset({1})
    assert unc.conformal_sets(1.0, [0.3], [2])[0].members == frozenset({0, 1})
    assert unc.conformal_sets(0.2, [0.5], [3])[0].members == frozenset()


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=30))
def test_set_size_monotone_in_epsilon(probs, ncal):
    rng = np.random.default_rng(ncal)
    cal_probs = rng.random(ncal)
    truths = rng.integers(0, 2, size=ncal)
    ids = list(range(len(probs)))
    loose = unc.conformal_calibrate(cal_probs, truths, epsilon=0.3)
    tight = unc.conformal_calibrate(cal_probs, truths, epsilon=0.05)
    assert tight >= loose
    for p, i in zip(probs, ids):
        assert (unc.conformal_sets(loose, [p], [i])[0].members
                <= unc.conformal_sets(tight, [p], [i])[0].members)


def test_confidence_band_filter_endpoints():
    probs = [0.1, 0.45, 0.5, 0.6, 0.95]
    assert unc.confidence_band_filter(probs, tau=0.5).tolist() == [True] * 5
    assert unc.confidence_band_filter([0.95, 0.6], tau=0.9).tolist() == [True, False]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
       st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.5, max_value=1.0))
def test_band_nesting(probs, tau1, tau2):
    lo_tau, hi_tau = sorted([tau1, tau2])
    low_loose = unc.confidence_band_filter(probs, lo_tau)
    low_strict = unc.confidence_band_filter(probs, hi_tau)
    # raising tau only moves rows from low to high
    assert not (low_strict & ~low_loose).any()


def test_marginal_coverage_on_synthetic_gaussians():
    # i.i.d. two-group data; the fraction of evaluation rows whose true group
    # lies in the prediction set must reach 1 - eps within binomial noise.
    # Conditional coverage fluctuates with the calibration draw (Beta law),
    # so the band combines calibration and evaluation noise.
    hits = 0
    trials = 20
    eps = 0.1
    n_cal, n_ev = 600, 2000
    sigma = math.sqrt(eps * (1 - eps) * (1 / n_cal + 1 / n_ev))
    for trial in range(trials):
        rng = np.random.default_rng(trial)

        def sample(n):
            a = rng.integers(0, 2, size=n)
            x = rng.normal(loc=1.2 * (2 * a - 1), scale=1.0, size=n)
            return x, a

        def p_model(x):  # true posterior of the generating mixture
            return 1.0 / (1.0 + np.exp(-2.4 * x))

        x_cal, a_cal = sample(n_cal)
        x_ev, a_ev = sample(n_ev)
        q_hat = unc.conformal_calibrate(p_model(x_cal), a_cal, eps)
        sets = unc.conformal_sets(q_hat, p_model(x_ev), range(len(x_ev)))
        covered = np.mean([a in s.members for a, s in zip(a_ev, sets)])
        if covered >= 1 - eps - 2 * sigma:
            hits += 1
    assert hits >= 19
