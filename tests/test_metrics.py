import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairscarce import metrics
from fairscarce.errors import DegenerateCell, DegenerateGroup


def enumerate_expectation(preds, condition):
    """Defining-expectation oracle: a literal sum over the rows satisfying
    the condition, no vectorized shortcuts."""
    total, count = 0.0, 0
    for i in range(len(preds)):
        if condition(i):
            total += preds[i]
            count += 1
    if count == 0:
        return None
    return total / count


def oracle_dp(preds, sensitive):
    r0 = enumerate_expectation(preds, lambda i: sensitive[i] == 0)
    r1 = enumerate_expectation(preds, lambda i: sensitive[i] == 1)
    return abs(r0 - r1)


def oracle_alpha(preds, labels, sensitive, j):
    r0 = enumerate_expectation(preds, lambda i: sensitive[i] == 0 and labels[i] == j)
    r1 = enumerate_expectation(preds, lambda i: sensitive[i] == 1 and labels[i] == j)
    if r0 is None or r1 is None:
        return None
    return abs(r0 - r1)


def alphas(preds, labels, sensitive):
    """(alpha_0, alpha_1), the FPR and TPR gaps, from ``evaluate_report``:
    alpha_1 is its eop gap and alpha_0 its eod gap less eop."""
    report = metrics.evaluate_report(preds, labels, sensitive)
    return report.eod - report.eop, report.eop


def test_dp_hand_cases():
    labels = [1, 0, 1, 0]  # every (group, label) cell holds a row
    assert metrics.evaluate_report([1, 1, 0, 0], labels, [0, 0, 1, 1]).dp == pytest.approx(1.0)
    assert metrics.evaluate_report([1, 0, 1, 0], labels, [0, 0, 1, 1]).dp == pytest.approx(0.0)


def test_alpha_hand_confusion_table():
    # group 0: TPR 1.0 (2/2); group 1: TPR 0.5 (1/2)
    labels = [1, 1, 0, 0, 1, 1, 0, 0]
    sens = [0, 0, 0, 0, 1, 1, 1, 1]
    preds = [1, 1, 0, 0, 1, 0, 0, 0]
    alpha_0, alpha_1 = alphas(preds, labels, sens)
    assert alpha_1 == pytest.approx(0.5)
    assert alpha_0 == pytest.approx(0.0)


def test_alpha_constant_classifier():
    labels = [1, 0, 1, 0]
    sens = [0, 0, 1, 1]
    ones = [1, 1, 1, 1]
    assert alphas(ones, labels, sens) == (0.0, 0.0)
    assert metrics.evaluate_report(ones, labels, sens).eod == 0.0


def test_perfect_classifier_zero_gaps():
    labels = np.array([1, 0, 1, 0, 1, 0])
    sens = np.array([0, 0, 0, 1, 1, 1])
    report = metrics.evaluate_report(labels, labels, sens)
    assert report.accuracy == 1.0
    assert report.dp == pytest.approx(abs(2 / 3 - 1 / 3))
    assert report.eop == 0.0
    assert report.eod == 0.0


def test_degenerate_errors():
    with pytest.raises(DegenerateGroup):
        metrics.evaluate_report([1, 0], [1, 0], [0, 0])
    with pytest.raises(DegenerateCell):
        metrics.evaluate_report([1, 0], [1, 1], [0, 1])


@pytest.mark.parametrize("labels,sens,error,names", [
    # group 1 is empty, and so is every (A=1, Y) cell
    ([1, 0, 1], [0, 0, 0], DegenerateGroup, "group 1"),
    # (A=0, Y=1) and (A=1, Y=0) are both empty
    ([0, 1], [0, 1], DegenerateCell, "A=0, Y=1"),
    ([1, 1, 0], [0, 1, 0], DegenerateCell, "A=1, Y=0"),
])
def test_report_error_order(labels, sens, error, names):
    # an empty group is named before any empty cell, and an empty Y=1 cell
    # before an empty Y=0 cell
    with pytest.raises(error, match=names):
        metrics.evaluate_report([1] * len(labels), labels, sens)


def random_instance(rng, n):
    while True:
        labels = rng.integers(0, 2, size=n)
        sens = rng.integers(0, 2, size=n)
        if all(((sens == a) & (labels == y)).any() for a in (0, 1) for y in (0, 1)):
            return rng.integers(0, 2, size=n), labels, sens


def test_metrics_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(400):
        n = int(rng.integers(4, 13))
        preds, labels, sens = random_instance(rng, n)
        a0 = oracle_alpha(preds, labels, sens, 0)
        a1 = oracle_alpha(preds, labels, sens, 1)
        alpha_0, alpha_1 = alphas(preds, labels, sens)
        assert alpha_0 == pytest.approx(a0)
        assert alpha_1 == pytest.approx(a1)
        report = metrics.evaluate_report(preds, labels, sens)
        assert report.dp == pytest.approx(oracle_dp(preds, sens))
        assert report.eop == pytest.approx(a1)
        assert report.eod == pytest.approx(a0 + a1)


def test_gaps_equal_masked_means_bit_for_bit():
    # each gap reduces the same elements in the same order as a mean over
    # the rows one (group, label) mask selects, so it is that float exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        _, labels, sens = random_instance(rng, 200)
        preds = rng.random(200)

        def gap(mask):
            return float(abs(preds[mask(0)].mean() - preds[mask(1)].mean()))

        eop = gap(lambda g: (sens == g) & (labels == 1))
        report = metrics.evaluate_report(preds, labels, sens)
        assert report.dp == gap(lambda g: sens == g)
        assert report.eop == eop
        assert report.eod == gap(lambda g: (sens == g) & (labels == 0)) + eop


@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.integers(min_value=0, max_value=10_000))
def test_group_relabel_and_complement_symmetry(bits, seed):
    rng = np.random.default_rng(seed)
    preds, labels, sens = random_instance(rng, 12)
    report = metrics.evaluate_report(preds, labels, sens)
    assert metrics.evaluate_report(preds, labels, 1 - sens).dp == pytest.approx(report.dp)
    assert metrics.evaluate_report(1 - preds, labels, sens).dp == pytest.approx(report.dp)
    assert metrics.evaluate_report(preds, labels, 1 - sens).eod == pytest.approx(report.eod)


def test_ranges_and_eod_dominates_eop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        preds, labels, sens = random_instance(rng, 10)
        report = metrics.evaluate_report(preds, labels, sens)
        for v in (report.dp, report.eop, report.eod):
            assert 0.0 <= v <= 2.0
        assert report.dp <= 1.0
        assert report.eop <= 1.0
        assert report.eod >= report.eop - 1e-12


def test_fractional_predictions_evaluate_expected_rates():
    # a randomized classifier given by expected positive rates
    preds = np.array([0.5, 0.5, 0.25, 0.75])
    sens = np.array([0, 0, 1, 1])
    labels = np.array([1, 0, 1, 0])
    report = metrics.evaluate_report(preds, labels, sens)
    assert report.dp == pytest.approx(0.0)
    # expected accuracy: mean of p*y + (1-p)*(1-y)
    assert report.accuracy == pytest.approx((0.5 + 0.5 + 0.25 + 0.25) / 4)

