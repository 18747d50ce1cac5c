import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fairscarce import attribute as attr
from fairscarce import harness, metrics, reduction, synthdata, tabular
from fairscarce.errors import ConfigError, DegenerateGroup, EmptySelection
from fairscarce.uncertainty import LN2


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A complete phase-1 run on a small slice of the bundled corpus."""
    root = tmp_path_factory.mktemp("run")
    csv_path = root / "census.csv"
    schema_path = root / "census.schema"
    synthdata.write_corpus(csv_path, 4000, seed=3)
    synthdata.write_schema(schema_path)
    cfg = attr.AttrTrainConfig(epochs=30, ramp_epochs=10, min_epochs=30, patience=30,
                               mc_passes=10, batch_size=128, lr=0.005, seed=3)
    artifacts = harness.run_attribute_phase(csv_path, schema_path, root / "out",
                                            seed=3, train_config=cfg)
    return root / "out", artifacts


def test_run_dir_artifacts_exist(small_run):
    run_dir, _ = small_run
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        ["d1.ds", "d2.ds", "test.ds", "attr_checkpoint.npz", "proxies.csv", "attr_log.csv",
         "attr_summary.json"])


def test_load_run_round_trips(small_run):
    run_dir, artifacts = small_run
    loaded = harness.load_run(run_dir)
    for name in ("sample_id", "a_hat", "p_group", "u"):
        want, got = getattr(artifacts.proxies, name), getattr(loaded.proxies, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("d1", "d2", "test"):
        np.testing.assert_array_equal(getattr(loaded.split, name).features,
                                      getattr(artifacts.split, name).features)
    # the conformal inputs derived from the checkpoint are those phase 1
    # computed from the teacher in memory, bit for bit
    for name in ("calib_probs", "calib_truth", "d1_eval_probs"):
        want, got = getattr(artifacts, name), getattr(loaded, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("source", ["conformal(0.1)", "confidence(0.9)"])
def test_certain_cell_same_from_memory_and_run_dir(small_run, source):
    run_dir, artifacts = small_run
    parsed = harness.parse_uncertainty_source(source)
    reports = [harness.run_cell(arts, "certain", "dp", 0.05, seed=1, threshold=None,
                                source=parsed, iters=8, oracle_max_iter=300)
               for arts in (artifacts, harness.load_run(run_dir))]
    assert reports[0] == reports[1]


def median_u(artifacts):
    # a cut that keeps a healthy two-group population on the certain side
    return float(np.quantile(artifacts.proxies.u, 0.8))


def test_run_cell_variants(small_run):
    _, artifacts = small_run
    cut = median_u(artifacts)  # both sides of the filter stay populated
    for variant in ("vanilla", "clean", "proxy-dnn", "certain", "weighted", "uncertain"):
        report, n_train = harness.run_cell(artifacts, variant, "dp", 0.05, seed=1,
                                           threshold=cut, iters=8, oracle_max_iter=300)
        rows, _ = harness._d1_train_eval(artifacts, 1)
        kept = {"certain": artifacts.proxies.u[rows] <= cut,
                "uncertain": artifacts.proxies.u[rows] > cut}
        assert n_train == (kept[variant].sum() if variant in kept else len(rows))
        assert 0.5 <= report.accuracy <= 1.0
        assert 0.0 <= report.dp_diff <= 1.0


def test_run_cell_deterministic(small_run):
    _, artifacts = small_run
    cut = median_u(artifacts)
    r1 = harness.run_cell(artifacts, "certain", "dp", 0.05, seed=2, threshold=cut,
                          iters=5, oracle_max_iter=200)
    r2 = harness.run_cell(artifacts, "certain", "dp", 0.05, seed=2, threshold=cut,
                          iters=5, oracle_max_iter=200)
    assert r1 == r2


def test_knn_imputation_of_all_d1_indexes_to_each_cells_rows(small_run):
    # a proxy-knn cell imputes its own training rows; imputing all of d1 once
    # and indexing by those rows must give the same labels on every seed
    # before the per-cell call can become one call per run
    _, artifacts = small_run
    x, d2 = artifacts.split.d1.features, artifacts.split.d2
    whole = reduction.knn_impute(x, d2.features, d2.sensitive, 5)
    for seed in range(7):
        rows, _ = harness._d1_train_eval(artifacts, seed)
        np.testing.assert_array_equal(
            whole[rows], reduction.knn_impute(x[rows], d2.features, d2.sensitive, 5),
            err_msg=f"seed {seed}")


def test_constrained_variant_fairer_than_vanilla(small_run):
    _, artifacts = small_run
    vanilla, _ = harness.run_cell(artifacts, "vanilla", "dp", 0.01, seed=0, threshold=0.4)
    clean, _ = harness.run_cell(artifacts, "clean", "dp", 0.01, seed=0, threshold=0.4,
                                iters=20, oracle_max_iter=800)
    assert clean.dp_diff < vanilla.dp_diff


def test_pareto_front_examples():
    pts = [(0.9, 0.10), (0.85, 0.20), (0.80, 0.05)]
    assert set(harness.pareto_front(pts)) == {(0.9, 0.10), (0.80, 0.05)}
    assert harness.pareto_front([(0.7, 0.3)]) == [(0.7, 0.3)]
    assert harness.pareto_front([(0.5, 0.1), (0.5, 0.1)]) == [(0.5, 0.1), (0.5, 0.1)]


def test_pareto_front_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        pts = [(float(a), float(u)) for a, u in rng.random((rng.integers(1, 50), 2))]
        got = set(harness.pareto_front(pts))
        expected = set()
        for i, p in enumerate(pts):
            if not any(q[0] >= p[0] and q[1] <= p[1] and q != p
                       for j, q in enumerate(pts) if j != i):
                expected.add(p)
        # points duplicated in pts: non-strict dominance keeps them
        assert got == expected


def test_uncertainty_source_parsing():
    assert harness.parse_uncertainty_source("mc-dropout").kind == "mc-dropout"
    src = harness.parse_uncertainty_source("conformal(0.05)")
    assert src.kind == "conformal" and src.epsilon == 0.05
    src = harness.parse_uncertainty_source("confidence(0.8)")
    assert src.kind == "confidence" and src.tau == 0.8
    with pytest.raises(ConfigError):
        harness.parse_uncertainty_source("quantum")


@pytest.fixture
def small_tune_budget(monkeypatch):
    """Tuning's budget cut to 3 exp-grad iterations and 150 oracle
    iterations on at most 1,500 rows, so a test tunes in seconds."""
    monkeypatch.setattr(harness, "_TUNE_ITERS", 3)
    monkeypatch.setattr(harness, "_TUNE_MAX_ROWS", 1500)
    monkeypatch.setattr(harness, "_TUNE_ORACLE_MAX_ITER", 150)


def test_tune_threshold_returns_grid_value(small_run, small_tune_budget):
    _, artifacts = small_run
    tuned = harness.tune_threshold(artifacts, (0.2, 0.5), seed=1)
    assert 0.2 <= tuned.threshold <= 0.5
    grid = [round(0.2 + 0.05 * i, 10) for i in range(7)]
    assert tuned.threshold in grid
    assert len(tuned.table) == 7


def test_tune_threshold_never_reads_d1_hidden_attribute(small_run, small_tune_budget):
    # d1's sensitive attribute is hidden in this regime: shuffling it must
    # not move the tuned H or a single score
    _, artifacts = small_run
    d1 = artifacts.split.d1
    shuffled = np.random.default_rng(0).permutation(d1.masked_sensitive)
    assert (shuffled != d1.masked_sensitive).any()
    blind = dataclasses.replace(artifacts, split=dataclasses.replace(
        artifacts.split, d1=dataclasses.replace(d1, masked_sensitive=shuffled)))
    tuned, tuned_blind = (harness.tune_threshold(a, (0.2, 0.5), seed=1)
                          for a in (artifacts, blind))
    assert tuned.threshold == tuned_blind.threshold
    np.testing.assert_array_equal(np.array(tuned.table), np.array(tuned_blind.table))


def test_one_group_candidate_makes_no_oracle_call(small_run, small_tune_budget, monkeypatch):
    # no proxy group-0 row of this run has an entropy below 0.17, so the
    # lowest candidates keep one group; each must fail before its
    # unconstrained fit, not after it
    _, artifacts = small_run
    assert artifacts.proxies.u[artifacts.proxies.a_hat == 0].min() > 0.15
    calls, outcomes = [], []
    oracle, fit = harness.reduction.fit_cost_sensitive, harness._fit

    def counting_oracle(*args, **kw):
        calls.append(1)
        return oracle(*args, **kw)

    def recording_fit(*args):
        before = len(calls)
        try:
            model = fit(*args)
        except DegenerateGroup:
            outcomes.append(("one group", len(calls) - before))
            raise
        outcomes.append(("trained", len(calls) - before))
        return model

    monkeypatch.setattr(harness.reduction, "fit_cost_sensitive", counting_oracle)
    monkeypatch.setattr(harness, "_fit", recording_fit)
    tuned = harness.tune_threshold(artifacts, (0.1, 0.3), seed=1)
    assert outcomes[:2] == [("one group", 0)] * 2
    assert [kind for kind, _ in outcomes[-2:]] == ["trained"] * 2
    assert all(n == 0 if kind == "one group" else n >= 2 for kind, n in outcomes)
    assert len(calls) == sum(n for _, n in outcomes)
    assert [math.isnan(acc) for _, acc, _, _ in tuned.table] == [
        kind == "one group" for kind, _ in outcomes]


@pytest.mark.parametrize("lo,hi", [(0.1, LN2), (0.1, 0.43), (0.23, 0.41), (0.2, 0.5),
                                   (0.3, 0.3)])
def test_tune_grid_stays_in_range(small_run, monkeypatch, lo, hi):
    _, artifacts = small_run
    tried = []

    def keeps_no_rows(artifacts, variant, rows, threshold, source):
        tried.append(threshold)
        raise EmptySelection("no rows")

    monkeypatch.setattr(harness, "select", keeps_no_rows)
    with pytest.raises(EmptySelection):
        harness.tune_threshold(artifacts, (lo, hi))
    # steps of 0.05 from lo, up to the last one that does not pass hi
    assert tried == [round(lo + 0.05 * i, 10) for i in range(len(tried))]
    assert all(lo <= h <= hi for h in tried)
    assert tried[-1] + 0.05 > hi + 1e-9


def test_sweep_writes_artifacts_and_manifest(small_run, tmp_path):
    run_dir, _ = small_run
    out = tmp_path / "sweep"
    cut = round(median_u(small_run[1]), 3)
    config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out),
                                 variants=("vanilla", "certain"), constraint="dp",
                                 eps_grid=(0.1,), seeds=2, threshold=cut,
                                 exp_grad_iters=5, oracle_max_iter=200)
    outcome = harness.run_sweep(config)
    assert outcome.n_failed == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == harness.RESULTS_HEADER
    assert len(results) == 1 + 2 * 1 * 2  # variants x eps x seeds
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["H"] == cut
    assert all(c["status"] == "ok" for c in manifest["cells"])
    assert (out / "pareto.csv").read_text().splitlines()[0] == harness.PARETO_HEADER


def test_untuned_source_sweep_skips_tuning(small_run, tmp_path, monkeypatch):
    # conformal sets ignore H, and under mc-dropout only the certain and
    # uncertain variants read it, so neither sweep without H has anything to
    # tune
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_threshold called for a sweep that reads no H")

    monkeypatch.setattr(harness, "tune_threshold", no_tuning)
    run_dir, _ = small_run
    cases = {"conformal": (("vanilla", "certain"),
                           harness.UncertaintySource("conformal", epsilon=0.1)),
             "mc-dropout": (("vanilla", "weighted"), harness.UncertaintySource("mc-dropout"))}
    for name, (variants, source) in cases.items():
        out = tmp_path / name
        config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out), variants=variants,
                                     eps_grid=(0.1,), seeds=1, source=source,
                                     exp_grad_iters=3, oracle_max_iter=150)
        assert harness.run_sweep(config).n_failed == 0, name
        assert not (out / "tuning.csv").exists(), name
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(row[4] == "" for row in rows), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["H"] is None and manifest["config"]["tuned"] is False, name


def test_tuned_sweep_tunes_for_its_constraint(small_run, tmp_path, monkeypatch):
    kinds = []
    exp_grad_train = harness.reduction.exp_grad_train

    def recording(x, y, a, w, constraint, **kw):
        kinds.append(constraint.kind)
        return exp_grad_train(x, y, a, w, constraint, **kw)

    monkeypatch.setattr(harness.reduction, "exp_grad_train", recording)
    run_dir, _ = small_run
    out = tmp_path / "sweep"
    config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out), variants=("certain",),
                                 constraint="eod", eps_grid=(0.1,), seeds=1, tune_lo=0.55,
                                 exp_grad_iters=3, oracle_max_iter=150)
    harness.run_sweep(config)
    tuning = (out / "tuning.csv").read_text().splitlines()
    assert tuning[0] == "H,accuracy,eod_proxy,objective"
    # every candidate and the one cell
    assert kinds == ["eod"] * len(tuning)


def test_sweep_reproducible_byte_for_byte(small_run, tmp_path):
    run_dir, _ = small_run
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out),
                                     variants=("vanilla",), eps_grid=(0.05,),
                                     seeds=2, threshold=0.3,
                                     exp_grad_iters=4, oracle_max_iter=150)
        harness.run_sweep(config)
        texts.append((out / "results.csv").read_text())
    assert texts[0] == texts[1]


def test_sweep_shares_one_unconstrained_fit_per_row_set(small_run, tmp_path, monkeypatch):
    run_dir, _ = small_run
    run_cell = harness.run_cell
    fits = []

    def recording_fit(x, y, **kw):
        fits.append(np.ascontiguousarray(x).tobytes())
        return unconstrained_train(x, y, **kw)

    def unshared_cell(*args):
        return run_cell(*args[:9])  # everything but the shared fits

    unconstrained_train = harness.reduction.unconstrained_train
    texts = []
    for name, cell in (("shared", run_cell), ("one-by-one", unshared_cell)):
        fits.clear()
        monkeypatch.setattr(harness.reduction, "unconstrained_train", recording_fit)
        monkeypatch.setattr(harness, "run_cell", cell)
        out = tmp_path / name
        config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out),
                                     variants=("vanilla", "weighted", "proxy-dnn", "certain"),
                                     eps_grid=(0.02, 0.1), seeds=2,
                                     threshold=median_u(small_run[1]),
                                     exp_grad_iters=3, oracle_max_iter=150)
        assert harness.run_sweep(config).n_failed == 0
        texts.append((out / "results.csv").read_text())
        if name == "shared":
            # per seed: the full training slice (vanilla, weighted, proxy-dnn)
            # and the certain rows, each fitted once
            assert len(fits) == len(set(fits)) == 2 * 2
            shared = set(fits)
        else:
            # each cell fits its own rows: the same row sets, once per cell
            assert len(fits) == 4 * 2 * 2 and set(fits) == shared
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 1 + 4 * 2 * 2


def test_sweep_oracle_calls_equal_logged_calls_plus_unconstrained_fits(small_run, tmp_path,
                                                                        monkeypatch):
    # the benchmark's cross-check: every oracle call of a sweep is either one
    # an exp-grad log counts or a selection's unconstrained fit, made once per
    # row set; a reused member that no oracle call made must not be counted
    run_dir, _ = small_run
    reduction = harness.reduction
    oracle_calls, logs, unconstrained = [], [], []
    oracle, exp_grad_train, unconstrained_train = (
        reduction.fit_cost_sensitive, reduction.exp_grad_train, reduction.unconstrained_train)

    def counting_oracle(*args, **kw):
        oracle_calls.append(1)
        return oracle(*args, **kw)

    def logging_exp_grad(*args, **kw):
        model, log = exp_grad_train(*args, **kw)
        logs.append(log)
        return model, log

    def recording_fit(x, y, **kw):
        unconstrained.append(np.ascontiguousarray(x).tobytes())
        return unconstrained_train(x, y, **kw)

    monkeypatch.setattr(reduction, "fit_cost_sensitive", counting_oracle)
    monkeypatch.setattr(reduction, "exp_grad_train", logging_exp_grad)
    monkeypatch.setattr(reduction, "unconstrained_train", recording_fit)
    config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(tmp_path / "sweep"),
                                 variants=("vanilla", "weighted", "proxy-dnn", "certain"),
                                 eps_grid=(0.02, 0.1), seeds=2,
                                 threshold=median_u(small_run[1]),
                                 exp_grad_iters=3, oracle_max_iter=150)
    assert harness.run_sweep(config).n_failed == 0
    assert len(logs) == 3 * 2 * 2
    assert len(unconstrained) == len(set(unconstrained)) == 2 * 2
    assert len(oracle_calls) == sum(log.oracle_calls for log in logs) + len(unconstrained)


def known_report(accuracy, dp, eop, eod):
    return metrics.FairnessReport(accuracy, dp, eop, eod, None, None)


# the reports of seeds 0, 1 and 2 per (variant, eps); None is a failed cell
KNOWN_REPORTS = {
    ("vanilla", 0.01): [known_report(0.80, 0.05, 0.30, 0.40), known_report(0.70, 0.01, 0.20, 0.20),
                        known_report(0.75, 0.03, 0.10, 0.30)],
    ("vanilla", 0.05): [known_report(0.82, 0.10, 0.05, 0.25), known_report(0.80, 0.12, 0.04, 0.35),
                        known_report(0.79, 0.09, 0.06, 0.30)],
    ("vanilla", 0.1): [known_report(0.78, 0.12, 0.01, 0.30), known_report(0.77, 0.11, 0.02, 0.28),
                       known_report(0.79, 0.13, 0.00, 0.32)],
    # two seeds left: medians are means (dyadic values keep them exact)
    ("certain", 0.01): [None, known_report(0.625, 0.125, 0.5, 0.0625),
                        known_report(0.875, 0.25, 0.25, 0.125)],
    ("certain", 0.05): [None, None, None],
    ("certain", 0.1): [known_report(0.5, 0.5, 0.5, 0.5)] * 3,
}
# medians (accuracy, gap), then min and max accuracy; per variant and gap
# only the points no other point of theirs dominates, dp before eop before eod
KNOWN_PARETO = [
    harness.PARETO_HEADER,
    "vanilla,dp,0.01,0.75,0.03,0.7,0.8",
    "vanilla,dp,0.05,0.8,0.1,0.79,0.82",
    "vanilla,eop,0.05,0.8,0.05,0.79,0.82",
    "vanilla,eop,0.1,0.78,0.01,0.77,0.79",
    "vanilla,eod,0.05,0.8,0.3,0.79,0.82",
    "certain,dp,0.01,0.75,0.1875,0.625,0.875",
    "certain,eop,0.01,0.75,0.375,0.625,0.875",
    "certain,eod,0.01,0.75,0.09375,0.625,0.875",
]


@pytest.mark.parametrize("seed_order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)],
                         ids=["ascending", "reversed", "rotated"])
def test_pareto_rows_from_known_reports(small_run, tmp_path, monkeypatch, seed_order):
    # the same reports dealt to the seeds in any order give the same rows
    def known_cell(artifacts, variant, constraint_kind, eps, seed, *rest):
        report = KNOWN_REPORTS[variant, eps][seed_order[seed]]
        if report is None:
            raise EmptySelection(f"{variant} variant kept no rows")
        return report, 100

    monkeypatch.setattr(harness, "run_cell", known_cell)
    run_dir, _ = small_run
    config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(tmp_path / "sweep"),
                                 variants=("vanilla", "certain"), eps_grid=(0.01, 0.05, 0.1),
                                 seeds=3, threshold=0.3)
    outcome = harness.run_sweep(config)
    assert outcome.n_failed == 4
    assert outcome.pareto_path.read_text().splitlines() == KNOWN_PARETO


# fig2.csv of the H grid (0, 0.02, 0.3) over seeds 0 and 1 on the 4,000-row
# test run, as the study wrote it when it fitted every (H, seed) row itself;
# no entropy of that run is below 0.02, so H = 0 and 0.02 keep the same rows
FIG2_LINES = [
    harness.FIG2_HEADER,
    "0.0,0,1568,0.8199404761904762,0.1603840682788051,0.32208473940757404,0.3944418311035767",
    "0.0,1,1568,0.8407738095238095,0.19200800033334722,0.41086587436332767,0.4985851726089417",
    "0.02,0,1568,0.8199404761904762,0.1603840682788051,0.32208473940757404,0.3944418311035767",
    "0.02,1,1568,0.8407738095238095,0.19200800033334722,0.41086587436332767,0.4985851726089417",
    "0.3,0,809,0.8005952380952381,0.05239449976292082,0.09373828271466067,0.10763669628390128",
    "0.3,1,816,0.8377976190476191,0.16242343430976292,0.32597623089983024,0.39422841215510745",
]


def test_fig2_study_writes_rows(small_run, tmp_path):
    _, artifacts = small_run
    assert artifacts.proxies.u.min() > 0.02
    out = tmp_path / "fig2.csv"
    harness.fig2_study(artifacts, out, h_grid=(0.0, 0.02, 0.3), seeds=2)
    assert out.read_text().splitlines() == FIG2_LINES


@pytest.fixture
def capped_fits(monkeypatch):
    """Unconstrained fits capped at 100 oracle iterations, for fig2 tests
    that read row counts, not scores."""
    unconstrained_train = harness.reduction.unconstrained_train

    def capped_fit(x, y, **kw):
        return unconstrained_train(x, y, **{**kw, "oracle_max_iter": 100})

    monkeypatch.setattr(harness.reduction, "unconstrained_train", capped_fit)


def test_fig2_fits_each_row_set_once(small_run, tmp_path, monkeypatch, capped_fits):
    # the study's cells share one fits map: one oracle call per distinct
    # (H, seed) row set, whatever the number of H values that keep it
    _, artifacts = small_run
    grid = (0.0, 0.02, 0.3, 0.31)
    u = artifacts.proxies.u
    row_sets = set()
    for seed in (4, 5):
        rows, _ = harness._d1_train_eval(artifacts, seed)
        row_sets |= {rows[u[rows] >= h].tobytes() for h in grid}
    assert len(row_sets) < len(grid) * 2
    calls = []
    oracle = harness.reduction.fit_cost_sensitive

    def counting_oracle(*args, **kw):
        calls.append(1)
        return oracle(*args, **kw)

    monkeypatch.setattr(harness.reduction, "fit_cost_sensitive", counting_oracle)
    harness.fig2_study(artifacts, tmp_path / "fig2.csv", h_grid=grid, seeds=2, base_seed=4)
    assert len(calls) == len(row_sets)
    assert len((tmp_path / "fig2.csv").read_text().splitlines()) == 1 + len(grid) * 2


def test_fig2_keeps_rows_whose_entropy_equals_h(small_run, tmp_path, capped_fits):
    # fig2 trains on u >= H: a row whose entropy is exactly a grid H counts
    # in that H's n_rows, and the H column still reads H
    _, artifacts = small_run
    rows, _ = harness._d1_train_eval(artifacts, 0)
    u = artifacts.proxies.u.copy()
    below = rows[u[rows] < 0.3]
    u[below[np.argmax(u[below])]] = 0.3
    tied = dataclasses.replace(artifacts, proxies=dataclasses.replace(artifacts.proxies, u=u))
    out = tmp_path / "fig2.csv"
    harness.fig2_study(tied, out, h_grid=(0.3,), seeds=1)
    h, seed, n_rows = out.read_text().splitlines()[1].split(",")[:3]
    assert (h, seed) == ("0.3", "0")
    assert int(n_rows) == (u[rows] >= 0.3).sum() == (artifacts.proxies.u[rows] >= 0.3).sum() + 1


@pytest.mark.parametrize("bad", [-0.1, LN2 + 1e-9, math.nan])
def test_fig2_rejects_h_outside_the_entropy_range_before_any_fit(small_run, tmp_path,
                                                                 monkeypatch, bad):
    _, artifacts = small_run

    def no_fit(*args, **kw):
        raise AssertionError("fig2 trained a model before checking its grid")

    monkeypatch.setattr(harness.reduction, "fit_cost_sensitive", no_fit)
    with pytest.raises(ConfigError, match="ln 2"):
        harness.fig2_study(artifacts, tmp_path / "fig2.csv", h_grid=(0.0, bad), seeds=1)
    assert not (tmp_path / "fig2.csv").exists()


def test_table_summary(small_run, tmp_path):
    run_dir, _ = small_run
    out = tmp_path / "sweep"
    config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out),
                                 variants=("vanilla",), eps_grid=(0.1,), seeds=3,
                                 threshold=0.3, exp_grad_iters=4, oracle_max_iter=150)
    harness.run_sweep(config)
    rows = harness.table_summary(out / "results.csv")
    assert rows[0].startswith("variant,eps_fair,n_runs")
    assert len(rows) == 2
    assert rows[1].split(",")[2] == "3"
    # columns are read by name: reversed, and with one more, the rows stay
    lines = [line.split(",")[::-1] + ["x"]
             for line in (out / "results.csv").read_text().splitlines()]
    lines[0][-1] = "converged"
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    assert harness.table_summary(shuffled) == rows
    shuffled.write_text("variant,eps_fair,accuracy\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        harness.table_summary(shuffled)


def test_sweep_config_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("""
run_dir = some/run
out_dir = some/out
variants = vanilla, certain
constraint = dp
eps_grid = 0.01, 0.1
seeds = 3
H = 0.35
uncertainty_source = conformal(0.1)
""", encoding="utf-8")
    cfg = harness.parse_sweep_config(path)
    assert cfg.variants == ("vanilla", "certain")
    assert cfg.eps_grid == (0.01, 0.1)
    assert cfg.threshold == 0.35
    assert cfg.source.kind == "conformal" and cfg.source.epsilon == 0.1


def test_sweep_config_defaults_live_in_the_dataclass(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("run_dir = some/run\n", encoding="utf-8")
    cfg = harness.parse_sweep_config(path)
    assert cfg == harness.SweepConfig(run_dir="some/run")
    # output goes to the run directory unless out_dir says otherwise
    assert cfg.out_dir == "some/run"


def test_reversed_tune_range_is_a_config_error(small_run):
    run_dir, artifacts = small_run
    with pytest.raises(ConfigError, match="tune range"):
        harness.SweepConfig(run_dir=str(run_dir), tune_lo=0.5, tune_hi=0.2)
    with pytest.raises(ConfigError, match="no candidate H"):
        harness.tune_threshold(artifacts, (0.5, 0.2))
    # a nominal upper end past ln 2 clamps to it
    assert harness.SweepConfig(run_dir=str(run_dir), tune_hi=0.7).tune_hi == LN2


def test_sweep_config_rejects_bad_variant(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("run_dir = x\nvariants = nonsense\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        harness.parse_sweep_config(path)
