import itertools
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from fairscarce import attribute as attr
from fairscarce import harness, synthdata, tabular
from fairscarce.errors import ConfigError, EmptySelection
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
    for name in ("d1.ds", "d2.ds", "test.ds", "attr_checkpoint.npz", "proxies.csv",
                 "attr_log.csv", "calibration.csv", "d1_eval_probs.csv",
                 "attr_summary.json"):
        assert (run_dir / name).exists(), name


def test_load_run_round_trips(small_run, tmp_path):
    run_dir, artifacts = small_run
    # the checkpoint is kept for the record only: load_run never reads it
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    (copy / "attr_checkpoint.npz").unlink()
    loaded = harness.load_run(copy)
    for name in ("sample_id", "a_hat", "p_group", "u"):
        want, got = getattr(artifacts.proxies, name), getattr(loaded.proxies, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("d1", "d2", "test"):
        np.testing.assert_array_equal(getattr(loaded.split, name).features,
                                      getattr(artifacts.split, name).features)
    np.testing.assert_array_equal(loaded.calib_probs, artifacts.calib_probs)
    np.testing.assert_array_equal(loaded.calib_truth, artifacts.calib_truth)
    np.testing.assert_array_equal(loaded.d1_eval_probs, artifacts.d1_eval_probs)


def median_u(artifacts):
    # a cut that keeps a healthy two-group population on the certain side
    return float(np.quantile(artifacts.proxies.u, 0.8))


def test_run_cell_variants(small_run):
    _, artifacts = small_run
    kw = {"iters": 8, "oracle_max_iter": 300}
    cut = median_u(artifacts)  # both sides of the filter stay populated
    for variant in ("vanilla", "clean", "proxy-dnn", "certain", "weighted", "uncertain"):
        report = harness.run_cell(artifacts, variant, "dp", 0.05, seed=1,
                                  threshold=cut, exp_grad_kw=kw)
        assert 0.5 <= report.accuracy <= 1.0
        assert 0.0 <= report.dp_diff <= 1.0


def test_run_cell_deterministic(small_run):
    _, artifacts = small_run
    kw = {"iters": 5, "oracle_max_iter": 200}
    cut = median_u(artifacts)
    r1 = harness.run_cell(artifacts, "certain", "dp", 0.05, seed=2, threshold=cut,
                          exp_grad_kw=kw)
    r2 = harness.run_cell(artifacts, "certain", "dp", 0.05, seed=2, threshold=cut,
                          exp_grad_kw=kw)
    assert r1 == r2


def test_constrained_variant_fairer_than_vanilla(small_run):
    _, artifacts = small_run
    kw = {"iters": 20, "oracle_max_iter": 800}
    vanilla = harness.run_cell(artifacts, "vanilla", "dp", 0.01, seed=0, threshold=0.4)
    clean = harness.run_cell(artifacts, "clean", "dp", 0.01, seed=0, threshold=0.4,
                             exp_grad_kw=kw)
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


def test_tune_threshold_returns_grid_value(small_run):
    _, artifacts = small_run
    tuned = harness.tune_threshold(artifacts, (0.2, 0.5), seed=1,
                                   budget={"iters": 3, "max_rows": 1500,
                                           "oracle_max_iter": 150})
    assert 0.2 <= tuned.threshold <= 0.5
    grid = [round(0.2 + 0.05 * i, 10) for i in range(7)]
    assert tuned.threshold in grid
    assert len(tuned.table) == 7


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
    assert tuning[0] == "H,accuracy,eod,objective"
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


def test_sweep_parallel_equals_serial(small_run, tmp_path):
    run_dir, _ = small_run
    texts = []
    for name, workers in (("serial", "1"), ("parallel", "3")):
        out = tmp_path / name
        os.environ[harness.WORKERS_ENV] = workers
        try:
            config = harness.SweepConfig(run_dir=str(run_dir), out_dir=str(out),
                                         variants=("vanilla", "uncertain", "certain",
                                                   "weighted", "proxy-dnn"),
                                         eps_grid=(0.05,), seeds=2, threshold=median_u(small_run[1]),
                                         exp_grad_iters=4, oracle_max_iter=150)
            harness.run_sweep(config)
        finally:
            os.environ.pop(harness.WORKERS_ENV, None)
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
        return run_cell(*args[:8])  # everything but the shared fits

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
        else:
            assert len(fits) == 2 * 2  # the two vanilla slacks of each seed
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 1 + 4 * 2 * 2


def test_median_aggregation_ignores_seed_order(small_run, tmp_path):
    # medians are computed from sorted per-seed values, so any permutation of
    # the same reports yields the same pareto rows; run_sweep sorts internally
    rng = np.random.default_rng(1)
    vals = rng.random(7)
    assert np.median(vals) == np.median(vals[::-1])


def test_fig2_study_writes_rows(small_run, tmp_path):
    _, artifacts = small_run
    out = tmp_path / "fig2.csv"
    results = harness.fig2_study(artifacts, out, h_grid=(0.0, 0.3), seeds=2,
                                 oracle_max_iter=200)
    lines = out.read_text().splitlines()
    assert lines[0] == harness.FIG2_HEADER
    assert len(lines) == 1 + 2 * 2
    assert len(results) == 4


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


def test_sweep_config_rejects_bad_variant(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("run_dir = x\nvariants = nonsense\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        harness.parse_sweep_config(path)
