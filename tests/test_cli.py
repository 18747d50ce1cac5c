import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairscarce
from fairscarce import cli, errors, harness, reduction, tabular
from fairscarce.errors import ConfigError, DegenerateGroup
from fairscarce.uncertainty import LN2


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["make-demo", "--rows", "3000", "--seed", "5",
                     "--out", str(root / "data")]) == 0
    rc = cli.main(["train-attr",
                   "--data", str(root / "data" / "census.csv"),
                   "--schema", str(root / "data" / "census.schema"),
                   "--ratio", "0.2", "--seed", "5", "--epochs", "10",
                   "--out", str(root / "run")])
    assert rc == 0
    return root


def test_make_demo_files(demo_run):
    data = demo_run / "data"
    lines = (data / "census.csv").read_text().splitlines()
    assert len(lines) == 3001
    assert lines[0].split(",")[-1] == "income"
    assert (data / "census.schema").exists()


def test_train_attr_run_dir(demo_run):
    run = demo_run / "run"
    summary = json.loads((run / "attr_summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["lenient"] is False and summary["rows_dropped"] == 0
    assert (run / "proxies.csv").exists()


def test_train_attr_lenient_reports_dropped_rows(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["make-demo", "--rows", "2000", "--seed", "5", "--out", str(data)]) == 0
    corpus = data / "census.csv"
    good = corpus.read_text().splitlines()[1]
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("forty" + good[good.index(","):] + "\n")  # age is numeric
        fh.write(good.rsplit(",", 2)[0] + "\n")  # two cells short
    argv = ["train-attr", "--data", str(corpus), "--schema", str(data / "census.schema"),
            "--seed", "5", "--epochs", "2"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "strict")]) == 2
    assert "not numeric" in capsys.readouterr().err
    assert not (tmp_path / "strict").exists()
    assert cli.main(argv + ["--lenient", "--out", str(tmp_path / "run")]) == 0
    assert "malformed rows dropped: 2" in capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "run" / "attr_summary.json").read_text())
    assert summary["lenient"] is True and summary["rows_dropped"] == 2


def test_train_fair_command(demo_run, capsys):
    rc = cli.main(["train-fair", "--variant", "vanilla", "--constraint", "dp",
                   "--eps", "0.05", "--H", "0.5", "--seed", "1",
                   "--run", str(demo_run / "run")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("method,seed,accuracy")
    assert out[1].startswith("vanilla,1,")


def test_train_fair_partial_proxies_exit_code(demo_run, tmp_path, capsys):
    lines = (demo_run / "run" / "proxies.csv").read_text().splitlines()
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
    missing = lines[1].split(",")[0]
    for variant, source in (("proxy-dnn", "mc-dropout"), ("certain", "conformal(0.1)"),
                            ("weighted", "confidence(0.8)")):
        rc = cli.main(["train-fair", "--variant", variant, "--uncertainty-source", source,
                       "--proxies", str(partial), "--run", str(demo_run / "run")])
        assert rc == 2, variant
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"sample id {missing}" in err, err


def test_sweep_bad_run_dir_creates_no_directory(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {tmp_path / 'ghost' / 'run'}\nvariants = vanilla\n",
                   encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "ghost").exists()


def test_sweep_and_table_commands(demo_run, capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"run_dir = {demo_run / 'run'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "variants = vanilla\n"
        "eps_grid = 0.1\n"
        "seeds = 2\n"
        "H = 0.5\n"
        "exp_grad_iters = 4\n"
        "oracle_max_iter = 150\n",
        encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["table", "--run", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("variant,eps_fair,n_runs")
    assert len(out) == 2


def test_fig2_command(demo_run, capsys):
    rc = cli.main(["fig2", "--run", str(demo_run / "run"),
                   "--grid", "0.0,0.4", "--seeds", "2"])
    assert rc == 0
    assert (demo_run / "run" / "fig2.csv").exists()


def test_fig2_bad_grid_exit_code(demo_run, capsys):
    rc = cli.main(["fig2", "--run", str(demo_run / "run"), "--grid", "0.1,abc"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_fig2_grid_past_ln2_exits_2_before_any_fit(demo_run, tmp_path, capsys, monkeypatch):
    # no entropy exceeds ln 2, so an H past it is bad input: it must fail
    # before the cells of the grid's good values train, and write nothing
    calls = []
    oracle = reduction.fit_cost_sensitive
    monkeypatch.setattr(reduction, "fit_cost_sensitive",
                        lambda *args, **kw: calls.append(1) or oracle(*args, **kw))
    out = tmp_path / "fig2.csv"
    rc = cli.main(["fig2", "--run", str(demo_run / "run"), "--grid", "0.0,0.7",
                   "--seeds", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "0.7" in err, err
    assert not out.exists() and calls == []


def test_fig2_h_above_every_entropy_exits_1_before_any_fit(demo_run, tmp_path, capsys,
                                                         monkeypatch):
    # H = ln 2 lies in range but above every training row's entropy, so its
    # cells keep no row: fig2 fails before the H = 0 cells train, naming H
    # and the seed, and writes nothing
    u = harness.load_run(demo_run / "run").proxies.u
    assert u.max() < LN2
    calls = []
    oracle = reduction.fit_cost_sensitive
    monkeypatch.setattr(reduction, "fit_cost_sensitive",
                        lambda *args, **kw: calls.append(1) or oracle(*args, **kw))
    out = tmp_path / "fig2.csv"
    rc = cli.main(["fig2", "--run", str(demo_run / "run"), "--grid", f"0.0,{LN2!r}",
                   "--seeds", "1", "--seed", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fig2 H 0.6931471805599453 keeps no training row of "
                          "seed 3"), err
    assert not out.exists() and calls == []


@pytest.mark.parametrize("line", [
    "variants = nonsense",
    "seeds = many",
    "uncertainty_source = conformalXYZ",
    "uncertainty_source = conformal(x)",
    "eps_grid = 0.1, abc",
    "H = high",
    "uncertainty_source = confidence(5)",
    "uncertainty_source = conformal(1.5)",
    "exp_grad_iters = 0",
    "oracle_max_iter = 0",
    "base_seed = -1",
    "constraint = parity",
    "eps_grid = 0.1, -0.05",
    "eps_grid = 0.1, nan",
    "eps_grid = inf",
    "H = nan",
    "H = inf",
    "uncertainty_source = conformal0.05",
    "uncertainty_source = conformal)0.05(",
    "uncertainty_source = conformal",
    "uncertainty_source = mc",
], ids=["variants", "seeds", "source-suffix", "source-param", "eps_grid", "H",
        "confidence-range", "conformal-range", "exp_grad_iters", "oracle_max_iter",
        "base_seed", "constraint", "eps_grid-range", "eps_grid-nan", "eps_grid-inf",
        "H-nan", "H-inf", "source-unbracketed", "source-reversed-brackets",
        "source-bare-kind", "source-alias"])
def test_config_error_exit_code(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{line}\nrun_dir = nowhere\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    # the bad line fails at parse time, before the placeholder run_dir is read
    assert "run_dir" not in err


@pytest.mark.parametrize("text,names", [
    ("run_dir = nowhere\nvariant = vanilla\n", "unknown sweep key 'variant'"),
    # a phase-1 setting is no sweep key: a sweep reads a run directory
    ("run_dir = nowhere\ndata = census.csv\n", "unknown sweep key 'data'"),
    ("variants = vanilla\n", "run_dir is required"),
    ("run_dir = nowhere\nvariants = vanilla, certain, vanilla\n", "variants repeats a value"),
    ("run_dir = nowhere\neps_grid = 0.1, 0.10\n", "eps_grid repeats a value"),
], ids=["misspelt-key", "phase-1-key", "no-run_dir", "repeated-variant", "repeated-eps"])
def test_sweep_config_key_exit_code(tmp_path, capsys, text, names):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err, err


@pytest.mark.parametrize("bad_row,names", [
    ("vanilla,dp,0.1,1,,mc-dropout,0.8,0.1", "data row 2: 8 cells for 10 columns"),
    ("vanilla,dp,0.1,1,,mc-dropout,high,0.1,0.1,0.1", "data row 2: could not convert"),
], ids=["short-row", "non-number"])
def test_table_damaged_results_exit_code(tmp_path, capsys, bad_row, names):
    good_row = "vanilla,dp,0.1,0,,mc-dropout,0.8,0.1,0.1,0.1"
    results = tmp_path / "results.csv"
    results.write_text("\n".join([harness.RESULTS_HEADER, good_row, bad_row]) + "\n",
                       encoding="utf-8")
    assert cli.main(["table", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{results}: {names}" in err, err


@pytest.mark.parametrize("argv", [
    ["train-fair", "--variant", "vanilla", "--eps", "-1"],
    ["train-fair", "--variant", "vanilla", "--seed", "-3"],
    ["make-demo", "--rows", "-5"],
    ["make-demo", "--rows", "0"],
    ["make-demo", "--seed", "-1"],
    ["fig2", "--seeds", "0"],
    ["fig2", "--seed", "-2"],
    ["train-fair", "--variant", "vanilla", "--eps", "nan"],
    ["train-fair", "--variant", "vanilla", "--eps", "inf"],
    ["train-fair", "--variant", "certain", "--H", "nan"],
    ["fig2", "--grid", "0.1,nan"],
    ["fig2", "--grid", "inf"],
], ids=["train-fair-eps", "train-fair-seed", "make-demo-rows-negative", "make-demo-rows-0",
        "make-demo-seed", "fig2-seeds", "fig2-seed", "train-fair-eps-nan", "train-fair-eps-inf",
        "train-fair-H-nan", "fig2-grid-nan", "fig2-grid-inf"])
def test_cli_number_out_of_range_exit_code(tmp_path, capsys, argv):
    # the run directory does not exist: reading it first would exit 1
    place = ["--out", str(tmp_path / "new")] if argv[0] == "make-demo" else \
        ["--run", str(tmp_path / "ghost")]
    assert cli.main(argv + place) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "new").exists()


def test_negative_threshold_exit_code(demo_run, tmp_path, capsys):
    # no entropy is below 0: a negative H would keep no certain row and fail
    # as a run error (exit 1) if it were not rejected as bad input
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {demo_run / 'run'}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = certain\neps_grid = 0.1\nseeds = 1\nH = -1\n", encoding="utf-8")
    for argv in (["train-fair", "--variant", "certain", "--H", "-1", "--run",
                  str(demo_run / "run"), "--out", str(tmp_path / "row.csv")],
                 ["sweep", "--config", str(cfg)]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "H must be" in err and "-1" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_stale_text_dataset_cache_exit_code(demo_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(demo_run / "run", run)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {run}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = vanilla\neps_grid = 0.1\nseeds = 1\nH = 0.5\n",
                   encoding="utf-8")
    commands = (["train-fair", "--variant", "vanilla", "--run", str(run)],
                ["sweep", "--config", str(cfg)],
                ["fig2", "--run", str(run), "--grid", "0.0", "--seeds", "1"])
    d1 = tabular.load_dataset(run / "d1.ds")
    dense = io.BytesIO()
    np.savez(dense, features=d1.features, sample_ids=d1.sample_ids, labels=d1.labels,
             masked_sensitive=d1.masked_sensitive)
    with np.load(run / "d1.ds") as archive:
        parts = {name: archive[name] for name in archive.files}
    data, indices, indptr, shape = (parts[k] for k in ("data", "indices", "indptr", "shape"))

    def damaged(**changes):
        out = io.BytesIO()
        np.savez(out, **{**parts, **changes})
        return out.getvalue()

    def changed(array, at, value):
        array = array.copy()
        array[at] = value
        return array

    assert indptr[1] >= 2  # row 0 holds two columns to swap
    stale_caches = {
        # the caches earlier versions wrote: line-oriented text, then an npz
        # archive holding the dense feature matrix
        "text": b"fairscarce-dataset 1\nn 1 d 1\nhas 1 0 0 1\n0 1 0 0.5\n",
        "dense npz": dense.getvalue(),
        # damaged CSR parts: each must be rejected, not crash the process
        # or load other features
        "float indices": damaged(indices=indices.astype(float)),
        "float indptr": damaged(indptr=indptr.astype(float)),
        "short indptr": damaged(indptr=indptr[:-1]),
        "indptr from 1": damaged(indptr=changed(indptr, 0, 1)),
        "decreasing indptr": damaged(indptr=changed(indptr, [1, 2], indptr[[2, 1]])),
        "indptr past indices": damaged(indptr=changed(indptr, -1, indptr[-1] + 1)),
        "short data": damaged(data=data[:-1]),
        "column past width": damaged(indices=changed(indices, 0, shape[1])),
        "negative column": damaged(indices=changed(indices, 0, -1)),
        "swapped columns": damaged(indices=changed(indices, [0, 1], indices[[1, 0]])),
        "three-entry shape": damaged(shape=np.append(shape, 1)),
        "negative shape": damaged(shape=-shape),
        "float shape": damaged(shape=shape.astype(float)),
    }
    for kind, content in stale_caches.items():
        (run / "d1.ds").write_bytes(content)
        for argv in commands:
            assert cli.main(argv) == 2, (kind, argv[0])
            err = capsys.readouterr().err
            assert "d1.ds" in err and "rerun train-attr" in err, (kind, argv[0])


def test_unallocatable_dataset_cache_shape_exit_code(demo_run, tmp_path, capsys):
    # a width edited to 10**12 passes every structural check of the CSR
    # parts; the dense matrix it asks for (petabytes) cannot be allocated,
    # which is a damaged cache (exit 2), not a crash
    run = tmp_path / "run"
    shutil.copytree(demo_run / "run", run)
    with np.load(run / "d1.ds") as archive:
        parts = {name: archive[name] for name in archive.files}
    rows = int(parts["shape"][0])
    parts["shape"] = np.array([rows, 10**12], dtype=np.int64)
    with open(run / "d1.ds", "wb") as out:
        np.savez(out, **parts)
    with pytest.raises(ConfigError) as caught:
        harness.load_run(run)
    assert "d1.ds" in str(caught.value) and f"({rows}, {10**12})" in str(caught.value)
    assert cli.main(["train-fair", "--variant", "vanilla", "--run", str(run),
                     "--out", str(tmp_path / "row.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "d1.ds" in err, err
    assert f"({rows}, {10**12})" in err and "rerun train-attr" in err, err
    assert not (tmp_path / "row.csv").exists()


def set_cell(path, column, value):
    """Overwrite one cell of the first data row of a run directory's csv."""
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = value(cells[column])
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def not_json(path):
    path.write_text("{not json", encoding="utf-8")


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def swap_first_rows(path):
    lines = path.read_text().splitlines()
    lines[1:3] = lines[2:0:-1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_archive(edit):
    """A damage that rewrites an npz archive with ``edit`` applied to its
    arrays (a dict it changes in place)."""
    def damage(path):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays)
        with open(path, "wb") as out:
            np.savez(out, **arrays)
    return damage


def set_array(name, value):
    return edit_archive(lambda arrays: arrays.update({name: value(arrays[name])}))


def with_entry(index, value):
    def change(array):
        array[index] = value
        return array
    return change


RUN_FILES = ("attr_summary.json", "d1.ds", "d2.ds", "test.ds", "proxies.csv",
             "attr_checkpoint.npz")
CHECKPOINT = "attr_checkpoint.npz"


# probe: the file it damages and how
DAMAGED_RUN_FILES = {
    "summary-not-json": ("attr_summary.json", not_json),
    "u-not-number": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "high")),
    "u-nan": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "nan")),
    "u-above-ln2": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "0.7")),
    "u-negative": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "-0.1")),
    "p-above-1": ("proxies.csv", lambda p: set_cell(p, 2, lambda _: "1.5")),
    "a_hat-not-binary": ("proxies.csv", lambda p: set_cell(p, 1, lambda _: "7")),
    "a_hat-flipped": ("proxies.csv", lambda p: set_cell(p, 1, lambda a: str(1 - int(a)))),
    "proxies-out-of-d1-order": ("proxies.csv", swap_first_rows),
    # conformal calibration reads d2's attribute as its truth, where a value
    # other than 0 or 1 would count as 0
    "d2-attribute-not-binary": ("d2.ds", set_array("sensitive", with_entry(0, 7))),
    "checkpoint-not-an-archive": (CHECKPOINT, lambda p: p.write_text("teacher", "utf-8")),
    "checkpoint-object-array": (CHECKPOINT, set_array("calib_rows", lambda r: r.astype(object))),
    "d1.ds-not-an-archive": ("d1.ds", lambda p: p.write_text("rows", "utf-8")),
    "checkpoint-truncated": (CHECKPOINT, truncate),
    "checkpoint-layer-missing": (CHECKPOINT, edit_archive(lambda a: a.pop("teacher_b1"))),
    "checkpoint-weight-nan": (CHECKPOINT, set_array("teacher_w1", with_entry((0, 0), np.nan))),
    "checkpoint-layers-do-not-chain": (CHECKPOINT, set_array("teacher_w1", lambda w: w[1:])),
    "checkpoint-width-not-d1": (CHECKPOINT, set_array("teacher_w0", lambda w: w[1:])),
    "calib-rows-empty": (CHECKPOINT, set_array("calib_rows", lambda r: r[:0])),
    "calib-rows-descending": (CHECKPOINT, set_array("calib_rows", lambda r: r[::-1].copy())),
    "calib-rows-repeated": (CHECKPOINT, set_array("calib_rows",
                                                  lambda r: np.concatenate((r[:1], r[:-1])))),
    "calib-rows-negative": (CHECKPOINT, set_array("calib_rows", with_entry(0, -1))),
    "calib-rows-past-d2": (CHECKPOINT, set_array("calib_rows", with_entry(-1, 10**9))),
    **{f"{name}-missing": (name, Path.unlink) for name in RUN_FILES},
}


@pytest.mark.parametrize("probe", list(DAMAGED_RUN_FILES))
def test_damaged_run_dir_exit_code(demo_run, tmp_path, capsys, probe):
    name, damage = DAMAGED_RUN_FILES[probe]
    run = tmp_path / "run"
    shutil.copytree(demo_run / "run", run)
    damage(run / name)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {run}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = certain\neps_grid = 0.1\nseeds = 1\nH = 0.5\n",
                   encoding="utf-8")
    commands = [["train-fair", "--variant", "certain", "--uncertainty-source",
                 "conformal(0.1)", "--run", str(run)],
                ["sweep", "--config", str(cfg)]]
    if name == "proxies.csv":
        # a proxies file given on the command line gets the same checks
        commands.append(["train-fair", "--variant", "certain", "--proxies", str(run / name),
                         "--run", str(demo_run / "run")])
    for argv in commands:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err, err
        # numpy's advice to unpickle a file never reaches the user
        assert "allow_pickle" not in err and "pickle.load" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part,vector", [("d1", "labels"), ("d1", "masked_sensitive"),
                                         ("d2", "sensitive"), ("test", "labels"),
                                         ("test", "sensitive")])
def test_run_dir_part_without_vector_exit_code(demo_run, tmp_path, capsys, part, vector):
    # each part must carry the vectors its role needs; a d2 without its
    # attribute would otherwise fail inside the proxy-knn cell (exit 1)
    run = tmp_path / "run"
    shutil.copytree(demo_run / "run", run)
    edit_archive(lambda arrays: arrays.pop(vector))(run / f"{part}.ds")
    assert cli.main(["train-fair", "--variant", "proxy-knn", "--run", str(run),
                     "--out", str(tmp_path / "row.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{part}.ds" in err and vector in err, err
    assert not (tmp_path / "row.csv").exists()


@pytest.mark.parametrize("flag,value", [("--ratio", "1.5"), ("--ratio", "0"),
                                        ("--test-fraction", "0"), ("--test-fraction", "1"),
                                        ("--epochs", "0"), ("--seed", "-1"),
                                        ("--lambda-max", "nan"), ("--lambda-max", "-1"),
                                        ("--lambda-max", "inf")])
def test_train_attr_bad_setting_exit_code(demo_run, tmp_path, capsys, flag, value):
    out = tmp_path / "new" / "run"
    rc = cli.main(["train-attr", "--data", str(demo_run / "data" / "census.csv"),
                   "--schema", str(demo_run / "data" / "census.schema"),
                   flag, value, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "new").exists()


def test_train_attr_missing_corpus_creates_no_directory(demo_run, tmp_path, capsys):
    rc = cli.main(["train-attr", "--data", str(tmp_path / "absent.csv"),
                   "--schema", str(demo_run / "data" / "census.schema"),
                   "--out", str(tmp_path / "new" / "run")])
    assert rc == 2
    assert "absent.csv" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["train-attr-schema", "sweep-config", "table-run",
                                     "sweep-config-directory"])
def test_missing_input_path_exit_code(demo_run, tmp_path, capsys, command):
    absent = tmp_path / "absent"
    # the arguments, and the path the error must name
    argv, named = {
        "train-attr-schema": (["train-attr", "--data", str(demo_run / "data" / "census.csv"),
                               "--schema", str(absent), "--out", str(tmp_path / "new" / "run")],
                              absent),
        "sweep-config": (["sweep", "--config", str(absent)], absent),
        "table-run": (["table", "--run", str(absent)], absent),
        "sweep-config-directory": (["sweep", "--config", str(tmp_path)], tmp_path),
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(named) in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    data = tmp_path_factory.mktemp("small") / "data"
    assert cli.main(["make-demo", "--rows", "300", "--seed", "1", "--out", str(data)]) == 0
    return data


def rewrite_corpus(src, dst, edit):
    """Write ``src`` to ``dst`` with ``edit`` applied to its rows (lists of
    cells, the header first)."""
    rows = [line.split(",") for line in src.read_text().splitlines()]
    dst.write_text("\n".join(",".join(row) for row in edit(rows)) + "\n", encoding="utf-8")


def drop_column(name):
    def edit(rows):
        at = rows[0].index(name)
        return [row[:at] + row[at + 1:] for row in rows]
    return edit


def set_column(name, value, first=1, last=None):
    def edit(rows):
        at = rows[0].index(name)
        for row in rows[first:last]:
            row[at] = value
        return rows
    return edit


# probe: (corpus edit or None, extra schema line or None, flags replacing
# the defaults, text the error names)
BAD_INPUTS = {
    "age-not-numeric": (set_column("age", "forty", 5, 6), None, {}, "'forty' is not numeric"),
    "header-only": (lambda rows: rows[:1], None, {}, "no data rows"),
    "no-sex-column": (drop_column("sex"), None, {}, "'sex' not in header"),
    "one-group": (set_column("sex", "Male"), None, {}, "stratification cell is empty"),
    "schema-typo": (None, "kind.agee = numeric", {}, "'agee' not in header"),
    "no-age-column": (drop_column("age"), None, {}, "'age' not in header"),
    "data-is-directory": (None, None, {"--data": "."}, "Is a directory"),
    "out-is-file": (None, None, {"--out": "afile"}, "File exists"),
    "d2-too-small": (None, None, {"--ratio": "0.01"}, "d2 holds 2 rows"),
    "test-split-empty": (None, None, {"--test-fraction": "0.001"},
                         "the test split of 300 rows holds no row"),
}


@pytest.mark.parametrize("probe", list(BAD_INPUTS))
def test_train_attr_bad_input_exit_code(small_corpus, tmp_path, capsys, probe):
    edit, schema_line, flags, names = BAD_INPUTS[probe]
    corpus, schema = small_corpus / "census.csv", small_corpus / "census.schema"
    if edit is not None:
        corpus = tmp_path / "census.csv"
        rewrite_corpus(small_corpus / "census.csv", corpus, edit)
    if schema_line is not None:
        schema = tmp_path / "census.schema"
        schema.write_text((small_corpus / "census.schema").read_text() + schema_line + "\n",
                          encoding="utf-8")
    (tmp_path / "afile").write_text("", encoding="utf-8")
    argv = {"--data": str(corpus), "--schema": str(schema), "--epochs": "2",
            "--out": str(tmp_path / "new" / "run")}
    argv.update((flag, str(tmp_path / value) if flag in ("--data", "--out") else value)
                for flag, value in flags.items())
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["train-attr", *(part for item in argv.items() for part in item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "afile").is_file()


# the classes whose errors are bad input (exit 2); every other package error
# means the run failed (exit 1)
INPUT_ERRORS = {"ConfigError", "MissingColumn", "MalformedRow", "EmptyFile", "InsufficientRows"}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.FairscarceError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_decides_exit_code(tmp_path, monkeypatch, capsys, cls):
    def fail(_results):
        raise cls("boom")

    monkeypatch.setattr(harness, "table_summary", fail)
    bad_input = cls.__name__ in INPUT_ERRORS
    assert bad_input == issubclass(cls, errors.ConfigError)
    assert cli.main(["table", "--run", str(tmp_path)]) == (2 if bad_input else 1)
    assert capsys.readouterr().err == ("config error: boom\n" if bad_input else "error: boom\n")


def test_sweep_failed_cell_exit_code(demo_run, tmp_path, capsys):
    # H above ln 2 leaves the uncertain variant no row: every cell fails
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {demo_run / 'run'}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = uncertain\neps_grid = 0.1\nseeds = 1\nH = 0.7\n",
                   encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert "1 cell(s) failed" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [cell["error"] for cell in manifest["cells"]] == [
        "EmptySelection: uncertain variant kept no rows"]


def test_sweep_prints_one_line_per_cell(demo_run, tmp_path, capsys):
    # H above ln 2 leaves the uncertain variant no row, so its cells fail
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {demo_run / 'run'}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = vanilla,uncertain\neps_grid = 0.1\nseeds = 2\nH = 0.7\n"
                   "oracle_max_iter = 150\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("cell ")]
    cells = [("vanilla", 0, "ok"), ("vanilla", 1, "ok"),
             ("uncertain", 0, "failed"), ("uncertain", 1, "failed")]
    assert len(lines) == len(cells), lines
    for n, (line, (variant, seed, status)) in enumerate(zip(lines, cells), start=1):
        head = f"cell {n}/4 {variant} eps=0.1 seed={seed}: {status} in "
        assert line.startswith(head), line
        seconds, unit = line[len(head):].split(" ")[:2]
        assert float(seconds) >= 0.0 and unit == "s", line


def test_tuned_sweep_names_one_group_candidates(tmp_path, capsys):
    # a weak attribute model: every certain training slice holds one proxy
    # group only, so no tuning candidate can be trained under dp
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["make-demo", "--rows", "2000", "--seed", "7", "--out", str(data)]) == 0
    assert cli.main(["train-attr", "--data", str(data / "census.csv"),
                     "--schema", str(data / "census.schema"), "--seed", "7",
                     "--epochs", "12", "--out", str(run)]) == 0
    with pytest.raises(DegenerateGroup, match="one proxy group"):
        harness.tune_threshold(harness.load_run(run))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {run}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = certain\neps_grid = 0.1\nseeds = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "no tuning candidate could be trained" in err and "one proxy group" in err, err


# run in a fresh interpreter: whether scipy.sparse and scipy.optimize are
# loaded after the CLI import and phase 1, after an unconstrained cell, and
# after an exp-grad cell, with the count of hull LPs solved so far
SCIPY_IMPORT_PROBE = """
import sys
from pathlib import Path

import fairscarce.cli
from fairscarce import attribute, harness, reduction, synthdata

lp_calls = []
solve = reduction.linprog
reduction.linprog = lambda *args: lp_calls.append(1) or solve(*args)
root = Path(sys.argv[1])
report = lambda: print(*(name in sys.modules for name in ("scipy.sparse", "scipy.optimize")),
                       len(lp_calls))
synthdata.write_corpus(root / "census.csv", 300, seed=1)
synthdata.write_schema(root / "census.schema")
artifacts = harness.run_attribute_phase(root / "census.csv", root / "census.schema",
                                        root / "run", seed=1,
                                        train_config=attribute.AttrTrainConfig(seed=1, epochs=2))
report()
harness.run_cell(artifacts, "vanilla", "dp", 0.0, 0, None, oracle_max_iter=50)
report()
harness.run_cell(artifacts, "clean", "dp", 0.0, 0, None, iters=2, oracle_max_iter=50)
report()
"""


def test_phase_two_never_loads_the_lp_module(tmp_path):
    src = str(Path(fairscarce.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # phase 1 loads neither; the first oracle call loads scipy.sparse; the
    # exp-grad cell solves its hull LPs in numpy and never loads scipy.optimize
    flags, lp_calls = zip(*(line.rsplit(" ", 1) for line in done.stdout.splitlines()))
    assert flags == ("False False", "True False", "True False")
    assert lp_calls[:2] == ("0", "0") and int(lp_calls[2]) > 0
