import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fairscarce import cli, harness, tabular
from fairscarce.errors import DegenerateGroup


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
    assert (run / "proxies.csv").exists()


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
], ids=["variants", "seeds", "source-suffix", "source-param", "eps_grid", "H",
        "confidence-range", "conformal-range", "exp_grad_iters", "oracle_max_iter",
        "base_seed", "constraint", "eps_grid-range", "eps_grid-nan", "eps_grid-inf",
        "H-nan", "H-inf"])
def test_config_error_exit_code(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{line}\nrun_dir = nowhere\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    # the bad line fails at parse time, before the placeholder run_dir is read
    assert "run_dir" not in err


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
    stale_caches = {
        # the caches earlier versions wrote: line-oriented text, then an npz
        # archive holding the dense feature matrix
        "text": b"fairscarce-dataset 1\nn 1 d 1\nhas 1 0 0 1\n0 1 0 0.5\n",
        "dense npz": dense.getvalue(),
    }
    for kind, content in stale_caches.items():
        (run / "d1.ds").write_bytes(content)
        for argv in commands:
            assert cli.main(argv) == 2, (kind, argv[0])
            err = capsys.readouterr().err
            assert "d1.ds" in err and "rerun train-attr" in err, (kind, argv[0])


def set_cell(path, column, value):
    """Overwrite one cell of the first data row of a run directory's csv."""
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = value(cells[column])
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_ratio(path):
    summary = json.loads(path.read_text())
    del summary["ratio"]
    path.write_text(json.dumps(summary), encoding="utf-8")


def truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def swap_first_rows(path):
    lines = path.read_text().splitlines()
    lines[1:3] = lines[2:0:-1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def calibration_id_from_d1(path):
    # a calibration slice that is not this run's d2: its first id is d1's
    d1_id = (path.parent / "d1_eval_probs.csv").read_text().splitlines()[1].split(",")[0]
    set_cell(path, 0, lambda _: d1_id)


RUN_FILES = ("attr_summary.json", "d1.ds", "d2.ds", "test.ds", "proxies.csv",
             "calibration.csv", "d1_eval_probs.csv")


# probe: the file it damages and how
DAMAGED_RUN_FILES = {
    "eval-probs-truncated": ("d1_eval_probs.csv", truncate),
    "calibration-not-number": ("calibration.csv", lambda p: set_cell(p, 1, lambda _: "abc")),
    "summary-without-ratio": ("attr_summary.json", drop_ratio),
    "u-not-number": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "high")),
    "u-nan": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "nan")),
    "u-above-ln2": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "0.7")),
    "u-negative": ("proxies.csv", lambda p: set_cell(p, 3, lambda _: "-0.1")),
    "p-above-1": ("proxies.csv", lambda p: set_cell(p, 2, lambda _: "1.5")),
    "a_hat-not-binary": ("proxies.csv", lambda p: set_cell(p, 1, lambda _: "7")),
    "a_hat-flipped": ("proxies.csv", lambda p: set_cell(p, 1, lambda a: str(1 - int(a)))),
    "proxies-out-of-d1-order": ("proxies.csv", swap_first_rows),
    "eval-probs-out-of-d1-order": ("d1_eval_probs.csv", swap_first_rows),
    "calibration-id-not-in-d2": ("calibration.csv", calibration_id_from_d1),
    "calibration-ids-descending": ("calibration.csv", swap_first_rows),
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--ratio", "1.5"), ("--ratio", "0"),
                                        ("--test-fraction", "0"), ("--test-fraction", "1"),
                                        ("--epochs", "0"), ("--seed", "-1")])
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
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


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
