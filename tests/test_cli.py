import json
import shutil
from pathlib import Path

import pytest

from fairscarce import cli


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
], ids=["variants", "seeds", "source-suffix", "source-param", "eps_grid", "H",
        "confidence-range", "conformal-range"])
def test_config_error_exit_code(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{line}\nrun_dir = nowhere\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    # the bad line fails at parse time, before the placeholder run_dir is read
    assert "run_dir" not in err


def test_stale_text_dataset_cache_exit_code(demo_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(demo_run / "run", run)
    # the line-oriented text cache written by earlier versions
    (run / "d1.ds").write_text("fairscarce-dataset 1\nn 1 d 1\nhas 1 0 0 1\n0 1 0 0.5\n",
                               encoding="utf-8")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"run_dir = {run}\nout_dir = {tmp_path / 'out'}\n"
                   "variants = vanilla\neps_grid = 0.1\nseeds = 1\nH = 0.5\n",
                   encoding="utf-8")
    commands = (["train-fair", "--variant", "vanilla", "--run", str(run)],
                ["sweep", "--config", str(cfg)],
                ["fig2", "--run", str(run), "--grid", "0.0", "--seeds", "1"])
    for argv in commands:
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "d1.ds" in err and "rerun train-attr" in err, argv[0]
