"""The benchmark wraps package functions by name and builds phase-1 and sweep
configurations of its own; a rename, a deletion or a removed config field
here must fail the suite instead of the benchmark run."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fairscarce import attribute, harness, nn, reduction, tabular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name, monkeypatch):
    # the benchmark's modules import each other as top-level modules; no
    # bytecode is written next to them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracer = load_perfbench_module("tracer", monkeypatch)
    assert tracer.WRAPPED
    for module_name, func_name in tracer.WRAPPED:
        module = importlib.import_module(f"fairscarce.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_value_and_grad_runs_one_module_forward(monkeypatch):
    # value_and_grad reaches forward through the module global, once per
    # call: the traced attr_phase counts nn.forward_calls from that
    calls = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward", lambda *args: calls.append(1) or forward(*args))
    params = nn.init_mlp([3, 4], dropout_rate=0.3, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 3))
    nn.value_and_grad(params, x, (0, 0), nn.cross_entropy_loss, np.ones(5))
    assert calls == [1]


def test_benchmark_configs_build(monkeypatch, tmp_path):
    workloads = load_perfbench_module("workloads", monkeypatch)
    for schedule in (workloads.ATTR_SCHEDULE, workloads.FIXTURE_SCHEDULE):
        attribute.AttrTrainConfig(seed=0, **schedule)
    assert set(workloads.SWEEP_CONFIGS) == {"fair_sweep", "plain_sweep"}
    for name, body in workloads.SWEEP_CONFIGS.items():
        # the keys the benchmark's set-up writes ahead of each body
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"run_dir = {tmp_path / 'fixture'}\nout_dir = {tmp_path / name}\n"
                        f"base_seed = 0\nH = 0.5\n" + body)
        config = harness.parse_sweep_config(path)
        assert config.variants and config.eps_grid == (0.05,)


def test_benchmark_reads_proxies(monkeypatch):
    # the benchmark reads phase 1's proxies row by row and counts
    # predict_proxy's rows with len()
    workloads = load_perfbench_module("workloads", monkeypatch)
    tracer = load_perfbench_module("tracer", monkeypatch)
    d1 = tabular.Dataset(np.zeros((4, 2)), np.arange(4) * 10, labels=np.array([0, 1, 0, 1]),
                         masked_sensitive=np.array([1, 0, 0, 1]))
    proxies = attribute.Proxies(d1.sample_ids, np.array([1, 0, 1, 1]),
                                np.array([0.9, 0.2, 0.6, 0.7]), np.array([0.1, 0.3, 0.5, 0.6]))
    artifacts = harness.RunArtifacts(tabular.ScarceSplit(d1, d1, d1, 0.2), proxies,
                                     np.empty(0), np.empty(0), np.empty(0), {})
    assert [(r.sample_id, r.a_hat, r.p_group, r.u) for r in proxies] == [
        (0, 1, 0.9, 0.1), (10, 0, 0.2, 0.3), (20, 1, 0.6, 0.5), (30, 1, 0.7, 0.6)]
    assert workloads._proxy_readings(artifacts, 0.4) == {
        "mean_u": 0.375, "proxy_acc": 0.75, "certain_H": 0.4, "certain_rows": 2,
        "certain_group0_frac": 0.5}
    assert tracer._probe("attribute.predict_proxy", (None, d1, 5, 0), proxies)["rows"] == len(d1)


# (function, position, parameter name) for every argument the tracer's
# _probe reads by position; a reordered signature would skew its counts
PROBED_ARGUMENTS = [
    (attribute.mc_dropout_predict, 1, "x"), (attribute.mc_dropout_predict, 2, "passes"),
    (tabular.save_dataset, 0, "path"),
    (reduction.unconstrained_train, 0, "x"), (reduction.exp_grad_train, 0, "x"),
]


@pytest.mark.parametrize("func,position,name", PROBED_ARGUMENTS,
                         ids=[f"{f.__name__}-{i}" for f, i, _ in PROBED_ARGUMENTS])
def test_probed_argument_positions(func, position, name):
    params = list(inspect.signature(func).parameters.values())
    assert params[position].name == name
    assert params[position].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD
