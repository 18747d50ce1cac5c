"""The benchmark wraps package functions by name and builds phase-1 and sweep
configurations of its own; a rename, a deletion or a removed config field
here must fail the suite instead of the benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

from fairscarce import attribute, harness

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
