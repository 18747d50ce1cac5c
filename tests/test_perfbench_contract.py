"""The traced benchmark wraps package functions by name; a rename or a
deletion here must fail the suite instead of the benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, func_name in tracer.WRAPPED:
        module = importlib.import_module(f"fairscarce.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
