"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.install`` replaces
public functions on their module objects with timing wrappers. Every call
site in ``fairscarce`` looks these functions up on the module (``nn.forward``,
``reduction.fit_cost_sensitive``, a module global inside the same module), so
the wrappers see every call. Spans stay in memory until the run ends.

The sweep runs serially (one worker), so one stack of open spans is enough to
give each span its parent.
"""
from __future__ import annotations

import functools
import os
import statistics
import time

# (module, function) pairs wrapped in a traced run; the first element is the
# attribute name of the module inside the fairscarce package
WRAPPED = (
    ("tabular", "prepare_split"), ("tabular", "save_dataset"), ("tabular", "load_dataset"),
    ("nn", "value_and_grad"), ("nn", "adam_step"), ("nn", "forward"),
    ("attribute", "train_attribute_classifier"), ("attribute", "mc_dropout_predict"),
    ("attribute", "predict_proxy"), ("attribute", "save_checkpoint"),
    ("attribute", "save_proxies"),
    ("uncertainty", "conformal_calibrate"), ("uncertainty", "conformal_sets"),
    ("reduction", "exp_grad_train"), ("reduction", "unconstrained_train"),
    ("reduction", "fit_cost_sensitive"), ("reduction", "linprog"),
    ("metrics", "evaluate_report"),
    ("harness", "run_attribute_phase"), ("harness", "run_sweep"),
    ("harness", "load_run"), ("harness", "run_cell"),
)

LAYERS = ("tabular", "nn", "attribute", "uncertainty", "reduction", "metrics", "harness")


def _probe(name, args, result) -> dict:
    """Counts taken at the span boundary: rows, bytes and solver logs."""
    if name == "attribute.mc_dropout_predict":
        return {"rows": len(args[1]) * int(args[2])}
    if name == "attribute.predict_proxy":
        return {"rows": len(result)}
    if name == "tabular.save_dataset":
        return {"bytes": os.path.getsize(args[0])}
    if name == "reduction.unconstrained_train":
        return {"rows": len(args[0])}
    if name == "reduction.exp_grad_train":
        log = result[1]
        return {"rows": len(args[0]), "oracle_calls": log.oracle_calls,
                "iterations": log.iterations, "converged": bool(log.converged),
                "best_gap": float(log.best_gap)}
    return {}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, **self.info}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for module_name, func_name in WRAPPED:
            module = getattr(package, module_name)
            original = getattr(module, func_name)
            setattr(module, func_name, self._wrap(f"{module_name}.{func_name}", original))
            self._originals.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._originals):
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, name: str, func):
        spans, open_stack = self.spans, self._open

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, open_stack[-1] if open_stack else -1, time.perf_counter())
            open_stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            span.info = _probe(name, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover. Spans
    are serial, so children never overlap one another."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer time, counts and ratios derived from one traced repetition."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name))

    def self_total(indices):
        return sum(selfs[i] for i in indices)

    def info_sum(name, key):
        return sum(spans[i].info.get(key, 0) for i in idx(name))

    def median(values):
        return statistics.median(values) if values else 0.0

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p >= 0 else ""

    mc = idx("attribute.mc_dropout_predict")
    gate = [i for i in mc if parent_name(i) == "attribute.train_attribute_classifier"]
    train = idx("attribute.train_attribute_classifier")
    egt = idx("reduction.exp_grad_train")
    unc = idx("reduction.unconstrained_train")
    oracle = idx("reduction.fit_cost_sensitive")
    cells = idx("harness.run_cell")
    cell_durations = [spans[i].duration for i in cells]
    # a call that raised has no counts; its cell is reported as failed
    trained_rows = [spans[i].info.get("rows", 0) for i in egt + unc]

    out = {f"{layer}.self_s": self_total(i for i, s in enumerate(spans)
                                         if s.name.split(".")[0] == layer)
           for layer in LAYERS}
    out.update({
        "tabular.prepare_split_s": total("tabular.prepare_split"),
        "tabular.save_dataset_s": total("tabular.save_dataset"),
        "tabular.save_dataset_bytes": info_sum("tabular.save_dataset", "bytes"),
        "tabular.load_dataset_s": total("tabular.load_dataset"),
        "nn.value_and_grad_s": total("nn.value_and_grad"),
        "nn.value_and_grad_calls": len(idx("nn.value_and_grad")),
        "nn.adam_step_s": total("nn.adam_step"),
        "nn.adam_step_calls": len(idx("nn.adam_step")),
        "nn.forward_s": total("nn.forward"),
        "nn.forward_calls": len(idx("nn.forward")),
        "attribute.gate_s": sum(spans[i].duration for i in gate),
        "attribute.gate_self_s": self_total(gate),
        "attribute.gate_calls": len(gate),
        "attribute.gate_rows": sum(spans[i].info.get("rows", 0) for i in gate),
        "attribute.train_s": total("attribute.train_attribute_classifier"),
        "attribute.train_self_s": self_total(train),
        "attribute.predict_proxy_s": total("attribute.predict_proxy"),
        "attribute.proxy_rows": info_sum("attribute.predict_proxy", "rows"),
        "attribute.save_s": total("attribute.save_checkpoint") + total("attribute.save_proxies"),
        "uncertainty.conformal_calibrate_s": total("uncertainty.conformal_calibrate"),
        "uncertainty.conformal_calibrate_calls": len(idx("uncertainty.conformal_calibrate")),
        "uncertainty.conformal_sets_s": total("uncertainty.conformal_sets"),
        "uncertainty.conformal_sets_calls": len(idx("uncertainty.conformal_sets")),
        "reduction.oracle_calls": len(oracle),
        "reduction.oracle_s": total("reduction.fit_cost_sensitive"),
        "reduction.oracle_s_p50": median([spans[i].duration for i in oracle]),
        "reduction.exp_grad_calls": len(egt),
        "reduction.exp_grad_self_s": self_total(egt),
        "reduction.exp_grad_iterations": info_sum("reduction.exp_grad_train", "iterations"),
        "reduction.exp_grad_oracle_calls": info_sum("reduction.exp_grad_train", "oracle_calls"),
        "reduction.oracle_calls_per_cell": (
            info_sum("reduction.exp_grad_train", "oracle_calls") / len(egt) if egt else 0.0),
        "reduction.converged_frac": (
            info_sum("reduction.exp_grad_train", "converged") / len(egt) if egt else 0.0),
        "reduction.best_gap_max": max((spans[i].info.get("best_gap", 0.0) for i in egt),
                                      default=0.0),
        "reduction.linprog_calls": len(idx("reduction.linprog")),
        "reduction.linprog_s": total("reduction.linprog"),
        "reduction.unconstrained_calls": len(unc),
        "reduction.unconstrained_s": total("reduction.unconstrained_train"),
        "metrics.evaluate_report_s": total("metrics.evaluate_report"),
        "metrics.evaluate_report_calls": len(idx("metrics.evaluate_report")),
        "harness.load_run_s": total("harness.load_run"),
        "harness.run_cell_calls": len(cells),
        "harness.run_cell_s_p50": median(cell_durations),
        "harness.run_cell_s_max": max(cell_durations, default=0.0),
        "harness.cell_self_s": self_total(cells),
        "harness.rows_trained_p50": median(trained_rows),
        "trace.spans": len(spans),
    })
    return out
