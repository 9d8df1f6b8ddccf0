"""Spans around the calls crtperm's cli, analysis and simulate modules make into each layer.

The wrappers replace the names those three modules imported (for example
``crtperm.analysis.irls_fit``), so each span covers exactly one call one
layer makes into another, and nothing inside the program changes.  Calls a
layer makes internally (the search's own refits, naive_wald's own fits) stay
inside that layer's span.  Spans are kept in memory and written out once, at
the end of the run (run.py writes them to ``spans.json`` in the
workload's work directory).
"""

from __future__ import annotations

import importlib
import time
import warnings
from contextlib import contextmanager

FALLBACK_MESSAGE = "shrinking toward the point estimate"

# (module, imported name, span name)
WRAPPED = [
    ("crtperm.cli", "load_dataset", "data.load"),
    ("crtperm.cli", "analyze", "analysis"),
    ("crtperm.cli", "run_study", "simulate"),
    ("crtperm.analysis", "irls_fit", "glm.fit"),
    ("crtperm.analysis", "estimate_variance_components", "glm.covariance"),
    ("crtperm.analysis", "build_cluster_covariance", "glm.covariance"),
    ("crtperm.analysis", "naive_wald", "glm.naive"),
    ("crtperm.analysis", "build_stat_matrix", "permutation.matrix"),
    ("crtperm.analysis", "adjust", "corrections.adjust"),
    ("crtperm.analysis", "search_all_methods", "search.search"),
    ("crtperm.simulate", "generate_dataset", "simulate.generate"),
    ("crtperm.simulate", "irls_fit", "glm.fit"),
    ("crtperm.simulate", "estimate_variance_components", "glm.covariance"),
    ("crtperm.simulate", "build_cluster_covariance", "glm.covariance"),
    ("crtperm.simulate", "naive_wald", "glm.naive"),
    ("crtperm.simulate", "build_stat_matrix", "permutation.matrix"),
    ("crtperm.simulate", "adjust", "corrections.adjust"),
    ("crtperm.simulate", "search_all_methods", "search.search"),
]


class Tracer:
    """Records (id, name, start, end, parent) spans and per-span counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            if name == "search.search":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                span["counts"]["steps"] = 2 * int(kwargs["Q"])
                span["counts"]["fallback_warnings"] = sum(
                    FALLBACK_MESSAGE in str(w.message) for w in caught
                )
            else:
                result = fn(*args, **kwargs)
            if name == "permutation.matrix":
                span["counts"]["columns"] = int(result.values.shape[1])
            elif name == "simulate":
                span["counts"]["replicates"] = int(result.replicates)
                span["counts"]["failures"] = int(result.failures)
            return result
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Replace every name in WRAPPED with a span-recording wrapper, then restore it."""
        saved = []
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=span_name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def layer_metrics(ops: list[list[dict]]) -> dict[str, float]:
    """Per-operation layer times and counts from each operation's spans.

    A span's self time is its duration minus its direct children's
    durations; single-threaded spans nest, so the children never overlap.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    for spans in ops:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            d = s["end"] - s["start"]
            total[s["name"]] = total.get(s["name"], 0.0) + d
            self_time[s["name"]] = self_time.get(s["name"], 0.0) + d - child_time[s["id"]]
            for k, v in s["counts"].items():
                key = f"{s['name']}.{k}"
                counts[key] = counts.get(key, 0) + v
    n_ops = len(ops)

    def per_op(x: float) -> float:
        return x / n_ops

    columns = counts.get("permutation.matrix.columns", 0)
    steps = counts.get("search.search.steps", 0)
    matrix_s = total.get("permutation.matrix", 0.0)
    search_s = total.get("search.search", 0.0)
    return {
        "data.load_s": per_op(total.get("data.load", 0.0)),
        "glm.fit_s": per_op(total.get("glm.fit", 0.0)),
        "glm.covariance_s": per_op(total.get("glm.covariance", 0.0)),
        "glm.naive_s": per_op(total.get("glm.naive", 0.0)),
        "permutation.matrix_s": per_op(matrix_s),
        "permutation.us_per_column": 1e6 * matrix_s / columns if columns else 0.0,
        "permutation.columns": per_op(columns),
        "corrections.adjust_s": per_op(total.get("corrections.adjust", 0.0)),
        "search.search_s": per_op(search_s),
        "search.us_per_step": 1e6 * search_s / steps if steps else 0.0,
        "search.steps": per_op(steps),
        "search.fallback_warnings": per_op(
            counts.get("search.search.fallback_warnings", 0)),
        "simulate.generate_s": per_op(total.get("simulate.generate", 0.0)),
        "simulate.self_s": per_op(self_time.get("simulate", 0.0)),
        "simulate.replicates": per_op(counts.get("simulate.replicates", 0)),
        "simulate.failures": per_op(counts.get("simulate.failures", 0)),
        "analysis.self_s": per_op(self_time.get("analysis", 0.0)),
        "cli.self_s": per_op(self_time.get("cli", 0.0)),
    }
