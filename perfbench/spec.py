"""The benchmark's workloads and metrics: the one source of BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = [
    ("analyze_weighted",
     "analyst's heaviest path: weighted statistic, two periods with baseline, "
     "3432 allocations enumerated, search refits and covariance solves"),
    ("analyze_rows",
     "40 clusters x 500 rows: the only workload where CSV loading, memory "
     "and per-row search cost can move"),
    ("study_search",
     "coverage study, model1 with two true nulls: unweighted identity-link "
     "search is about 97% of the work"),
    ("study_pvalues",
     "error-rate study with no search: the statistic matrix dominates, so "
     "a search change must not move it"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("op_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better); every one comes from the traced run, per operation
PER_LAYER = [
    ("data.load_s", "s", "lower"),
    ("glm.fit_s", "s", "lower"),
    ("glm.covariance_s", "s", "lower"),
    ("glm.naive_s", "s", "lower"),
    ("permutation.matrix_s", "s", "lower"),
    ("permutation.us_per_column", "us", "lower"),
    ("permutation.columns", "count", "lower"),
    ("corrections.adjust_s", "s", "lower"),
    ("search.search_s", "s", "lower"),
    ("search.us_per_step", "us", "lower"),
    ("search.steps", "count", "lower"),
    ("search.fallback_warnings", "count", "lower"),
    ("simulate.generate_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.replicates", "count", "higher"),
    ("simulate.failures", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

RUN_SECONDS = 20

BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
END_TO_END_NAMES = [name for name, *_ in END_TO_END]
PER_LAYER_NAMES = [name for name, *_ in PER_LAYER]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
