"""The package runs on numpy and the standard library alone.

scipy is a test dependency only: importing it would cost the CLI most of
its start-up time.  Nor does a command that runs in one process import
the process pool or ``multiprocessing``.  The checks run in a fresh
interpreter, because the test process itself imports scipy for its
oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import make_mixed_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import crtperm.cli

data, config, study, out = sys.argv[1:]
codes = [
    crtperm.cli.main(["analyze", "--data", data, "--config", config,
                      "--out", out + "/analysis.json"]),
    crtperm.cli.main(["simulate", "--study", study, "--out", out + "/study.json",
                      "--threads", "1"]),
]
assert codes == [0, 0], codes
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
pools = sorted(m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules)
assert not pools, pools
"""


def test_cli_runs_without_scipy(tmp_path):
    data = tmp_path / "trial.csv"
    make_mixed_dataset(baseline=True, seed=3).to_csv(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "columns": {"cluster": "cluster", "time": "period", "treatment": "treatment"},
        "outcomes": [{"name": "y1", "family": "gaussian"},
                     {"name": "y3", "family": "binomial", "link": "logit"}],
        "methods": ["naive", "none", "holm", "romano_wolf"],
        "statistic": "weighted",
        "n_permutations": 40,
        "n_search_steps": 100,
        "seed": 4,
    }))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "model": "model3", "clusters_per_arm": 3, "n_per_cluster": 4,
        "delta": [0, 0, 0], "mu": [-1, -1, -1], "methods": ["naive", "none", "holm"],
        "statistic": "weighted", "replicates": 2, "n_permutations": 20,
        "n_search_steps": 100, "seed": 6,
    }))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(data), str(config), str(study), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
