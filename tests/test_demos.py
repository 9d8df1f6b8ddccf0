"""Every demo script runs to completion against the package's top-level API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"03_error_rate_study.py"}


@pytest.mark.parametrize(
    "demo",
    [pytest.param(p, marks=pytest.mark.slow) if p.name in SLOW else p for p in DEMOS],
    ids=[p.stem for p in DEMOS],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_demos_found():
    assert DEMOS and SLOW <= {p.name for p in DEMOS}
