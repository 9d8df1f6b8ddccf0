"""Every demo script and README python block runs against the package's top-level API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"03_error_rate_study.py"}
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
    flags=re.S | re.M,
)


def _run(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "demo",
    [pytest.param(p, marks=pytest.mark.slow) if p.name in SLOW else p for p in DEMOS],
    ids=[p.stem for p in DEMOS],
)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


@pytest.mark.parametrize(
    "code", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_code_runs(code, tmp_path):
    _run(["-c", code], tmp_path)


def test_demos_found():
    assert DEMOS and SLOW <= {p.name for p in DEMOS}
    assert README_BLOCKS
