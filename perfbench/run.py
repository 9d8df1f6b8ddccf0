"""Benchmark runner for crtperm's ``analyze`` and ``simulate`` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  One invocation makes the workload's inputs
from the seed, times set-up in fresh interpreters, runs whole operations in
one worker process for about S seconds, checks every output and prints one
JSON line last: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``--all`` runs every workload untraced, prints a table of
the end-to-end metrics and writes BENCHMARK.json from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from spans import layer_metrics  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6
MIN_OPS = 3
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(env: dict) -> float:
    """Seconds from starting an interpreter until it has imported the CLI."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe"],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    argv, info = inputs.prepare(workload, seed, work)
    env = child_env()
    setups = [setup_sample(env) for _ in range(SETUP_PROBES)]
    outputs = [["--out", ".json"]]
    if workload.startswith("study_"):
        outputs.append(["--dump", ".csv"])
    job = {"argv": argv, "work": str(work), "seconds": seconds, "trace": trace,
           "min_ops": MIN_OPS, "outputs": outputs, "result": str(work / "result.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    t0 = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S)
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    setups.append(res["ready"] - t0)

    if trace:
        (work / "spans.json").write_text(json.dumps(res["spans"]) + "\n", encoding="utf-8")
        metrics = layer_metrics(res["spans"])
        metrics["trace.overhead_s"] = res["overhead_s"]
    else:
        metrics = {
            "op_s": statistics.median(res["op_times"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }

    errors = []
    if res["mismatches"]:
        errors.append(f"{res['mismatches']} operations wrote outputs that differ "
                      "from the first (traced and untraced must agree)")
    attempted, failed = len(res["op_times"]), res["failed"]
    if failed < attempted:
        first = [Path(p) for p in res["first_outputs"]]
        if "trial" in info:
            errors += checks.check_analysis(first[0], info["trial"], info["config"], seed)
        else:
            errors += checks.check_study(first[0], first[1], info["study"])
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": spec.UNITS[k]}
                    for k in (spec.PER_LAYER_NAMES if trace else spec.END_TO_END_NAMES)},
    }


def run_all(seed: int, seconds: float) -> int:
    path = spec.write_benchmark_json(ROOT)
    print(f"wrote {path.relative_to(ROOT)}")
    ok = True
    for name, _ in spec.WORKLOADS:
        r = run_workload(name, seed, seconds, trace=False)
        ok &= r["correct"] and r["failed"] == 0
        cells = "  ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{name:17s} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}  {cells}", flush=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "crtperm" / "cli.py").is_file():
        print(f"error: no crtperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
