"""Run one workload N times per set and show each metric's spread against its bound.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--sets 2]
                                [--first-seed 1] [--same-seed] [--seconds S]

Every run uses another seed (first-seed, first-seed + 1, ...; a second set
continues the sequence), or with --same-seed every run uses first-seed, which
separates the spread the machine causes from the spread the inputs cause.
For each end-to-end metric the table gives the median, the first and third
quartiles as ``statistics.quantiles(n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound; a spread over its bound fails
the command, setup_s included.
With two or more sets it also gives how far each later set's median moved
from the first set's, as a share of the first, and whether the share of
failed operations is the same in every set.  Raw result lines are appended
to .perfbench_work/spread-NAME.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

ROOT = HERE.parent
LOG_DIR = ROOT / ".perfbench_work"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = ap.parse_args()
    LOG_DIR.mkdir(exist_ok=True)
    log = LOG_DIR / f"spread-{args.workload}.jsonl"

    sets: list[list[dict]] = []
    seed = args.first_seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            r = one_run(args.workload, seed, args.seconds)
            r["seed"], r["set"] = seed, s
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(r) + "\n")
            results.append(r)
            seed += 0 if args.same_seed else 1
        sets.append(results)

    ok = True
    seeds = f"seed {args.first_seed}" if args.same_seed else f"seeds from {args.first_seed}"
    print(f"{args.workload}: {args.sets} set(s) of {args.runs} runs, {seeds}")
    for s, results in enumerate(sets):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"set {s + 1}: correct={correct} attempted={attempted} failed={failed}")
        for name in spec.END_TO_END_NAMES:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(vals)
            bound = spec.BOUNDS[name]
            within = spread <= bound
            ok &= within
            print(f"  {name:26s} median {med:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
                  f"spread {spread:7.4f}  bound {bound:.3f}  spread/bound {spread / bound:.2f}"
                  f"{'' if within else '  OVER BOUND'}")
    for s in range(1, len(sets)):
        share = [sum(r["failed"] for r in x) / sum(r["attempted"] for r in x)
                 for x in (sets[0], sets[s])]
        same = share[0] == share[1]
        ok &= same
        print(f"set {s + 1} vs set 1: failed share {share[1]:.4f} vs {share[0]:.4f} "
              f"({'same' if same else 'DIFFERENT'})")
        for name in spec.END_TO_END_NAMES:
            m0 = statistics.median(r["metrics"][name]["value"] for r in sets[0])
            m1 = statistics.median(r["metrics"][name]["value"] for r in sets[s])
            change = (m1 - m0) / m0
            within = change <= spec.BOUNDS[name]
            ok &= within
            print(f"  {name:26s} median moved {change:+.4f}  bound {spec.BOUNDS[name]:.3f}  "
                  f"{'ok' if within else 'WORSE THAN BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
