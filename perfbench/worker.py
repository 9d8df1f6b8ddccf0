"""The measured process: imports crtperm's CLI and runs one workload's operations.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py JOB.json

Both import the CLI entry point first and note ``time.monotonic()`` when the
import is done; run.py compares it with the moment it started the
process to get one set-up sample.  ``--probe`` prints that time and exits.
With a job, the worker then runs whole operations, each one
``crtperm.cli.main`` from argument list to output files, until the job's time
is used up, compares every output with the first good one, and writes the
operation times, the process' peak resident memory after the first
operation and, for a traced run,
every traced operation's spans, to the result path named in the job.  The
run.py sets the BLAS and OpenMP thread counts to 1 and puts crtperm's
``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import sys
import time

import crtperm.cli

# set-up ends here: everything below is the benchmark's own
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


def normalised(path: Path) -> bytes:
    """Output bytes with the analysis' own wall-clock timings removed."""
    raw = path.read_bytes()
    if path.suffix != ".json":
        return raw
    payload = json.loads(raw)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True).encode()


class Operations:
    """Runs whole operations and compares every output with the first good one."""

    def __init__(self, argv: list[str], work: Path, outputs: list[list[str]]):
        self.argv = argv
        self.work = work
        self.outputs = outputs          # [flag, file suffix], e.g. ["--out", ".json"]
        self.times: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.failed = 0
        self.mismatches = 0
        self.reference: list[bytes] | None = None

    def paths(self, tag: str) -> list[Path]:
        return [self.work / f"{tag}{suffix}" for _, suffix in self.outputs]

    def run(self, call) -> float:
        paths = self.paths("first" if self.reference is None else "next")
        argv = list(self.argv)
        for (flag, _), p in zip(self.outputs, paths):
            argv += [flag, str(p)]
        t0 = time.perf_counter()
        try:
            code = call(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        self.peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if code != 0:
            self.failed += 1
            return elapsed
        got = [normalised(p) for p in paths]
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            self.mismatches += 1
        return elapsed


def main(args: list[str]) -> None:
    if args == ["--probe"]:
        print(repr(READY), flush=True)
        return
    job = json.loads(Path(args[0]).read_text(encoding="utf-8"))
    ops = Operations(job["argv"], Path(job["work"]), job["outputs"])
    start = time.perf_counter()

    def keep_going(times: list[float], minimum: int) -> bool:
        if len(times) < minimum:
            return True
        return time.perf_counter() - start + statistics.median(times) <= job["seconds"]

    result: dict = {"ready": READY}
    if not job["trace"]:
        while keep_going(ops.times, job["min_ops"]):
            ops.run(crtperm.cli.main)
    else:
        # the first operation pays the process' cold start (page faults of
        # first allocations); after it, traced and untraced operations
        # alternate on the same inputs, and each traced operation gets its
        # own tracer so its spans stay apart
        ops.run(crtperm.cli.main)
        traced: list[float] = []
        untraced: list[float] = []
        result["spans"] = []
        while keep_going(ops.times, job["min_ops"]):
            if len(traced) == len(untraced):
                tracer = Tracer()
                with tracer.installed():
                    traced.append(ops.run(
                        lambda argv: tracer.call("cli", crtperm.cli.main, argv)))
                result["spans"].append(tracer.spans)
            else:
                untraced.append(ops.run(crtperm.cli.main))
        result["overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    result.update(
        op_times=ops.times,
        failed=ops.failed,
        mismatches=ops.mismatches,
        first_outputs=[str(p) for p in ops.paths("first")],
        # a command-line process runs one operation: its peak is the one
        # after the first operation, whatever number of repeats followed
        peak_rss_mb=ops.peak_rss_mb[0],
    )
    Path(job["result"]).write_text(json.dumps(result) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
