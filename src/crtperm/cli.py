"""Command-line interface.

Two subcommands with machine-readable JSON input and output:

``crtperm analyze --data trial.csv --config analysis.json --out results.json``
    Point estimates, unadjusted and adjusted p-values, and simultaneous
    confidence limits for every configured method.

``crtperm simulate --study study.json --out report.json``
    Operating characteristics (family-wise error rate, family-wise
    coverage, interval widths) over simulated replicates.

Exit codes: 0 success; 2 configuration or schema error; 3 data
validation error; 4 numerical failure; 5 too many failed replicates.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys

from .analysis import analyze
from .config import AnalysisConfig
from .data import load_dataset
from .errors import ConfigError, DataValidationError, NumericalError
from .search import TRACE_COLUMNS
from .simulate import StudyFailureError, StudySpec, resolve_workers, run_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_STUDY_FAILURES = 5


def _unreadable(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or written, without the traceback."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not valid UTF-8 ({exc.reason})"
    return exc.strerror or str(exc)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {_unreadable(exc)}") from None


def _open_output(path: str, **kwargs):
    """Open an output file for writing; a path that cannot be written is a config error."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {_unreadable(exc)}") from None


def _check_writable(*paths: str | None) -> None:
    """Fail now, not after the run, on an output path that cannot be written.

    Nothing is opened or created, so a pipe keeps its reader and a run
    that fails later leaves every path as it was: an existing path must
    be a file we may write, and a new one (a dangling link's target too)
    needs a directory we may write in.
    """
    for path in paths:
        if path and (err := _unwritable(path)):
            raise ConfigError(f"cannot write {path}: {os.strerror(err)}")


def _unwritable(path: str) -> int:
    """The errno that opening ``path`` for writing would likely meet, or 0."""
    if os.path.isdir(path):
        return errno.EISDIR
    if os.path.exists(path):
        return 0 if os.access(path, os.W_OK) else errno.EACCES
    parent = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(parent):
        return errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    return 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES


def _write_json(path: str, payload: dict) -> None:
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_writable(args.out, args.trace)
    config = AnalysisConfig.from_dict(_read_json(args.config))
    try:
        dataset = load_dataset(args.data, config)
    except FileNotFoundError:
        print(f"error: data file not found: {args.data}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, UnicodeDecodeError) as exc:
        raise DataValidationError(f"cannot read {args.data}: {_unreadable(exc)}") from None
    result = analyze(dataset, config, collect_trace=bool(args.trace))
    _write_json(args.out, result.to_dict())
    if args.trace:
        with _open_output(args.trace, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("method",) + TRACE_COLUMNS)
            writer.writerows(result.trace or [])
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_writable(args.out, args.dump)
    raw = _read_json(args.study)
    if args.replicates is not None:
        raw["replicates"] = args.replicates
    if args.seed is not None:
        raw["seed"] = args.seed
    study = StudySpec.from_dict(raw)
    workers = resolve_workers(args.threads)
    report = run_study(study, workers=workers, keep_replicates=bool(args.dump))
    _write_json(args.out, report.to_dict())
    if args.dump:
        _dump_replicates(args.dump, report)
    return EXIT_OK


def _dump_replicates(path: str, report) -> None:
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "method", "outcome", "p_unadjusted", "p_adjusted",
             "reject", "lower", "upper"]
        )
        for rec in report.replicate_rows or []:
            for method, entry in rec["methods"].items():
                for j in range(len(entry["p_unadjusted"])):
                    writer.writerow(
                        [
                            rec["rep"],
                            method,
                            j,
                            entry["p_unadjusted"][j],
                            entry["p_adjusted"][j],
                            int(entry["reject"][j]),
                            entry.get("lower", [None] * (j + 1))[j],
                            entry.get("upper", [None] * (j + 1))[j],
                        ]
                    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtperm",
        description=(
            "Permutation inference for cluster randomised trials with "
            "multiple outcomes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyse a trial dataset")
    p_an.add_argument("--data", required=True, help="CSV data file")
    p_an.add_argument("--config", required=True, help="analysis config JSON")
    p_an.add_argument("--out", required=True, help="output JSON path")
    p_an.add_argument("--trace", help="optional search trace CSV path")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.add_argument("--study", required=True, help="study definition JSON")
    p_sim.add_argument("--out", required=True, help="output report JSON path")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="override the study's replicate count")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the study's seed")
    p_sim.add_argument("--dump", help="optional per-replicate CSV dump path")
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker cap (or env CRTPERM_THREADS)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StudyFailureError as exc:
        print(f"study error: {exc}", file=sys.stderr)
        return EXIT_STUDY_FAILURES
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
