"""Command-line entry point: run a single scenario file or a suite directory.

Exit codes: 0 success, 1 expectation failure, 2 parse or usage error, 3
validation error, 4 construction error.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib.resources import files
from pathlib import Path

from .runner import EXIT_PARSE, run_scenario_file, run_suite


def _resolve_suite_dir(arg: str) -> Path:
    """Accept a directory path or the name of a bundled suite."""
    path = Path(arg)
    if path.is_dir():
        return path
    bundled = Path(str(files("spinsep").joinpath("scenarios"))) / arg
    if bundled.is_dir():
        return bundled
    return path  # let the runner report the validation error


def _tolerance(text: str) -> float:
    """A finite positive number, the rule a scenario's own ``tolerance`` follows."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-10,
        help="default tolerance for expectation checks (default 1e-10)",
    )
    common.add_argument(
        "--out-dir",
        default=".",
        help="directory for report JSON and sweep CSV files (default '.')",
    )

    parser = argparse.ArgumentParser(
        prog="spinsep",
        description=(
            "Build states of identical particles, reduce them to spin-only "
            "states over spatial regions, and check the results."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", parents=[common], help="run a single scenario file")
    run_cmd.add_argument("scenario", help="path to a scenario JSON file")
    run_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format; a JSON report sidecar is always written",
    )

    suite_cmd = sub.add_parser(
        "suite",
        parents=[common],
        help="run a directory of scenarios with embedded expectations",
    )
    suite_cmd.add_argument(
        "directory",
        help="scenario directory, or the name of a bundled suite (e.g. 'claims')",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # an unusable output directory is a usage error, found before any scenario runs
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.exit(EXIT_PARSE, f"spinsep: error: argument --out-dir: {exc}\n")
    if args.command == "run":
        return run_scenario_file(
            args.scenario,
            tolerance=args.tolerance,
            out_dir=args.out_dir,
            fmt=args.format,
        )
    return run_suite(
        _resolve_suite_dir(args.directory),
        tolerance=args.tolerance,
        out_dir=args.out_dir,
    )


if __name__ == "__main__":
    sys.exit(main())
