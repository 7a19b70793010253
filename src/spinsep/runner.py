"""Execute scenarios and suites: build the requested state, run the requested
analyses, check their arrays against embedded expectations, and emit a
deterministic JSON report, which writes each array in ``[re, im]`` form once,
plus a human-readable summary.

Reports contain no timestamps, timings, or absolute paths, so repeated runs
of the same scenario produce byte-identical JSON; wall-clock timings appear
only in the text summary.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import (
    ANALYSES,
    EXPECTATIONS,
    ConstructionError,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
)
from .symmetry import exchange_character

REPORT_FORMAT = "spinsep-report-v1"

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONSTRUCTION = 4


@dataclass
class ScenarioOutcome:
    report: dict
    sweep_files: dict[str, list[str]]  # side file name -> lines
    timings: list[tuple[str, float]]
    failures: list[str]

    @property
    def exit_code(self) -> int:
        return EXIT_EXPECTATION_FAILED if self.failures else EXIT_OK


def build_state(scenario: Scenario):
    """Construct the scenario's global state vector: returns (vector, info-dict),
    raising ConstructionError when the state vanishes or cannot be realized."""
    if scenario.build is None:
        return None, None
    try:
        built = scenario.build()
    except ValueError as exc:  # ZeroStateError included
        raise ConstructionError(str(exc)) from exc
    return built.vector, {
        "kind": scenario.raw["state"]["kind"],
        "raw_norm": built.raw_norm,
        "statistics": exchange_character(built.vector, scenario.space.particles),
        "dim": int(built.vector.size),
    }


def execute_scenario(scenario: Scenario, tolerance: float = 1e-10) -> ScenarioOutcome:
    """Build the state, run the checked analyses in order, check expectations, encode the report."""
    timings: list[tuple[str, float]] = []
    results: dict = {}
    side_files: dict[str, list[str]] = {}

    start = time.perf_counter()
    vector, construction = build_state(scenario)
    timings.append(("construction", time.perf_counter() - start))

    for kind, run in scenario.analyses.items():
        start = time.perf_counter()
        try:
            results[kind] = run(vector, results)
            side_files.update(ANALYSES[kind].side_files(results[kind]))
        except ConstructionError as exc:
            results[kind] = {"error": str(exc)}
        timings.append((kind, time.perf_counter() - start))
    failures = compare_expectations(construction, results, scenario, tolerance)

    start = time.perf_counter()
    for e in results.values():
        if isinstance(e, dict):  # each array in the report's [re, im] form
            e.update({k: encode_matrix(v) for k, v in e.items() if isinstance(v, np.ndarray)})
    report = {
        "format": REPORT_FORMAT,
        "name": scenario.name,
        "scenario": scenario.raw,
        "construction": construction,
        "results": results,
    }
    timings.append(("encode", time.perf_counter() - start))
    return ScenarioOutcome(report, side_files, timings, failures)


def encode_matrix(mat: np.ndarray) -> list[list[list[float]]]:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def compare_expectations(
    construction: dict | None, results: dict, scenario: Scenario, default_tol: float
) -> list[str]:
    """Check the built state's description and the analyses' results against the scenario's
    embedded expectations; returns human-readable failure messages (empty when all match)."""
    tol = scenario.tolerance if scenario.tolerance is not None else default_tol
    failures: list[str] = []
    for key, wanted in scenario.expectations.items():
        expectation = EXPECTATIONS[key]
        if expectation.source is None:
            entry = construction
            if entry is None:
                failures.append(f"{key}: scenario built no state")
                continue
        else:
            name = next((n for n in expectation.source if n in results), expectation.source[-1])
            entry = results.get(name)
            if entry is None or (isinstance(entry, dict) and "error" in entry):
                failures.append(f"expected {name} analysis to succeed")
                continue
        field = expectation.field
        got = [item[field] for item in entry] if isinstance(entry, list) else entry[field]
        failure = expectation.compare(key, got, wanted, tol)
        if failure is not None:
            failures.append(failure)
    return failures


def render_text(outcome: ScenarioOutcome) -> str:
    """Human-readable scenario summary including wall-clock timings."""
    report = outcome.report
    lines = [f"scenario: {report['name']}"]
    construction = report.get("construction")
    if construction:
        lines.append(
            f"  state: {construction['kind']} (dim {construction['dim']}, "
            f"raw norm {construction['raw_norm']:.12g}, {construction['statistics']})"
        )
    for kind, entry in report["results"].items():
        if isinstance(entry, dict) and "error" in entry:
            lines.append(f"  {kind}: ERROR {entry['error']}")
        else:
            lines.append(ANALYSES[kind].summary(entry))
    if outcome.failures:
        lines.append("  expectation failures:")
        lines.extend(f"    - {msg}" for msg in outcome.failures)
    elif outcome.report.get("scenario", {}).get("expectations"):
        lines.append("  expectations: all satisfied")
    total = sum(dt for _, dt in outcome.timings)
    parts = ", ".join(f"{name} {dt * 1e3:.1f} ms" for name, dt in outcome.timings)
    lines.append(f"  timings: {parts} (total {total * 1e3:.1f} ms)")
    return "\n".join(lines)


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_outcome(outcome: ScenarioOutcome, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{outcome.report['name']}.report.json"
    report_path.write_text(report_json(outcome.report), encoding="utf-8")
    for csv_name, lines in outcome.sweep_files.items():
        (out_dir / csv_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path


_Failed = namedtuple("_Failed", "exit_code stage message")  # stage: parse, validation, construction


def _run_checked(path: Path, tolerance: float, out_dir: Path, suite: dict[str, Path] | None):
    """Load, execute, check and persist one scenario file; returns the name to report (the
    file name until it parses) and the ``ScenarioOutcome``, or the ``_Failed`` that stopped it.
    ``suite`` maps the names a suite has parsed to their files; None outside a suite."""
    name = path.name
    try:
        scenario = load_scenario(path)
        name = scenario.name
        if suite is not None and suite.setdefault(name, path) != path:  # one report per name
            raise ScenarioValidationError(f"name {name!r} is already used by {suite[name].name}")
        if suite is not None and not scenario.expectations:
            raise ScenarioValidationError("no expectations embedded")
        outcome = execute_scenario(scenario, tolerance)
        write_outcome(outcome, out_dir)  # a NaN in the report fails encoding with a ValueError
    except ScenarioParseError as exc:
        return name, _Failed(EXIT_PARSE, "parse", str(exc))
    except ScenarioValidationError as exc:
        return name, _Failed(EXIT_VALIDATION, "validation", str(exc))
    except (ConstructionError, ValueError) as exc:  # ZeroStateError is a ValueError
        return name, _Failed(EXIT_CONSTRUCTION, "construction", str(exc))
    return name, outcome


def run_scenario_file(
    path: str | Path,
    tolerance: float = 1e-10,
    out_dir: str | Path = ".",
    fmt: str = "text",
    echo=print,
) -> int:
    """Load, execute, check, and persist a single scenario; returns the
    process exit code."""
    _, outcome = _run_checked(Path(path), tolerance, Path(out_dir), suite=None)
    if isinstance(outcome, _Failed):
        echo(f"{outcome.stage} error: {outcome.message}")
    elif fmt == "json":
        echo(report_json(outcome.report).rstrip("\n"))
    else:
        echo(render_text(outcome))
    return outcome.exit_code


def run_suite(
    directory: str | Path,
    tolerance: float = 1e-10,
    out_dir: str | Path = ".",
    echo=print,
) -> int:
    """Run every scenario file in a directory against its embedded
    expectations and print an aggregate pass/fail table."""
    directory = Path(directory)
    if not directory.is_dir():
        echo(f"validation error: {directory} is not a directory")
        return EXIT_VALIDATION
    files = sorted(directory.glob("*.json"))
    if not files:
        echo(f"validation error: no scenario files in {directory}")
        return EXIT_VALIDATION

    rows: list[tuple[str, str, str]] = []
    worst = EXIT_OK
    names: dict[str, Path] = {}
    for path in files:
        name, outcome = _run_checked(path, tolerance, Path(out_dir), suite=names)
        if isinstance(outcome, _Failed):
            rows.append((name, "ERROR", f"{outcome.stage}: {outcome.message}"))
        elif outcome.failures:
            rows.append((name, "FAIL", "; ".join(outcome.failures)))
        else:
            rows.append((name, "PASS", ""))
        worst = max(worst, outcome.exit_code)

    width = max(len(name) for name, _, _ in rows)
    for name, status, detail in rows:
        line = f"{name:<{width}}  {status}"
        if detail:
            line += f"  {detail}"
        echo(line)
    passed = sum(1 for _, status, _ in rows if status == "PASS")
    echo(f"{passed}/{len(rows)} scenarios passed")
    return worst
