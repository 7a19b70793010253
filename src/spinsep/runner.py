"""Execute scenarios and suites: build the requested state, run the requested
analyses, emit a deterministic JSON report plus a human-readable summary, and
check reports against embedded expectations.

Reports contain no timestamps, timings, or absolute paths, so repeated runs
of the same scenario produce byte-identical JSON; wall-clock timings appear
only in the text summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import bipartition_check
from .embedding import embed_mixed, embed_pure
from .entanglement import (
    negativity,
    ppt_classification,
    schmidt,
    von_neumann_entropy,
)
from .linalg import frob, normalize
from .reduction import (
    classify_symmetry,
    reduced_spin_probe,
    reduction_report,
    trace_out_spatial,
)
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    decode_complex,
    decode_matrix,
    decode_vector,
    encode_matrix,
    is_integer,
    load_scenario,
)
from .spatial import SpatialRegion, Wavefunction, projector, wavefunction
from .states import (
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    ZeroStateError,
    n_particle_localized,
    subspace_state,
    superposition_state,
    two_particle_localized,
)
from .symmetry import exchange_character

REPORT_FORMAT = "spinsep-report-v1"
SWEEP_CSV_HEADER = "overlap,trace,min_eig,negativity,entropy"

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONSTRUCTION = 4


class ConstructionError(Exception):
    """State or analysis construction failed (e.g. exclusion-principle zero)."""


@dataclass
class ScenarioOutcome:
    report: dict
    sweep_files: dict[str, list[str]]  # csv filename -> lines
    timings: list[tuple[str, float]]
    failures: list[str]

    @property
    def exit_code(self) -> int:
        return EXIT_EXPECTATION_FAILED if self.failures else EXIT_OK


def _factor_from_spec(obj, scenario: Scenario, where: str) -> LocalizedFactor:
    if not isinstance(obj, dict):
        raise ScenarioValidationError(f"{where}: expected an object")
    spin = obj.get("spin")
    if spin is None:
        raise ScenarioValidationError(f"{where}.spin: required")
    spin_vec = decode_vector(spin, f"{where}.spin")
    if spin_vec.size != scenario.space.spin_dim:
        raise ScenarioValidationError(f"{where}.spin: wrong dimension")
    if "mode" in obj:
        mode = obj["mode"]
        if not (is_integer(mode) and 0 <= mode < scenario.space.num_modes):
            raise ScenarioValidationError(
                f"{where}.mode: expected a mode index in [0, {scenario.space.num_modes})"
            )
        amps = np.zeros(scenario.space.num_modes, dtype=complex)
        amps[mode] = 1.0
        support = SpatialRegion([mode])
    elif "amplitudes" in obj:
        amps = decode_vector(obj["amplitudes"], f"{where}.amplitudes")
        if amps.size != scenario.space.num_modes:
            raise ScenarioValidationError(f"{where}.amplitudes: wrong dimension")
        support = None
        if "support" in obj:
            support = scenario.region(obj["support"])
    else:
        raise ScenarioValidationError(f"{where}: needs 'mode' or 'amplitudes'")
    norm = float(np.linalg.norm(spin_vec))
    if norm < 1e-12:
        raise ScenarioValidationError(f"{where}.spin: zero vector")
    return LocalizedFactor(wavefunction(amps, support), spin_vec / norm)


def _embed_regions(scenario: Scenario, spec_obj: dict) -> tuple[SpatialRegion, SpatialRegion]:
    names = spec_obj.get("regions", scenario.region_names[:2])
    if not (isinstance(names, list) and len(names) == 2):
        raise ScenarioValidationError("state.regions: expected two region names")
    return scenario.region(names[0]), scenario.region(names[1])


def build_state(scenario: Scenario):
    """Construct the scenario's global state vector.

    Returns (vector, info-dict); raises ConstructionError when the requested
    state vanishes or cannot be realized.
    """
    spec_obj = scenario.state_spec
    space = scenario.space
    if spec_obj is None:
        return None, None
    kind = spec_obj["kind"]
    parity = scenario.parity
    try:
        if kind == "localized":
            factors = spec_obj.get("factors")
            if not (isinstance(factors, list) and len(factors) == space.particles):
                raise ScenarioValidationError(
                    "state.factors: expected one factor per particle"
                )
            built = n_particle_localized(
                [
                    _factor_from_spec(f, scenario, f"state.factors[{k}]")
                    for k, f in enumerate(factors)
                ],
                parity,
            )
            vec, raw_norm = built
        elif kind == "superposition":
            terms_obj = spec_obj.get("terms")
            if not (isinstance(terms_obj, list) and terms_obj):
                raise ScenarioValidationError("state.terms: expected a nonempty array")
            if space.particles != 2:
                raise ScenarioValidationError(
                    "state.kind superposition: needs exactly two particles"
                )
            terms = []
            for k, t in enumerate(terms_obj):
                where = f"state.terms[{k}]"
                if not isinstance(t, dict):
                    raise ScenarioValidationError(f"{where}: expected an object")
                weight = 1.0 + 0.0j
                if "weight" in t:
                    weight = decode_complex(t["weight"], f"{where}.weight")
                terms.append(
                    SuperpositionTerm(
                        _factor_from_spec(t.get("factor_1"), scenario, f"{where}.factor_1"),
                        _factor_from_spec(t.get("factor_2"), scenario, f"{where}.factor_2"),
                        weight=weight,
                    )
                )
            vec, raw_norm = superposition_state(terms, parity)
        elif kind in ("shared_spatial", "symmetric_spatial", "antisymmetric_spatial"):
            sub_kind = SubspaceKind(kind)
            if kind == "shared_spatial":
                spatial = decode_vector(
                    spec_obj.get("mode_amplitudes"), "state.mode_amplitudes"
                )
                spins = spec_obj.get("spins")
                if spins is not None:
                    spin_part = np.vstack(
                        [
                            decode_vector(s, f"state.spins[{m}]")
                            for m, s in enumerate(spins)
                        ]
                    )
                else:
                    spin_part = decode_vector(spec_obj.get("spin"), "state.spin")
            else:
                spatial = decode_vector(spec_obj.get("spatial"), "state.spatial")
                spin_part = decode_vector(spec_obj.get("spin"), "state.spin")
            vec, raw_norm, stats = subspace_state(sub_kind, spatial, spin_part, space)
            return vec, {
                "kind": kind,
                "raw_norm": raw_norm,
                "statistics": stats,
                "dim": int(vec.size),
            }
        elif kind == "embed_pure":
            target = decode_vector(spec_obj.get("target"), "state.target")
            if target.size != space.spin_dim**2:
                raise ScenarioValidationError("state.target: wrong dimension")
            r1, r2 = _embed_regions(scenario, spec_obj)
            phi, _ = normalize(target)
            vec, raw_norm = embed_pure(phi, r1, r2, parity, space.num_modes)
        elif kind == "embed_mixed":
            target = decode_matrix(spec_obj.get("target"), "state.target")
            r1, r2 = _embed_regions(scenario, spec_obj)
            vec, raw_norm = embed_mixed(target, r1, r2, parity, space.num_modes)
        elif kind == "embed_random":
            rank = spec_obj.get("rank", space.spin_dim**2)
            if not (is_integer(rank) and 1 <= rank <= space.spin_dim**2):
                raise ScenarioValidationError("state.rank: out of range")
            rng = np.random.default_rng(scenario.seed)
            dim = space.spin_dim**2
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            sigma = g @ g.conj().T
            sigma = sigma / np.trace(sigma).real
            r1, r2 = _embed_regions(scenario, spec_obj)
            vec, raw_norm = embed_mixed(sigma, r1, r2, parity, space.num_modes)
        else:  # pragma: no cover - guarded by scenario validation
            raise ScenarioValidationError(f"state.kind: unknown kind {kind!r}")
    except ZeroStateError as exc:
        raise ConstructionError(str(exc)) from exc
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc

    stats = exchange_character(vec, space.particles, space.one_particle_dim)
    return vec, {
        "kind": kind,
        "raw_norm": raw_norm,
        "statistics": stats,
        "dim": int(vec.size),
    }


def _analysis_regions(scenario: Scenario, opts: dict) -> list[SpatialRegion]:
    names = opts.get("regions", scenario.region_names[: scenario.space.particles])
    if not (isinstance(names, list) and len(names) == scenario.space.particles):
        raise ScenarioValidationError("analysis.regions: expected one region per particle")
    return [scenario.region(n) for n in names]


def _run_reduction(scenario: Scenario, rho: np.ndarray, opts: dict) -> dict:
    space = scenario.space
    regions = _analysis_regions(scenario, opts)
    raw = reduced_spin_probe(rho, regions, space.spin_dim, space.num_modes)
    rep = reduction_report(raw, space.particles, space.spin_dim)
    return {
        "raw_matrix": encode_matrix(raw.matrix),
        "trace": float(raw.trace),
        "hermiticity_defect": float(raw.hermiticity_defect),
        "min_eigenvalue": float(raw.min_eigenvalue),
        "normalized": None if rep.normalized is None else encode_matrix(rep.normalized),
        "symmetry_class": rep.symmetry_class,
        "valid_state": bool(rep.valid_state),
    }


def _run_spatial_trace(scenario: Scenario, rho: np.ndarray) -> dict:
    space = scenario.space
    reduced = trace_out_spatial(rho, space)
    verdict = classify_symmetry(reduced, space.particles, space.spin_dim)
    return {
        "matrix": encode_matrix(reduced),
        "trace": float(np.trace(reduced).real),
        "symmetry_class": verdict.label,
        "antisymmetric_defect": float(verdict.antisymmetric_defect),
        "symmetric_defect": float(verdict.symmetric_defect),
    }


def _run_entanglement(scenario: Scenario, results: dict, opts: dict) -> dict:
    space = scenario.space
    source = opts.get("source")
    if source is None:
        source = "reduction" if "reduction" in results else "spatial_trace"
    entry = results.get(source)
    if entry is None or "error" in entry:
        raise ConstructionError(f"entanglement analysis needs a successful {source!r} analysis")
    encoded = entry.get("normalized") if source == "reduction" else entry.get("matrix")
    if encoded is None:
        raise ConstructionError("no normalized reduced state available")
    rho = decode_matrix(encoded, f"results.{source}")
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-8:
        rho = rho / trace
    d_left = space.spin_dim
    d_right = space.spin_dim ** (space.particles - 1)
    purity = float(np.trace(rho @ rho).real)
    out = {
        "source": source,
        "negativity": float(negativity(rho, d_left, d_right)),
        "entropy_bits": float(von_neumann_entropy(rho, validate=False)),
        "purity": purity,
        "separability": ppt_classification(rho, d_left, d_right),
        "schmidt_coefficients": None,
    }
    if purity >= 1.0 - 1e-10:
        eigvals, eigvecs = np.linalg.eigh(rho)
        psi = eigvecs[:, -1]
        coeffs = schmidt(psi, d_left, d_right).coefficients
        out["schmidt_coefficients"] = [float(c) for c in coeffs]
    return out


def _run_algebra(scenario: Scenario, opts: dict) -> list[dict]:
    space = scenario.space
    pairs = opts.get("pairs", [[scenario.region_names[0], scenario.region_names[1]]])
    if not (isinstance(pairs, list) and pairs):
        raise ScenarioValidationError("analysis.pairs: expected a nonempty array of pairs")
    entries = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioValidationError("analysis.pairs: each pair needs two region names")
        p = projector(scenario.region(pair[0]), space.num_modes)
        q = projector(scenario.region(pair[1]), space.num_modes)
        verdict = bipartition_check(p, q, space.spin_dim)
        entries.append(
            {
                "pair": [pair[0], pair[1]],
                "commutes": bool(verdict.commutes),
                "max_commutator_norm": float(verdict.max_commutator_norm),
                "witness": None if verdict.witness is None else list(verdict.witness),
                "projected_max_norm": float(verdict.projected_max_norm),
            }
        )
    return entries


def _run_overlap_sweep(scenario: Scenario, opts: dict) -> tuple[dict, list[str]]:
    space = scenario.space
    if space.spin_dim < 2:
        raise ScenarioValidationError("overlap_sweep: needs at least two spin levels")
    steps = opts.get("steps", 21)
    if not (is_integer(steps) and steps >= 2):
        raise ScenarioValidationError("overlap_sweep.steps: expected an integer >= 2")
    region1 = scenario.region(opts.get("region_1", scenario.region_names[0]))
    region2 = scenario.region(opts.get("region_2", scenario.region_names[1]))
    spin_1 = np.zeros(space.spin_dim, dtype=complex)
    spin_1[0] = 1.0
    spin_2 = np.zeros(space.spin_dim, dtype=complex)
    spin_2[-1] = 1.0
    if "spin_1" in opts:
        spin_1 = decode_vector(opts["spin_1"], "overlap_sweep.spin_1")
    if "spin_2" in opts:
        spin_2 = decode_vector(opts["spin_2"], "overlap_sweep.spin_2")
    spin_1 = spin_1 / np.linalg.norm(spin_1)
    spin_2 = spin_2 / np.linalg.norm(spin_2)

    m1 = region1.sorted_modes()[0]
    m2 = region2.sorted_modes()[0]
    f_amps = np.zeros(space.num_modes, dtype=complex)
    f_amps[m1] = 1.0
    f_wave = Wavefunction(f_amps, SpatialRegion([m1]))

    rows: list[list[float | None]] = []
    for k in range(steps):
        theta = (math.pi / 2.0) * k / (steps - 1)
        g_amps = np.zeros(space.num_modes, dtype=complex)
        g_amps[m1] = math.sin(theta)
        g_amps[m2] = math.cos(theta)
        g_wave = Wavefunction(g_amps)
        state, _ = two_particle_localized(
            LocalizedFactor(f_wave, spin_1),
            LocalizedFactor(g_wave, spin_2),
            scenario.parity,
        )
        rho = np.outer(state, state.conj())
        raw = reduced_spin_probe(rho, [region1, region2], space.spin_dim, space.num_modes)
        rep = reduction_report(raw, 2, space.spin_dim)
        neg: float | None = None
        ent: float | None = None
        if rep.normalized is not None:
            neg = float(negativity(rep.normalized, space.spin_dim, space.spin_dim))
            ent = float(von_neumann_entropy(rep.normalized, validate=False))
        rows.append(
            [math.sin(theta), float(raw.trace), float(raw.min_eigenvalue), neg, ent]
        )

    csv_name = f"{scenario.name}_sweep.csv"
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cells = [repr(float(v)) if v is not None else "nan" for v in row]
        lines.append(",".join(cells))
    entry = {"csv": csv_name, "rows": rows}
    return entry, lines


def execute_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run every requested analysis and assemble the deterministic report."""
    timings: list[tuple[str, float]] = []
    results: dict = {}
    sweep_files: dict[str, list[str]] = {}

    start = time.perf_counter()
    vector, construction = build_state(scenario)
    timings.append(("construction", time.perf_counter() - start))
    rho = None if vector is None else np.outer(vector, vector.conj())

    for opts in scenario.analyses:
        kind = opts["analysis"]
        start = time.perf_counter()
        try:
            if kind == "reduction":
                if rho is None:
                    raise ConstructionError("reduction analysis needs a state")
                results[kind] = _run_reduction(scenario, rho, opts)
            elif kind == "spatial_trace":
                if rho is None:
                    raise ConstructionError("spatial_trace analysis needs a state")
                results[kind] = _run_spatial_trace(scenario, rho)
            elif kind == "entanglement":
                results[kind] = _run_entanglement(scenario, results, opts)
            elif kind == "algebra":
                results[kind] = _run_algebra(scenario, opts)
            elif kind == "overlap_sweep":
                entry, lines = _run_overlap_sweep(scenario, opts)
                results[kind] = entry
                sweep_files[entry["csv"]] = lines
        except ConstructionError as exc:
            results[kind] = {"error": str(exc)}
        timings.append((kind, time.perf_counter() - start))

    report = {
        "format": REPORT_FORMAT,
        "name": scenario.name,
        "scenario": scenario.raw,
        "construction": construction,
        "results": results,
    }
    return ScenarioOutcome(report, sweep_files, timings, [])


def _approx(actual: float, wanted: float, tol: float) -> bool:
    return abs(actual - wanted) <= tol


def compare_expectations(report: dict, scenario: Scenario, default_tol: float) -> list[str]:
    """Check a report against the scenario's embedded expectations; returns
    human-readable failure messages (empty when everything matches)."""
    tol = scenario.tolerance if scenario.tolerance is not None else default_tol
    exp = scenario.expectations
    results = report["results"]
    failures: list[str] = []

    def fail(msg: str) -> None:
        failures.append(msg)

    def get(analysis: str):
        entry = results.get(analysis)
        if entry is None or (isinstance(entry, dict) and "error" in entry):
            fail(f"expected {analysis} analysis to succeed")
            return None
        return entry

    for key, wanted in exp.items():
        if key == "raw_trace":
            entry = get("reduction")
            if entry and not _approx(entry["trace"], float(wanted), tol):
                fail(f"raw_trace: got {entry['trace']!r}, wanted {wanted!r}")
        elif key == "min_eigenvalue_at_least":
            entry = get("reduction")
            if entry and entry["min_eigenvalue"] < float(wanted):
                fail(f"min_eigenvalue {entry['min_eigenvalue']!r} below {wanted!r}")
        elif key == "reduced_matrix":
            entry = get("reduction")
            if entry:
                if entry["normalized"] is None:
                    fail("reduced_matrix: no normalized reduced state")
                else:
                    got = decode_matrix(entry["normalized"], "results.reduction.normalized")
                    want = decode_matrix(wanted, "expectations.reduced_matrix")
                    if frob(got - want) > tol:
                        fail(f"reduced_matrix: deviation {frob(got - want):.3e} > {tol}")
        elif key == "spatial_trace_matrix":
            entry = get("spatial_trace")
            if entry:
                got = decode_matrix(entry["matrix"], "results.spatial_trace.matrix")
                want = decode_matrix(wanted, "expectations.spatial_trace_matrix")
                if frob(got - want) > tol:
                    fail(f"spatial_trace_matrix: deviation {frob(got - want):.3e} > {tol}")
        elif key == "symmetry_class":
            entry = get("spatial_trace" if "spatial_trace" in results else "reduction")
            if entry and entry.get("symmetry_class") != wanted:
                fail(
                    f"symmetry_class: got {entry.get('symmetry_class')!r}, wanted {wanted!r}"
                )
        elif key == "statistics":
            construction = report.get("construction")
            if construction is None:
                fail("statistics: scenario built no state")
            elif construction["statistics"] != wanted:
                fail(f"statistics: got {construction['statistics']!r}, wanted {wanted!r}")
        elif key == "raw_norm":
            construction = report.get("construction")
            if construction is None:
                fail("raw_norm: scenario built no state")
            elif not _approx(construction["raw_norm"], float(wanted), tol):
                fail(f"raw_norm: got {construction['raw_norm']!r}, wanted {wanted!r}")
        elif key in ("negativity", "entropy_bits", "purity"):
            entry = get("entanglement")
            if entry and not _approx(entry[key], float(wanted), tol):
                fail(f"{key}: got {entry[key]!r}, wanted {wanted!r}")
        elif key == "separability":
            entry = get("entanglement")
            if entry and entry["separability"] != wanted:
                fail(f"separability: got {entry['separability']!r}, wanted {wanted!r}")
        elif key == "separable":
            entry = get("entanglement")
            if entry is not None:
                is_sep = entry["separability"] == "separable"
                if is_sep != bool(wanted):
                    fail(f"separable: got {is_sep}, wanted {wanted}")
        elif key == "commutes":
            entry = get("algebra")
            if entry is not None:
                got = [e["commutes"] for e in entry]
                if got != list(wanted):
                    fail(f"commutes: got {got}, wanted {wanted}")
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
            continue
        if kind == "reduction":
            lines.append(
                f"  reduction: trace {entry['trace']:.12g}, min eig "
                f"{entry['min_eigenvalue']:.3e}, class {entry['symmetry_class']}"
            )
        elif kind == "spatial_trace":
            lines.append(f"  spatial_trace: class {entry['symmetry_class']}")
        elif kind == "entanglement":
            lines.append(
                f"  entanglement: negativity {entry['negativity']:.12g}, entropy "
                f"{entry['entropy_bits']:.12g} bits, {entry['separability']}"
            )
        elif kind == "algebra":
            for item in entry:
                lines.append(
                    f"  algebra {item['pair']}: commutes={item['commutes']} "
                    f"(norm {item['max_commutator_norm']:.3e})"
                )
        elif kind == "overlap_sweep":
            lines.append(f"  overlap_sweep: {len(entry['rows'])} steps -> {entry['csv']}")
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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_outcome(outcome: ScenarioOutcome, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{outcome.report['name']}.report.json"
    report_path.write_text(report_json(outcome.report), encoding="utf-8")
    for csv_name, lines in outcome.sweep_files.items():
        (out_dir / csv_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path


def run_scenario_file(
    path: str | Path,
    tolerance: float = 1e-10,
    out_dir: str | Path = ".",
    fmt: str = "text",
    echo=print,
) -> int:
    """Load, execute, check, and persist a single scenario; returns the
    process exit code."""
    try:
        scenario = load_scenario(path)
    except ScenarioParseError as exc:
        echo(f"parse error: {exc}")
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        echo(f"validation error: {exc}")
        return EXIT_VALIDATION

    try:
        outcome = execute_scenario(scenario)
        if scenario.expectations:
            outcome.failures.extend(compare_expectations(outcome.report, scenario, tolerance))
    except ScenarioValidationError as exc:
        echo(f"validation error: {exc}")
        return EXIT_VALIDATION
    except (ConstructionError, ZeroStateError, ValueError) as exc:
        echo(f"construction error: {exc}")
        return EXIT_CONSTRUCTION

    write_outcome(outcome, Path(out_dir))
    if fmt == "json":
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
    for path in files:
        try:
            scenario = load_scenario(path)
        except ScenarioParseError as exc:
            rows.append((path.name, "ERROR", f"parse: {exc}"))
            worst = max(worst, EXIT_PARSE)
            continue
        except ScenarioValidationError as exc:
            rows.append((path.name, "ERROR", f"validation: {exc}"))
            worst = max(worst, EXIT_VALIDATION)
            continue
        if not scenario.expectations:
            rows.append((scenario.name, "ERROR", "validation: no expectations embedded"))
            worst = max(worst, EXIT_VALIDATION)
            continue
        try:
            outcome = execute_scenario(scenario)
            outcome.failures.extend(compare_expectations(outcome.report, scenario, tolerance))
        except ScenarioValidationError as exc:
            rows.append((scenario.name, "ERROR", f"validation: {exc}"))
            worst = max(worst, EXIT_VALIDATION)
            continue
        except (ConstructionError, ZeroStateError, ValueError) as exc:
            rows.append((scenario.name, "ERROR", f"construction: {exc}"))
            worst = max(worst, EXIT_CONSTRUCTION)
            continue
        write_outcome(outcome, Path(out_dir))
        if outcome.failures:
            rows.append((scenario.name, "FAIL", "; ".join(outcome.failures)))
            worst = max(worst, EXIT_EXPECTATION_FAILED)
        else:
            rows.append((scenario.name, "PASS", ""))

    width = max(len(name) for name, _, _ in rows)
    for name, status, detail in rows:
        line = f"{name:<{width}}  {status}"
        if detail:
            line += f"  {detail}"
        echo(line)
    passed = sum(1 for _, status, _ in rows if status == "PASS")
    echo(f"{passed}/{len(rows)} scenarios passed")
    return worst
