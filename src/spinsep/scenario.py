"""Declarative scenario files: parsing, validation, JSON value helpers, and the
registry of state kinds, analyses and expectations.

A scenario is a JSON object with the keys

* ``name``: identifier used for report and CSV file names,
* ``space``: ``{"modes": d_l, "spin_levels": d_h, "particles": n}``,
* ``parity``: ``"fermi"`` or ``"bose"`` (required when a state is built),
* ``regions``: ordered list of ``{"name": ..., "modes": [...]}``,
* ``state``: optional state specification (see ``STATES``),
* ``analyses``: nonempty list of names or option objects (see ``ANALYSES``),
* ``seed``: 64-bit integer, required iff the scenario draws random data,
* ``tolerance``: optional override for expectation comparisons,
* ``expectations``: optional values the suite runner checks reports against
  (see ``EXPECTATIONS``).

Complex numbers are written as two-element ``[re, im]`` arrays (plain numbers
are accepted as reals); matrices are row-major nested arrays of entries.

Parsing is the only phase that checks input.  A ``STATES`` entry maps
``(scenario, spec)`` to ``build() -> BuiltState``, an ``ANALYSES`` entry's
``check`` maps ``(scenario, options, where)`` to ``run(state, results)``;
each raises ``ScenarioValidationError`` naming the faulty field, or returns a
closure that only computes.  The closures call library code by module-global
name, never through a stored reference, so wrappers installed on module
globals after parsing see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .algebra import bipartition_check
from .embedding import embed_mixed, embed_pure, embedding_rank
from .entanglement import (
    ENTANGLED,
    PPT_INCONCLUSIVE,
    SEPARABLE,
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
from .spatial import (
    SpaceSpec,
    SpatialRegion,
    Wavefunction,
    mode_wavefunction,
    projector,
    wavefunction,
)
from .states import (
    BuiltState,
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from .symmetry import ANTISYMMETRIC, MAX_PARTICLES, NO_SYMMETRY, SYMMETRIC, Parity


class ScenarioError(Exception):
    pass


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


class ConstructionError(Exception):
    """State or analysis construction failed (e.g. exclusion-principle zero)."""


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_MAX_SEED = 2**64 - 1
MAX_ARRAY_ENTRIES = 2**24  # 268 MB of complex entries: the dense rho of a dim-4096 state
MAX_SWEEP_STEPS = 1000  # each step builds and reduces one two-particle state
SWEEP_CSV_HEADER = "overlap,trace,min_eig,negativity,entropy"


def is_integer(value) -> bool:
    """Whether a decoded JSON value is an integer (``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(value) -> float | None:
    """A decoded JSON number as a finite float, or None for anything else
    (booleans, NaN, infinities, integers too large for a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def decode_complex(value, where: str) -> complex:
    real = _finite_real(value)
    if real is not None:
        return complex(real)
    if isinstance(value, list) and len(value) == 2:
        parts = [_finite_real(x) for x in value]
        if None not in parts:
            return complex(parts[0], parts[1])
    raise ScenarioValidationError(f"{where}: expected a finite number or [re, im] pair")


def decode_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioValidationError(f"{where}: expected a nonempty array")
    return np.array([decode_complex(v, f"{where}[{k}]") for k, v in enumerate(value)])


def decode_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioValidationError(f"{where}: expected a nonempty array of rows")
    rows = [decode_vector(row, f"{where}[{k}]") for k, row in enumerate(value)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ScenarioValidationError(f"{where}: rows have inconsistent lengths")
    return np.vstack(rows)


def encode_matrix(mat: np.ndarray) -> list[list[list[float]]]:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


@dataclass
class Scenario:
    name: str
    space: SpaceSpec
    parity: Parity | None
    regions: dict[str, SpatialRegion]  # in the order the file lists them
    seed: int | None
    tolerance: float | None
    expectations: dict  # key -> value validated (matrices decoded) by its EXPECTATIONS entry
    raw: dict = field(repr=False)
    build: Callable[[], BuiltState] | None = None  # the checked state; None without one
    analyses: dict[str, Callable[[Any, dict], Any]] = field(default_factory=dict)  # name -> run

    def region(self, name: str) -> SpatialRegion:
        if isinstance(name, str) and name in self.regions:
            return self.regions[name]
        raise ScenarioValidationError(f"unknown region {name!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioValidationError(message)


def _registered(table: dict, name, where: str):
    _require(isinstance(name, str) and name in table, f"{where}: expected one of {sorted(table)}")
    return table[name]


def _checked(build: Callable[[], Any], where: str):
    """``build()``, reporting the ValueError of a library check as a fault of ``where``."""
    try:
        return build()
    except ValueError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from exc


def _require_finite(obj) -> None:
    """Reject the first NaN or infinity anywhere in a decoded JSON value, naming its path:
    the report echoes the scenario, and strict JSON has no such numbers."""
    stack = [(obj, "")]
    while stack:  # depth first in document order, without recursion
        node, where = stack.pop()
        if isinstance(node, float):
            _require(math.isfinite(node), f"{where}: expected a finite number")
        elif isinstance(node, dict):
            stack.extend(reversed([(v, f"{where}.{k}" if where else k) for k, v in node.items()]))
        elif isinstance(node, list):
            stack.extend(reversed([(v, f"{where}[{k}]") for k, v in enumerate(node)]))


def _within_budget(entries: int, what: str) -> None:
    _require(
        entries <= MAX_ARRAY_ENTRIES,
        f"space: {what} has {entries} entries, above the limit of {MAX_ARRAY_ENTRIES}",
    )


def _positive_int(obj, key: str, where: str) -> int:
    value = obj.get(key)
    _require(is_integer(value) and value >= 1, f"{where}.{key}: expected a positive integer")
    return value


# ---------------------------------------------------------------- state kinds


def _given(scenario: Scenario, key: str, purpose: str = "to build this state"):
    """The scenario's ``parity`` or ``seed``, which ``purpose`` requires."""
    _require(getattr(scenario, key) is not None, f"{key}: required {purpose}")
    return getattr(scenario, key)


def _sized_vector(value, where: str, size: int) -> np.ndarray:
    vector = decode_vector(value, where)
    _require(vector.size == size, f"{where}: wrong dimension")
    return vector


def _unit_spin(value, where: str, space: SpaceSpec) -> np.ndarray:
    spin = _sized_vector(value, where, space.spin_dim)
    norm = float(np.linalg.norm(spin))
    _require(norm >= 1e-12, f"{where}: zero vector")
    return spin / norm


def _factor_from_spec(obj, scenario: Scenario, where: str) -> LocalizedFactor:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _require(obj.get("spin") is not None, f"{where}.spin: required")
    spin = _unit_spin(obj["spin"], f"{where}.spin", scenario.space)
    num_modes = scenario.space.num_modes
    if "mode" in obj:
        mode = obj["mode"]
        _require(
            is_integer(mode) and 0 <= mode < num_modes,
            f"{where}.mode: expected a mode index in [0, {num_modes})",
        )
        wave = mode_wavefunction(mode, num_modes)
    elif "amplitudes" in obj:
        amps = _sized_vector(obj["amplitudes"], f"{where}.amplitudes", num_modes)
        support = scenario.region(obj["support"]) if "support" in obj else None
        wave = _checked(lambda: wavefunction(amps, support), f"{where}.amplitudes")
    else:
        raise ScenarioValidationError(f"{where}: needs 'mode' or 'amplitudes'")
    return LocalizedFactor(wave, spin)


def _embedding(scenario: Scenario, spec: dict, rank: int = 1, where: str = "state.regions"):
    """The arguments after an embedding's target: one region per particle, the first named
    ones by default, each holding ``rank`` modes, or ``where`` reports the shortfall."""
    parity = _given(scenario, "parity")
    n = scenario.space.particles
    names = spec.get("regions", list(scenario.regions)[:n])
    _require(
        isinstance(names, list) and len(names) == n,
        "state.regions: expected one region name per particle",
    )
    regions = [scenario.region(name) for name in names]
    _require(
        all(a.disjoint_from(b) for a, b in itertools.combinations(regions, 2)),
        "state.regions: embedding regions must be disjoint",
    )
    for name, region in zip(names, regions):
        _require(
            len(region.modes) >= rank,
            f"{where}: region {name!r} has {len(region.modes)} modes "
            f"but the target has rank {rank}",
        )
    return regions, parity, scenario.space.num_modes


def _check_localized(scenario: Scenario, spec: dict):
    parity = _given(scenario, "parity")
    specs = spec.get("factors")
    _require(
        isinstance(specs, list) and len(specs) == scenario.space.particles,
        "state.factors: expected one factor per particle",
    )
    factors = [_factor_from_spec(f, scenario, f"state.factors[{k}]") for k, f in enumerate(specs)]
    return lambda: n_particle_localized(factors, parity)


def _check_superposition(scenario: Scenario, spec: dict):
    parity = _given(scenario, "parity")
    terms_obj = spec.get("terms")
    _require(isinstance(terms_obj, list) and terms_obj, "state.terms: expected a nonempty array")
    n = scenario.space.particles
    keys = [f"factor_{j}" for j in range(1, n + 1)]
    terms = []
    for k, t in enumerate(terms_obj):
        where = f"state.terms[{k}]"
        _require(isinstance(t, dict), f"{where}: expected an object")
        for key in (key for key in t if key.startswith("factor_")):
            _require(key in keys, f"{where}.{key}: the space has {n} particles")
        terms.append(
            SuperpositionTerm(
                [_factor_from_spec(t.get(key), scenario, f"{where}.{key}") for key in keys],
                weight=decode_complex(t.get("weight", 1.0), f"{where}.weight"),
            )
        )
    return lambda: superposition_state(terms, parity)


def _check_shared_spatial(scenario: Scenario, spec: dict):
    space = scenario.space
    spin_dim = space.spin_dim**space.particles
    spatial = _sized_vector(spec.get("mode_amplitudes"), "state.mode_amplitudes", space.num_modes)
    spins = spec.get("spins")
    if spins is not None:
        _require(
            isinstance(spins, list) and len(spins) == space.num_modes,
            "state.spins: expected one spin vector per mode",
        )
        spin_part = np.vstack(
            [_sized_vector(s, f"state.spins[{m}]", spin_dim) for m, s in enumerate(spins)]
        )
    else:
        spin_part = _sized_vector(spec.get("spin"), "state.spin", spin_dim)
    return lambda: subspace_state(SubspaceKind.SHARED_SPATIAL, spatial, spin_part, space)


def _check_spatial_sector(scenario: Scenario, spec: dict):
    space = scenario.space
    spatial = _sized_vector(spec.get("spatial"), "state.spatial", space.num_modes**space.particles)
    spin_part = _sized_vector(spec.get("spin"), "state.spin", space.spin_dim**space.particles)
    kind = SubspaceKind(spec["kind"])
    return lambda: subspace_state(kind, spatial, spin_part, space)


def _check_embed_pure(scenario: Scenario, spec: dict):
    space = scenario.space
    target = _sized_vector(spec.get("target"), "state.target", space.spin_dim**space.particles)
    placement = _embedding(scenario, spec)
    phi, _ = _checked(lambda: normalize(target), "state.target")
    return lambda: embed_pure(phi, *placement)


def _check_embed_mixed(scenario: Scenario, spec: dict):
    space = scenario.space
    _within_budget(_spin_matrix_entries(space), "the embedding target")
    target = decode_matrix(spec.get("target"), "state.target")
    dim = space.spin_dim**space.particles
    _require(target.shape == (dim, dim), "state.target: wrong dimension")
    rank = _checked(lambda: embedding_rank(target), "state.target")
    placement = _embedding(scenario, spec, rank)
    return lambda: embed_mixed(target, *placement)


def _check_embed_random(scenario: Scenario, spec: dict):
    space = scenario.space
    _within_budget(_spin_matrix_entries(space), "the embedding target")
    rng = np.random.default_rng(_given(scenario, "seed", "for randomized scenarios"))
    dim = space.spin_dim**space.particles
    rank = spec.get("rank", dim)
    _require(is_integer(rank) and 1 <= rank <= dim, "state.rank: out of range")
    placement = _embedding(scenario, spec, rank, "state.rank")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    sigma = g @ g.conj().T
    sigma = sigma / np.trace(sigma).real
    return lambda: embed_mixed(sigma, *placement)


STATES = {
    "localized": _check_localized,
    "superposition": _check_superposition,
    "shared_spatial": _check_shared_spatial,
    "symmetric_spatial": _check_spatial_sector,
    "antisymmetric_spatial": _check_spatial_sector,
    "embed_pure": _check_embed_pure,
    "embed_mixed": _check_embed_mixed,
    "embed_random": _check_embed_random,
}


# ---------------------------------------------------------------- analyses


def _leading_regions(scenario: Scenario, count: int, kind: str) -> list[str]:
    """The names of the scenario's first ``count`` regions, which analysis ``kind`` needs."""
    names, title = list(scenario.regions), ANALYSES[kind].title
    _require(len(names) >= count, f"regions: {title} needs at least {count} named regions")
    return names[:count]


def _check_reduction(scenario: Scenario, opts: dict, where: str):
    space = scenario.space
    names = opts.get("regions", _leading_regions(scenario, space.particles, "reduction"))
    _require(
        isinstance(names, list) and len(names) == space.particles,
        "analysis.regions: expected one region per particle",
    )
    regions = [scenario.region(n) for n in names]

    def run(state, results: dict) -> dict:
        raw = reduced_spin_probe(state, regions, space.spin_dim, space.num_modes)
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

    return run


def _check_spatial_trace(scenario: Scenario, opts: dict, where: str):
    space = scenario.space

    def run(state, results: dict) -> dict:
        reduced = trace_out_spatial(state, space)
        verdict = classify_symmetry(reduced, space.particles, space.spin_dim)
        return {
            "matrix": encode_matrix(reduced),
            "trace": float(np.trace(reduced).real),
            "symmetry_class": verdict.label,
            "antisymmetric_defect": float(verdict.antisymmetric_defect),
            "symmetric_defect": float(verdict.symmetric_defect),
        }

    return run


def _check_entanglement(scenario: Scenario, opts: dict, where: str):
    space = scenario.space
    sources = ["reduction", "spatial_trace"]
    given = opts.get("source")
    _require("source" not in opts or given in sources, f"{where}.source: expected one of {sources}")
    # the analyses listed before this one have been checked, in order, into scenario.analyses
    earlier = [s for s in sources if s in scenario.analyses]
    source = given or next(iter(earlier), None)
    needed = repr(given) if given else " or ".join(map(repr, sources))
    _require(
        source in earlier, f"{where}.source: the entanglement analysis needs {needed} listed before it"
    )

    def run(state, results: dict) -> dict:
        entry = results[source]
        if "error" in entry:
            raise ConstructionError(f"entanglement analysis needs a successful {source!r} analysis")
        encoded = entry.get("normalized") if source == "reduction" else entry.get("matrix")
        if encoded is None:
            raise ConstructionError("no normalized reduced state available")
        # encode_matrix wrote these [re, im] pairs in this run: read them back bit for bit
        rho = np.array(encoded, dtype=float).view(complex)[..., 0]
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > 1e-8:
            rho = rho / trace
        d_left, d_right = space.spin_dim, space.spin_dim ** (space.particles - 1)
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
            psi = np.linalg.eigh(rho)[1][:, -1]
            coeffs = schmidt(psi, d_left, d_right).coefficients
            out["schmidt_coefficients"] = [float(c) for c in coeffs]
        return out

    return run


def _check_algebra(scenario: Scenario, opts: dict, where: str):
    space = scenario.space
    pairs = opts.get("pairs", [_leading_regions(scenario, 2, "algebra")])
    _require(
        isinstance(pairs, list) and pairs, "analysis.pairs: expected a nonempty array of pairs"
    )
    checked = []
    for pair in pairs:
        _require(
            isinstance(pair, list) and len(pair) == 2,
            "analysis.pairs: each pair needs two region names",
        )
        checked.append((pair, *(projector(scenario.region(n), space.num_modes) for n in pair)))

    def run(state, results: dict) -> list[dict]:
        entries = []
        for pair, p, q in checked:
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

    return run


def _check_overlap_sweep(scenario: Scenario, opts: dict, where: str):
    space = scenario.space
    default_1, default_2 = _leading_regions(scenario, 2, "overlap_sweep")
    parity = _given(scenario, "parity", "by the overlap sweep")
    _require(space.spin_dim >= 2, "overlap_sweep: needs at least two spin levels")
    steps = opts.get("steps", 21)
    _require(
        is_integer(steps) and 2 <= steps <= MAX_SWEEP_STEPS,
        f"overlap_sweep.steps: expected an integer in [2, {MAX_SWEEP_STEPS}]",
    )
    region1 = scenario.region(opts.get("region_1", default_1))
    region2 = scenario.region(opts.get("region_2", default_2))
    eye = np.eye(space.spin_dim, dtype=complex)
    spin_1, spin_2 = (
        _unit_spin(opts[key], f"overlap_sweep.{key}", space) if key in opts else default
        for key, default in (("spin_1", eye[0]), ("spin_2", eye[-1]))
    )
    m1, m2 = region1.sorted_modes()[0], region2.sorted_modes()[0]
    _require(m1 != m2, f"overlap_sweep.region_2: starts at mode {m2}, as region_1 does")
    f_factor = LocalizedFactor(mode_wavefunction(m1, space.num_modes), spin_1)

    def run(state, results: dict) -> dict:
        rows: list[list[float | None]] = []
        for k in range(steps):
            theta = (math.pi / 2.0) * k / (steps - 1)
            g_amps = np.zeros(space.num_modes, dtype=complex)
            g_amps[[m1, m2]] = math.sin(theta), math.cos(theta)
            g_factor = LocalizedFactor(Wavefunction(g_amps), spin_2)
            pair, _ = n_particle_localized([f_factor, g_factor], parity)
            raw = reduced_spin_probe(pair, [region1, region2], space.spin_dim, space.num_modes)
            rep = reduction_report(raw, 2, space.spin_dim)
            neg = ent = None
            if rep.normalized is not None:
                neg = float(negativity(rep.normalized, space.spin_dim, space.spin_dim))
                ent = float(von_neumann_entropy(rep.normalized, validate=False))
            rows.append([math.sin(theta), float(raw.trace), float(raw.min_eigenvalue), neg, ent])
        return {"csv": f"{scenario.name}_sweep.csv", "rows": rows}

    return run


def _sweep_csv(entry: dict) -> dict[str, list[str]]:
    lines = [SWEEP_CSV_HEADER]
    for row in entry["rows"]:
        lines.append(",".join(repr(float(v)) if v is not None else "nan" for v in row))
    return {entry["csv"]: lines}


def _spin_matrix_entries(space: SpaceSpec) -> int:
    return space.spin_dim ** (2 * space.particles)


@dataclass(frozen=True)
class Analysis:
    """``check(scenario, options, where)`` validates the options listed at ``where`` and returns
    ``run(state vector, results so far)``, which returns the entry ``summary`` and ``side_files``
    render; ``title`` names the analysis in messages, ``array_entries`` its largest array."""

    check: Callable[[Scenario, dict, str], Callable[[Any, dict], Any]]
    summary: Callable[[Any], str]
    title: str
    array_entries: Callable[[SpaceSpec], int]
    side_files: Callable[[Any], dict[str, list[str]]] = lambda entry: {}
    needs_state: bool = False


ANALYSES = {
    "reduction": Analysis(
        _check_reduction,
        lambda e: f"  reduction: trace {e['trace']:.12g}, min eig "
        f"{e['min_eigenvalue']:.3e}, class {e['symmetry_class']}",
        "the probe reduction",
        _spin_matrix_entries,
        needs_state=True,
    ),
    "spatial_trace": Analysis(
        _check_spatial_trace,
        lambda e: f"  spatial_trace: class {e['symmetry_class']}",
        "the spatial trace",
        _spin_matrix_entries,
        needs_state=True,
    ),
    "entanglement": Analysis(
        _check_entanglement,
        lambda e: f"  entanglement: negativity {e['negativity']:.12g}, entropy "
        f"{e['entropy_bits']:.12g} bits, {e['separability']}",
        "the entanglement analysis",
        _spin_matrix_entries,
        needs_state=True,
    ),
    "algebra": Analysis(
        _check_algebra,
        lambda entries: "\n".join(
            f"  algebra {e['pair']}: commutes={e['commutes']} "
            f"(norm {e['max_commutator_norm']:.3e})"
            for e in entries
        ),
        "the algebra analysis",
        lambda space: space.one_particle_dim**4,  # a commutator on the two-particle space
    ),
    "overlap_sweep": Analysis(
        _check_overlap_sweep,
        lambda e: f"  overlap_sweep: {len(e['rows'])} steps -> {e['csv']}",
        "the overlap sweep",
        lambda space: max(space.one_particle_dim**2, space.spin_dim**4),  # two-particle states
        side_files=_sweep_csv,
    ),
}


# ---------------------------------------------------------------- expectations


def _value_check(accepts: Callable[[Any], bool], expected: str):
    """A parse-time check of an expectation value, which it returns as given."""
    def check(value, where: str, space: SpaceSpec):
        _require(accepts(value), f"{where}: expected {expected}")
        return value
    return check


def _label(*labels: str):
    return _value_check(lambda v: v in labels, f"one of {sorted(labels)}")


def _spin_matrix(value, where: str, space: SpaceSpec) -> np.ndarray:
    matrix = decode_matrix(value, where)
    dim = space.spin_dim**space.particles
    _require(matrix.shape == (dim, dim), f"{where}: expected a {dim}x{dim} matrix")
    return matrix


_number = _value_check(lambda v: _finite_real(v) is not None, "a finite number")
_boolean = _value_check(lambda v: isinstance(v, bool), "true or false")
_booleans = _value_check(
    lambda v: isinstance(v, list) and all(isinstance(b, bool) for b in v), "an array of booleans"
)
_symmetry_label = _label(ANTISYMMETRIC, SYMMETRIC, NO_SYMMETRY)


def _equal(key: str, got, wanted, tol: float) -> str | None:
    return None if got == wanted else f"{key}: got {got!r}, wanted {wanted!r}"


def _close(key: str, got, wanted, tol: float) -> str | None:
    return None if abs(got - wanted) <= tol else f"{key}: got {got!r}, wanted {wanted!r}"


def _at_least(key: str, got, wanted, tol: float) -> str | None:
    return f"min_eigenvalue {got!r} below {wanted!r}" if got < wanted else None


def _separable(key: str, got, wanted, tol: float) -> str | None:
    return _equal(key, got == SEPARABLE, wanted, tol)


def _deviation(key: str, got, wanted: np.ndarray, tol: float) -> str | None:
    if got is None:
        return f"{key}: no normalized reduced state"
    deviation = frob(decode_matrix(got, f"results.{key}") - wanted)
    return f"{key}: deviation {deviation:.3e} > {tol}" if deviation > tol else None


@dataclass(frozen=True)
class Expectation:
    """``compare`` checks ``field`` of the report entry ``source`` names (the built state when
    None; else the first that ran, or the last) against the value ``value`` validated."""

    source: tuple[str, ...] | None
    field: str
    value: Callable[[Any, str, SpaceSpec], Any]
    compare: Callable[[str, Any, Any, float], str | None]


EXPECTATIONS = {
    "raw_trace": Expectation(("reduction",), "trace", _number, _close),
    "reduced_matrix": Expectation(("reduction",), "normalized", _spin_matrix, _deviation),
    "spatial_trace_matrix": Expectation(("spatial_trace",), "matrix", _spin_matrix, _deviation),
    "symmetry_class": Expectation(
        ("spatial_trace", "reduction"), "symmetry_class", _symmetry_label, _equal
    ),
    "statistics": Expectation(None, "statistics", _symmetry_label, _equal),
    "raw_norm": Expectation(None, "raw_norm", _number, _close),
    "negativity": Expectation(("entanglement",), "negativity", _number, _close),
    "entropy_bits": Expectation(("entanglement",), "entropy_bits", _number, _close),
    "purity": Expectation(("entanglement",), "purity", _number, _close),
    "separability": Expectation(
        ("entanglement",), "separability", _label(SEPARABLE, ENTANGLED, PPT_INCONCLUSIVE), _equal
    ),
    "separable": Expectation(("entanglement",), "separability", _boolean, _separable),
    "commutes": Expectation(("algebra",), "commutes", _booleans, _equal),
    "min_eigenvalue_at_least": Expectation(("reduction",), "min_eigenvalue", _number, _at_least),
}


# ---------------------------------------------------------------- parsing


def parse_scenario(obj: Any, source: str = "<scenario>") -> Scenario:
    """Validate a decoded JSON object into a Scenario whose state and analyses are ready calls."""
    _require(isinstance(obj, dict), f"{source}: scenario must be a JSON object")
    _require_finite(obj)

    name = obj.get("name")
    _require(
        isinstance(name, str) and bool(_NAME_RE.match(name)),
        "name: required identifier (letters, digits, '_', '-', '.')",
    )

    space_obj = obj.get("space")
    _require(isinstance(space_obj, dict), "space: required object")
    space = SpaceSpec(
        num_modes=_positive_int(space_obj, "modes", "space"),
        spin_dim=_positive_int(space_obj, "spin_levels", "space"),
        particles=_positive_int(space_obj, "particles", "space"),
    )
    _require(
        space.particles <= MAX_PARTICLES,
        f"space.particles: at most {MAX_PARTICLES} particles are supported",
    )

    parity = None
    if "parity" in obj:
        _require(obj["parity"] in ("fermi", "bose"), "parity: must be 'fermi' or 'bose'")
        parity = Parity(obj["parity"])

    regions_obj = obj.get("regions", [])
    _require(isinstance(regions_obj, list), "regions: expected an array")
    regions: dict[str, SpatialRegion] = {}
    for k, entry in enumerate(regions_obj):
        where = f"regions[{k}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        rname = entry.get("name")
        _require(isinstance(rname, str) and bool(_NAME_RE.match(rname)), f"{where}.name: bad name")
        _require(rname not in regions, f"{where}.name: duplicate region {rname!r}")
        modes = entry.get("modes")
        _require(
            isinstance(modes, list) and modes and all(is_integer(m) for m in modes),
            f"{where}.modes: expected a nonempty array of mode indices",
        )
        _require(
            all(0 <= m < space.num_modes for m in modes),
            f"{where}.modes: indices must lie in [0, {space.num_modes})",
        )
        regions[rname] = SpatialRegion(modes)

    seed = obj.get("seed")
    if seed is not None:
        _require(
            is_integer(seed) and 0 <= seed <= _MAX_SEED,
            "seed: expected a 64-bit unsigned integer",
        )

    tolerance = obj.get("tolerance")
    if tolerance is not None:
        tolerance = _finite_real(tolerance)
        _require(tolerance is not None and tolerance > 0, "tolerance: expected a positive number")

    # registrations and size budgets first, so no spec is decoded for a scenario too large to run
    state_spec = obj.get("state")
    if state_spec is not None:
        _require(isinstance(state_spec, dict), "state: expected an object")
        check_state = _registered(STATES, state_spec.get("kind"), "state.kind")
        _within_budget(space.total_dim, "the state vector")

    analyses_obj = obj.get("analyses")
    _require(isinstance(analyses_obj, list) and analyses_obj, "analyses: required nonempty array")
    listed: dict[str, tuple[str, dict, Analysis]] = {}
    for k, entry in enumerate(analyses_obj):
        where = f"analyses[{k}]"
        if isinstance(entry, str):
            entry = {"analysis": entry}
        _require(isinstance(entry, dict), f"{where}: expected a name or an object")
        analysis = _registered(ANALYSES, entry.get("analysis"), f"{where}.analysis")
        kind = entry["analysis"]
        if kind in listed:  # results are keyed by analysis name
            raise ScenarioValidationError(f"{where}.analysis: {kind!r} repeats {listed[kind][0]}")
        listed[kind] = (where, entry, analysis)
        if analysis.needs_state:
            _require(state_spec is not None, "state: required by the requested analyses")
        _within_budget(analysis.array_entries(space), f"the largest array of {analysis.title}")

    expectations_obj = obj.get("expectations", {})
    _require(isinstance(expectations_obj, dict), "expectations: expected an object")
    expectations = {}
    for key, value in expectations_obj.items():
        where = f"expectations.{key}"
        _require(key in EXPECTATIONS, f"{where}: unknown expectation")
        expectations[key] = EXPECTATIONS[key].value(value, where, space)

    scenario = Scenario(name, space, parity, regions, seed, tolerance, expectations, raw=obj)
    if state_spec is not None:
        scenario.build = check_state(scenario, state_spec)
    for kind, (where, entry, analysis) in listed.items():
        scenario.analyses[kind] = analysis.check(scenario, entry, where)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(obj, source=str(path))
