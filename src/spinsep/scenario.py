"""Declarative scenario files: parsing, validation, and JSON value helpers.

A scenario is a JSON object with the keys

* ``name``: identifier used for report and CSV file names,
* ``space``: ``{"modes": d_l, "spin_levels": d_h, "particles": n}``,
* ``parity``: ``"fermi"`` or ``"bose"`` (required when a state is built),
* ``regions``: ordered list of ``{"name": ..., "modes": [...]}``,
* ``state``: optional state specification (see ``STATE_KINDS``),
* ``analyses``: nonempty list of analysis names or option objects,
* ``seed``: 64-bit integer, required iff the scenario draws random data,
* ``tolerance``: optional override for expectation comparisons,
* ``expectations``: optional values the suite runner checks reports against.

Complex numbers are written as two-element ``[re, im]`` arrays (plain numbers
are accepted as reals); matrices are row-major nested arrays of entries.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .spatial import SpaceSpec, SpatialRegion
from .symmetry import Parity


class ScenarioError(Exception):
    pass


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


STATE_KINDS = {
    "localized",
    "superposition",
    "shared_spatial",
    "symmetric_spatial",
    "antisymmetric_spatial",
    "embed_pure",
    "embed_mixed",
    "embed_random",
}

ANALYSIS_KINDS = {"reduction", "spatial_trace", "entanglement", "algebra", "overlap_sweep"}

RANDOM_STATE_KINDS = {"embed_random"}

# subspace kinds fix their own projections; the rest need exchange statistics
PARITY_STATE_KINDS = {"localized", "superposition", "embed_pure", "embed_mixed", "embed_random"}

EXPECTATION_KEYS = {
    "raw_trace",
    "reduced_matrix",
    "spatial_trace_matrix",
    "symmetry_class",
    "statistics",
    "raw_norm",
    "negativity",
    "entropy_bits",
    "purity",
    "separability",
    "separable",
    "commutes",
    "min_eigenvalue_at_least",
}

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_MAX_SEED = 2**64 - 1


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


def encode_complex(value: complex) -> list[float]:
    return [float(np.real(value)), float(np.imag(value))]


def encode_matrix(mat: np.ndarray) -> list[list[list[float]]]:
    mat = np.asarray(mat, dtype=complex)
    return [[encode_complex(entry) for entry in row] for row in mat]


@dataclass
class Scenario:
    name: str
    space: SpaceSpec
    parity: Parity | None
    region_names: list[str]
    regions: dict[str, SpatialRegion]
    state_spec: dict | None
    analyses: list[dict]
    seed: int | None
    tolerance: float | None
    expectations: dict
    raw: dict = field(repr=False)

    def region(self, name: str) -> SpatialRegion:
        try:
            return self.regions[name]
        except KeyError:
            raise ScenarioValidationError(f"unknown region {name!r}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioValidationError(message)


def _positive_int(obj, key: str, where: str) -> int:
    value = obj.get(key)
    _require(
        is_integer(value) and value >= 1,
        f"{where}.{key}: expected a positive integer",
    )
    return value


def parse_scenario(obj: Any, source: str = "<scenario>") -> Scenario:
    """Validate a decoded JSON object and build a Scenario."""
    _require(isinstance(obj, dict), f"{source}: scenario must be a JSON object")

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
    _require(space.particles <= 6, "space.particles: at most 6 particles are supported")

    parity = None
    if "parity" in obj:
        _require(obj["parity"] in ("fermi", "bose"), "parity: must be 'fermi' or 'bose'")
        parity = Parity(obj["parity"])

    regions_obj = obj.get("regions", [])
    _require(isinstance(regions_obj, list), "regions: expected an array")
    region_names: list[str] = []
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
        region_names.append(rname)
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
        _require(
            tolerance is not None and tolerance > 0, "tolerance: expected a positive number"
        )

    state_spec = obj.get("state")
    if state_spec is not None:
        _require(isinstance(state_spec, dict), "state: expected an object")
        kind = state_spec.get("kind")
        _require(kind in STATE_KINDS, f"state.kind: expected one of {sorted(STATE_KINDS)}")
        if kind in RANDOM_STATE_KINDS:
            _require(seed is not None, "seed: required for randomized scenarios")
        if kind in PARITY_STATE_KINDS:
            _require(parity is not None, "parity: required to build this state")

    analyses_obj = obj.get("analyses")
    _require(
        isinstance(analyses_obj, list) and analyses_obj,
        "analyses: required nonempty array",
    )
    analyses: list[dict] = []
    for k, entry in enumerate(analyses_obj):
        where = f"analyses[{k}]"
        if isinstance(entry, str):
            entry = {"analysis": entry}
        _require(isinstance(entry, dict), f"{where}: expected a name or an object")
        _require(
            entry.get("analysis") in ANALYSIS_KINDS,
            f"{where}.analysis: expected one of {sorted(ANALYSIS_KINDS)}",
        )
        analyses.append(entry)

    needs_state = any(
        a["analysis"] in ("reduction", "spatial_trace", "entanglement") for a in analyses
    )
    if needs_state:
        _require(state_spec is not None, "state: required by the requested analyses")
    if any(a["analysis"] == "reduction" for a in analyses):
        _require(
            len(region_names) >= space.particles,
            "regions: the reduction analysis needs one region per particle",
        )
        _require(
            space.particles <= 4, "space.particles: the probe reduction supports at most 4"
        )
    if any(a["analysis"] in ("algebra", "overlap_sweep") for a in analyses):
        _require(len(region_names) >= 2, "regions: need at least two named regions")
    if any(a["analysis"] == "overlap_sweep" for a in analyses):
        _require(parity is not None, "parity: required by the overlap sweep")

    expectations = obj.get("expectations", {})
    _require(isinstance(expectations, dict), "expectations: expected an object")
    for key in expectations:
        _require(key in EXPECTATION_KEYS, f"expectations.{key}: unknown expectation")

    return Scenario(
        name=name,
        space=space,
        parity=parity,
        region_names=region_names,
        regions=regions,
        state_spec=state_spec,
        analyses=analyses,
        seed=seed,
        tolerance=tolerance,
        expectations=expectations,
        raw=obj,
    )


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
