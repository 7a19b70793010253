"""Every registered state kind, run through the scenario runner and checked
against a direct call of the library functions it wraps; and every bundled or
per-kind scenario, executed with the parse-time checks disabled."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinsep import scenario
from spinsep.embedding import embed_mixed, embed_pure
from spinsep.reduction import reduced_spin_probe, trace_out_spatial
from spinsep.runner import execute_scenario, report_json
from spinsep.scenario import STATES, decode_matrix, parse_scenario
from spinsep.spatial import SpaceSpec, SpatialRegion, mode_wavefunction, wavefunction
from spinsep.states import (
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from spinsep.symmetry import Parity

UP = np.array([1, 0], dtype=complex)
DOWN = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
SINGLET = [0, 1, -1, 0]
TRIPLET = [0, 1, 1, 0]


def _scenario(name, space, regions, state, analysis, parity=None, seed=None):
    obj = {
        "name": name,
        "space": dict(zip(("modes", "spin_levels", "particles"), space)),
        "regions": [{"name": f"r{k}", "modes": modes} for k, modes in enumerate(regions)],
        "state": state,
        "analyses": [analysis],
    }
    if parity is not None:
        obj["parity"] = parity
    if seed is not None:
        obj["seed"] = seed
    return obj


def _reduction(vec, regions, spin_dim, num_modes):
    rho = np.outer(vec, vec.conj())
    regions = [SpatialRegion(modes) for modes in regions]
    return reduced_spin_probe(rho, regions, spin_dim, num_modes).matrix


def _spatial_trace(vec, space):
    return trace_out_spatial(np.outer(vec, vec.conj()), SpaceSpec(*space))


def _localized():
    space, regions = (3, 2, 3), [[0], [1], [2]]
    spins = [UP, DOWN, PLUS]
    state = {
        "kind": "localized",
        "factors": [
            {"mode": k, "spin": [[s.real, s.imag] for s in spin]} for k, spin in enumerate(spins)
        ],
    }
    vec, _ = n_particle_localized(
        [LocalizedFactor(mode_wavefunction(k, 3), spin) for k, spin in enumerate(spins)],
        Parity.FERMI,
    )
    obj = _scenario("kind_localized", space, regions, state, "reduction", parity="fermi")
    return obj, "antisymmetric", _reduction(vec, regions, 2, 3)


def _superposition():
    space, regions = (4, 2, 2), [[0, 1], [2, 3]]
    amps = [0, 0, 0.6, 0.8]
    state = {
        "kind": "superposition",
        "terms": [
            {"factor_1": {"mode": 0, "spin": [1, 0]}, "factor_2": {"mode": 2, "spin": [0, 1]}},
            {
                "factor_1": {"mode": 1, "spin": [0, 1]},
                "factor_2": {"amplitudes": amps, "support": "r1", "spin": [1, 0]},
                "weight": [0, 0.5],
            },
        ],
    }
    vec, _ = superposition_state(
        [
            SuperpositionTerm(
                LocalizedFactor(mode_wavefunction(0, 4), UP),
                LocalizedFactor(mode_wavefunction(2, 4), DOWN),
            ),
            SuperpositionTerm(
                LocalizedFactor(mode_wavefunction(1, 4), DOWN),
                LocalizedFactor(wavefunction(amps, SpatialRegion([2, 3])), UP),
                weight=0.5j,
            ),
        ],
        Parity.BOSE,
    )
    obj = _scenario("kind_superposition", space, regions, state, "reduction", parity="bose")
    return obj, "symmetric", _reduction(vec, regions, 2, 4)


def _shared_spatial():
    space = (2, 2, 2)
    state = {"kind": "shared_spatial", "mode_amplitudes": [0.6, 0.8], "spin": SINGLET}
    vec = subspace_state(SubspaceKind.SHARED_SPATIAL, [0.6, 0.8], SINGLET, SpaceSpec(*space)).vector
    obj = _scenario("kind_shared_spatial", space, [[0], [1]], state, "spatial_trace")
    return obj, "antisymmetric", _spatial_trace(vec, space)


def _symmetric_spatial():
    space, spatial = (2, 2, 2), [0, 1, 1, 0]
    state = {"kind": "symmetric_spatial", "spatial": spatial, "spin": SINGLET}
    vec = subspace_state(SubspaceKind.SYMMETRIC_SPATIAL, spatial, SINGLET, SpaceSpec(*space)).vector
    obj = _scenario("kind_symmetric_spatial", space, [[0], [1]], state, "spatial_trace")
    return obj, "antisymmetric", _spatial_trace(vec, space)


def _antisymmetric_spatial():
    space, spatial = (2, 2, 2), [0, 1, -1, 0]
    state = {"kind": "antisymmetric_spatial", "spatial": spatial, "spin": TRIPLET}
    vec = subspace_state(
        SubspaceKind.ANTISYMMETRIC_SPATIAL, spatial, TRIPLET, SpaceSpec(*space)
    ).vector
    obj = _scenario("kind_antisymmetric_spatial", space, [[0], [1]], state, "spatial_trace")
    return obj, "antisymmetric", _spatial_trace(vec, space)


def _embed_pure():
    space, regions = (4, 2, 2), [[0, 1], [2, 3]]
    target = np.array([0.6, 0, 0, 0.8j])
    state = {"kind": "embed_pure", "target": [[t.real, t.imag] for t in target]}
    vec, _ = embed_pure(target, [SpatialRegion([0, 1]), SpatialRegion([2, 3])], Parity.FERMI, 4)
    obj = _scenario("kind_embed_pure", space, regions, state, "reduction", parity="fermi")
    return obj, "antisymmetric", _reduction(vec, regions, 2, 4)


def _embed_mixed():
    space, regions = (4, 2, 2), [[0, 1], [2, 3]]
    target = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    target[0, 3] = target[3, 0] = 0.25
    state = {
        "kind": "embed_mixed",
        "target": [[[x.real, x.imag] for x in row] for row in target],
        "regions": ["r1", "r0"],
    }
    vec, _ = embed_mixed(target, [SpatialRegion([2, 3]), SpatialRegion([0, 1])], Parity.BOSE, 4)
    obj = _scenario("kind_embed_mixed", space, regions, state, "reduction", parity="bose")
    return obj, "symmetric", _reduction(vec, regions, 2, 4)


def _embed_random():
    space, regions, seed, rank = (4, 2, 2), [[0, 1], [2, 3]], 1234, 2
    # the documented draw: a seeded complex Gaussian Gram matrix of the given rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    sigma = g @ g.conj().T
    sigma = sigma / np.trace(sigma).real
    state = {"kind": "embed_random", "rank": rank}
    vec, _ = embed_mixed(sigma, [SpatialRegion([0, 1]), SpatialRegion([2, 3])], Parity.FERMI, 4)
    obj = _scenario(
        "kind_embed_random", space, regions, state, "reduction", parity="fermi", seed=seed
    )
    return obj, "antisymmetric", _reduction(vec, regions, 2, 4)


# state kind -> () -> (scenario object, expected statistics, reference matrix)
CASES = {
    "localized": _localized,
    "superposition": _superposition,
    "shared_spatial": _shared_spatial,
    "symmetric_spatial": _symmetric_spatial,
    "antisymmetric_spatial": _antisymmetric_spatial,
    "embed_pure": _embed_pure,
    "embed_mixed": _embed_mixed,
    "embed_random": _embed_random,
}


@pytest.mark.parametrize("kind", sorted(STATES))
def test_state_kind_runs_through_the_runner(kind):
    assert kind in CASES, f"no runner test case for state kind {kind!r}"
    obj, statistics, want = CASES[kind]()
    report = execute_scenario(parse_scenario(obj)).report
    assert report["construction"]["kind"] == kind
    assert report["construction"]["statistics"] == statistics
    (analysis,) = obj["analyses"]
    entry = report["results"][analysis]
    assert "error" not in entry
    encoded = entry["raw_matrix"] if analysis == "reduction" else entry["matrix"]
    got = decode_matrix(encoded, f"results.{analysis}")
    assert np.abs(got - want).max() <= 1e-12


def test_parsed_scenarios_execute_without_checks(monkeypatch):
    # parsing checks and decodes every field: execution builds and computes, and never checks
    bundled = Path(__file__).resolve().parents[1] / "src" / "spinsep" / "scenarios"
    objs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(bundled.rglob("*.json"))]
    objs += [case()[0] for case in CASES.values()]
    parsed = [parse_scenario(obj) for obj in objs]
    reports = [report_json(execute_scenario(s).report) for s in parsed]

    def refuse(*args, **kwargs):
        raise AssertionError("a scenario check ran after parsing")

    monkeypatch.setattr(scenario, "_require", refuse)
    monkeypatch.setattr(scenario, "decode_vector", refuse)
    monkeypatch.setattr(scenario.Scenario, "region", refuse)
    assert [report_json(execute_scenario(s).report) for s in parsed] == reports
    assert len(reports) == 9 + len(CASES)
