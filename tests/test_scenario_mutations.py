"""Scenario inputs run through ``run_scenario_file``: a five-particle reduction,
and a fixed sample of single-field mutations of the bundled scenarios, the
per-kind scenarios and that five-particle scenario.  Every mutation must end
in an exit code 0-4, never in a traceback or a ``RuntimeWarning``."""

import copy
import json
import random
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinsep.runner import EXIT_OK, run_scenario_file
from spinsep.scenario import decode_complex, decode_matrix

from test_scenario_kinds import CASES

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "src" / "spinsep" / "scenarios"
FIVE_SPINS = [[1, 0], [0, 1], [1, 1], [1, -1], [1, [0, 1]]]

# every value replaces one field in turn; DELETE drops it
DELETE = object()
VALUES = [None, True, "x", -1, 0, 0.5, [], {}, float("nan"), DELETE]
SAMPLE = 48  # mutations per source, except the costlier five-particle scenario
FIVE_SAMPLE = 8


def five_fermions():
    """Five fermions, one per single-mode region, with the probe reduction."""
    return {
        "name": "five_fermions",
        "space": {"modes": 5, "spin_levels": 2, "particles": 5},
        "parity": "fermi",
        "regions": [{"name": f"r{k}", "modes": [k]} for k in range(5)],
        "state": {
            "kind": "localized",
            "factors": [{"mode": k, "spin": spin} for k, spin in enumerate(FIVE_SPINS)],
        },
        "analyses": ["reduction"],
    }


def test_five_particle_reduction_scenario(tmp_path):
    path = tmp_path / "five_fermions.json"
    path.write_text(json.dumps(five_fermions()), encoding="utf-8")
    assert run_scenario_file(path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    report = json.loads((tmp_path / "five_fermions.report.json").read_text())
    raw = decode_matrix(report["results"]["reduction"]["raw_matrix"], "raw_matrix")
    want = np.ones((1, 1))
    for spin in FIVE_SPINS:
        xi = np.array([decode_complex(s, "spin") for s in spin])
        xi /= np.linalg.norm(xi)
        want = np.kron(want, np.outer(xi, xi.conj()))
    assert np.abs(raw - want).max() <= 1e-12


def _load(path):
    return lambda: json.loads(path.read_text(encoding="utf-8"))


# source name -> () -> scenario object
SOURCES = {p.stem: _load(p) for p in sorted((SCENARIOS_DIR / "claims").glob("*.json"))}
SOURCES["overlap_sweep"] = _load(SCENARIOS_DIR / "overlap_sweep.json")
SOURCES.update({f"kind_{kind}": lambda case=case: case()[0] for kind, case in CASES.items()})
SOURCES["five_fermions"] = five_fermions


def _fields(node, path=()):
    """Paths to every field below the root, depth first in document order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutated(obj, path, value):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@pytest.mark.parametrize("source", list(SOURCES))
def test_single_field_mutations_end_in_an_exit_code(tmp_path, source):
    obj = SOURCES[source]()
    mutations = [(path, value) for path in _fields(obj) for value in VALUES]
    size = FIVE_SAMPLE if source == "five_fermions" else SAMPLE
    sample = random.Random(source).sample(mutations, min(size, len(mutations)))
    path_in = tmp_path / "mutated.json"
    faults = []
    for path, value in sample:
        path_in.write_text(json.dumps(_mutated(obj, path, value)), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run_scenario_file(path_in, out_dir=tmp_path, echo=lambda *a: None)
            except Exception:
                code = traceback.format_exc().strip().splitlines()[-1]
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if code not in range(5) or runtime:
            shown = "delete" if value is DELETE else repr(value)
            faults.append(f"{'.'.join(map(str, path))} = {shown}: {code!r} {runtime}")
    assert not faults, "\n".join(faults)
