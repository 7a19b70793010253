import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinsep import runner, scenario
from spinsep.cli import main
from spinsep.runner import (
    EXIT_CONSTRUCTION,
    EXIT_EXPECTATION_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    execute_scenario,
    run_scenario_file,
    run_suite,
)
from spinsep.scenario import (
    ConstructionError,
    MAX_ARRAY_ENTRIES,
    MAX_PROBE_WORK,
    MAX_SWEEP_STEPS,
    ScenarioValidationError,
    decode_complex,
    decode_matrix,
    encode_matrix,
    load_scenario,
    parse_scenario,
)

CLAIMS_DIR = Path(__file__).resolve().parents[1] / "src" / "spinsep" / "scenarios" / "claims"
SWEEP_FILE = CLAIMS_DIR.parent / "overlap_sweep.json"


def _minimal_scenario(**overrides):
    obj = {
        "name": "minimal",
        "space": {"modes": 2, "spin_levels": 2, "particles": 2},
        "parity": "fermi",
        "regions": [
            {"name": "left", "modes": [0]},
            {"name": "right", "modes": [1]},
        ],
        "state": {
            "kind": "localized",
            "factors": [
                {"mode": 0, "spin": [1, 0]},
                {"mode": 1, "spin": [0, 1]},
            ],
        },
        "analyses": ["reduction"],
    }
    obj.update(overrides)
    return obj


def test_complex_and_matrix_round_trip():
    assert decode_complex(2, "x") == 2 + 0j
    assert decode_complex([1, -2], "x") == 1 - 2j
    with pytest.raises(ScenarioValidationError):
        decode_complex([1, 2, 3], "x")
    mat = np.array([[1 + 2j, 0], [0.5j, -1]])
    assert np.array_equal(decode_matrix(encode_matrix(mat), "m"), mat)
    for bad in (True, math.nan, math.inf, [0, -math.inf], [False, 1], 10**400):
        with pytest.raises(ScenarioValidationError, match="finite number"):
            decode_complex(bad, "x")


def test_encode_matrix_keeps_every_float_and_its_sign():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    mat[0, 0] = complex(-0.0, -0.0)
    encoded = encode_matrix(mat)
    assert repr(encoded) == repr([[[float(z.real), float(z.imag)] for z in row] for row in mat])
    assert decode_matrix(encoded, "m").tobytes() == mat.tobytes()


def test_parse_scenario_rejects_booleans_and_non_finite_numbers():
    with pytest.raises(ScenarioValidationError, match="regions\\[0\\].modes"):
        parse_scenario(
            _minimal_scenario(
                regions=[
                    {"name": "left", "modes": [True]},
                    {"name": "right", "modes": [1]},
                ]
            )
        )
    with pytest.raises(ScenarioValidationError, match="space.particles"):
        parse_scenario(_minimal_scenario(space={"modes": 2, "spin_levels": 2, "particles": True}))
    with pytest.raises(ScenarioValidationError, match="tolerance"):
        parse_scenario(_minimal_scenario(tolerance=math.inf))


def test_parse_scenario_diagnostics_name_offending_field():
    with pytest.raises(ScenarioValidationError, match="spin_levels"):
        parse_scenario(_minimal_scenario(space={"modes": 2, "particles": 2}))
    with pytest.raises(ScenarioValidationError, match="regions\\[1\\].modes"):
        parse_scenario(
            _minimal_scenario(
                regions=[
                    {"name": "left", "modes": [0]},
                    {"name": "right", "modes": [7]},
                ]
            )
        )
    with pytest.raises(ScenarioValidationError, match="analyses"):
        parse_scenario(_minimal_scenario(analyses=[]))
    with pytest.raises(ScenarioValidationError, match="expectations.bogus"):
        parse_scenario(_minimal_scenario(expectations={"bogus": 1}))
    # kind names that are not strings (unhashable ones included) are rejected, not looked up
    with pytest.raises(ScenarioValidationError, match="state.kind"):
        parse_scenario(_minimal_scenario(state={"kind": ["localized"]}))
    with pytest.raises(ScenarioValidationError, match="analyses\\[0\\].analysis"):
        parse_scenario(_minimal_scenario(analyses=[{"analysis": {}}]))


def _no_state(space, analyses):
    obj = _minimal_scenario(space=space, analyses=analyses)
    del obj["state"]
    return obj


def _nine_spin_levels(analysis):
    # a 9^4-dim spin space: every spin-matrix analysis allocates 9^8 entries
    return _minimal_scenario(
        space={"modes": 1, "spin_levels": 9, "particles": 4},
        regions=[{"name": f"r{k}", "modes": [0]} for k in range(4)],
        analyses=[analysis],
    )


@pytest.mark.parametrize(
    "obj, what",
    [
        # 30^6 amplitudes: construction would allocate 11.7 GB
        (_minimal_scenario(space={"modes": 10, "spin_levels": 3, "particles": 6}), "state vector"),
        (_nine_spin_levels("reduction"), "probe reduction"),
        (_nine_spin_levels("spatial_trace"), "spatial trace"),
        (_nine_spin_levels("entanglement"), "entanglement analysis"),
        # the sweep builds two-particle states whatever the scenario's particle count
        (_no_state({"modes": 5000, "spin_levels": 2, "particles": 1}, ["overlap_sweep"]), "sweep"),
        # commutators on the (200 * 200)-dim two-particle space
        (_no_state({"modes": 100, "spin_levels": 2, "particles": 2}, ["algebra"]), "algebra"),
    ],
)
def test_parse_scenario_rejects_arrays_above_the_size_budget(obj, what):
    with pytest.raises(ScenarioValidationError, match=what) as caught:
        parse_scenario(obj)
    assert str(caught.value).startswith("space: ")
    assert str(MAX_ARRAY_ENTRIES) in str(caught.value)


def test_parse_scenario_accepts_arrays_at_the_size_budget():
    # a 2^24-entry state vector is within the budget, one more mode is not
    at_limit = _minimal_scenario(
        space={"modes": 4096, "spin_levels": 1, "particles": 2},
        state={
            "kind": "localized",
            "factors": [{"mode": 0, "spin": [1]}, {"mode": 1, "spin": [1]}],
        },
        analyses=["spatial_trace"],
    )
    assert parse_scenario(at_limit).space.total_dim == MAX_ARRAY_ENTRIES
    at_limit["space"]["modes"] = 4097
    with pytest.raises(ScenarioValidationError, match="space: the state vector"):
        parse_scenario(at_limit)


def _probe_scenario(spin_levels, region_modes, num_modes=None):
    n = len(region_modes)
    spins = np.eye(spin_levels)[:n].tolist()
    return _minimal_scenario(
        space={"modes": num_modes or 1, "spin_levels": spin_levels, "particles": n},
        regions=[{"name": f"r{k}", "modes": list(m)} for k, m in enumerate(region_modes)],
        state={"kind": "localized", "factors": [{"mode": 0, "spin": s} for s in spins]},
    )


def test_a_probe_above_its_work_bound_fails_before_it_runs(tmp_path, monkeypatch):
    # four particles in one mode with 8 spin levels: every array fits the budget, but each
    # of the 24 sigma writes an 8^4-square spin matrix
    def refuse(*args, **kwargs):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(scenario, "reduced_spin_probe", refuse)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_probe_scenario(8, [[0]] * 4)), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [
        f"validation error: space: the probe reduction takes {24 * 8**8} multiply-adds over "
        f"these regions, above the limit of {MAX_PROBE_WORK}"
    ]
    assert not list(tmp_path.glob("*.report.json"))


def test_parse_scenario_accepts_a_probe_at_its_work_bound():
    # 2! sigma times 256 x 512 mode tuples times a 4^2-square spin product
    at_limit = _probe_scenario(4, [range(256), range(512)], num_modes=512)
    parse_scenario(at_limit)
    at_limit["regions"][0]["modes"].append(256)
    with pytest.raises(ScenarioValidationError, match="space: the probe reduction"):
        parse_scenario(at_limit)


def test_random_scenarios_require_seed():
    obj = _minimal_scenario(
        state={"kind": "embed_random", "rank": 2},
        analyses=["reduction"],
        space={"modes": 8, "spin_levels": 2, "particles": 2},
        regions=[
            {"name": "left", "modes": [0, 1, 2, 3]},
            {"name": "right", "modes": [4, 5, 6, 7]},
        ],
    )
    with pytest.raises(ScenarioValidationError, match="seed"):
        parse_scenario(obj)
    obj["seed"] = 42
    parse_scenario(obj)


def test_run_scenario_exit_codes(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run_scenario_file(bad_json, out_dir=tmp_path, echo=lambda *a: None) == EXIT_PARSE

    missing = tmp_path / "does_not_exist.json"
    assert run_scenario_file(missing, out_dir=tmp_path, echo=lambda *a: None) == EXIT_PARSE

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(_minimal_scenario(space={"modes": 2})), encoding="utf-8")
    assert run_scenario_file(invalid, out_dir=tmp_path, echo=lambda *a: None) == EXIT_VALIDATION

    # Fermi exclusion: identical factors
    excluded = _minimal_scenario()
    excluded["state"]["factors"][1] = {"mode": 0, "spin": [1, 0]}
    path = tmp_path / "excluded.json"
    path.write_text(json.dumps(excluded), encoding="utf-8")
    assert run_scenario_file(path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_CONSTRUCTION

    # a boolean mode index and a NaN spin entry fail validation, naming the field
    claim = json.loads((CLAIMS_DIR / "two_fermions_disjoint.json").read_text(encoding="utf-8"))
    for field, value in (("mode", True), ("spin", [math.nan, 0])):
        malformed = json.loads(json.dumps(claim))
        malformed["state"]["factors"][0][field] = value
        path = tmp_path / f"malformed_{field}.json"
        path.write_text(json.dumps(malformed), encoding="utf-8")
        lines = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_scenario_file(path, out_dir=tmp_path, echo=lines.append)
        assert code == EXIT_VALIDATION
        assert f"state.factors[0].{field}" in lines[0]

    # a region name that is not a string is an unknown region
    pairs_claim = json.loads((CLAIMS_DIR / "local_algebra_commutation.json").read_text())
    pairs_claim["analyses"][0]["pairs"][0][0] = ["left"]
    path = tmp_path / "malformed_pair.json"
    path.write_text(json.dumps(pairs_claim), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == ["validation error: unknown region ['left']"]
    with pytest.raises(ScenarioValidationError) as caught:
        parse_scenario(pairs_claim)
    assert str(caught.value) == "unknown region ['left']"

    # malformed expectation matrices fail validation too
    claim["expectations"]["reduced_matrix"] = [[math.nan] * 4] * 4
    path = tmp_path / "malformed_expectation.json"
    path.write_text(json.dumps(claim), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert "expectations.reduced_matrix" in lines[0]


@pytest.mark.parametrize(
    "file, key, value",
    [
        ("two_fermions_disjoint.json", "raw_trace", [1]),
        ("two_fermions_disjoint.json", "min_eigenvalue_at_least", None),
        ("two_fermions_disjoint.json", "commutes", 5),
        ("local_algebra_commutation.json", "commutes", 5),
        ("two_fermions_disjoint.json", "raw_trace", "x"),
        ("two_fermions_disjoint.json", "separable", "no"),
        ("two_fermions_disjoint.json", "statistics", 3),
        ("two_fermions_disjoint.json", "reduced_matrix", [[0.25]]),
    ],
)
def test_malformed_expectation_values_fail_validation(tmp_path, file, key, value):
    claim = json.loads((CLAIMS_DIR / file).read_text(encoding="utf-8"))
    claim["expectations"][key] = value
    suite = tmp_path / "suite"
    suite.mkdir()
    path = suite / file
    path.write_text(json.dumps(claim), encoding="utf-8")

    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [lines[0]] and lines[0].startswith(f"validation error: expectations.{key}:")

    lines = []
    assert run_suite(suite, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert f"ERROR  validation: expectations.{key}:" in lines[0]
    assert not list(tmp_path.glob("*.report.json"))


TRACE_TWO = [[0.5 if row == col else 0 for col in range(4)] for row in range(4)]
RANK_TWO = [[0.5 if row == col in (0, 3) else 0 for col in range(4)] for row in range(4)]


@pytest.mark.parametrize(
    "file, path, value, field",
    [
        ("antisymmetric_space_pair.json", ["state", "spatial"], [0, 1, -1], "state.spatial"),
        ("symmetric_space_pair.json", ["state", "spin"], [0, 1, 1, 0, 0], "state.spin"),
        ("shared_mode_pair.json", ["state", "mode_amplitudes"], [1, 0, 0], "state.mode_amplitudes"),
        ("shared_mode_pair.json", ["state", "spin"], [0, 1], "state.spin"),
        ("shared_mode_pair.json", ["state", "spins"], [[0, 1, -1, 0]], "state.spins"),
        (
            "two_fermions_disjoint.json",
            ["state"],
            {"kind": "embed_mixed", "target": TRACE_TWO},
            "state.target",
        ),
        (
            "two_fermions_disjoint.json",
            ["state"],
            {"kind": "embed_mixed", "target": [[1, 0], [0, 0]]},
            "state.target",
        ),
        (
            "two_fermions_disjoint.json",
            ["state"],
            {"kind": "embed_pure", "target": [0, 1, -1, 0], "regions": ["left", "left"]},
            "state.regions",
        ),
        (
            "two_fermions_disjoint.json",
            ["state"],
            {"kind": "embed_pure", "target": [0, 0, 0, 0]},
            "state.target",
        ),
        (
            "overlapping_pair_mixture.json",
            ["state", "terms", 1, "factor_2", "amplitudes"],
            [0.6, 0, 0, 0.8],
            "state.terms[1].factor_2.amplitudes",
        ),
        ("../overlap_sweep.json", ["analyses", 1, "spin_1"], [0, 0], "overlap_sweep.spin_1"),
        ("../overlap_sweep.json", ["analyses", 1, "spin_1"], [1, 0, 0], "overlap_sweep.spin_1"),
        ("../overlap_sweep.json", ["analyses", 1, "spin_2"], [0, 0, 1], "overlap_sweep.spin_2"),
        # both regions start at mode 0, so the sweep has no second mode to move into
        ("../overlap_sweep.json", ["regions", 1, "modes"], [0], "overlap_sweep.region_2"),
        (
            "../overlap_sweep.json",
            ["analyses", 1, "steps"],
            MAX_SWEEP_STEPS + 1,
            "overlap_sweep.steps",
        ),
        # a report echoes its scenario, so a non-finite number in any field is refused
        ("two_fermions_disjoint.json", ["note"], math.nan, "note"),
        ("../overlap_sweep.json", ["analyses", 1, "steps"], -math.inf, "analyses[1].steps"),
    ],
)
def test_malformed_state_specs_fail_validation(tmp_path, file, path, value, field):
    # each fault is in the scenario, not in the construction, so parsing finds it and the run
    # exits 3 naming the field
    scenario = json.loads((CLAIMS_DIR / file).read_text(encoding="utf-8"))
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(scenario), encoding="utf-8")
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_scenario_file(malformed, out_dir=tmp_path, echo=lines.append)
    assert code == EXIT_VALIDATION
    assert lines == [lines[0]] and lines[0].startswith(f"validation error: {field}:")
    with pytest.raises(ScenarioValidationError) as caught:
        parse_scenario(scenario)
    assert lines == [f"validation error: {caught.value}"]


@pytest.mark.parametrize(
    "state, message",
    [
        ({"kind": "embed_pure", "target": [0, 1, -1, 0]}, "state.target: wrong dimension"),
        ({"kind": "embed_mixed", "target": RANK_TWO}, "state.target: wrong dimension"),
        (
            {"kind": "embed_random", "rank": 2},
            "state.regions: expected one region name per particle",
        ),
    ],
    ids=["embed_pure", "embed_mixed", "embed_random"],
)
def test_three_particle_embeddings_reject_two_particle_specs(tmp_path, state, message):
    # a two-spin target, or two regions, cannot place three particles: a fault of the spec
    obj = _minimal_scenario(
        space={"modes": 4, "spin_levels": 2, "particles": 3},
        regions=[{"name": "left", "modes": [0, 1]}, {"name": "right", "modes": [2, 3]}],
        state=state,
        analyses=["spatial_trace"],
        seed=7,
    )
    path = tmp_path / "three.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [f"validation error: {message}"]


GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2)
W = np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3)


@pytest.mark.parametrize(
    "kind, parity, target, statistics",
    [
        ("embed_pure", "fermi", GHZ, "antisymmetric"),
        ("embed_mixed", "bose", np.outer(W, W), "symmetric"),
    ],
    ids=["ghz", "w"],
)
def test_three_particles_reach_ghz_and_w(tmp_path, kind, parity, target, statistics):
    # one single-mode region per particle: the reduction over them is the three-spin target
    want = target if target.ndim == 2 else np.outer(target, target)
    obj = _minimal_scenario(
        name="three",
        space={"modes": 3, "spin_levels": 2, "particles": 3},
        parity=parity,
        regions=[{"name": f"r{k}", "modes": [k]} for k in range(3)],
        state={"kind": kind, "target": target.tolist()},
        expectations={"reduced_matrix": encode_matrix(want), "statistics": statistics},
    )
    path = tmp_path / "three.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run_scenario_file(path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    report = json.loads((tmp_path / "three.report.json").read_text(encoding="utf-8"))
    assert report["construction"]["statistics"] == statistics
    got = decode_matrix(report["results"]["reduction"]["normalized"], "normalized")
    assert np.abs(got - want).max() <= 1e-12


UP, DOWN = [1, 0], [0, 1]
EXTRA = {"mode": 2, "spin": UP}


@pytest.mark.parametrize("parity, statistics", [("fermi", "antisymmetric"), ("bose", "symmetric")])
@pytest.mark.parametrize(
    "spins, target, want_negativity",
    [
        ([[UP, UP, UP], [DOWN, DOWN, DOWN]], GHZ, 0.5),
        ([[UP, UP, DOWN], [UP, DOWN, UP], [DOWN, UP, UP]], W, math.sqrt(2) / 3),
    ],
    ids=["ghz", "w"],
)
def test_three_particle_superpositions_reach_ghz_and_w(
    tmp_path, parity, statistics, spins, target, want_negativity
):
    # claim 2 at n = 3 by a second route: one product of localized factors per basis
    # term of the target, one single-mode region per particle
    terms = [{f"factor_{k + 1}": {"mode": k, "spin": s} for k, s in enumerate(t)} for t in spins]
    obj = _minimal_scenario(
        name="three",
        space={"modes": 3, "spin_levels": 2, "particles": 3},
        parity=parity,
        regions=[{"name": f"r{k}", "modes": [k]} for k in range(3)],
        state={"kind": "superposition", "terms": terms},
        analyses=["reduction", "entanglement"],
    )
    path = tmp_path / "three.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run_scenario_file(path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    report = json.loads((tmp_path / "three.report.json").read_text(encoding="utf-8"))
    assert report["construction"]["statistics"] == statistics
    assert abs(report["construction"]["raw_norm"] - math.sqrt(len(terms) * 6)) <= 1e-12
    got = decode_matrix(report["results"]["reduction"]["normalized"], "normalized")
    assert np.abs(got - np.outer(target, target)).max() <= 1e-12
    assert abs(report["results"]["entanglement"]["negativity"] - want_negativity) <= 1e-12
    if len(terms) == 2:
        embedded = execute_scenario(
            parse_scenario(dict(obj, state={"kind": "embed_pure", "target": target.tolist()}))
        ).report
        reached = decode_matrix(embedded["results"]["reduction"]["normalized"], "normalized")
        assert np.abs(got - reached).max() <= 1e-12


@pytest.mark.parametrize(
    "particles, edit, message",
    [
        (2, {"factor_3": EXTRA}, "state.terms[1].factor_3: the space has 2 particles"),
        (2, {"factor_0": EXTRA}, "state.terms[1].factor_0: the space has 2 particles"),
        (2, {"factor_2": None}, "state.terms[1].factor_2: expected an object"),
        (3, {}, "state.terms[0].factor_3: expected an object"),
    ],
    ids=["extra_factor", "factor_0", "missing_factor", "too_few_factors"],
)
def test_superposition_term_keys_follow_the_particle_count(tmp_path, particles, edit, message):
    # every term holds exactly factor_1 ... factor_n, and a factor_* key beyond them is refused
    terms = [{"factor_1": {"mode": 0, "spin": UP}, "factor_2": {"mode": 1, "spin": DOWN}}] * 2
    terms[1] = {k: v for k, v in {**terms[1], **edit}.items() if v is not None}
    obj = _minimal_scenario(
        space={"modes": 3, "spin_levels": 2, "particles": particles},
        state={"kind": "superposition", "terms": terms},
    )
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [f"validation error: {message}"]


@pytest.mark.parametrize(
    "state",
    [{"kind": "embed_random", "rank": 1}, {"kind": "embed_mixed", "target": [[1]]}],
    ids=["embed_random", "embed_mixed"],
)
def test_embedding_targets_above_the_size_budget_fail_before_decoding(
    tmp_path, monkeypatch, state
):
    # the state (216,000 entries) and the sweep (160,000) fit, but sigma has 20^6 entries
    def refuse(*args, **kwargs):
        raise AssertionError("the target was decoded or drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(scenario, "embedding_rank", refuse)
    monkeypatch.setattr(scenario, "decode_matrix", refuse)
    obj = _minimal_scenario(
        space={"modes": 3, "spin_levels": 20, "particles": 3},
        regions=[{"name": f"r{k}", "modes": [k]} for k in range(3)],
        state=state,
        analyses=["overlap_sweep"],
        seed=7,
    )
    path = tmp_path / "large.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [
        "validation error: space: the embedding target has 64000000 entries, "
        f"above the limit of {MAX_ARRAY_ENTRIES}"
    ]


def test_a_repeated_analysis_fails_validation(tmp_path):
    # results are keyed by analysis name, so a second reduction would replace the first
    analyses = [
        {"analysis": "reduction", "regions": ["left", "right"]},
        "spatial_trace",
        {"analysis": "reduction", "regions": ["right", "left"]},
    ]
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario(analyses=analyses)), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == ["validation error: analyses[2].analysis: 'reduction' repeats analyses[0]"]
    assert not (tmp_path / "minimal.report.json").exists()


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("below", [False, True])
def test_cli_unusable_out_dir_is_a_usage_error(tmp_path, capsys, command, below):
    # a file, or a path below a file, cannot hold reports: one line and exit 2, before any run
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "out" if below else blocker
    target = str(SWEEP_FILE) if command == "run" else "claims"
    with pytest.raises(SystemExit) as excinfo:
        main([command, target, "--out-dir", str(out_dir)])
    assert excinfo.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("spinsep: error: argument --out-dir: ")
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize(
    "state, field",
    [
        ({"kind": "embed_random", "rank": 2}, "state.rank"),
        ({"kind": "embed_mixed", "target": RANK_TWO}, "state.regions"),
    ],
)
def test_embedding_regions_smaller_than_the_rank_fail_validation(tmp_path, state, field):
    # one mode per region cannot hold a rank-2 target: a fault of the spec, found before drawing
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(_minimal_scenario(state=state, seed=7)), encoding="utf-8")
    lines = []
    assert run_scenario_file(malformed, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [f"validation error: {field}: region 'left' has 1 modes but the target has rank 2"]


def test_run_scenario_writes_report_sidecar(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario()), encoding="utf-8")
    lines = []
    code = run_scenario_file(path, out_dir=tmp_path, echo=lines.append)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "minimal.report.json").read_text())
    assert report["name"] == "minimal"
    assert report["results"]["reduction"]["trace"] == pytest.approx(1.0, abs=1e-12)
    assert any("timings" in line for line in lines)  # text summary carries timings
    assert "timings" not in json.dumps(report)  # the JSON artifact does not


def test_non_finite_report_value_is_a_construction_error(tmp_path, monkeypatch):
    # a NaN result has no strict JSON form: the run exits 4 with a message and writes no report
    execute = runner.execute_scenario

    def with_nan(scenario):
        outcome = execute(scenario)
        outcome.report["results"]["reduction"]["trace"] = math.nan
        return outcome

    monkeypatch.setattr(runner, "execute_scenario", with_nan)
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario()), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_CONSTRUCTION
    assert lines == [lines[0]] and lines[0].startswith("construction error:")
    assert not (tmp_path / "minimal.report.json").exists()


def test_cli_json_format(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario()), encoding="utf-8")
    code = main(["run", str(path), "--format", "json", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["name"] == "minimal"


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_cli_tolerance_must_be_finite_and_positive(tmp_path, capsys, command, value):
    # the flag follows the rule of a scenario's own tolerance: refused before anything runs
    target = str(SWEEP_FILE) if command == "run" else "claims"
    with pytest.raises(SystemExit) as excinfo:
        main([command, target, "--tolerance", value, "--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "argument --tolerance: expected a finite positive number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["algebra", ["x"], {"a": 1}, 5])
def test_entanglement_source_must_name_a_reduction(tmp_path, source):
    analyses = ["reduction", "algebra", {"analysis": "entanglement", "source": source}]
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario(analyses=analyses)), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [
        "validation error: analyses[2].source: expected one of ['reduction', 'spatial_trace']"
    ]


@pytest.mark.parametrize(
    "analyses, k, needed",
    [
        ([{"analysis": "entanglement", "source": "reduction"}, "reduction"], 0, "'reduction'"),
        (["spatial_trace", {"analysis": "entanglement", "source": "reduction"}], 1, "'reduction'"),
        (
            [{"analysis": "entanglement", "source": "spatial_trace"}, "spatial_trace"],
            0,
            "'spatial_trace'",
        ),
        (["entanglement", "reduction", "spatial_trace"], 0, "'reduction' or 'spatial_trace'"),
        (["algebra", "entanglement"], 1, "'reduction' or 'spatial_trace'"),
    ],
)
def test_entanglement_source_must_be_listed_before_it(tmp_path, analyses, k, needed):
    # the analyses run in the listed order, so a later source has no result yet
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(_minimal_scenario(analyses=analyses)), encoding="utf-8")
    lines = []
    assert run_scenario_file(path, out_dir=tmp_path, echo=lines.append) == EXIT_VALIDATION
    assert lines == [
        f"validation error: analyses[{k}].source: "
        f"the entanglement analysis needs {needed} listed before it"
    ]
    assert not (tmp_path / "minimal.report.json").exists()


@pytest.mark.parametrize(
    "analyses, source",
    [
        (["spatial_trace", "reduction", "entanglement"], "reduction"),
        (["spatial_trace", "entanglement", "reduction"], "spatial_trace"),
        (["reduction", {"analysis": "entanglement", "source": "reduction"}], "reduction"),
        (
            ["reduction", "spatial_trace", {"analysis": "entanglement", "source": "spatial_trace"}],
            "spatial_trace",
        ),
    ],
)
def test_entanglement_reads_the_earliest_listed_source(analyses, source, monkeypatch):
    report = execute_scenario(parse_scenario(_minimal_scenario(analyses=analyses))).report
    assert report["results"]["entanglement"]["source"] == source

    # a source that fails at run time still leaves an error entry, not a validation error
    def fail(*args, **kwargs):
        raise ConstructionError("no reduction")

    monkeypatch.setattr("spinsep.scenario.reduced_spin_probe", fail)
    monkeypatch.setattr("spinsep.scenario.trace_out_spatial", fail)
    report = execute_scenario(parse_scenario(_minimal_scenario(analyses=analyses))).report
    assert report["results"]["entanglement"] == {
        "error": f"entanglement analysis needs a successful {source!r} analysis"
    }


def test_cli_suite_has_no_format_option():
    with pytest.raises(SystemExit) as excinfo:
        main(["suite", "claims", "--format", "json"])
    assert excinfo.value.code == 2


def test_bundled_claims_suite_passes(tmp_path):
    lines = []
    code = run_suite(CLAIMS_DIR, out_dir=tmp_path, echo=lines.append)
    assert code == EXIT_OK
    assert any("8/8" in line for line in lines)
    assert len(list(tmp_path.glob("*.report.json"))) == 8


def test_suite_reports_are_byte_identical_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_suite(CLAIMS_DIR, out_dir=out_a, echo=lambda *a: None) == EXIT_OK
    assert run_suite(CLAIMS_DIR, out_dir=out_b, echo=lambda *a: None) == EXIT_OK
    for report_a in sorted(out_a.glob("*.report.json")):
        report_b = out_b / report_a.name
        assert report_a.read_bytes() == report_b.read_bytes()


def test_suite_empty_directory(tmp_path):
    assert run_suite(tmp_path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_VALIDATION
    assert (
        run_suite(tmp_path / "missing", out_dir=tmp_path, echo=lambda *a: None)
        == EXIT_VALIDATION
    )


def test_suite_flags_single_wrong_expectation(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for src in CLAIMS_DIR.glob("*.json"):
        (suite / src.name).write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    # sabotage one expectation
    target = suite / "two_fermions_disjoint.json"
    obj = json.loads(target.read_text())
    obj["expectations"]["negativity"] = 0.25
    target.write_text(json.dumps(obj), encoding="utf-8")

    lines = []
    code = run_suite(suite, out_dir=tmp_path / "out", echo=lines.append)
    assert code == EXIT_EXPECTATION_FAILED
    joined = "\n".join(lines)
    assert "two_fermions_disjoint  FAIL" in joined.replace("   ", "  ") or "FAIL" in joined
    assert sum("PASS" in line for line in lines) == 7


def test_suite_rejects_a_repeated_scenario_name(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    obj = json.loads((CLAIMS_DIR / "two_fermions_disjoint.json").read_text(encoding="utf-8"))
    (suite / "a.json").write_text(json.dumps(obj), encoding="utf-8")
    obj["description"] = "same name, another file"
    (suite / "b.json").write_text(json.dumps(obj), encoding="utf-8")

    lines = []
    code = run_suite(suite, out_dir=tmp_path / "out", echo=lines.append)
    assert code == EXIT_VALIDATION
    assert lines[1].split() == [
        "two_fermions_disjoint",
        "ERROR",
        "validation:",
        *"name 'two_fermions_disjoint' is already used by a.json".split(),
    ]
    assert lines[-1] == "1/2 scenarios passed"
    # the report written is a.json's, not overwritten by b.json's
    (report,) = (tmp_path / "out").iterdir()
    written = json.loads(report.read_text(encoding="utf-8"))
    assert written["scenario"]["description"] != obj["description"]


def test_suite_requires_expectations(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "min.json").write_text(json.dumps(_minimal_scenario()), encoding="utf-8")
    assert run_suite(suite, out_dir=tmp_path, echo=lambda *a: None) == EXIT_VALIDATION


def test_overlap_sweep_scenario(tmp_path):
    code = run_scenario_file(SWEEP_FILE, out_dir=tmp_path, echo=lambda *a: None)
    assert code == EXIT_OK
    csv_path = tmp_path / "overlap_sweep_sweep.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "overlap,trace,min_eig,negativity,entropy"
    assert len(lines) == 22  # header + 21 steps
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-10
    last = lines[-1].split(",")
    assert abs(float(last[0]) - 1.0) < 1e-12  # fully overlapping endpoint
    assert float(last[1]) < 1e-10  # joint localization probability collapses
    assert last[3] == "nan"

    report = json.loads((tmp_path / "overlap_sweep.report.json").read_text())
    rows = report["results"]["overlap_sweep"]["rows"]
    assert len(rows) == 21
    # monotone decrease of the localization probability along the sweep
    traces = [row[1] for row in rows]
    assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))


def test_embed_random_scenario_is_seeded_and_deterministic(tmp_path):
    obj = {
        "name": "embed_random_check",
        "space": {"modes": 8, "spin_levels": 2, "particles": 2},
        "parity": "bose",
        "regions": [
            {"name": "left", "modes": [0, 1, 2, 3]},
            {"name": "right", "modes": [4, 5, 6, 7]},
        ],
        "seed": 20240817,
        "state": {"kind": "embed_random", "rank": 3},
        "analyses": ["reduction", "entanglement"],
    }
    path = tmp_path / "embed_random_check.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_scenario_file(path, out_dir=out_a, echo=lambda *a: None) == EXIT_OK
    assert run_scenario_file(path, out_dir=out_b, echo=lambda *a: None) == EXIT_OK
    report_a = (out_a / "embed_random_check.report.json").read_bytes()
    report_b = (out_b / "embed_random_check.report.json").read_bytes()
    assert report_a == report_b
    report = json.loads(report_a)
    assert report["results"]["reduction"]["trace"] == pytest.approx(1.0, abs=1e-10)


def test_load_scenario_bundled_file_parses():
    scenario = load_scenario(SWEEP_FILE)
    assert scenario.name == "overlap_sweep"
    assert scenario.space.num_modes == 2
    assert math.isclose(scenario.tolerance or 1e-10, 1e-10)
