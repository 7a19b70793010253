import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spinsep.lift import lift_product
from spinsep.linalg import frob, kron, matrix_unit
from spinsep.reduction import (
    classify_symmetry,
    cluster_expectation,
    reduced_spin_probe,
    reduction_report,
    trace_out_spatial,
)
from spinsep.runner import execute_scenario
from spinsep.scenario import decode_matrix, parse_scenario
from spinsep.spatial import SpaceSpec, SpatialRegion, mode_wavefunction, projector, wavefunction
from spinsep.states import (
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from spinsep.symmetry import ANTISYMMETRIC, MAX_PARTICLES, NO_SYMMETRY, SYMMETRIC, Parity

from oracles import rand_matrix, rand_unit, reduced_spin_closed_form, spatial_projector


def _factor(mode, num_modes, spin):
    return LocalizedFactor(mode_wavefunction(mode, num_modes), np.asarray(spin, complex))


def _region_factor(rng, modes, num_modes, spin_dim):
    amps = np.zeros(num_modes, complex)
    amps[list(modes)] = rand_unit(rng, len(modes))
    return LocalizedFactor(
        wavefunction(amps, SpatialRegion(modes)), rand_unit(rng, spin_dim)
    )


def _dyad(v):
    return np.outer(v, np.conj(v))


def test_probe_entries_match_materialized_lift():
    # spot-check the einsum path against literally building the lifted probe
    rng = np.random.default_rng(50)
    d_l, d_h = 2, 2
    regions = [SpatialRegion([0]), SpatialRegion([1])]
    psi = rand_unit(rng, (d_l * d_h) ** 2)
    rho = _dyad(psi)
    raw = reduced_spin_probe(rho, regions, d_h)
    projs = [projector(r, d_l) for r in regions]
    for ket in itertools.product(range(d_h), repeat=2):
        for bra in itertools.product(range(d_h), repeat=2):
            lifted = lift_product(
                [kron(projs[k], matrix_unit(d_h, ket[k], bra[k])) for k in range(2)]
            )
            want = np.trace(rho @ lifted)
            row = bra[0] * d_h + bra[1]
            col = ket[0] * d_h + ket[1]
            assert abs(raw.matrix[row, col] - want) < 1e-12


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
@pytest.mark.parametrize("d_h", [2, 3])
def test_localized_pair_reduces_to_spin_product(parity, d_h):
    rng = np.random.default_rng(51 + d_h)
    regions = [SpatialRegion([0, 1]), SpatialRegion([2, 3])]
    for _ in range(5):
        a = _region_factor(rng, [0, 1], 4, d_h)
        b = _region_factor(rng, [2, 3], 4, d_h)
        vec, _ = n_particle_localized([a, b], parity)
        raw = reduced_spin_probe(_dyad(vec), regions, d_h)
        target = kron(_dyad(a.spin), _dyad(b.spin))
        assert frob(raw.matrix - target) < 1e-12
        assert abs(raw.trace - 1.0) < 1e-12
        assert raw.hermiticity_defect < 1e-12
        assert raw.min_eigenvalue > -1e-12


def test_parity_independence_entrywise():
    rng = np.random.default_rng(52)
    regions = [SpatialRegion([0]), SpatialRegion([1])]
    for _ in range(5):
        a = _region_factor(rng, [0], 2, 2)
        b = _region_factor(rng, [1], 2, 2)
        fermi, _ = n_particle_localized([a, b], Parity.FERMI)
        bose, _ = n_particle_localized([a, b], Parity.BOSE)
        raw_f = reduced_spin_probe(_dyad(fermi), regions, 2)
        raw_b = reduced_spin_probe(_dyad(bose), regions, 2)
        assert frob(raw_f.matrix - raw_b.matrix) < 1e-12


def test_probe_is_linear_in_rho():
    rng = np.random.default_rng(53)
    regions = [SpatialRegion([0]), SpatialRegion([1])]
    rho1, rho2 = rand_matrix(rng, 16), rand_matrix(rng, 16)
    alpha, beta = 0.3 - 1.1j, 0.7 + 0.2j
    combined = reduced_spin_probe(alpha * rho1 + beta * rho2, regions, 2).matrix
    separate = (
        alpha * reduced_spin_probe(rho1, regions, 2).matrix
        + beta * reduced_spin_probe(rho2, regions, 2).matrix
    )
    assert frob(combined - separate) < 1e-11


def test_trace_equals_localization_probability():
    rng = np.random.default_rng(54)
    regions = [SpatialRegion([0, 1]), SpatialRegion([2])]
    a = _region_factor(rng, [0, 1], 3, 2)
    # second factor only partially inside its region
    amps = np.zeros(3, complex)
    amps[[1, 2]] = [0.6, 0.8]
    b = LocalizedFactor(wavefunction(amps), rand_unit(rng, 2))
    vec, _ = n_particle_localized([a, b], Parity.FERMI)
    raw = reduced_spin_probe(_dyad(vec), regions, 2)
    big_proj = spatial_projector(regions, 3, 2)
    expected = np.vdot(vec, big_proj @ vec).real
    assert abs(raw.trace - expected) < 1e-12


def test_overlapping_regions_report_diagnostics_not_errors():
    # both particles in mode 0, probed twice with the same region: trace 2
    a = _factor(0, 2, [1, 0])
    vec, _ = n_particle_localized([a, a], Parity.BOSE)
    regions = [SpatialRegion([0]), SpatialRegion([0])]
    raw = reduced_spin_probe(_dyad(vec), regions, 2)
    assert abs(raw.trace - 2.0) < 1e-12
    assert raw.hermiticity_defect < 1e-12


def test_probe_particle_cap():
    # the probe's only cap is MAX_PARTICLES, that of the permutation sum
    above = MAX_PARTICLES + 1
    with pytest.raises(ValueError):
        reduced_spin_probe(np.eye(2**above), [SpatialRegion([0])] * above, 2)
    raw = reduced_spin_probe(np.eye(32), [SpatialRegion([0])] * 5, 2)
    assert np.array_equal(raw.matrix, 120 * np.eye(32))


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_three_particle_reduction_is_product(parity):
    rng = np.random.default_rng(55)
    regions = [SpatialRegion([k]) for k in range(3)]
    factors = [_region_factor(rng, [k], 3, 2) for k in range(3)]
    vec, _ = n_particle_localized(factors, parity)
    raw = reduced_spin_probe(_dyad(vec), regions, 2)
    target = kron(*[_dyad(f.spin) for f in factors])
    assert frob(raw.matrix - target) < 1e-11
    assert abs(raw.trace - 1.0) < 1e-11


def test_six_localized_particles_reduce_to_the_spin_product_through_the_runner():
    # claim 1 at the particle cap: six particles in six single-mode regions, spin 1/2
    # (dim 12^6 = 2,985,984); the reduction is the product of the spin dyads for both parities
    rng = np.random.default_rng(66)
    spins = [rand_unit(rng, 2) for _ in range(6)]
    target = kron(*[_dyad(spin) for spin in spins])
    raws = {}
    for parity, statistics in (("fermi", ANTISYMMETRIC), ("bose", SYMMETRIC)):
        obj = {
            "name": f"six_{parity}",
            "space": {"modes": 6, "spin_levels": 2, "particles": 6},
            "parity": parity,
            "regions": [{"name": f"r{k}", "modes": [k]} for k in range(6)],
            "state": {
                "kind": "localized",
                "factors": [
                    {"mode": k, "spin": [[z.real, z.imag] for z in spin]}
                    for k, spin in enumerate(spins)
                ],
            },
            "analyses": ["reduction"],
        }
        report = execute_scenario(parse_scenario(obj)).report
        assert report["construction"]["statistics"] == statistics
        raws[parity] = decode_matrix(report["results"]["reduction"]["raw_matrix"], "raw_matrix")
        assert np.abs(raws[parity] - target).max() <= 1e-12
    assert np.abs(raws["fermi"] - raws["bose"]).max() <= 1e-12


def test_closed_form_single_term():
    a = _factor(0, 2, [1, 0])
    b = _factor(1, 2, [0, 1])
    got = reduced_spin_closed_form([SuperpositionTerm([a, b])])
    want = kron(_dyad(a.spin), _dyad(b.spin))
    assert frob(got - want) < 1e-12


def test_closed_form_two_term_hand_gram():
    # <f1|f2> = 1 (same mode), <g1|g2> = 0: no cross terms survive
    xi1, eta1 = np.array([1, 0], complex), np.array([1, 0], complex)
    xi2, eta2 = np.array([0, 1], complex), np.array([0, 1], complex)
    terms = [
        SuperpositionTerm([_factor(0, 4, xi1), _factor(2, 4, eta1)]),
        SuperpositionTerm([_factor(0, 4, xi2), _factor(3, 4, eta2)]),
    ]
    got = reduced_spin_closed_form(terms)
    want = 0.5 * (kron(_dyad(xi1), _dyad(eta1)) + kron(_dyad(xi2), _dyad(eta2)))
    assert frob(got - want) < 1e-12


def test_closed_form_unnormalized_bookkeeping():
    # orthonormal families: the 1/N convention and the normalized reduction agree
    terms = [
        SuperpositionTerm([_factor(0, 4, [1, 0]), _factor(2, 4, [1, 0])]),
        SuperpositionTerm([_factor(1, 4, [0, 1]), _factor(3, 4, [0, 1])]),
    ]
    a = reduced_spin_closed_form(terms, normalized=True)
    b = reduced_spin_closed_form(terms, normalized=False)
    assert frob(a - b) < 1e-12


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_closed_form_matches_probe_on_random_superpositions(parity):
    rng = np.random.default_rng(56)
    d_l, d_h = 5, 2
    r1, r2 = SpatialRegion([0, 1]), SpatialRegion([2, 3, 4])
    for _ in range(20):
        n_terms = rng.integers(1, 4)
        terms = []
        for _ in range(n_terms):
            w = complex(rng.standard_normal(), rng.standard_normal())
            terms.append(
                SuperpositionTerm(
                    [
                        _region_factor(rng, [0, 1], d_l, d_h),
                        _region_factor(rng, [2, 3, 4], d_l, d_h),
                    ],
                    weight=w,
                )
            )
        vec, _ = superposition_state(terms, parity)
        probe = reduced_spin_probe(_dyad(vec), [r1, r2], d_h)
        closed = reduced_spin_closed_form(terms)
        assert frob(probe.matrix - closed) < 1e-10


def test_closed_form_entangled_mixture_is_npt():
    from spinsep.entanglement import negativity

    # orthonormal f's and g's, spin pairs chosen so the mixture is entangled
    bell_plus = [
        SuperpositionTerm([_factor(0, 4, [1, 0]), _factor(2, 4, [1, 0])], weight=1.0),
        SuperpositionTerm([_factor(0, 4, [0, 1]), _factor(2, 4, [0, 1])], weight=1.0),
    ]
    rho = reduced_spin_closed_form(bell_plus)
    assert negativity(rho, 2, 2) > 0.49


def test_trace_out_spatial_product_state():
    spec = SpaceSpec(num_modes=1, spin_dim=2, particles=2)
    rng = np.random.default_rng(57)
    s1, s2 = rand_unit(rng, 2), rand_unit(rng, 2)
    vec = kron([1.0], s1, [1.0], s2)
    got = trace_out_spatial(_dyad(vec), spec)
    assert frob(got - kron(_dyad(s1), _dyad(s2))) < 1e-12


def test_trace_out_spatial_subspace_states():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    singlet = np.array([0, 1, -1, 0], complex)
    shared = subspace_state(SubspaceKind.SHARED_SPATIAL, [1, 1], singlet, spec)
    reduced = trace_out_spatial(_dyad(shared.vector), spec)
    assert classify_symmetry(reduced, 2, 2).label == ANTISYMMETRIC
    assert abs(np.trace(reduced).real - 1.0) < 1e-12

    flipped = subspace_state(
        SubspaceKind.ANTISYMMETRIC_SPATIAL, [0, 1, -1, 0], [1, 0, 0, 0], spec
    )
    reduced = trace_out_spatial(_dyad(flipped.vector), spec)
    assert classify_symmetry(reduced, 2, 2).label == SYMMETRIC


def test_classify_symmetry_examples():
    singlet = np.array([0, 1, -1, 0], complex) / math.sqrt(2)
    assert classify_symmetry(_dyad(singlet), 2, 2).label == ANTISYMMETRIC
    e00 = np.zeros(4, complex)
    e00[0] = 1
    assert classify_symmetry(_dyad(e00), 2, 2).label == SYMMETRIC
    e01 = np.zeros(4, complex)
    e01[1] = 1
    verdict = classify_symmetry(_dyad(e01), 2, 2)
    assert verdict.label == NO_SYMMETRY
    assert verdict.antisymmetric_defect > 0.1 and verdict.symmetric_defect > 0.1


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_cluster_expectation_disjoint(parity):
    rng = np.random.default_rng(58)
    for _ in range(5):
        a = _region_factor(rng, [0], 2, 2)
        b = _region_factor(rng, [1], 2, 2)
        vec, _ = n_particle_localized([a, b], parity)
        op = rand_matrix(rng, 2)
        got = cluster_expectation(vec, SpatialRegion([0]), op, SpatialRegion([1]))
        want = complex(np.vdot(a.spin, op @ a.spin))
        assert abs(got - want) < 1e-12
        # identity observable: localization probability
        got = cluster_expectation(vec, SpatialRegion([0]), np.eye(2), SpatialRegion([1]))
        assert abs(got - 1.0) < 1e-12


def test_cluster_expectation_overlap_deviates():
    rng = np.random.default_rng(59)
    a = _factor(0, 2, [1, 0])
    b = LocalizedFactor(mode_wavefunction(0, 2), np.array([0, 1], complex))
    vec, _ = n_particle_localized([a, b], Parity.FERMI)
    op = rand_matrix(rng, 2)
    got = cluster_expectation(vec, SpatialRegion([0]), op, SpatialRegion([0]))
    # independent oracle: assemble the lifted observable explicitly
    p = projector(SpatialRegion([0]), 2)
    lifted = lift_product([kron(p, op), kron(p, np.eye(2))])
    want = complex(np.vdot(vec, lifted @ vec))
    assert abs(got - want) < 1e-12
    assert abs(got - np.vdot(a.spin, op @ a.spin)) > 0.05


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
@pytest.mark.parametrize("d_l, d_h", [(3, 2), (5, 2), (4, 3)])
def test_cluster_expectation_matches_the_lifted_product(parity, d_l, d_h):
    # tr(a . tr_2 R) over the probe against <psi|lift(P x a, Q x 1)|psi> formed densely, on
    # random (anti)symmetric psi and overlapping multi-mode regions
    rng = np.random.default_rng([60, d_l, d_h])
    for region_a, region_b in ([0, 1], [1, 2]), ([0], [0, 2]), (list(range(d_l)), [d_l - 1]):
        a, b = SpatialRegion(region_a), SpatialRegion(region_b)
        psi = rand_unit(rng, (d_l * d_h) ** 2).reshape((d_l * d_h,) * 2)
        psi = (psi + parity.phase((1, 0)) * psi.T).reshape(-1)
        psi /= np.linalg.norm(psi)
        op = rand_matrix(rng, d_h)
        got = cluster_expectation(psi, a, op, b, d_l)
        p, q = projector(a, d_l), projector(b, d_l)
        lifted = lift_product([kron(p, op), kron(q, np.eye(d_h))])
        assert abs(got - np.vdot(psi, lifted @ psi)) <= 1e-12


def test_reduction_report_gating():
    # healthy case
    a = _factor(0, 2, [1, 0])
    b = _factor(1, 2, [0, 1])
    vec, _ = n_particle_localized([a, b], Parity.FERMI)
    raw = reduced_spin_probe(_dyad(vec), [SpatialRegion([0]), SpatialRegion([1])], 2)
    rep = reduction_report(raw, 2, 2)
    assert rep.valid_state and rep.normalized is not None
    assert abs(np.trace(rep.normalized).real - 1.0) < 1e-12

    # zero-trace case: probing where the state is not
    raw = reduced_spin_probe(_dyad(vec), [SpatialRegion([1]), SpatialRegion([1])], 2)
    rep = reduction_report(raw, 2, 2)
    assert rep.normalized is None and not rep.valid_state
    assert rep.symmetry_class is None


def test_probe_of_a_density_matrix_allocates_no_array_of_its_size():
    # five particles, two modes, two spin levels: rho has 1024^2 entries (16.8 MB); both
    # reductions read its mode-diagonal spin blocks through a view, and its finiteness
    # check allocates no mask of its size (1 MB of booleans)
    rng = np.random.default_rng(61)
    psi = rand_unit(rng, 4**5)
    rho = np.outer(psi, psi.conj())
    for modes in ([[k % 2] for k in range(5)], [[0, 1]] * 5):
        tracemalloc.start()
        try:
            reduced_spin_probe(rho, [SpatialRegion(m) for m in modes], 2, 2)
            trace_out_spatial(rho, SpaceSpec(2, 2, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rho.size, f"traced peak {peak / 1e6:.2f} MB"


def test_pure_state_scenario_never_forms_the_density_matrix():
    # four fermions in four of four modes with two spin levels: the state has 4096
    # amplitudes, its dense density matrix 4096^2 entries (268 MB), which no analysis
    # of a pure state may allocate
    spins = [[1, 0], [0, 1], [1, 1], [1, -1]]
    obj = {
        "name": "dim_4096",
        "space": {"modes": 4, "spin_levels": 2, "particles": 4},
        "parity": "fermi",
        "regions": [{"name": f"r{k}", "modes": [k]} for k in range(4)],
        "state": {
            "kind": "localized",
            "factors": [{"mode": k, "spin": spin} for k, spin in enumerate(spins)],
        },
        "analyses": ["reduction", "spatial_trace", "entanglement"],
    }
    scenario = parse_scenario(obj)
    tracemalloc.start()
    try:
        report = execute_scenario(scenario).report
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["construction"]["dim"] == 4096
    assert report["construction"]["statistics"] == ANTISYMMETRIC
    assert all("error" not in entry for entry in report["results"].values())
    assert abs(report["results"]["reduction"]["trace"] - 1.0) < 1e-12
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"
