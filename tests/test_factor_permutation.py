"""The factor-permutation kernels against the formulations they replace: the
reduction of a density matrix or of a state vector against the matrix-unit
probe and the per-permutation einsum, the spatial trace of a density matrix
against the loop oracle and of a state vector against that of its density
matrix, ``symmetrize``, ``compress`` and the exchange check against the dense
symmetrizers, and the closed-form algebra sweep against the dense generators."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep.algebra import bipartition_check, hermitian_basis
from spinsep.linalg import frob
from spinsep.reduction import cluster_expectation, reduced_spin_probe, trace_out_spatial
from spinsep.runner import EXIT_OK, run_scenario_file, run_suite
from spinsep.spatial import SpaceSpec, SpatialRegion
from spinsep.symmetry import (
    ANTISYMMETRIC,
    NO_SYMMETRY,
    SYMMETRIC,
    Parity,
    compress,
    exchange_character,
    symmetrize,
)

from oracles import (
    bipartition_by_dense_generators,
    local_generator,
    partial_trace_by_loops,
    rand_density,
    rand_matrix,
    rand_unit,
    reduced_spin_by_einsum,
    reduced_spin_by_matrix_units,
    symmetrizer,
)

KERNEL_TOL = 1e-12
# reference builders moved out of the package into the test oracles
MOVED_BUILDERS = (
    "perm_unitary",
    "symmetrizer",
    "perm_compose",
    "perm_inverse",
    "local_generator",
    "reduced_spin_closed_form",
)
SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "src" / "spinsep" / "scenarios"


@st.composite
def reduction_cases(draw):
    n = draw(st.integers(1, 3))
    # keep the oracle's spin_dim^(2n) n! contractions cheap for three particles
    d_l = draw(st.integers(1, 3) if n < 3 else st.integers(2, 3))
    d_h = draw(st.integers(1, 3) if n < 3 else st.integers(1, 2))
    if d_l >= n and draw(st.booleans()):
        order = draw(st.permutations(range(d_l)))
        modes = [[order[k]] for k in range(n)]
    else:
        modes = [
            sorted(draw(st.sets(st.integers(0, d_l - 1), min_size=1))) for _ in range(n)
        ]
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, 3))
    # the (anti)symmetrizer case: particles, factor dimension, parity, matrix columns
    projection = (
        draw(st.integers(1, 4)),
        draw(st.integers(1, 3)),
        draw(st.sampled_from(list(Parity))),
        draw(st.integers(1, 3)),
    )
    return n, d_l, d_h, modes, seed, rank, projection


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(reduction_cases())
def test_reduction_matches_matrix_unit_probe(case):
    n, d_l, d_h, modes, seed, rank, projection = case
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, (d_l * d_h) ** n, rank)
    regions = [SpatialRegion(m) for m in modes]
    got = reduced_spin_probe(rho, regions, d_h, d_l).matrix
    want = reduced_spin_by_matrix_units(rho, regions, d_h, d_l)
    assert np.max(np.abs(got - want)) <= KERNEL_TOL
    spec = SpaceSpec(d_l, d_h, n)
    want = partial_trace_by_loops(rho, spec.factor_dims, range(1, 2 * n, 2))
    assert np.max(np.abs(trace_out_spatial(rho, spec) - want)) <= KERNEL_TOL

    # symmetrize and compress against the dense projection Pi
    n, dim, parity, cols = projection
    pi = symmetrizer(n, dim, parity)
    vec, mat, op = rand_unit(rng, dim**n), rand_matrix(rng, dim**n, cols), rand_matrix(rng, dim**n)
    assert np.max(np.abs(symmetrize(vec, n, dim, parity) - pi @ vec)) <= KERNEL_TOL
    assert np.max(np.abs(symmetrize(mat, n, dim, parity) - pi @ mat)) <= KERNEL_TOL
    assert np.max(np.abs(compress(op, n, dim, parity) - pi @ op @ pi)) <= KERNEL_TOL

    # both kernels on a pure state vector against its dense density matrix
    n = len(regions)  # the projection case above rebinds n
    psi = rand_unit(rng, (d_l * d_h) ** n)
    rho = np.outer(psi, psi.conj())
    got = reduced_spin_probe(psi, regions, d_h, d_l).matrix
    want = reduced_spin_by_matrix_units(rho, regions, d_h, d_l)
    assert np.max(np.abs(got - want)) <= KERNEL_TOL
    spec = SpaceSpec(d_l, d_h, n)
    assert np.max(np.abs(trace_out_spatial(psi, spec) - trace_out_spatial(rho, spec))) <= KERNEL_TOL


def test_reduction_matches_matrix_unit_probe_four_particles():
    rng = np.random.default_rng(404)
    d_l, d_h = 2, 2
    rho = rand_density(rng, (d_l * d_h) ** 4, 3)
    regions = [SpatialRegion([0]), SpatialRegion([1]), SpatialRegion([0, 1]), SpatialRegion([1])]
    got = reduced_spin_probe(rho, regions, d_h, d_l).matrix
    want = reduced_spin_by_matrix_units(rho, regions, d_h, d_l)
    assert np.max(np.abs(got - want)) <= KERNEL_TOL


@pytest.mark.parametrize("overlapping", [False, True], ids=["single_mode", "overlapping"])
@pytest.mark.parametrize("n, d_l, d_h", [(5, 2, 2), (6, 3, 1)])
def test_mode_block_kernel_matches_einsum_oracle(n, d_l, d_h, overlapping):
    # n regions in d_l < n modes: single-mode regions, or multi-mode regions that share modes
    rng = np.random.default_rng(10 * n + d_l)
    if overlapping:
        modes = [[0, 1], [1], list(range(d_l)), [0], [d_l - 1, 0], [1, 2]][:n]
    else:
        modes = [[k % d_l] for k in range(n)]
    regions = [SpatialRegion(m) for m in modes]
    psi = rand_unit(rng, (d_l * d_h) ** n)
    for state in (psi, np.outer(psi, psi.conj())):
        got = reduced_spin_probe(state, regions, d_h, d_l).matrix
        want = reduced_spin_by_einsum(state, regions, d_h, d_l)
        assert np.max(np.abs(got - want)) <= KERNEL_TOL


def _label_by_dense_symmetrizers(vec, n, dim, tol=1e-10):
    if frob(symmetrizer(n, dim, Parity.FERMI) @ vec - vec) <= tol:
        return ANTISYMMETRIC
    if frob(symmetrizer(n, dim, Parity.BOSE) @ vec - vec) <= tol:
        return SYMMETRIC
    return NO_SYMMETRY


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exchange_character_matches_dense_symmetrizers(n, dim):
    rng = np.random.default_rng(10 * n + dim)
    total = dim**n
    candidates = {"generic": rand_unit(rng, total)}
    for parity in Parity:
        projected = symmetrizer(n, dim, parity) @ rand_unit(rng, total)
        if frob(projected) > 1e-8:
            candidates[parity.value] = projected / frob(projected)
    if n > 1:
        # symmetric in the first two factors only
        pair = symmetrizer(2, dim, Parity.BOSE) @ rand_unit(rng, dim**2)
        candidates["partial"] = np.kron(pair, rand_unit(rng, dim ** (n - 2)))
    for name, vec in candidates.items():
        assert exchange_character(vec, n, dim) == _label_by_dense_symmetrizers(vec, n, dim), name
    if n > 1:
        assert exchange_character(candidates["generic"], n, dim) == NO_SYMMETRY
        assert exchange_character(candidates["bose"], n, dim) == SYMMETRIC
    if n <= dim:
        assert exchange_character(candidates["fermi"], n, dim) == ANTISYMMETRIC


def _rotated_projections(rng, d_l, relation):
    """P = U D1 U^dag and Q = U D2 U^dag for a random unitary U and 0/1
    diagonals D1, D2 whose supports are disjoint, share one index, or agree."""
    u, _ = np.linalg.qr(rand_matrix(rng, d_l))
    half = d_l // 2
    first = range(half)
    second = {
        "disjoint": range(half, d_l),
        "overlapping": range(half - 1, d_l),
        "identical": first,
    }[relation]

    def projection(support):
        return u @ np.diag(np.isin(np.arange(d_l), support).astype(complex)) @ u.conj().T

    return projection(first), projection(second)


def _dense_commutator_norm(p, q, d_h, pair, projected):
    ops = dict(hermitian_basis(d_h))
    g1, g2 = local_generator(1, ops[pair[0]], p, q), local_generator(2, ops[pair[1]], p, q)
    comm = g1 @ g2 - g2 @ g1
    if projected:
        pi = symmetrizer(2, p.shape[0] * d_h, Parity.FERMI)
        comm = pi @ comm @ pi
    return frob(comm)


@pytest.mark.parametrize("relation", ["disjoint", "overlapping", "identical"])
@pytest.mark.parametrize("d_l, d_h", [(2, 2), (4, 3), (6, 3)])
def test_bipartition_check_matches_dense_generators(d_l, d_h, relation):
    rng = np.random.default_rng(100 * d_l + 10 * d_h + len(relation))
    p, q = _rotated_projections(rng, d_l, relation)
    got = bipartition_check(p, q, d_h)
    want = bipartition_by_dense_generators(p, q, d_h)
    assert got.commutes == want.commutes == (relation == "disjoint")
    assert abs(got.max_commutator_norm - want.max_commutator_norm) <= KERNEL_TOL
    assert abs(got.projected_max_norm - want.projected_max_norm) <= KERNEL_TOL
    sweep = [(a, b) for a, _ in hermitian_basis(d_h) for b, _ in hermitian_basis(d_h)]
    for got_pair, want_pair, want_norm, projected in (
        (got.witness, want.witness, want.max_commutator_norm, False),
        (got.projected_witness, want.projected_witness, want.projected_max_norm, True),
    ):
        if got_pair == want_pair:
            continue
        # Relabelling the spin levels ties several pairs at the maximum, and the dense
        # sweep keeps whichever rounding favours; the closed form reports the first.
        assert got_pair is not None and want_pair is not None
        assert sweep.index(got_pair) < sweep.index(want_pair)
        assert abs(_dense_commutator_norm(p, q, d_h, got_pair, projected) - want_norm) <= KERNEL_TOL


def test_runtime_paths_use_no_dense_reference_builders(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense reference builder ran on a runtime path")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "spinsep" or name.startswith("spinsep."):
            # the dense builders live with the test oracles, not in the package
            assert not [builder for builder in MOVED_BUILDERS if hasattr(module, builder)], name
            if hasattr(module, "lift_product"):
                monkeypatch.setattr(module, "lift_product", refuse)
                patched += 1
    assert patched >= 2  # the package and the defining module
    claims, sweep = SCENARIOS_DIR / "claims", SCENARIOS_DIR / "overlap_sweep.json"
    assert run_suite(claims, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    assert run_scenario_file(sweep, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    # the remote-cluster expectation reads the probe, not the lifted product
    psi = rand_unit(np.random.default_rng(3), 36)
    cluster_expectation(psi, SpatialRegion([0, 1]), np.diag([1.0, -1.0]), SpatialRegion([1, 2]))
