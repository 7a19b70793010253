import numpy as np
import pytest

from spinsep.algebra import (
    bipartition_check,
    commutator_expansion,
    hermitian_basis,
)
from spinsep.lift import lift_product
from spinsep.linalg import frob, kron
from spinsep.spatial import SpatialRegion, projector

from oracles import local_generator, rand_matrix, rand_projection

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_hermitian_basis_spans_and_is_hermitian():
    for dim in (1, 2, 3):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        stacked = np.array([mat.ravel() for _, mat in basis])
        assert np.linalg.matrix_rank(stacked) == dim * dim
        for _, mat in basis:
            assert frob(mat - mat.conj().T) < 1e-14


def test_local_generator_identity_reduces_to_spatial_projector():
    from oracles import spatial_projector

    p = projector(SpatialRegion([0]), 2)
    q = projector(SpatialRegion([1]), 2)
    got = local_generator(1, np.eye(2), p, q)
    want = spatial_projector([SpatialRegion([0]), SpatialRegion([1])], 2, 2)
    assert np.allclose(got, want, atol=0)


def test_local_generator_explicit_terms():
    # term-by-term kron oracle for side 1 with a = sigma_z
    p = projector(SpatialRegion([0]), 2)
    q = projector(SpatialRegion([1]), 2)
    got = local_generator(1, SIGMA_Z, p, q)
    want = kron(p, SIGMA_Z, q, np.eye(2)) + kron(q, np.eye(2), p, SIGMA_Z)
    assert np.allclose(got, want, atol=0)
    assert got.shape == (16, 16)


def test_local_generator_side_symmetry():
    rng = np.random.default_rng(80)
    p = rand_projection(rng, 3, 1)
    q = rand_projection(rng, 3, 2)
    a = rand_matrix(rng, 2)
    # side 2 is side 1 with the slots exchanged and the observable moved
    side2 = local_generator(2, a, p, q)
    manual = lift_product([kron(p, np.eye(2)), kron(q, a)])
    assert np.allclose(side2, manual, atol=0)


def test_bipartition_disjoint_commutes():
    p = projector(SpatialRegion([0]), 2)
    q = projector(SpatialRegion([1]), 2)
    verdict = bipartition_check(p, q, 2)
    assert verdict.commutes
    assert verdict.max_commutator_norm <= 1e-12
    assert verdict.witness is None


def test_bipartition_overlap_fails_with_witness():
    p = projector(SpatialRegion([0]), 2)
    verdict = bipartition_check(p, p, 2)
    assert not verdict.commutes
    assert verdict.max_commutator_norm > 1e-3
    assert verdict.witness is not None
    # the witness pair regenerates the reported maximum
    labels = dict(hermitian_basis(2))
    a = labels[verdict.witness[0]]
    b = labels[verdict.witness[1]]
    g1, g2 = local_generator(1, a, p, p), local_generator(2, b, p, p)
    assert abs(frob(g1 @ g2 - g2 @ g1) - verdict.max_commutator_norm) < 1e-12


def test_bipartition_trivial_spin_always_commutes():
    p = projector(SpatialRegion([0]), 2)
    verdict = bipartition_check(p, p, 1)
    assert verdict.commutes


def test_bipartition_rejects_non_projections():
    with pytest.raises(ValueError):
        bipartition_check(np.eye(2) * 2.0, np.eye(2), 2)


def test_bipartition_symmetric_under_pair_and_side_swap():
    rng = np.random.default_rng(81)
    p = rand_projection(rng, 3, 1)
    q = rand_projection(rng, 3, 2)
    forward = bipartition_check(p, q, 2)
    backward = bipartition_check(q, p, 2)
    assert abs(forward.max_commutator_norm - backward.max_commutator_norm) < 1e-10
    assert forward.commutes == backward.commutes


def test_commutator_expansion_matches_direct():
    rng = np.random.default_rng(82)
    for _ in range(5):
        p = rand_projection(rng, 3, rng.integers(1, 3))
        q = rand_projection(rng, 3, rng.integers(1, 3))
        a1, a2 = rand_matrix(rng, 2), rand_matrix(rng, 2)
        g1 = local_generator(1, a1, p, q)
        g2 = local_generator(2, a2, p, q)
        direct = g1 @ g2 - g2 @ g1
        assert frob(direct - commutator_expansion(p, q, a1, a2)) < 1e-12


def test_basis_sweep_covers_arbitrary_pairs():
    # when the basis sweep says commuting, random non-basis pairs agree
    rng = np.random.default_rng(83)
    p = projector(SpatialRegion([0, 2]), 4)
    q = projector(SpatialRegion([1, 3]), 4)
    verdict = bipartition_check(p, q, 2)
    assert verdict.commutes
    for _ in range(50):
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        g1, g2 = local_generator(1, a, p, q), local_generator(2, b, p, q)
        assert frob(g1 @ g2 - g2 @ g1) < 1e-12


def test_projected_commutator_reported_separately():
    # shared single mode with two spin levels: the compressed commutator
    # vanishes on the antisymmetric subspace even though the full one does not
    p = projector(SpatialRegion([0]), 2)
    verdict = bipartition_check(p, p, 2)
    assert verdict.max_commutator_norm > 1.0
    assert verdict.projected_max_norm < 1e-12
    # with three spin levels the compressed commutator survives
    verdict = bipartition_check(p, p, 3)
    assert verdict.projected_max_norm > 1e-3
