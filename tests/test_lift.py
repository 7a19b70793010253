import numpy as np
import pytest

from spinsep.lift import lift_one_particle, lift_product
from spinsep.linalg import frob, kron, projection_defect
from spinsep.spatial import SpatialRegion
from spinsep.symmetry import Parity, enumerate_sn, perm_unitary, symmetrizer

from oracles import is_exchangeable, lifted_product_by_loops, rand_matrix, spatial_projector

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_lift_one_particle_single_slot_is_the_operator():
    rng = np.random.default_rng(30)
    a = rand_matrix(rng, 3)
    assert np.array_equal(lift_one_particle(a, 1), a)


def test_lift_one_particle_identity():
    assert np.allclose(lift_one_particle(np.eye(3), 2), 2 * np.eye(9), atol=0)


def test_lift_one_particle_sigma_z_pair():
    # hand-expanded 4x4: sz x I + I x sz
    want = np.diag([2.0, 0.0, 0.0, -2.0])
    assert np.allclose(lift_one_particle(SIGMA_Z, 2), want, atol=0)


def test_lift_one_particle_is_linear():
    rng = np.random.default_rng(31)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    alpha = 0.7 - 0.2j
    got = lift_one_particle(alpha * a + b, 3)
    want = alpha * lift_one_particle(a, 3) + lift_one_particle(b, 3)
    assert np.allclose(got, want, atol=1e-13)


def test_lift_one_particle_commutes_with_permutations():
    rng = np.random.default_rng(32)
    lifted = lift_one_particle(rand_matrix(rng, 2), 3)
    for perm in enumerate_sn(3):
        w = perm_unitary(perm, 2)
        assert frob(w @ lifted - lifted @ w) < 1e-12


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_lift_one_particle_preserves_symmetry_sectors(parity):
    rng = np.random.default_rng(33)
    n, d = 3, 3
    proj = symmetrizer(n, d, parity)
    comp = np.eye(d**n) - proj
    for _ in range(5):
        lifted = lift_one_particle(rand_matrix(rng, d), n)
        assert frob(comp @ lifted @ proj) < 1e-12


def test_lift_product_small_cases():
    rng = np.random.default_rng(34)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    assert np.array_equal(lift_product([a]), a)
    assert np.allclose(lift_product([a, b]), kron(a, b) + kron(b, a), atol=0)
    assert np.allclose(lift_product([np.eye(2), np.eye(2)]), 2 * np.eye(4), atol=0)


def test_lift_product_matches_loop_oracle():
    rng = np.random.default_rng(35)
    ops = [rand_matrix(rng, 2) for _ in range(3)]
    assert np.allclose(lift_product(ops), lifted_product_by_loops(ops), atol=1e-12)


def test_lift_product_is_exchangeable():
    rng = np.random.default_rng(36)
    ops = [rand_matrix(rng, 2) for _ in range(3)]
    ok, defect = is_exchangeable(lift_product(ops), 3, 2)
    assert ok, defect


def test_lift_product_dimension_mismatch():
    with pytest.raises(ValueError):
        lift_product([np.eye(2), np.eye(3)])


def test_spatial_projector_disjoint_regions():
    regions = [SpatialRegion([0]), SpatialRegion([1])]
    proj = spatial_projector(regions, num_modes=2, spin_dim=1)
    assert projection_defect(proj) < 1e-12


def test_spatial_projector_overlapping_regions_not_projection():
    regions = [SpatialRegion([0]), SpatialRegion([0])]
    proj = spatial_projector(regions, num_modes=2, spin_dim=1)
    assert projection_defect(proj) > 0.5


def test_spatial_projector_single_region():
    proj = spatial_projector([SpatialRegion([0, 2])], num_modes=3, spin_dim=2)
    want = kron(np.diag([1.0, 0.0, 1.0]), np.eye(2))
    assert np.array_equal(proj, want)
    assert projection_defect(proj) < 1e-12


def test_spatial_projector_disjoint_with_spin():
    regions = [SpatialRegion([0, 1]), SpatialRegion([2, 3])]
    proj = spatial_projector(regions, num_modes=4, spin_dim=2)
    assert projection_defect(proj) < 1e-12
    ok, _ = is_exchangeable(proj, 2, 8)
    assert ok
