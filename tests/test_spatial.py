import numpy as np
import pytest

from spinsep.spatial import (
    SpaceSpec,
    SpatialRegion,
    Wavefunction,
    mode_wavefunction,
    projector,
    wavefunction,
)

from oracles import overlap


def test_space_spec_dimensions():
    spec = SpaceSpec(num_modes=4, spin_dim=2, particles=3)
    assert spec.one_particle_dim == 8
    assert spec.total_dim == 512
    with pytest.raises(ValueError):
        SpaceSpec(0, 2, 2)


def test_region_validation():
    region = SpatialRegion([1, 0, 1])
    assert region.sorted_modes() == [0, 1]
    with pytest.raises(ValueError):
        SpatialRegion([])
    with pytest.raises(ValueError):
        SpatialRegion([-1])
    with pytest.raises(ValueError):
        region.require_within(1)


def test_projector_examples():
    assert np.array_equal(projector(SpatialRegion([0]), 2), np.diag([1.0, 0.0]))
    assert np.array_equal(projector(SpatialRegion([0, 1, 2]), 3), np.eye(3))


def test_disjoint_projectors_annihilate():
    p = projector(SpatialRegion([0, 1]), 4)
    q = projector(SpatialRegion([2, 3]), 4)
    assert np.array_equal(p @ q, np.zeros((4, 4)))


def test_projector_products_follow_intersections():
    r1 = SpatialRegion([0, 1, 3])
    r2 = SpatialRegion([1, 2, 3])
    product = projector(r1, 5) @ projector(r2, 5)
    expected = np.diag([1.0 if m in r1.modes & r2.modes else 0.0 for m in range(5)]).astype(complex)
    assert np.array_equal(product, expected)


def test_projector_fixes_supported_wavefunction():
    region = SpatialRegion([1, 2])
    w = wavefunction([0, 1, 1j, 0], support=region)
    fixed = projector(region, 4) @ w.amplitudes
    assert np.linalg.norm(fixed - w.amplitudes) < 1e-12


def test_wavefunction_invariants():
    with pytest.raises(ValueError):
        Wavefunction(np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(ValueError):
        Wavefunction(np.array([1.0, 0.0]), support=SpatialRegion([1]))  # leaks
    with pytest.raises(ValueError):
        wavefunction([0.0, 0.0])


def test_mode_wavefunction():
    w = mode_wavefunction(0, 3)
    assert np.array_equal(w.amplitudes, [1, 0, 0])
    assert w.support.modes == frozenset([0])
    with pytest.raises(ValueError):
        mode_wavefunction(3, 3)
    assert overlap(mode_wavefunction(0, 3), mode_wavefunction(2, 3)) == 0


def test_overlap_examples():
    f = wavefunction([1, 1])
    g = wavefunction([1, -1])
    assert abs(overlap(f, f) - 1) < 1e-12
    assert abs(overlap(f, g)) < 1e-12
    # conjugate-linear in the first argument
    h = wavefunction([1j, 0])
    e0 = wavefunction([1, 0])
    assert abs(overlap(h, e0) - (-1j)) < 1e-12
    with pytest.raises(ValueError):
        overlap(f, wavefunction([1, 0, 0]))


def test_overlap_disjoint_supports_vanish():
    f = wavefunction([1, 1j, 0, 0], support=SpatialRegion([0, 1]))
    g = wavefunction([0, 0, 1, -1], support=SpatialRegion([2, 3]))
    assert overlap(f, g) == 0
