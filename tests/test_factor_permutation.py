"""The factor-permutation kernels against the formulations they replace: the
reduction against the matrix-unit probe, and the exchange check against the
dense symmetrizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsep.linalg import frob
from spinsep.reduction import reduced_spin_probe
from spinsep.spatial import SpatialRegion
from spinsep.symmetry import (
    ANTISYMMETRIC,
    NO_SYMMETRY,
    SYMMETRIC,
    Parity,
    exchange_character,
    symmetrizer,
)

from oracles import rand_density, rand_unit, reduced_spin_by_matrix_units

KERNEL_TOL = 1e-12


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
    return n, d_l, d_h, modes, seed, rank


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(reduction_cases())
def test_reduction_matches_matrix_unit_probe(case):
    n, d_l, d_h, modes, seed, rank = case
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, (d_l * d_h) ** n, rank)
    regions = [SpatialRegion(m) for m in modes]
    got = reduced_spin_probe(rho, regions, d_h, d_l).matrix
    want = reduced_spin_by_matrix_units(rho, regions, d_h, d_l)
    assert np.max(np.abs(got - want)) <= KERNEL_TOL


def test_reduction_matches_matrix_unit_probe_four_particles():
    rng = np.random.default_rng(404)
    d_l, d_h = 2, 2
    rho = rand_density(rng, (d_l * d_h) ** 4, 3)
    regions = [SpatialRegion([0]), SpatialRegion([1]), SpatialRegion([0, 1]), SpatialRegion([1])]
    got = reduced_spin_probe(rho, regions, d_h, d_l).matrix
    want = reduced_spin_by_matrix_units(rho, regions, d_h, d_l)
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
