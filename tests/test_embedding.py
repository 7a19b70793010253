import math

import numpy as np
import pytest

from spinsep.embedding import embed_mixed, embed_pure, embedding_rank
from spinsep.entanglement import negativity
from spinsep.linalg import frob, kron
from spinsep.reduction import reduced_spin_probe, reduction_report
from spinsep.spatial import SpatialRegion
from spinsep.states import ZeroStateError
from spinsep.symmetry import Parity

from oracles import rand_density, symmetrizer

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
R1 = SpatialRegion([0, 1, 2, 3])
R2 = SpatialRegion([4, 5, 6, 7])
NUM_MODES = 8


def _dyad(v):
    return np.outer(v, np.conj(v))


def _reduce(vec, spin_dim=2):
    raw = reduced_spin_probe(_dyad(vec), [R1, R2], spin_dim, NUM_MODES)
    return reduction_report(raw, 2, spin_dim)


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_embed_pure_product_target(parity):
    phi = kron([1, 0], [0, 1]).astype(complex)
    vec, raw_norm = embed_pure(phi, R1, R2, parity, NUM_MODES)
    assert abs(raw_norm - math.sqrt(2)) < 1e-12  # the bracket carries no 1/sqrt(2)
    rep = _reduce(vec)
    assert frob(rep.normalized - _dyad(phi)) < 1e-12


def test_embed_pure_bell_target_both_parities_agree():
    reductions = []
    for parity in (Parity.FERMI, Parity.BOSE):
        vec, _ = embed_pure(BELL, R1, R2, parity, NUM_MODES)
        proj = symmetrizer(2, 16, parity)
        assert frob(proj @ vec - vec) < 1e-12  # genuinely carries the statistics
        rep = _reduce(vec)
        assert abs(negativity(rep.normalized, 2, 2) - 0.5) < 1e-12
        reductions.append(rep.normalized)
    assert frob(reductions[0] - reductions[1]) < 1e-12


def test_embed_pure_region_conflict():
    with pytest.raises(ValueError):
        embed_pure(BELL, R1, SpatialRegion([3, 4]), Parity.FERMI, NUM_MODES)


def test_embed_mixed_maximally_mixed():
    sigma = np.eye(4, dtype=complex) / 4
    vec, _ = embed_mixed(sigma, R1, R2, Parity.FERMI, NUM_MODES)
    rep = _reduce(vec)
    assert frob(rep.normalized - sigma) < 1e-10
    assert abs(rep.raw.trace - 1.0) < 1e-12


def test_embed_mixed_pure_target_agrees_with_embed_pure():
    vec_mixed, _ = embed_mixed(_dyad(BELL), R1, R2, Parity.FERMI, NUM_MODES)
    vec_pure, _ = embed_pure(BELL, R1, R2, Parity.FERMI, NUM_MODES)
    assert abs(abs(np.vdot(vec_mixed, vec_pure)) - 1.0) < 1e-10  # equal up to phase
    a = _reduce(vec_mixed).normalized
    b = _reduce(vec_pure).normalized
    assert frob(a - b) < 1e-10


def test_embed_mixed_werner_visibility_one():
    vec, _ = embed_mixed(_dyad(BELL), R1, R2, Parity.BOSE, NUM_MODES)
    rep = _reduce(vec)
    assert abs(negativity(rep.normalized, 2, 2) - 0.5) < 1e-10


def test_embedding_plan_and_mode_requirements():
    rng = np.random.default_rng(90)
    sigma = rand_density(rng, 4, rank=3)
    assert embedding_rank(sigma) == 3
    with pytest.raises(ValueError):
        embed_mixed(sigma, SpatialRegion([0, 1]), R2, Parity.FERMI, NUM_MODES)


def test_embed_mixed_rejects_invalid_targets():
    with pytest.raises(ValueError):
        embed_mixed(np.eye(4, dtype=complex), R1, R2, Parity.FERMI, NUM_MODES)


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_round_trip_random_targets(parity):
    rng = np.random.default_rng(91)
    proj = symmetrizer(2, 16, parity)
    for _ in range(10):
        rank = int(rng.integers(1, 5))
        sigma = rand_density(rng, 4, rank=rank)
        vec, _ = embed_mixed(sigma, R1, R2, parity, NUM_MODES)
        assert frob(proj @ vec - vec) < 1e-12
        rep = _reduce(vec)
        assert frob(rep.normalized - sigma) < 1e-9
        assert abs(
            negativity(rep.normalized, 2, 2) - negativity(sigma, 2, 2)
        ) < 1e-9


def test_embed_zero_target_is_loud():
    with pytest.raises((ValueError, ZeroStateError)):
        embed_pure(np.zeros(4), R1, R2, Parity.FERMI, NUM_MODES)
