import itertools
import math

import numpy as np
import pytest

from spinsep.lift import lift_one_particle
from spinsep.linalg import frob, kron
from spinsep.symmetry import (
    ANTISYMMETRIC,
    NO_SYMMETRY,
    SYMMETRIC,
    Parity,
    enumerate_sn,
    compress,
    exchange_character,
    symmetrize,
)

from oracles import (
    is_exchangeable,
    perm_compose,
    perm_inverse,
    perm_sign_by_count,
    perm_unitary,
    rand_matrix,
    rand_unit,
    symmetrize_by_permutations,
    symmetrizer,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_enumerate_sn_counts_and_order():
    assert enumerate_sn(1) == [(0,)]
    assert enumerate_sn(2) == [(0, 1), (1, 0)]
    perms = enumerate_sn(3)
    assert len(perms) == 6
    assert perms == sorted(perms)
    assert len(set(perms)) == 6


def test_enumerate_sn_bounds():
    with pytest.raises(ValueError):
        enumerate_sn(0)
    with pytest.raises(ValueError):
        enumerate_sn(7)


def test_perm_sign_examples():
    assert perm_sign_by_count((0, 1, 2)) == 1
    assert perm_sign_by_count((1, 0, 2)) == -1
    assert perm_sign_by_count((1, 2, 0)) == 1  # 3-cycle is even


def test_perm_sign_is_multiplicative():
    for sigma in enumerate_sn(4):
        for tau in enumerate_sn(4):
            composed = perm_compose(sigma, tau)
            assert perm_sign_by_count(composed) == perm_sign_by_count(sigma) * perm_sign_by_count(tau)


def test_perm_unitary_identity_and_swap():
    assert np.array_equal(perm_unitary((0, 1), 2), np.eye(4))
    assert np.array_equal(perm_unitary((1, 0), 2), SWAP)


def test_perm_unitary_representation_law_s3():
    ws = {p: perm_unitary(p, 2) for p in enumerate_sn(3)}
    for sigma, tau in itertools.product(enumerate_sn(3), repeat=2):
        assert frob(ws[sigma] @ ws[tau] - ws[perm_compose(sigma, tau)]) == 0.0


def test_perm_unitary_dagger_is_inverse():
    for p in enumerate_sn(3):
        w = perm_unitary(p, 3)
        assert np.array_equal(w.conj().T, perm_unitary(perm_inverse(p), 3))


def test_symmetrizer_two_qubits():
    anti = symmetrizer(2, 2, Parity.FERMI)
    sym = symmetrizer(2, 2, Parity.BOSE)
    assert np.allclose(anti, (np.eye(4) - SWAP) / 2, atol=0)
    assert np.allclose(sym, (np.eye(4) + SWAP) / 2, atol=0)
    assert abs(np.trace(anti).real - 1) < 1e-12  # rank 1
    assert abs(np.trace(sym).real - 3) < 1e-12  # rank 3


def test_symmetrizer_three_fermions_in_two_levels_vanish():
    anti = symmetrizer(3, 2, Parity.FERMI)
    assert frob(anti) < 1e-12  # no antisymmetric 3-particle state in C^2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_symmetrizer_projection_laws_and_ranks(n, d):
    anti = symmetrizer(n, d, Parity.FERMI)
    sym = symmetrizer(n, d, Parity.BOSE)
    for proj in (anti, sym):
        assert frob(proj @ proj - proj) < 1e-12
        assert frob(proj - proj.conj().T) < 1e-12
    assert frob(sym @ anti) < 1e-12
    assert abs(np.trace(anti).real - math.comb(d, n)) < 1e-10
    assert abs(np.trace(sym).real - math.comb(d + n - 1, n)) < 1e-10


def test_is_exchangeable_examples():
    rng = np.random.default_rng(21)
    a = rand_matrix(rng, 2)
    lifted = lift_one_particle(a, 3)
    ok, defect = is_exchangeable(lifted, 3, 2)
    assert ok and defect < 1e-12

    local = kron(a, np.eye(2))
    ok, defect = is_exchangeable(local, 2, 2)
    assert not ok and defect > 0.1

    ok, _ = is_exchangeable(np.eye(8), 3, 2)
    assert ok

    with pytest.raises(ValueError):
        is_exchangeable(np.eye(5), 2, 2)


def test_exchange_character():
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert exchange_character(singlet, 2, 2) == ANTISYMMETRIC
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    assert exchange_character(e00, 2, 2) == SYMMETRIC
    e01 = np.array([0, 1, 0, 0], dtype=complex)
    assert exchange_character(e01, 2, 2) == NO_SYMMETRY


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetrize_matches_the_permutation_sum(n, d, parity):
    # the coset recursion against the sum over all n! transposed views
    rng = np.random.default_rng(100 * n + 10 * d + (parity is Parity.FERMI))
    for x in (rand_unit(rng, d**n), rand_matrix(rng, d**n, 3)):
        kept = x.copy()
        got = symmetrize(x, n, d, parity)
        want = symmetrize_by_permutations(x, n, d, parity)
        assert got.shape == x.shape
        if n <= 2:
            assert np.array_equal(got, want)
        else:
            assert frob(got - want) <= 1e-14 * frob(x)
        # the caller's array is neither changed nor shared
        assert np.array_equal(x, kept) and not np.shares_memory(got, x)


def test_symmetrization_never_sums_over_the_symmetric_group(monkeypatch):
    from spinsep import symmetry

    rng = np.random.default_rng(6)
    vec, op = rand_unit(rng, 2**6), rand_matrix(rng, 2**6)
    want = {parity: symmetrize_by_permutations(vec, 6, 2, parity) for parity in Parity}
    anti = symmetrize_by_permutations(rand_unit(rng, 6**6), 6, 6, Parity.FERMI)

    def refuse(n):
        raise AssertionError("symmetrization enumerated S_n")

    monkeypatch.setattr(symmetry, "enumerate_sn", refuse)
    for parity in Parity:
        assert frob(symmetrize(vec, 6, 2, parity) - want[parity]) <= 1e-14
        pi_op = compress(op, 6, 2, parity)
        assert frob(compress(pi_op, 6, 2, parity) - pi_op) <= 1e-12
    assert exchange_character(want[Parity.BOSE] / frob(want[Parity.BOSE]), 6, 2) == SYMMETRIC
    assert exchange_character(anti / frob(anti), 6, 6) == ANTISYMMETRIC
    assert exchange_character(vec, 6, 2) == NO_SYMMETRY
