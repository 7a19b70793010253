import math

import numpy as np
import pytest

from spinsep.embedding import embed_mixed, embed_pure
from spinsep.linalg import frob, kron
from spinsep.spatial import SpaceSpec, SpatialRegion, mode_wavefunction, wavefunction
from spinsep.states import (
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    ZeroStateError,
    interleave_particles,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from spinsep.symmetry import ANTISYMMETRIC, Parity, exchange_character

from oracles import (
    determinant_by_enumeration,
    embed_mixed_by_terms,
    embed_pure_by_terms,
    kron_vec_by_loops,
    n_particle_localized_by_kron,
    n_particle_localized_by_pair_checks,
    permanent_by_enumeration,
    rand_density,
    rand_unit,
    shared_spatial_by_modes,
    superposition_by_brackets,
    symmetrized_pair,
    symmetrizer,
)

EQUIVALENCE_TOL = 1e-14  # relative; one rounding order against another


def _factor(mode, num_modes, spin):
    return LocalizedFactor(mode_wavefunction(mode, num_modes), np.asarray(spin, complex))


def test_two_particle_localized_hand_oracle():
    # d_l = d_h = 2: build the 16-dim antisymmetrized vector by explicit loops
    a = _factor(0, 2, [1, 0])
    b = _factor(1, 2, [0, 1])
    vec, raw_norm = n_particle_localized([a, b], Parity.FERMI)
    va = kron_vec_by_loops(a.wavefunction.amplitudes, a.spin)
    vb = kron_vec_by_loops(b.wavefunction.amplitudes, b.spin)
    expected = (kron_vec_by_loops(va, vb) - kron_vec_by_loops(vb, va)) / math.sqrt(2)
    assert abs(raw_norm - 1.0) < 1e-12  # disjoint supports: cross terms vanish
    assert np.allclose(vec, expected, atol=1e-12)


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_two_particle_localized_lies_in_its_sector(parity):
    rng = np.random.default_rng(40)
    a = LocalizedFactor(wavefunction(rand_unit(rng, 3)), rand_unit(rng, 2))
    b = LocalizedFactor(wavefunction(rand_unit(rng, 3)), rand_unit(rng, 2))
    vec, _ = n_particle_localized([a, b], parity)
    proj = symmetrizer(2, 6, parity)
    assert frob(proj @ vec - vec) < 1e-12


def test_two_particle_localized_fermi_exclusion():
    a = _factor(0, 2, [1, 0])
    with pytest.raises(ZeroStateError):
        n_particle_localized([a, a], Parity.FERMI)


def test_two_particle_localized_bose_doubling():
    a = _factor(0, 2, [1, 0])
    vec, raw_norm = n_particle_localized([a, a], Parity.BOSE)
    v = kron(a.wavefunction.amplitudes, a.spin)
    assert np.allclose(vec, kron(v, v), atol=1e-12)
    assert abs(raw_norm - math.sqrt(2)) < 1e-12


def test_superposition_single_term_matches_pair_constructor():
    a = _factor(0, 3, [1, 0])
    b = _factor(1, 3, [0, 1])
    single, _ = superposition_state([SuperpositionTerm([a, b])], Parity.FERMI)
    pair, _ = n_particle_localized([a, b], Parity.FERMI)
    assert np.allclose(single, pair, atol=1e-12)


def test_superposition_raw_norm_orthonormal_families():
    # two terms, orthonormal f's and g's: raw norm sqrt(2N) = 2
    terms = [
        SuperpositionTerm([_factor(0, 4, [1, 0]), _factor(2, 4, [1, 0])]),
        SuperpositionTerm([_factor(1, 4, [0, 1]), _factor(3, 4, [0, 1])]),
    ]
    _, raw_norm = superposition_state(terms, Parity.FERMI)
    assert abs(raw_norm - 2.0) < 1e-12


def test_superposition_cancellation_is_loud():
    a = _factor(0, 2, [1, 0])
    b = _factor(1, 2, [0, 1])
    terms = [SuperpositionTerm([a, b], weight=1.0), SuperpositionTerm([a, b], weight=-1.0)]
    with pytest.raises(ZeroStateError):
        superposition_state(terms, Parity.BOSE)


def test_superposition_tail_is_unchanged():
    # the n-particle superposition at n = 2 against the outer product of the two-factor
    # term it replaced and the two-particle bracket of that product
    rng = np.random.default_rng(78)
    for num_modes, spin_dim in ((3, 2), (4, 3)):
        for parity in Parity:
            for count in range(1, 5):
                terms = [
                    SuperpositionTerm(
                        [
                            LocalizedFactor(
                                wavefunction(rand_unit(rng, num_modes)), rand_unit(rng, spin_dim)
                            )
                            for _ in range(2)
                        ],
                        complex(*rng.standard_normal(2)),
                    )
                    for _ in range(count)
                ]
                product = sum(
                    t.weight * np.outer(t.factors[0].vector(), t.factors[1].vector())
                    for t in terms
                )
                got, want = superposition_state(terms, parity), symmetrized_pair(product, parity)
                assert np.array_equal(got.vector, want.vector)
                assert got.raw_norm == want.raw_norm


def test_n_particle_localized_is_unchanged():
    rng = np.random.default_rng(79)
    for parity in Parity:
        for n in range(1, 7):
            factors = [
                LocalizedFactor(wavefunction(rand_unit(rng, 3)), rand_unit(rng, 2))
                for _ in range(n)
            ]
            got = n_particle_localized(factors, parity)
            want = n_particle_localized_by_pair_checks(factors, parity)
            assert np.array_equal(got.vector, want.vector), (n, parity)
            assert got.raw_norm == want.raw_norm


def test_superposition_term_validation():
    a, b, c = (_factor(k, 3, [1, 0]) for k in range(3))
    for terms in (
        [SuperpositionTerm([])],
        [SuperpositionTerm([a, b]), SuperpositionTerm([a, b, c])],
        [SuperpositionTerm([a, _factor(0, 4, [1, 0])])],
        [SuperpositionTerm([a, _factor(1, 3, [1, 0, 0])])],
    ):
        with pytest.raises(ValueError):
            superposition_state(terms, Parity.BOSE)


def test_n_particle_matches_two_particle():
    # the two-particle bracket by hand: disjoint supports, so it has unit norm already
    a = _factor(0, 3, [1, 0])
    b = _factor(2, 3, [0, 1])
    for parity, sign in ((Parity.FERMI, -1), (Parity.BOSE, 1)):
        vec, raw_norm = n_particle_localized([a, b], parity)
        ab, ba = kron(a.vector(), b.vector()), kron(b.vector(), a.vector())
        assert np.allclose(vec, (ab + sign * ba) / math.sqrt(2), atol=1e-12)
        assert abs(raw_norm - 1.0) < 1e-12


def test_n_particle_slater_norm_and_exclusion():
    factors = [_factor(k, 3, [1, 0]) for k in range(3)]
    vec, raw_norm = n_particle_localized(factors, Parity.FERMI)
    assert abs(raw_norm - 1.0) < 1e-12  # orthonormal factors: Gram determinant 1
    assert exchange_character(vec, 3, 6) == ANTISYMMETRIC
    with pytest.raises(ZeroStateError):
        n_particle_localized([factors[0], factors[0], factors[2]], Parity.FERMI)


@pytest.mark.parametrize("parity", [Parity.FERMI, Parity.BOSE])
def test_n_particle_norm_matches_gram_oracle(parity):
    # non-orthogonal wavefunctions: norm^2 = det/permanent of the Gram matrix
    rng = np.random.default_rng(41)
    for _ in range(5):
        factors = [
            LocalizedFactor(wavefunction(rand_unit(rng, 2)), rand_unit(rng, 2))
            for _ in range(3)
        ]
        vecs = [f.vector() for f in factors]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        expected = (
            determinant_by_enumeration(gram)
            if parity is Parity.FERMI
            else permanent_by_enumeration(gram)
        )
        try:
            _, raw_norm = n_particle_localized(factors, parity)
        except ZeroStateError:
            assert abs(expected) < 1e-20
            continue
        assert abs(raw_norm**2 - expected.real) < 1e-10
        assert abs(expected.imag) < 1e-10


def test_symmetrize_constructions_match_the_kron_and_bracket_sums():
    rng = np.random.default_rng(77)

    def factor(num_modes, spin_dim):
        return LocalizedFactor(
            wavefunction(rand_unit(rng, num_modes)), rand_unit(rng, spin_dim)
        )

    def check(got, want, what):
        assert frob(got.vector - want.vector) <= EQUIVALENCE_TOL * frob(want.vector), what
        assert abs(got.raw_norm - want.raw_norm) <= EQUIVALENCE_TOL * want.raw_norm, what

    for parity in Parity:
        for n in range(1, 6):
            factors = [factor(3, 2) for _ in range(n)]
            check(
                n_particle_localized(factors, parity),
                n_particle_localized_by_kron(factors, parity),
                f"{n} localized, {parity}",
            )
        for n in range(1, 6):
            count = int(rng.integers(1, 5))
            terms = [
                SuperpositionTerm(
                    [factor(3, 2) for _ in range(n)], complex(*rng.standard_normal(2))
                )
                for _ in range(count)
            ]
            check(
                superposition_state(terms, parity),
                superposition_by_brackets(terms, parity),
                f"{n} particles, {count} terms, {parity}",
            )
        for spin_dim in (2, 3):
            side = spin_dim**2
            # side by side with exactly the top rank's modes; then interleaved, listed
            # in descending order, each with one mode more than the top rank
            layouts = [
                (2 * side, range(side), range(side, 2 * side)),
                (2 * side + 2, range(2 * side + 1, -1, -2), range(2 * side, -1, -2)),
            ]
            for num_modes, modes1, modes2 in layouts:
                args = ([SpatialRegion(modes1), SpatialRegion(modes2)], parity, num_modes)
                phi = rand_unit(rng, side)
                check(embed_pure(phi, *args), embed_pure_by_terms(phi, *args), f"pure {spin_dim}")
                for rank in range(1, side + 1):
                    sigma = rand_density(rng, side, rank)
                    check(
                        embed_mixed(sigma, *args),
                        embed_mixed_by_terms(sigma, *args),
                        f"rank {rank} of {side} in {num_modes} modes, {parity}",
                    )


def test_interleave_particles_product_vector():
    spec = SpaceSpec(num_modes=2, spin_dim=3, particles=2)
    rng = np.random.default_rng(42)
    f1, f2 = rand_unit(rng, 2), rand_unit(rng, 2)
    s1, s2 = rand_unit(rng, 3), rand_unit(rng, 3)
    grouped = kron(f1, f2, s1, s2)
    interleaved = interleave_particles(grouped, spec)
    assert np.allclose(interleaved, kron(f1, s1, f2, s2), atol=1e-12)


def test_shared_spatial_matches_the_per_mode_loop():
    rng = np.random.default_rng(43)
    for n in range(1, 5):
        spec = SpaceSpec(num_modes=3, spin_dim=max(n, 2), particles=n)
        spin_size = spec.spin_dim**n
        amps = rand_unit(rng, 3)
        for zero_mode in (None, 1):
            if zero_mode is not None:
                amps[zero_mode] = 0.0
            broadcast = rand_unit(rng, spin_size)
            per_mode = np.vstack([rand_unit(rng, spin_size) for _ in range(3)])
            for spin_part in (broadcast, per_mode):
                got = subspace_state(SubspaceKind.SHARED_SPATIAL, amps, spin_part, spec)
                want = shared_spatial_by_modes(amps, spin_part, spec)
                assert np.array_equal(got.vector, want.vector), (n, zero_mode, spin_part.ndim)
                assert got.raw_norm == want.raw_norm


def test_subspace_state_shared_mode():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    singlet = np.array([0, 1, -1, 0], complex)
    st = subspace_state(SubspaceKind.SHARED_SPATIAL, [1, 0], singlet, spec)
    assert exchange_character(st.vector, spec.particles, spec.one_particle_dim) == ANTISYMMETRIC
    # independent expectation: both particles in mode 0, singlet spins,
    # interleaved (mode1, spin1, mode2, spin2) index arithmetic by hand
    manual = np.zeros(16, complex)
    for s1, s2, amp in ((0, 1, 1 / math.sqrt(2)), (1, 0, -1 / math.sqrt(2))):
        idx = ((0 * 2 + s1) * 2 + 0) * 2 + s2  # (mode1, spin1, mode2, spin2)
        manual[idx] = amp
    assert np.allclose(st.vector, manual, atol=1e-12) or np.allclose(
        st.vector, -manual, atol=1e-12
    )


def test_subspace_state_per_mode_spins_and_superposed_modes():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    singlet = np.array([0, 1, -1, 0], complex)
    per_mode = np.vstack([singlet, 2 * singlet])
    st = subspace_state(SubspaceKind.SHARED_SPATIAL, [1, 1], per_mode, spec)
    assert exchange_character(st.vector, spec.particles, spec.one_particle_dim) == ANTISYMMETRIC
    assert abs(np.linalg.norm(st.vector) - 1) < 1e-12


def test_subspace_state_symmetric_spatial():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    st = subspace_state(
        SubspaceKind.SYMMETRIC_SPATIAL, [0, 1, 1, 0], [0, 1, -1, 0], spec
    )
    assert exchange_character(st.vector, spec.particles, spec.one_particle_dim) == ANTISYMMETRIC


def test_subspace_state_antisymmetric_spatial():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    st = subspace_state(
        SubspaceKind.ANTISYMMETRIC_SPATIAL, [0, 1, -1, 0], [1, 0, 0, 0], spec
    )
    # globally still antisymmetric: the sign lives in the spatial part
    assert exchange_character(st.vector, spec.particles, spec.one_particle_dim) == ANTISYMMETRIC
    proj = symmetrizer(2, 4, Parity.FERMI)
    assert frob(proj @ st.vector - st.vector) < 1e-12


def test_subspace_state_zero_projection_is_loud():
    spec = SpaceSpec(num_modes=2, spin_dim=2, particles=2)
    with pytest.raises(ZeroStateError):
        # antisymmetric spatial input dies under the symmetric projection
        subspace_state(SubspaceKind.SYMMETRIC_SPATIAL, [0, 1, -1, 0], [0, 1, -1, 0], spec)
    with pytest.raises(ZeroStateError):
        # symmetric spin input dies under the antisymmetric projection
        subspace_state(SubspaceKind.SHARED_SPATIAL, [1, 0], [1, 0, 0, 1], spec)


def test_localized_factor_validation():
    with pytest.raises(ValueError):
        LocalizedFactor(mode_wavefunction(0, 2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        n_particle_localized(
            [_factor(0, 2, [1, 0]), LocalizedFactor(mode_wavefunction(0, 3), np.array([1.0, 0.0]))],
            Parity.BOSE,
        )
