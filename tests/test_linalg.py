import numpy as np
import pytest

from spinsep.linalg import check_density_matrix, kron, normalize

from oracles import (
    hermitian_spectrum,
    kron_by_loops,
    partial_trace,
    partial_trace_by_loops,
    perm_unitary,
    permute_factors,
    rand_hermitian,
    rand_matrix,
    rand_projection,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_index_convention():
    # first factor slowest: diag(1,0) x diag(0,1) puts the 1 at index 0*2+1
    out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_matches_double_loop_oracle():
    assert np.array_equal(kron(SIGMA_X, SIGMA_Z), kron_by_loops(SIGMA_X, SIGMA_Z))
    rng = np.random.default_rng(11)
    a, b = rand_matrix(rng, 3), rand_matrix(rng, 2)
    assert np.allclose(kron(a, b), kron_by_loops(a, b), atol=0)


def test_kron_associativity():
    # bit-exact on exactly representable entries
    a = np.array([[1, -2], [0, 4]], dtype=complex)
    b = np.array([[0.5, 1j], [2, -1]], dtype=complex)
    c = np.array([[1, 0.25], [-0.5, 2j]], dtype=complex)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    # and within the package-wide tolerance on generic complex entries
    rng = np.random.default_rng(12)
    x, y, z = rand_matrix(rng, 2), rand_matrix(rng, 3), rand_matrix(rng, 2)
    lhs, rhs = kron(kron(x, y), z), kron(x, kron(y, z))
    assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(lhs)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(13)
    a, b = rand_matrix(rng, 3), rand_matrix(rng, 4)
    out = partial_trace(kron(a, b), [3, 4], keep=[0])
    assert np.allclose(out, a * np.trace(b), atol=1e-12)
    out = partial_trace(kron(a, b), [3, 4], keep=[1])
    assert np.allclose(out, b * np.trace(a), atol=1e-12)


def test_partial_trace_all_factors():
    rng = np.random.default_rng(14)
    m = rand_matrix(rng, 6)
    out = partial_trace(m, [2, 3], keep=[])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    # hand-computed 4x4 reduction of |Phi+>
    assert np.allclose(partial_trace(rho, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_loop_oracle_and_preserves_trace():
    rng = np.random.default_rng(15)
    dims = (2, 3, 2)
    m = rand_matrix(rng, 12)
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        got = partial_trace(m, dims, keep)
        want = partial_trace_by_loops(m, dims, keep)
        assert np.allclose(got, want, atol=1e-12)
        assert abs(np.trace(got) - np.trace(m)) < 1e-11


def test_partial_trace_shape_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), [2, 3], keep=[0])


def test_permute_factors_identity():
    rng = np.random.default_rng(16)
    v = rand_matrix(rng, 6, 1).ravel()
    assert np.array_equal(permute_factors(v, [2, 3], [0, 1]), v)


def test_permute_factors_swap_basis_rule():
    # e_(a,b) on C^2 x C^3 maps to e_(b,a)
    for a in range(2):
        for b in range(3):
            v = np.zeros(6, dtype=complex)
            v[a * 3 + b] = 1.0
            out = permute_factors(v, [2, 3], [1, 0])
            expected = np.zeros(6, dtype=complex)
            expected[b * 2 + a] = 1.0
            assert np.array_equal(out, expected)


def test_permute_factors_composition_and_involution():
    rng = np.random.default_rng(17)
    dims = (2, 3, 2)
    v = rand_matrix(rng, 12, 1).ravel()
    sigma, tau = (2, 0, 1), (1, 0, 2)
    composed = tuple(sigma[tau[k]] for k in range(3))
    # after applying tau, factor m carries dimension dims[tau^{-1}(m)]
    dims_after_tau = tuple(dims[tau.index(m)] for m in range(3))
    via_two = permute_factors(permute_factors(v, dims, tau), dims_after_tau, sigma)
    assert np.array_equal(permute_factors(v, dims, composed), via_two)
    swapped = permute_factors(v, dims, (0, 2, 1))
    assert np.array_equal(permute_factors(swapped, (2, 2, 3), (0, 2, 1)), v)


def test_permute_factors_operator_matches_unitary_conjugation():
    rng = np.random.default_rng(18)
    m = rand_matrix(rng, 8)
    perm = (2, 0, 1)
    w = perm_unitary(perm, 2)
    assert np.allclose(permute_factors(m, (2, 2, 2), perm), w @ m @ w.conj().T, atol=1e-13)


def test_hermitian_spectrum_examples():
    assert np.allclose(hermitian_spectrum(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(hermitian_spectrum(SIGMA_X), [-1, 1])


def test_hermitian_spectrum_reconstruction():
    rng = np.random.default_rng(19)
    m = rand_hermitian(rng, 6)
    values = hermitian_spectrum(m)
    _, vectors = np.linalg.eigh(m)
    rebuilt = sum(
        values[k] * np.outer(vectors[:, k], vectors[:, k].conj()) for k in range(6)
    )
    assert np.linalg.norm(rebuilt - m) < 1e-10
    assert abs(values.sum() - np.trace(m).real) < 1e-10


def test_hermitian_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projection_spectrum_is_zero_one():
    rng = np.random.default_rng(20)
    p = rand_projection(rng, 7, 3)
    values = hermitian_spectrum(p)
    assert np.all(np.minimum(np.abs(values), np.abs(values - 1.0)) < 1e-10)


def test_normalize_and_density_checks():
    vec, norm = normalize(np.array([3.0, 4.0]))
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        normalize(np.zeros(3))
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
