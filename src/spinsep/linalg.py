"""Dense complex multilinear algebra: Kronecker products, factor permutations
and state checks on plain numpy arrays.

Index conventions used throughout the package:

* the first Kronecker factor is the slowest-varying index,
* a one-particle basis state is ``mode * spin_dim + spin``,
* in an n-particle product the first particle is slowest.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-12


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a complex array is finite, read from the extremes of its real
    and imaginary parts (which propagate NaN and infinity), not from a mask of its size."""
    parts = np.ravel(arr).view(float)
    return parts.size == 0 or bool(np.isfinite(parts.min()) and np.isfinite(parts.max()))


def as_matrix(mat) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {arr.ndim}")
    if not _all_finite(arr):
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(vec) -> np.ndarray:
    """Coerce to a 1-D complex array with finite entries."""
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    if not _all_finite(arr):
        raise ValueError("vector entries must be finite")
    return arr


def dagger(mat) -> np.ndarray:
    return np.conj(np.asarray(mat)).T


def frob(mat) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(mat)))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_vector(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def matrix_unit(dim: int, row: int, col: int) -> np.ndarray:
    """The matrix with a single 1 at (row, col)."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[row, col] = 1.0
    return mat


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), first factor
    slowest-varying."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for fac in factors[1:]:
        out = np.kron(out, np.asarray(fac, dtype=complex))
    return out


def _check_permutation(perm: Sequence[int], k: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    return perm


def permute_factors(arr, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a vector or square operator.

    The basis vector ``e_{i_0} x ... x e_{i_{k-1}}`` is mapped to the basis
    vector whose m-th factor is ``e_{i_{perm^{-1}(m)}}``; operators are
    conjugated by the induced permutation matrix.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    perm = _check_permutation(perm, k)
    inv = np.argsort(perm)
    total = math.prod(dims)
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (total,):
            raise ValueError(f"vector length {arr.shape} does not match dims {dims}")
        return arr.reshape(dims).transpose(inv).reshape(total)
    if arr.ndim == 2:
        if arr.shape != (total, total):
            raise ValueError(f"matrix shape {arr.shape} does not match dims {dims}")
        axes = list(inv) + [k + ax for ax in inv]
        return arr.reshape(dims + dims).transpose(axes).reshape(total, total)
    raise ValueError("permute_factors expects a vector or a square matrix")


def hermiticity_defect(mat) -> float:
    mat = np.asarray(mat)
    return frob(mat - dagger(mat))


def projection_defect(mat) -> float:
    """How far a matrix is from being an orthogonal projection."""
    mat = as_matrix(mat)
    return max(frob(mat @ mat - mat), hermiticity_defect(mat))


def normalize(vec, zero_tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Return (unit vector, original norm); raise if the norm is below
    ``zero_tol``."""
    vec = as_vector(vec)
    norm = float(np.linalg.norm(vec))
    if norm < zero_tol:
        raise ValueError("cannot normalize a (numerically) zero vector")
    return vec / norm, norm


def check_state_vector(vec, tol: float = DEFAULT_TOL) -> np.ndarray:
    vec = as_vector(vec)
    if abs(np.linalg.norm(vec) - 1.0) > tol:
        raise ValueError("state vector is not normalized")
    return vec


def check_density_matrix(rho, tol: float = DEFAULT_TOL, psd_tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if hermiticity_defect(rho) > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix does not have unit trace")
    if float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0]) < -psd_tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def nth_root_dim(dim: int, n: int) -> int:
    """The integer d with d**n == dim, or raise."""
    if n < 1:
        raise ValueError("need at least one factor")
    guess = int(round(dim ** (1.0 / n)))
    for cand in (guess - 1, guess, guess + 1):
        if cand >= 1 and cand**n == dim:
            return cand
    raise ValueError(f"{dim} is not a perfect {n}-th power")
