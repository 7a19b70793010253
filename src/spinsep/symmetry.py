"""Symmetric-group machinery: permutations, and the (anti)symmetrizing
projections applied by permuting tensor axes.

The projection P_n = (1/n!) sum over sigma of phase(sigma) U_sigma is not
summed over S_n: S_m is the union of the cosets (k m) S_{m-1}, so
P_m = (1/m) (1 + sum_{k<m} phase((k m)) U_(k m)) P_{m-1}, and ``symmetrize``
applies the stages m = 2..n in turn, 1 + 2 + ... + (n-1) axis-swapped adds in
all: 15 at n = 6, where S_6 has 720 elements.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from .linalg import frob, nth_root_dim

MAX_PARTICLES = 6

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"
NO_SYMMETRY = "none"


class Parity(enum.Enum):
    """Exchange statistics of a particle species."""

    BOSE = "bose"
    FERMI = "fermi"


def enumerate_sn(n: int) -> list[tuple[int, ...]]:
    """All permutations of 0..n-1 in lexicographic order."""
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be between 1 and {MAX_PARTICLES}, got {n}")
    return list(itertools.permutations(range(n)))


def symmetrize(x, n: int, dim: int, parity: Parity) -> np.ndarray:
    """(1/n!) sum over sigma of phase(sigma) U_sigma x: the symmetric (Bose) or
    antisymmetric (Fermi) projection of a vector on (C^dim)^n, or of each
    column of a matrix whose rows index that space.  Stage m of the coset
    recursion adds (Bose) or subtracts (Fermi) the views of the running tensor
    with axis m swapped with each earlier axis, then divides by m + 1."""
    x = np.asarray(x, dtype=complex)
    combine = np.add if parity is Parity.BOSE else np.subtract
    acc = x.reshape((dim,) * n + x.shape[1:])
    for m in range(1, n):
        acc, prev = acc.copy(), acc
        for k in range(m):
            combine(acc, prev.swapaxes(k, m), out=acc)
        acc /= m + 1
    return acc.reshape(x.shape) if n > 1 else x.copy()


def compress(op, n: int, dim: int, parity: Parity) -> np.ndarray:
    """Pi op Pi for the (anti)symmetrizer Pi of (C^dim)^n: Pi applied to the rows,
    then (Pi being real and symmetric) to the columns through the transpose."""
    return symmetrize(symmetrize(op, n, dim, parity).T, n, dim, parity).T


def exchange_character(vec, n: int, dim: int | None = None, tol: float = 1e-10) -> str:
    """Classify a vector in (C^dim)^n as antisymmetric, symmetric, or neither,
    according to which symmetrizer fixes it."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if dim is None:
        dim = nth_root_dim(vec.size, n)
    if frob(symmetrize(vec, n, dim, Parity.FERMI) - vec) <= tol:
        return ANTISYMMETRIC
    if frob(symmetrize(vec, n, dim, Parity.BOSE) - vec) <= tol:
        return SYMMETRIC
    return NO_SYMMETRY
