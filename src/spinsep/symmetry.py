"""Symmetric-group machinery: permutations, the unitaries that permute tensor
factors, and the (anti)symmetrizing projections."""

from __future__ import annotations

import enum
import itertools
import math
from typing import Sequence

import numpy as np

from .linalg import frob, identity, nth_root_dim

MAX_PARTICLES = 6

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"
NO_SYMMETRY = "none"


class Parity(enum.Enum):
    """Exchange statistics of a particle species."""

    BOSE = "bose"
    FERMI = "fermi"

    def phase(self, perm: Sequence[int]) -> int:
        """The weight of a permutation: 1 for bosons, sgn for fermions."""
        return 1 if self is Parity.BOSE else perm_sign(perm)


def enumerate_sn(n: int) -> list[tuple[int, ...]]:
    """All permutations of 0..n-1 in lexicographic order."""
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be between 1 and {MAX_PARTICLES}, got {n}")
    return list(itertools.permutations(range(n)))


def perm_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation: (-1) to the number of inversions."""
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def perm_compose(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """(first o second)(k) = first[second[k]]."""
    return tuple(first[second[k]] for k in range(len(second)))


def perm_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def perm_unitary(perm: Sequence[int], dim: int) -> np.ndarray:
    """The unitary permuting the n tensor factors of (C^dim)^n: the identity
    with the factors of its row index permuted."""
    n = len(perm)
    rows = identity(dim**n).reshape((dim,) * n + (dim**n,))
    return rows.transpose(perm_inverse(perm) + (n,)).reshape(dim**n, dim**n)


def symmetrize(x, n: int, dim: int, parity: Parity) -> np.ndarray:
    """(1/n!) sum over sigma of phase(sigma) U_sigma x: the symmetric (Bose) or
    antisymmetric (Fermi) projection of a vector on (C^dim)^n, or of each
    column of a matrix whose rows index that space.  Each U_sigma x is a
    transposed view of the tensor axes, added straight into the running sum."""
    x = np.asarray(x, dtype=complex)
    tensor = x.reshape((dim,) * n + x.shape[1:])
    tail = tuple(range(n, tensor.ndim))
    acc = np.zeros_like(tensor)
    for perm in enumerate_sn(n):
        moved = tensor.transpose(perm_inverse(perm) + tail)
        if parity.phase(perm) > 0:
            acc += moved
        else:
            acc -= moved
    acc /= math.factorial(n)
    return acc.reshape(x.shape)


def compress(op, n: int, dim: int, parity: Parity) -> np.ndarray:
    """Pi op Pi for the (anti)symmetrizer Pi of (C^dim)^n: Pi applied to the rows,
    then (Pi being real and symmetric) to the columns through the transpose."""
    return symmetrize(symmetrize(op, n, dim, parity).T, n, dim, parity).T


def symmetrizer(n: int, dim: int, parity: Parity) -> np.ndarray:
    """Dense matrix of the symmetric (Bose) or antisymmetric (Fermi) projection
    of (C^dim)^n: a reference construction, as ``symmetrize`` never forms it."""
    return symmetrize(identity(dim**n), n, dim, parity)


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
