"""Symmetric-group machinery: permutations, the unitaries that permute tensor
factors, and the (anti)symmetrizing projections."""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import frob, nth_root_dim, permute_factors

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


def _basis_map(perm: Sequence[int], dim: int) -> np.ndarray:
    """Flat index map of the factor-permuting unitary: e_i -> e_map[i].

    Digit m of the image equals digit perm^{-1}(m) of the source (first
    factor slowest).
    """
    n = len(perm)
    total = dim**n
    weights = dim ** np.arange(n - 1, -1, -1)
    digits = (np.arange(total)[:, None] // weights[None, :]) % dim
    inv = perm_inverse(perm)
    new_digits = digits[:, list(inv)]
    return new_digits @ weights


def perm_unitary(perm: Sequence[int], dim: int) -> np.ndarray:
    """The unitary permuting the n tensor factors of (C^dim)^n."""
    n = len(perm)
    total = dim**n
    image = _basis_map(perm, dim)
    mat = np.zeros((total, total), dtype=complex)
    mat[image, np.arange(total)] = 1.0
    return mat


def symmetrizer(n: int, dim: int, parity: Parity) -> np.ndarray:
    """Orthogonal projection onto the symmetric (Bose) or antisymmetric
    (Fermi) subspace of (C^dim)^n: the sign-weighted average of all
    factor-permuting unitaries."""
    perms = enumerate_sn(n)
    total = dim**n
    acc = np.zeros((total, total), dtype=complex)
    for perm in perms:
        acc += parity.phase(perm) * perm_unitary(perm, dim)
    return acc / math.factorial(n)


class ExchangeabilityResult(NamedTuple):
    exchangeable: bool
    max_defect: float


def is_exchangeable(op, n: int, dim: int, tol: float = 1e-10) -> ExchangeabilityResult:
    """Whether an operator on (C^dim)^n commutes with every factor
    permutation, together with the worst conjugation defect."""
    op = np.asarray(op, dtype=complex)
    total = dim**n
    if op.shape != (total, total):
        raise ValueError(f"operator shape {op.shape} does not match ({total}, {total})")
    worst = 0.0
    for perm in enumerate_sn(n):
        if perm == tuple(range(n)):
            continue
        # conjugation by a permutation unitary is an exact row/column reindexing
        src = _basis_map(perm_inverse(perm), dim)
        conj = op[np.ix_(src, src)]
        worst = max(worst, frob(conj - op))
    return ExchangeabilityResult(worst <= tol, worst)


def exchange_character(vec, n: int, dim: int | None = None, tol: float = 1e-10) -> str:
    """Classify a vector in (C^dim)^n as antisymmetric, symmetric, or neither,
    according to which symmetrizer fixes it.  Each symmetrizer is applied as
    the phase-weighted average of the n! factor permutations of ``vec``."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if dim is None:
        dim = nth_root_dim(vec.size, n)
    dims = (dim,) * n
    fermi = np.zeros_like(vec)
    bose = np.zeros_like(vec)
    for perm in enumerate_sn(n):
        moved = permute_factors(vec, dims, perm)
        fermi += perm_sign(perm) * moved
        bose += moved
    count = math.factorial(n)
    if frob(fermi / count - vec) <= tol:
        return ANTISYMMETRIC
    if frob(bose / count - vec) <= tol:
        return SYMMETRIC
    return NO_SYMMETRY
