"""Lifts of one-particle and n-slot product operators to exchange-invariant
n-particle observables."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import as_matrix, identity, kron
from .symmetry import MAX_PARTICLES, enumerate_sn


def lift_one_particle(op, n: int) -> np.ndarray:
    """Sum of n terms with ``op`` acting on one slot and identities elsewhere.

    The result commutes with every factor permutation and leaves the
    symmetric and antisymmetric subspaces invariant.
    """
    op = as_matrix(op)
    if op.shape[0] != op.shape[1]:
        raise ValueError("one-particle operator must be square")
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be between 1 and {MAX_PARTICLES}")
    dim = op.shape[0]
    total = dim**n
    acc = np.zeros((total, total), dtype=complex)
    for slot in range(n):
        factors = [identity(dim)] * n
        factors[slot] = op
        acc += kron(*factors)
    return acc


def lift_product(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Sum over all n! slot permutations of the n-fold product operator.

    No 1/n! factor is applied; for two slots this is ``A x B + B x A``.
    """
    mats = [as_matrix(op) for op in ops]
    n = len(mats)
    if n == 0:
        raise ValueError("need at least one slot operator")
    if n > MAX_PARTICLES:
        raise ValueError(f"at most {MAX_PARTICLES} slots are supported")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("all slot operators must be square of equal dimension")
    total = dim**n
    acc = np.zeros((total, total), dtype=complex)
    for perm in enumerate_sn(n):
        acc += kron(*[mats[perm[k]] for k in range(n)])
    return acc
