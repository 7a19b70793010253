"""Inverse construction: realize any target n-spin state as the spatially
separated reduction of a globally symmetric or antisymmetric n-particle
state, with one disjoint region per particle.

The k-th weighted eigenvector of the target, reshaped to a spin coefficient
tensor C_k, is written into a zero (mode, spin)^n tensor at the k-th sorted
mode of each region; ``states.symmetrized_sum`` (anti)symmetrizes that one
product tensor.  A pure target is the single-column case.  Only the identity
permutation keeps particle j in region j, so the reduction reproduces the
target exactly, for either statistics, and the raw norm is sqrt(n!).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .linalg import as_matrix, as_vector, check_density_matrix, nth_root_dim
from .spatial import SpatialRegion
from .states import BuiltState, symmetrized_sum
from .symmetry import Parity

RANK_CUTOFF = 1e-12


def _weighted_eigenvectors(sigma) -> np.ndarray:
    """The columns sqrt(lambda_k) v_k of a density matrix, one per eigenvalue
    above ``RANK_CUTOFF``, the largest first."""
    sigma = check_density_matrix(as_matrix(sigma))
    eigvals, eigvecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    keep = [k for k in range(eigvals.size - 1, -1, -1) if eigvals[k] > RANK_CUTOFF]
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def embedding_rank(sigma) -> int:
    """The rank of a target density matrix: the number of spatial modes its
    embedding takes in each region."""
    return _weighted_eigenvectors(sigma).shape[1]


def _embed(
    columns: np.ndarray, regions: Sequence[SpatialRegion], parity: Parity, num_modes: int
) -> BuiltState:
    """(Anti)symmetrize the sum over k of (e_{m_0k} x ... x e_{m_(n-1)k}) x C_k,
    where column k of ``columns`` flattens the spin coefficient tensor C_k and
    m_jk is the k-th sorted mode of region j."""
    if not all(a.disjoint_from(b) for a, b in itertools.combinations(regions, 2)):
        raise ValueError("embedding regions must be disjoint")
    n = len(regions)
    spin_dim = nth_root_dim(columns.shape[0], n)
    rank = columns.shape[1]
    for j, region in enumerate(regions):
        region.require_within(num_modes)
        if len(region.modes) < rank:
            raise ValueError(f"region {j} holds {len(region.modes)} of the {rank} modes needed")
    product = np.zeros((num_modes, spin_dim) * n, dtype=complex)
    # mode axes take the regions' k-th modes, spin axes are kept whole
    at = [(region.sorted_modes()[:rank], slice(None)) for region in regions]
    product[sum(at, ())] = columns.T.reshape((rank,) + (spin_dim,) * n)
    return symmetrized_sum(product, n, num_modes * spin_dim, parity)


def embed_pure(
    phi, regions: Sequence[SpatialRegion], parity: Parity, num_modes: int
) -> BuiltState:
    """Globally (anti)symmetric n-particle state whose reduction over the n
    regions, one per particle, is the pure target ``phi`` on spin^n."""
    return _embed(as_vector(phi)[:, None], regions, parity, num_modes)


def embed_mixed(
    sigma, regions: Sequence[SpatialRegion], parity: Parity, num_modes: int
) -> BuiltState:
    """Globally (anti)symmetric n-particle state whose reduction over the n
    regions, one per particle, is the target density matrix ``sigma``.

    Each region must contain at least rank(sigma) modes; the spectral
    decomposition fixes the construction deterministically.
    """
    return _embed(_weighted_eigenvectors(sigma), regions, parity, num_modes)
