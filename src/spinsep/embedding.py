"""Inverse construction: realize any target two-spin state as the spatially
separated reduction of a globally symmetric or antisymmetric two-particle
state.

The k-th weighted eigenvector of the target, reshaped to a spin coefficient
matrix C_k, is written into a zero (mode, spin, mode, spin) tensor at the
k-th sorted mode of each region; that one product tensor is
(anti)symmetrized once by ``states.symmetrized_pair``.  A pure target is the
single-column case.  The reduction of the resulting global state reproduces
the target exactly, for either exchange statistics.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, as_vector, check_density_matrix, nth_root_dim
from .spatial import SpatialRegion
from .states import BuiltState, symmetrized_pair
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
    columns: np.ndarray,
    region1: SpatialRegion,
    region2: SpatialRegion,
    parity: Parity,
    num_modes: int,
) -> BuiltState:
    """(Anti)symmetrize the sum over k of (e_{m1_k} x e_{m2_k}) x C_k, where
    column k of ``columns`` flattens the spin coefficient matrix C_k and m1_k,
    m2_k are the k-th sorted modes of the two regions."""
    if not region1.disjoint_from(region2):
        raise ValueError("embedding regions must be disjoint")
    region1.require_within(num_modes)
    region2.require_within(num_modes)
    spin_dim = nth_root_dim(columns.shape[0], 2)
    rank = columns.shape[1]
    for name, region in (("region1", region1), ("region2", region2)):
        if len(region.modes) < rank:
            raise ValueError(
                f"{name} has {len(region.modes)} modes but the target has rank {rank}"
            )
    product = np.zeros((num_modes, spin_dim, num_modes, spin_dim), dtype=complex)
    modes1 = region1.sorted_modes()[:rank]
    modes2 = region2.sorted_modes()[:rank]
    product[modes1, :, modes2, :] = columns.T.reshape(rank, spin_dim, spin_dim)
    return symmetrized_pair(product, parity)


def embed_pure(
    phi,
    region1: SpatialRegion,
    region2: SpatialRegion,
    parity: Parity,
    num_modes: int,
) -> BuiltState:
    """Globally (anti)symmetric two-particle state whose reduction over the
    two regions is the pure target ``phi`` on spin x spin."""
    return _embed(as_vector(phi)[:, None], region1, region2, parity, num_modes)


def embed_mixed(
    sigma,
    region1: SpatialRegion,
    region2: SpatialRegion,
    parity: Parity,
    num_modes: int,
) -> BuiltState:
    """Globally (anti)symmetric two-particle state whose reduction over the
    two regions is the target density matrix ``sigma`` on spin x spin.

    Each region must contain at least rank(sigma) modes; the spectral
    decomposition fixes the construction deterministically.
    """
    return _embed(_weighted_eigenvectors(sigma), region1, region2, parity, num_modes)
