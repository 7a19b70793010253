"""Inverse construction: realize any target two-spin state as the spatially
separated reduction of a globally symmetric or antisymmetric two-particle
state.

Each eigenvector of the target is written across one fresh spatial mode per
region, as one product tensor weighted by the square root of its eigenvalue;
the sum of these products is (anti)symmetrized once by
``states.symmetrized_pair``.  The reduction of the resulting global state
reproduces the target exactly, for either exchange statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, check_density_matrix, nth_root_dim
from .spatial import SpatialRegion, mode_wavefunction
from .states import BuiltState, symmetrized_pair
from .symmetry import Parity

RANK_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class EmbeddingPlan:
    """Resources needed to embed a target state: its effective rank equals
    the number of spatial modes consumed on each side."""

    target: np.ndarray
    rank: int
    modes_per_side: int


def embedding_plan(sigma, cutoff: float = RANK_CUTOFF) -> EmbeddingPlan:
    sigma = check_density_matrix(as_matrix(sigma))
    eigs = np.linalg.eigvalsh((sigma + sigma.conj().T) / 2.0)
    rank = int((eigs > cutoff).sum())
    return EmbeddingPlan(sigma, rank, rank)


def embed_pure(
    phi,
    region1: SpatialRegion,
    region2: SpatialRegion,
    parity: Parity,
    num_modes: int,
) -> BuiltState:
    """Globally (anti)symmetric two-particle state whose reduction over the
    two regions is the pure target ``phi`` on spin x spin."""
    phi = as_vector(phi)
    if not region1.disjoint_from(region2):
        raise ValueError("embedding regions must be disjoint")
    region1.require_within(num_modes)
    region2.require_within(num_modes)
    spin_dim = nth_root_dim(phi.size, 2)
    coeffs = phi.reshape(spin_dim, spin_dim)
    f = mode_wavefunction(region1.sorted_modes()[0], num_modes).amplitudes
    g = mode_wavefunction(region2.sorted_modes()[0], num_modes).amplitudes
    return symmetrized_pair(np.einsum("a,b,ij->aibj", f, g, coeffs), parity)


def embed_mixed(
    sigma,
    region1: SpatialRegion,
    region2: SpatialRegion,
    parity: Parity,
    num_modes: int,
    cutoff: float = RANK_CUTOFF,
) -> BuiltState:
    """Globally (anti)symmetric two-particle state whose reduction over the
    two regions is the target density matrix ``sigma`` on spin x spin.

    Each region must contain at least rank(sigma) modes; the spectral
    decomposition fixes the construction deterministically.
    """
    if not region1.disjoint_from(region2):
        raise ValueError("embedding regions must be disjoint")
    region1.require_within(num_modes)
    region2.require_within(num_modes)
    sigma = check_density_matrix(as_matrix(sigma))
    spin_dim = nth_root_dim(sigma.shape[0], 2)

    eigvals, eigvecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    order = [k for k in range(eigvals.size - 1, -1, -1) if eigvals[k] > cutoff]
    rank = len(order)
    if rank == 0:
        raise ValueError("target state has no weight above the rank cutoff")
    for name, region in (("region1", region1), ("region2", region2)):
        if len(region.modes) < rank:
            raise ValueError(
                f"{name} has {len(region.modes)} modes but the target has rank {rank}"
            )
    modes1 = region1.sorted_modes()[:rank]
    modes2 = region2.sorted_modes()[:rank]

    # one product (f x e_i) x (g x e_j) per eigenvector, in fresh modes f and g
    product = sum(
        np.einsum(
            "a,b,ij->aibj",
            mode_wavefunction(modes1[slot], num_modes).amplitudes,
            mode_wavefunction(modes2[slot], num_modes).amplitudes,
            float(np.sqrt(eigvals[k])) * eigvecs[:, k].reshape(spin_dim, spin_dim),
        )
        for slot, k in enumerate(order)
    )
    return symmetrized_pair(product, parity)
