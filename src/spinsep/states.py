"""Constructors for (anti)symmetrized states of n particles carrying interleaved
spatial and spin degrees of freedom: each forms one product tensor of one
localized factor per particle (for a superposition, the weighted sum of such
products) and (anti)symmetrizes it with one ``symmetry.symmetrize`` call; the
superposition and the embeddings share the tail ``symmetrized_sum``.

Every constructor renormalizes its result and reports the pre-normalization
norm, so callers can audit the bookkeeping of unnormalized superpositions.
A pre-normalization norm below ``ZERO_TOL`` raises ``ZeroStateError`` (e.g.
antisymmetrizing two identical factors).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import as_vector, kron, permute_factors
from .spatial import SpaceSpec, Wavefunction
from .symmetry import MAX_PARTICLES, Parity, symmetrize

ZERO_TOL = 1e-12


class ZeroStateError(ValueError):
    """The requested state vanishes after (anti)symmetrization/projection."""


@dataclass(frozen=True, eq=False)
class LocalizedFactor:
    """A one-particle building block: spatial wavefunction times spin vector."""

    wavefunction: Wavefunction
    spin: np.ndarray

    def __post_init__(self):
        spin = as_vector(self.spin)
        if abs(np.linalg.norm(spin) - 1.0) > 1e-12:
            raise ValueError("spin vector must have unit norm")
        object.__setattr__(self, "spin", spin)

    @property
    def spin_dim(self) -> int:
        return self.spin.size

    def vector(self) -> np.ndarray:
        """The one-particle vector in the mode-slowest index convention."""
        return kron(self.wavefunction.amplitudes, self.spin)


@dataclass(frozen=True, eq=False)
class SuperpositionTerm:
    """One product of a superposition: a factor per particle, with an optional weight."""

    factors: tuple[LocalizedFactor, ...]
    weight: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        w = complex(self.weight)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError("term weight must be finite")
        object.__setattr__(self, "weight", w)


class BuiltState(NamedTuple):
    vector: np.ndarray
    raw_norm: float


def _product(factors: Sequence[LocalizedFactor], first: LocalizedFactor) -> np.ndarray:
    """The Kronecker product of the factors' vectors, each factor checked against ``first``;
    np.outer (which flattens its inputs) forms np.kron's products without its overhead."""
    for f in factors:
        if f.wavefunction.num_modes != first.wavefunction.num_modes:
            raise ValueError("factors live in spatial spaces of different dimension")
        if f.spin_dim != first.spin_dim:
            raise ValueError("factors carry spins of different dimension")
    return functools.reduce(np.outer, [f.vector() for f in factors]).reshape(-1)


def _finalize(raw: np.ndarray) -> BuiltState:
    norm = float(np.linalg.norm(raw))
    if norm < ZERO_TOL:
        raise ZeroStateError("state vanishes after (anti)symmetrization")
    return BuiltState(raw / norm, norm)


def superposition_state(terms: Sequence[SuperpositionTerm], parity: Parity) -> BuiltState:
    """Weighted sum of (anti)symmetrized n-particle products, normalized.

    With unit weights and orthonormal wavefunction families the
    pre-normalization norm is sqrt(n! N) for N terms.
    """
    if not terms:
        raise ValueError("superposition needs at least one term")
    n = len(terms[0].factors)
    if not 1 <= n <= MAX_PARTICLES or any(len(t.factors) != n for t in terms):
        raise ValueError(f"every term needs the same number of factors, 1 to {MAX_PARTICLES}")
    first = terms[0].factors[0]
    product = sum(t.weight * _product(t.factors, first) for t in terms)
    return symmetrized_sum(product, n, first.wavefunction.num_modes * first.spin_dim, parity)


def symmetrized_sum(product: np.ndarray, n: int, dim: int, parity: Parity) -> BuiltState:
    """The normalized sum over sigma of phase(sigma) U_sigma x of an n-particle
    tensor x on (C^dim)^n, whose leading axes index the first particle: n!
    times its (anti)symmetric projection, with no 1/sqrt(n!)."""
    return _finalize(symmetrize(product.reshape(-1), n, dim, parity) * math.factorial(n))


def n_particle_localized(
    factors: Sequence[LocalizedFactor], parity: Parity
) -> BuiltState:
    """Sign-weighted sum over all orderings of n one-particle factors, with
    the 1/sqrt(n!) prefactor.  The squared pre-normalization norm equals the
    determinant (Fermi) or permanent (Bose) of the factors' Gram matrix."""
    n = len(factors)
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be between 1 and {MAX_PARTICLES}")
    dim = factors[0].wavefunction.num_modes * factors[0].spin_dim
    raw = symmetrize(_product(factors, factors[0]), n, dim, parity) * math.factorial(n)
    # symmetrized_sum without its raw norm sqrt(n!): n! / sqrt(n!) in two steps, as a single
    # * sqrt(n!) rounds differently and moves the reports of the bundled scenarios
    return _finalize(raw / math.sqrt(math.factorial(n)))


class SubspaceKind(enum.Enum):
    """Special subspaces whose spatial reduction hides, keeps, or flips the
    exchange statistics of the spin part."""

    SHARED_SPATIAL = "shared_spatial"          # every particle in one mode
    SYMMETRIC_SPATIAL = "symmetric_spatial"    # symmetric space x antisymmetric spin
    ANTISYMMETRIC_SPATIAL = "antisymmetric_spatial"  # antisymmetric space x symmetric spin


def interleave_particles(grouped: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Reorder a vector from (modes^n) x (spins^n) grouping to the interleaved
    (mode, spin)^n convention."""
    n = spec.particles
    dims = (spec.num_modes,) * n + (spec.spin_dim,) * n
    # input factor k (a mode) goes to slot 2k, input factor n+k (a spin) to slot 2k+1
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return permute_factors(grouped, dims, perm)


def _project_or_raise(projected: np.ndarray, what: str) -> np.ndarray:
    if float(np.linalg.norm(projected)) < ZERO_TOL:
        raise ZeroStateError(f"{what} part vanishes under the required projection")
    return projected


def subspace_state(
    kind: SubspaceKind,
    spatial_part,
    spin_part,
    spec: SpaceSpec,
) -> BuiltState:
    """Build a global vector in one of the special subspaces.

    ``shared_spatial``: ``spatial_part`` is a length-``num_modes`` amplitude
    vector and ``spin_part`` is either one spin-space vector (broadcast over
    modes) or one per mode; each spin vector is projected onto the
    antisymmetric spin subspace.

    ``symmetric_spatial`` / ``antisymmetric_spatial``: ``spatial_part`` is a
    vector on the n-fold mode space and ``spin_part`` on the n-fold spin
    space; both are projected onto the symmetry sector the kind demands.

    The parts are renormalized internally.
    """
    n = spec.particles

    if kind is SubspaceKind.SHARED_SPATIAL:
        c = as_vector(spatial_part)
        if c.size != spec.num_modes:
            raise ValueError("mode amplitude vector has wrong length")
        # column m of chis is the antisymmetrized spin vector of mode m
        chis = symmetrize(_per_mode_spins(spin_part, spec).T, n, spec.spin_dim, Parity.FERMI)
        grouped = np.zeros((spec.num_modes,) * n + (chis.shape[0],), dtype=complex)
        # mode m's spins go to the diagonal entry (m, ..., m) of the n mode factors
        grouped[(np.arange(spec.num_modes),) * n] += c[:, None] * chis.T
    else:
        phi = as_vector(spatial_part)
        chi = as_vector(spin_part)
        if phi.size != spec.num_modes**n:
            raise ValueError("spatial part has wrong dimension")
        if chi.size != spec.spin_dim**n:
            raise ValueError("spin part has wrong dimension")
        if kind is SubspaceKind.SYMMETRIC_SPATIAL:
            spatial_parity, spin_parity = Parity.BOSE, Parity.FERMI
        elif kind is SubspaceKind.ANTISYMMETRIC_SPATIAL:
            spatial_parity, spin_parity = Parity.FERMI, Parity.BOSE
        else:
            raise ValueError(f"unknown subspace kind {kind!r}")
        phi = _project_or_raise(symmetrize(phi, n, spec.num_modes, spatial_parity), "spatial")
        chi = _project_or_raise(symmetrize(chi, n, spec.spin_dim, spin_parity), "spin")
        grouped = kron(phi, chi)

    raw = interleave_particles(grouped.reshape(-1), spec)
    norm = float(np.linalg.norm(raw))
    if norm < ZERO_TOL:
        raise ZeroStateError("subspace state vanishes after projection")
    return BuiltState(raw / norm, norm)


def _per_mode_spins(spin_part, spec: SpaceSpec) -> np.ndarray:
    """The (modes x spin^n) matrix of per-mode spins; one vector is broadcast, not copied."""
    shape = (spec.num_modes, spec.spin_dim**spec.particles)
    arr = np.asarray(spin_part, dtype=complex)
    if arr.ndim == 1:
        if arr.size != shape[1]:
            raise ValueError("spin part has wrong dimension")
        return np.broadcast_to(arr, shape)
    if arr.ndim == 2:
        if arr.shape != shape:
            raise ValueError("per-mode spin list has wrong shape")
        return arr
    raise ValueError("spin part must be a vector or a per-mode list of vectors")
