"""Extraction of spin-only reduced states.

The central operation measures a global n-particle state in n spatial
regions and keeps only the spins.  Statistics enter solely through the sum
over permutations sigma of S_n:

    R = sum_sigma Perm_sigma( sum_{m in R_sigma(0) x ... x R_sigma(n-1)} <m|rho|m> ),

where <m|rho|m> is the spin block of rho at the mode tuple m and Perm_sigma
permutes the n spin factors.  Entry (j, i) of ``R`` is the expectation of the
lifted product whose k-th slot is ``P_k x E_{i_k j_k}``, so the cluster
expectation <(P x a) . (Q x 1)> is tr(a . tr_2 R).  One kernel sums spin blocks
over a set of mode tuples, once per sigma for the probe (Perm_sigma reorders the
spin axes of the state's view) and once over every tuple for the spatial trace.
A pure state enters as its vector psi (rho = |psi><psi|), so its dense density
matrix is never formed.
For pairwise disjoint, fully localizing regions the result is a genuine
density matrix with trace equal to the joint localization probability; for
overlapping regions the same formula still applies and the diagnostics
(trace, Hermiticity defect, minimum eigenvalue) report how the construction
degrades.  The Gram-weighted two-particle closed form, which reads the
reduction off one-particle overlaps, is not part of this module: it lives
with the test oracles (``tests/oracles.py``), where it checks the probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import as_matrix, as_vector, dagger, frob, nth_root_dim
from .spatial import SpaceSpec, SpatialRegion
from .symmetry import (
    ANTISYMMETRIC,
    NO_SYMMETRY,
    SYMMETRIC,
    Parity,
    compress,
    enumerate_sn,
)

TRACE_FLOOR = 1e-10
EIG_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class RawReduced:
    """Un-normalized reduced spin matrix plus diagnostics."""

    matrix: np.ndarray
    trace: float
    hermiticity_defect: float
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class ReductionReport:
    raw: RawReduced
    normalized: np.ndarray | None
    symmetry_class: str | None
    valid_state: bool


class SymmetryVerdict(NamedTuple):
    label: str
    antisymmetric_defect: float
    symmetric_defect: float


def _state_operand(state) -> np.ndarray:
    """A pure state vector (1-D) or a square density matrix (2-D), complex and finite."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return as_vector(state)
    state = as_matrix(state)
    if state.shape[0] != state.shape[1]:
        raise ValueError("state matrix must be square")
    return state


def _mode_blocks(
    state: np.ndarray, modes: tuple, num_modes: int, spin_dim: int, order: Sequence[int]
) -> np.ndarray:
    """Sum of the spin blocks <m|state|m> over the mode tuples m that ``modes`` selects,
    one index per particle: an ``np.ix_`` mesh, or ``slice(None)`` each for every tuple.
    Spin factor k of the result is the state's factor ``order[k]``.  psi enters as M[m, s]
    (mode axes first), giving M[modes]^T conj(M[modes]); rho through its diagonal view
    B[m, s, t] = <m, s|rho|m, t>, summed over B[modes]."""
    n = len(modes)
    shape = (num_modes, spin_dim) * n
    spin_total = spin_dim**n
    if state.ndim == 1:
        m = state.reshape(shape).transpose([*range(0, 2 * n, 2), *(2 * k + 1 for k in order)])
        m = m[modes].reshape(-1, spin_total)
        return m.T @ m.conj()
    # particle k: mode axis k on both sides, spin axis n + k of the row, 2n + k of the column
    axes = [a for side in (n, 2 * n) for k in range(n) for a in (k, side + k)]
    out = [*range(n), *(n + k for k in order), *(2 * n + k for k in order)]
    blocks = np.einsum(state.reshape(shape * 2), axes, out)
    return blocks[modes].sum(axis=tuple(range(n))).reshape(spin_total, spin_total)


def reduced_spin_probe(
    state,
    regions: Sequence[SpatialRegion],
    spin_dim: int,
    num_modes: int | None = None,
) -> RawReduced:
    """Reduced spin matrix of ``state`` measured in the given regions.

    ``state`` is a state vector psi or a density matrix rho on the interleaved
    n-particle space; ``regions`` assigns one spatial region per measurement
    slot.  For each permutation sigma the spin blocks are summed over the mode
    tuples whose k-th mode lies in region sigma(k), with their spin factors
    permuted by sigma on the view of the state.  Linear in rho.
    """
    state = _state_operand(state)
    n = len(regions)
    one_dim = nth_root_dim(state.shape[0], n)
    num_modes = one_dim // spin_dim if num_modes is None else num_modes
    if num_modes * spin_dim != one_dim:
        raise ValueError(f"{num_modes} modes of spin dimension {spin_dim} do not match the state")
    for region in regions:
        region.require_within(num_modes)

    modes = [region.sorted_modes() for region in regions]
    reduced = np.zeros((spin_dim**n, spin_dim**n), dtype=complex)
    for perm in enumerate_sn(n):
        mesh = np.ix_(*[modes[p] for p in perm])
        reduced += _mode_blocks(state, mesh, num_modes, spin_dim, np.argsort(perm))

    trace = float(np.trace(reduced).real)
    defect = frob(reduced - dagger(reduced))
    min_eig = float(np.linalg.eigvalsh((reduced + dagger(reduced)) / 2.0)[0])
    return RawReduced(reduced, trace, defect, min_eig)


def trace_out_spatial(state, spec: SpaceSpec) -> np.ndarray:
    """Ordinary partial trace over every spatial factor of the interleaved
    layout, keeping the n spin factors in particle order.

    ``state`` is a state vector psi or a density matrix rho; the result is the
    sum of its spin blocks over every mode tuple.
    """
    state = _state_operand(state)
    if state.shape[0] != spec.total_dim:
        raise ValueError("state dimension does not match the space description")
    n = spec.particles
    return _mode_blocks(state, (slice(None),) * n, spec.num_modes, spec.spin_dim, range(n))


def classify_symmetry(
    rho_spin, particles: int, spin_dim: int, tol: float = 1e-10
) -> SymmetryVerdict:
    """Which spin-space symmetry sector supports the matrix: antisymmetric,
    symmetric, or neither (compression defects reported for both)."""
    rho_spin = as_matrix(rho_spin)
    total = spin_dim**particles
    if rho_spin.shape != (total, total):
        raise ValueError("matrix does not act on the n-spin space")
    defect_minus = frob(compress(rho_spin, particles, spin_dim, Parity.FERMI) - rho_spin)
    defect_plus = frob(compress(rho_spin, particles, spin_dim, Parity.BOSE) - rho_spin)
    if defect_minus <= tol:
        label = ANTISYMMETRIC
    elif defect_plus <= tol:
        label = SYMMETRIC
    else:
        label = NO_SYMMETRY
    return SymmetryVerdict(label, defect_minus, defect_plus)


def cluster_expectation(
    psi,
    region_a: SpatialRegion,
    spin_op,
    region_b: SpatialRegion,
    num_modes: int | None = None,
) -> complex:
    """Expectation of the lifted product (P x a) . (Q x 1) in a two-particle
    state: the remote-cluster probe of a single spin observable, read off the
    probe matrix R over [A, B] as tr(a . tr_2 R)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    spin_op = as_matrix(spin_op)
    spin_dim = spin_op.shape[0]
    reduced = reduced_spin_probe(psi, [region_a, region_b], spin_dim, num_modes).matrix
    # R[(j0, k), (i0, k)] summed over k is (tr_2 R)[j0, i0]
    return complex(np.einsum("ij,jkik->", spin_op, reduced.reshape((spin_dim,) * 4)))


def reduction_report(
    raw: RawReduced,
    particles: int,
    spin_dim: int,
    tol: float = 1e-10,
) -> ReductionReport:
    """Normalize a raw reduction when its diagnostics allow it and classify
    the symmetry sector of the normalized state."""
    normalized = None
    symmetry = None
    if raw.trace > TRACE_FLOOR and raw.min_eigenvalue >= EIG_FLOOR:
        hermitian_part = (raw.matrix + dagger(raw.matrix)) / 2.0
        normalized = hermitian_part / raw.trace
        symmetry = classify_symmetry(normalized, particles, spin_dim, tol).label
    valid = normalized is not None and raw.hermiticity_defect <= tol
    return ReductionReport(raw, normalized, symmetry, valid)
