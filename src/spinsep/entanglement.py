"""Entanglement diagnostics for bipartite states: Schmidt decomposition,
von Neumann entropy (base 2), partial transpose, negativity and the
separability verdict read off it."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, as_vector, check_state_vector

PPT_DECISIVE_DIMS = {(2, 2), (2, 3)}
NEGATIVITY_TOL = 1e-10

SEPARABLE = "separable"
ENTANGLED = "entangled"
PPT_INCONCLUSIVE = "ppt_inconclusive"


class SchmidtData(NamedTuple):
    coefficients: np.ndarray  # descending, non-negative; squares sum to 1
    left: np.ndarray          # columns are the left Schmidt vectors
    right: np.ndarray         # columns are the right Schmidt vectors


def _split_dims(total: int, d_left: int, d_right: int) -> None:
    if d_left < 1 or d_right < 1 or d_left * d_right != total:
        raise ValueError(
            f"bipartition {d_left} x {d_right} does not match dimension {total}"
        )


def schmidt(psi, d_left: int, d_right: int) -> SchmidtData:
    """Schmidt decomposition of a pure bipartite state via SVD; the state is
    the coefficient-weighted sum of left x right vector pairs."""
    psi = check_state_vector(as_vector(psi))
    _split_dims(psi.size, d_left, d_right)
    matrix = psi.reshape(d_left, d_right)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return SchmidtData(s, u, vh.T)


def von_neumann_entropy(rho) -> float:
    """Entropy in bits, with 0 log 0 = 0.  Eigenvalues at or below size * eps * the
    largest are rounding, not population: they are dropped and the rest renormalized,
    so a pure state reads exactly 0.  ``rho`` is not validated; ``check_density_matrix``
    does that."""
    rho = as_matrix(rho)
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)  # ascending
    kept = eigs[eigs > eigs.size * np.finfo(float).eps * eigs[-1]]
    kept = kept / kept.sum()
    return float(-(kept * np.log2(kept)).sum() + 0.0)


def partial_transpose(rho, d_left: int, d_right: int) -> np.ndarray:
    """Transpose the right tensor factor of a bipartite operator."""
    rho = as_matrix(rho)
    _split_dims(rho.shape[0], d_left, d_right)
    tensor = rho.reshape(d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1)
    return tensor.reshape(d_left * d_right, d_left * d_right)


def negativity(rho, d_left: int, d_right: int) -> float:
    """Absolute sum of the negative eigenvalues of the partial transpose;
    zero exactly for PPT states."""
    transposed = partial_transpose(rho, d_left, d_right)
    eigs = np.linalg.eigvalsh((transposed + transposed.conj().T) / 2.0)
    return float(-eigs[eigs < 0.0].sum() + 0.0)


def separability(neg: float, d_left: int, d_right: int) -> str:
    """Separability verdict from the negativity of a d_left x d_right state.

    Negativity above ``NEGATIVITY_TOL`` certifies entanglement in any dimension; a
    vanishing negativity certifies separability only for 2x2 and 2x3
    bipartitions and is reported as inconclusive otherwise.
    """
    if neg > NEGATIVITY_TOL:
        return ENTANGLED
    if tuple(sorted((d_left, d_right))) in PPT_DECISIVE_DIMS:
        return SEPARABLE
    return PPT_INCONCLUSIVE
