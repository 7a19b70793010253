"""Commutation of localized spin subalgebras.

Two families of lifted two-particle operators are generated by placing a spin
observable behind one region projector and the identity behind the other.
Sweeping both spin slots over a Hermitian operator basis decides, by
bilinearity, whether the full subalgebras commute; they do exactly when the
two region projectors annihilate each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frob, identity, kron, matrix_unit, projection_defect
from .symmetry import Parity, symmetrize

PROJECTION_TOL = 1e-10
COMMUTE_TOL = 1e-10  # commutator norms at or below it read as zero
TIE_TOL = 1e-12  # relative spread of norms read as one maximum


@dataclass(frozen=True, eq=False)
class BipartitionVerdict:
    commutes: bool
    max_commutator_norm: float
    witness: tuple[str, str] | None
    # same sweep compressed to the two-fermion subspace
    projected_max_norm: float
    projected_witness: tuple[str, str] | None


def hermitian_basis(dim: int) -> list[tuple[str, np.ndarray]]:
    """A labelled Hermitian basis of the dim x dim matrices: diagonal units
    plus symmetric and antisymmetric off-diagonal combinations."""
    basis: list[tuple[str, np.ndarray]] = []
    for k in range(dim):
        basis.append((f"e{k}{k}", matrix_unit(dim, k, k)))
    for k in range(dim):
        for l in range(k + 1, dim):
            basis.append((f"x{k}{l}", matrix_unit(dim, k, l) + matrix_unit(dim, l, k)))
            basis.append(
                (f"y{k}{l}", 1j * (matrix_unit(dim, l, k) - matrix_unit(dim, k, l)))
            )
    return basis


def commutator_expansion(p, q, a1, a2) -> np.ndarray:
    """Closed four-term form of the commutator of two local generators, in
    the interleaved (mode, spin, mode, spin) factor order."""
    p, q, a1, a2 = (as_matrix(m) for m in (p, q, a1, a2))
    eye = identity(a1.shape[0])
    pq = p @ q
    qp = q @ p
    a12 = a1 @ a2
    a21 = a2 @ a1
    return (
        kron(qp, eye, pq, a12)
        - kron(pq, eye, qp, a21)
        + kron(pq, a12, qp, eye)
        - kron(qp, a21, pq, eye)
    )


def _first_maximum(pairs: list[tuple[str, str]], norms: list[float]) -> tuple[float, tuple]:
    """The largest norm, and the first pair in sweep order within a relative TIE_TOL
    of it: relabelling the spin levels ties several pairs at every maximum."""
    top = max(norms)
    return top, next(pair for pair, norm in zip(pairs, norms) if norm >= top * (1 - TIE_TOL))


def bipartition_check(p, q, spin_dim: int) -> BipartitionVerdict:
    """Sweep both local subalgebras over a Hermitian spin-operator basis and
    report the largest commutator norm with the pair achieving it.

    Each commutator is the closed form of ``commutator_expansion``, so no
    generator is formed.  ``p`` and ``q`` must be orthogonal projections.  The
    same commutators compressed to the antisymmetric two-particle subspace
    are reported separately.
    """
    p, q = as_matrix(p), as_matrix(q)
    for name, mat in (("p", p), ("q", q)):
        if projection_defect(mat) > PROJECTION_TOL:
            raise ValueError(f"{name} is not an orthogonal projection within tolerance")

    basis = hermitian_basis(spin_dim)
    pairs, norms, proj_norms = [], [], []
    for label_a, a in basis:
        for label_b, b in basis:
            comm = commutator_expansion(p, q, a, b)
            pairs.append((label_a, label_b))
            norms.append(frob(comm))
            # The particle swap S maps qp x pq to pq x qp and exchanges the spin parts, so
            # S C S = C and Pi C Pi = Pi C: one antisymmetrizing pass over the rows.
            proj_norms.append(frob(symmetrize(comm, 2, p.shape[0] * spin_dim, Parity.FERMI)))
    max_norm, witness = _first_maximum(pairs, norms)
    max_proj, proj_witness = _first_maximum(pairs, proj_norms)

    commutes = max_norm <= COMMUTE_TOL
    return BipartitionVerdict(
        commutes=commutes,
        max_commutator_norm=max_norm,
        witness=None if commutes else witness,
        projected_max_norm=max_proj,
        projected_witness=None if max_proj <= COMMUTE_TOL else proj_witness,
    )
