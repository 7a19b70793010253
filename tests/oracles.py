"""Brute-force reference implementations used as independent oracles.

Everything here is written as explicit loops over the defining formulas, so
the tests never check the library against itself.  The one exception is
``bipartition_by_dense_generators``, the dense sweep that the closed-form
``bipartition_check`` replaced: it multiplies the dense lifted generators and
the dense antisymmetrizer, which the acceptance criteria check against loops.
"""

import itertools
import math

import numpy as np

from spinsep.algebra import PROJECTION_TOL, BipartitionVerdict, hermitian_basis, local_generator
from spinsep.linalg import as_matrix, frob, projection_defect
from spinsep.symmetry import Parity, symmetrizer


def kron_by_loops(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for ia in range(ra):
        for ja in range(ca):
            for ib in range(rb):
                for jb in range(cb):
                    out[ia * rb + ib, ja * cb + jb] = a[ia, ja] * b[ib, jb]
    return out


def kron_vec_by_loops(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(a.size * b.size, dtype=complex)
    for ia in range(a.size):
        for ib in range(b.size):
            out[ia * b.size + ib] = a[ia] * b[ib]
    return out


def partial_trace_by_loops(mat, dims, keep):
    mat = np.asarray(mat, dtype=complex)
    dims = tuple(dims)
    keep = sorted(set(keep))
    drop = [ax for ax in range(len(dims)) if ax not in keep]
    d_keep = math.prod(dims[ax] for ax in keep) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(multi):
        idx = 0
        for ax, digit in enumerate(multi):
            idx = idx * dims[ax] + digit
        return idx

    def flat_keep(multi):
        idx = 0
        for ax in keep:
            idx = idx * dims[ax] + multi[ax]
        return idx

    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            if any(row[ax] != col[ax] for ax in drop):
                continue
            out[flat_keep(row), flat_keep(col)] += mat[flat(row), flat(col)]
    return out


def permanent_by_enumeration(g):
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= g[i, perm[i]]
        total += prod
    return total


def determinant_by_enumeration(g):
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        sign = perm_sign_by_count(perm)
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= g[i, perm[i]]
        total += sign * prod
    return total


def perm_sign_by_count(perm):
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def partial_transpose_by_loops(rho, d_left, d_right):
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for i in range(d_left):
        for j in range(d_right):
            for k in range(d_left):
                for l in range(d_right):
                    out[i * d_right + j, k * d_right + l] = rho[
                        i * d_right + l, k * d_right + j
                    ]
    return out


def lifted_product_by_loops(ops):
    """Sum over slot permutations of the tensor product, via loop krons."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    n = len(ops)
    dim = ops[0].shape[0]
    total = dim**n
    out = np.zeros((total, total), dtype=complex)
    for perm in itertools.permutations(range(n)):
        term = np.ones((1, 1), dtype=complex)
        for k in range(n):
            term = kron_by_loops(term, ops[perm[k]])
        out += term
    return out


def rand_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_hermitian(rng, n):
    a = rand_matrix(rng, n)
    return (a + a.conj().T) / 2.0


def rand_density(rng, n, rank=None):
    rank = n if rank is None else rank
    g = rand_matrix(rng, n, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_projection(rng, n, rank):
    q, _ = np.linalg.qr(rand_matrix(rng, n))
    basis = q[:, :rank]
    return basis @ basis.conj().T


def reduced_spin_by_matrix_units(rho, regions, spin_dim, num_modes):
    """Reduced spin matrix entry by entry: entry (bra, ket) is the sum over
    slot permutations of tr(rho . (x_k P_{sigma(k)} x E_{ket, bra})), one
    contraction per matrix unit and permutation.  ``regions`` are objects
    with a ``modes`` collection, one per particle."""
    rho = np.asarray(rho, dtype=complex)
    n = len(regions)
    one_dim = num_modes * spin_dim
    projs = []
    for region in regions:
        proj = np.zeros((num_modes, num_modes), dtype=complex)
        for m in region.modes:
            proj[m, m] = 1.0
        projs.append(proj)

    def unit(row, col):
        mat = np.zeros((spin_dim, spin_dim), dtype=complex)
        mat[row, col] = 1.0
        return mat

    def product_trace(rho_tensor, mats):
        args = [rho_tensor, list(range(2 * n))]
        for k, m in enumerate(mats):
            args.extend([m, [n + k, k]])
        args.append([])
        return complex(np.einsum(*args, optimize=True))

    def flatten(multi):
        idx = 0
        for digit in multi:
            idx = idx * spin_dim + digit
        return idx

    rho_tensor = rho.reshape((one_dim,) * (2 * n))
    spin_total = spin_dim**n
    reduced = np.zeros((spin_total, spin_total), dtype=complex)
    for ket in itertools.product(range(spin_dim), repeat=n):
        for bra in itertools.product(range(spin_dim), repeat=n):
            slots = [np.kron(projs[k], unit(ket[k], bra[k])) for k in range(n)]
            value = 0.0 + 0.0j
            for perm in itertools.permutations(range(n)):
                value += product_trace(rho_tensor, [slots[perm[k]] for k in range(n)])
            reduced[flatten(bra), flatten(ket)] = value
    return reduced


def bipartition_by_dense_generators(p, q, spin_dim: int, tol: float = 1e-10) -> BipartitionVerdict:
    """Sweep both local subalgebras over a Hermitian spin-operator basis and
    report the largest commutator norm with the pair achieving it.

    ``p`` and ``q`` must be orthogonal projections.  The same commutators
    compressed to the antisymmetric two-particle subspace are reported
    separately.
    """
    p = as_matrix(p)
    q = as_matrix(q)
    for name, mat in (("p", p), ("q", q)):
        if projection_defect(mat) > PROJECTION_TOL:
            raise ValueError(f"{name} is not an orthogonal projection within tolerance")

    basis = hermitian_basis(spin_dim)
    gens_1 = [(label, local_generator(1, op, p, q)) for label, op in basis]
    gens_2 = [(label, local_generator(2, op, p, q)) for label, op in basis]
    pi_minus = symmetrizer(2, p.shape[0] * spin_dim, Parity.FERMI)

    max_norm = 0.0
    witness: tuple[str, str] | None = None
    max_proj = 0.0
    proj_witness: tuple[str, str] | None = None
    for label_a, gen_a in gens_1:
        for label_b, gen_b in gens_2:
            comm = gen_a @ gen_b - gen_b @ gen_a
            norm = frob(comm)
            if norm > max_norm:
                max_norm = norm
                witness = (label_a, label_b)
            proj_norm = frob(pi_minus @ comm @ pi_minus)
            if proj_norm > max_proj:
                max_proj = proj_norm
                proj_witness = (label_a, label_b)

    commutes = max_norm <= tol
    return BipartitionVerdict(
        commutes=commutes,
        max_commutator_norm=max_norm,
        witness=None if commutes else witness,
        projected_max_norm=max_proj,
        projected_witness=None if max_proj <= tol else proj_witness,
    )
