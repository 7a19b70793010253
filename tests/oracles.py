"""Brute-force reference implementations used as independent oracles.

Everything here is written as explicit loops over the defining formulas, so
the tests never check the library against itself.  The exceptions are
formulations the package replaced or no longer calls, kept to check what
replaced them or because the tests still exercise them:
``bipartition_by_dense_generators``, the dense sweep that the closed-form
``bipartition_check`` replaced (it multiplies the dense lifted generators of
``local_generator`` and the dense antisymmetrizer, which the acceptance
criteria check against loops); ``reduced_spin_by_einsum``, the
per-permutation contraction that the mode-block kernel of
``reduced_spin_probe`` replaced; ``symmetrize_by_permutations``, the n!-term
sum of transposed views that the coset recursion of ``symmetrize`` replaced,
with the dense ``perm_unitary`` and ``symmetrizer`` matrices and the
``perm_compose`` and ``perm_inverse`` helpers; ``reduced_spin_closed_form``,
the Gram-weighted two-particle reduction from one-particle overlaps; the
state constructions that ``symmetrize`` replaced:
``n_particle_localized_by_kron``, the n!-term Kronecker sum,
``superposition_by_brackets``, the same sum over every term of a superposition,
``n_particle_localized_by_pair_checks``, the body of ``n_particle_localized``
before it shared the product helper of the superposition,
``embed_pure_by_terms``/``embed_mixed_by_terms``, which expand the target
in ``spin_basis_terms`` before adding the brackets up, ``embed_two_regions``
and ``symmetrized_pair``, the two-region embedding core and its bracket that
the n-region ``embedding._embed`` and ``states.symmetrized_sum`` replaced,
``shared_spatial_by_modes``, the per-mode loop that the indexed add on the
mode diagonal in ``subspace_state`` replaced, and ``subspace_state_by_grouping``,
the body of ``subspace_state`` before it wrote the interleaved layout in place,
which lays the parts out as modes^n x spins^n and reorders them with
``interleave_particles``; ``perm_sign_by_count`` and ``phase``, the permutation
weights of the n!-term sums; ``entropy_of_every_eigenvalue``,
the entropy formula that counted rounding as population; and ``partial_trace``,
``hermitian_spectrum``, ``is_separable_pure``, ``is_exchangeable``,
``spatial_projector``, ``permute_factors`` and ``overlap``, which no module of
the package calls.
"""

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from spinsep.algebra import PROJECTION_TOL, BipartitionVerdict, hermitian_basis
from spinsep.entanglement import schmidt
from spinsep.lift import lift_product
from spinsep.linalg import (
    as_matrix,
    as_vector,
    dagger,
    frob,
    hermiticity_defect,
    identity,
    kron,
    nth_root_dim,
    projection_defect,
)
from spinsep.spatial import SpaceSpec, SpatialRegion, Wavefunction, mode_wavefunction, projector
from spinsep.states import (
    ZERO_TOL,
    BuiltState,
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    ZeroStateError,
    _finalize,
    _per_mode_spins,
    _project_or_raise,
)
from spinsep.symmetry import MAX_PARTICLES, Parity, enumerate_sn, symmetrize


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


def phase(parity: Parity, perm) -> int:
    """The weight of a permutation in a sum over S_n: 1 for bosons, its sign for fermions."""
    return 1 if parity is Parity.BOSE else perm_sign_by_count(perm)


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


def partial_transpose_left_by_loops(rho, d_left, d_right):
    """Transpose of the left tensor factor, which the package does not offer."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for i in range(d_left):
        for j in range(d_right):
            for k in range(d_left):
                for l in range(d_right):
                    out[i * d_right + j, k * d_right + l] = rho[
                        k * d_right + j, i * d_right + l
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


def reduced_spin_by_einsum(state, regions, spin_dim, num_modes=None):
    """Reduced spin matrix of a state vector psi or a density matrix rho, one
    ``np.einsum`` per permutation sigma: each particle's mode index is traced
    over the 0/1 mask of region sigma(k), and the spin factors of that partial
    result are permuted by sigma before they are summed."""
    state = np.asarray(state, dtype=complex)
    n = len(regions)
    one_dim = nth_root_dim(state.shape[0], n)
    if num_modes is None:
        if one_dim % spin_dim:
            raise ValueError(
                f"one-particle dimension {one_dim} is not divisible by spin dimension {spin_dim}"
            )
        num_modes = one_dim // spin_dim
    if num_modes * spin_dim != one_dim:
        raise ValueError("mode count and spin dimension do not match the state")

    masks = [np.diag(projector(r, num_modes)) for r in regions]
    shape = (num_modes, spin_dim) * n
    # labels: mode of particle k -> k, row spin -> n + k, column spin -> 2n + k;
    # the mode label repeats on both sides, so each mode index is traced
    row_labels = [lab for k in range(n) for lab in (k, n + k)]
    col_labels = [lab for k in range(n) for lab in (k, 2 * n + k)]
    if state.ndim == 1:  # rho = psi psi^dag: the row side is psi, the column side its conjugate
        operands = [state.reshape(shape), row_labels, state.conj().reshape(shape), col_labels]
    else:
        operands = [state.reshape(shape * 2), row_labels + col_labels]
    spin_total = spin_dim**n
    spin_dims = (spin_dim,) * n
    reduced = np.zeros((spin_total, spin_total), dtype=complex)
    for perm in enumerate_sn(n):
        args = list(operands)
        for k in range(n):
            args.extend([masks[perm[k]], [k]])
        args.append(list(range(n, 3 * n)))
        slot = np.einsum(*args).reshape(spin_total, spin_total)
        reduced += permute_factors(slot, spin_dims, perm)
    return reduced


def partial_trace(mat, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` are the factor dimensions (slowest first); ``keep`` is a set of
    factor indices.  The result acts on the kept factors in their original
    order, and ``trace(result) == trace(mat)``.
    """
    mat = as_matrix(mat)
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match factor dims {dims}")
    k = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {k} factors")

    tensor = mat.reshape(dims + dims)
    row_sub = list(range(k))
    col_sub = []
    fresh = k
    for ax in range(k):
        if ax in keep:
            col_sub.append(fresh)
            fresh += 1
        else:
            col_sub.append(ax)  # repeated label -> traced
    out_sub = [ax for ax in keep] + [col_sub[ax] for ax in keep]
    reduced = np.einsum(tensor, row_sub + col_sub, out_sub)
    d_keep = math.prod(dims[ax] for ax in keep)
    return reduced.reshape(d_keep, d_keep)


def entropy_of_every_eigenvalue(rho) -> float:
    """Von Neumann entropy in bits over every positive eigenvalue, rounding included:
    the formula that ``von_neumann_entropy`` replaced with one that drops eigenvalues
    at the rounding level of the largest."""
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    eigs = np.clip(eigs.real, 0.0, None)
    positive = eigs[eigs > 0.0]
    return float(-(positive * np.log2(positive)).sum() + 0.0)


def hermitian_spectrum(mat, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Rejects inputs whose Hermiticity defect exceeds ``tol`` relative to the
    matrix norm.
    """
    mat = as_matrix(mat)
    scale = max(frob(mat), 1.0)
    if hermiticity_defect(mat) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh((mat + dagger(mat)) / 2.0)


def is_separable_pure(psi, d_left: int, d_right: int, tol: float = 1e-10) -> bool:
    """A pure state is a product state iff its second Schmidt coefficient
    vanishes."""
    data = schmidt(psi, d_left, d_right)
    return data.coefficients.size < 2 or float(data.coefficients[1]) <= tol


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
        # conjugation by a permutation unitary is an exact reindexing
        worst = max(worst, frob(permute_factors(op, (dim,) * n, perm) - op))
    return ExchangeabilityResult(worst <= tol, worst)


def spatial_projector(
    regions: Sequence[SpatialRegion], num_modes: int, spin_dim: int
) -> np.ndarray:
    """Lifted product of region projectors (tensored with spin identities).

    An orthogonal projection whenever the regions are pairwise disjoint;
    otherwise the idempotency defect is the caller's diagnostic.
    """
    factors = [kron(projector(r, num_modes), identity(spin_dim)) for r in regions]
    return lift_product(factors)


def _check_permutation(perm: Sequence[int], k: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    return perm


def permute_factors(arr, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a vector or square operator.

    The basis vector ``e_{i_0} x ... x e_{i_{k-1}}`` is mapped to the basis
    vector whose m-th factor is ``e_{i_{perm^{-1}(m)}}``; operators are
    conjugated by the induced permutation matrix.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    perm = _check_permutation(perm, k)
    inv = np.argsort(perm)
    total = math.prod(dims)
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (total,):
            raise ValueError(f"vector length {arr.shape} does not match dims {dims}")
        return arr.reshape(dims).transpose(inv).reshape(total)
    if arr.ndim == 2:
        if arr.shape != (total, total):
            raise ValueError(f"matrix shape {arr.shape} does not match dims {dims}")
        axes = list(inv) + [k + ax for ax in inv]
        return arr.reshape(dims + dims).transpose(axes).reshape(total, total)
    raise ValueError("permute_factors expects a vector or a square matrix")


def overlap(f: Wavefunction, g: Wavefunction) -> complex:
    """Inner product <f|g>, conjugate-linear in the first argument."""
    if f.num_modes != g.num_modes:
        raise ValueError("wavefunctions live in spaces of different dimension")
    return complex(np.vdot(f.amplitudes, g.amplitudes))


def _normalized(raw) -> BuiltState:
    norm = float(np.linalg.norm(raw))
    return BuiltState(raw / norm, norm)


def n_particle_localized_by_kron(factors, parity: Parity) -> BuiltState:
    """Sign-weighted sum over all n! orderings of the factors' Kronecker
    product, with the 1/sqrt(n!) prefactor."""
    n = len(factors)
    vecs = [f.vector() for f in factors]
    raw = None
    for perm in enumerate_sn(n):
        term = phase(parity, perm) * kron(*[vecs[perm[k]] for k in range(n)])
        raw = term if raw is None else raw + term
    raw = raw / math.sqrt(math.factorial(n))
    return _normalized(raw)


def n_particle_localized_by_pair_checks(factors, parity: Parity) -> BuiltState:
    """``n_particle_localized`` before it shared the product helper of the
    superposition: each factor checked against the first as a pair, then the
    Kronecker product of the vectors."""
    n = len(factors)
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be between 1 and {MAX_PARTICLES}")
    for f in factors:
        _check_pair_dims(factors[0], f)
    vecs = [f.vector() for f in factors]
    raw = symmetrize(kron(*vecs), n, vecs[0].size, parity) * math.factorial(n)
    # symmetrized_sum without its raw norm sqrt(n!): n! / sqrt(n!) in two steps, as a single
    # * sqrt(n!) rounds differently and moves the reports of the bundled scenarios
    return _finalize(raw / math.sqrt(math.factorial(n)))


def _check_pair_dims(a: LocalizedFactor, b: LocalizedFactor) -> None:
    if a.wavefunction.num_modes != b.wavefunction.num_modes:
        raise ValueError("factors live in spatial spaces of different dimension")
    if a.spin_dim != b.spin_dim:
        raise ValueError("factors carry spins of different dimension")


def superposition_by_brackets(terms, parity: Parity) -> BuiltState:
    """The explicit n!-term sum over the terms t and the orderings sigma of
    w_t * phase(sigma) * (v_t,sigma(1) x ... x v_t,sigma(n)), normalized."""
    n = len(terms[0].factors)
    raw = None
    for t in terms:
        vecs = [f.vector() for f in t.factors]
        for perm in enumerate_sn(n):
            term = t.weight * phase(parity, perm) * kron(*[vecs[perm[k]] for k in range(n)])
            raw = term if raw is None else raw + term
    return _normalized(raw)


def spin_basis_terms(coeffs: np.ndarray, f_factorizer, g_factorizer, weight_scale):
    """Terms (f x e_i) (g x e_j) weighted by the coefficient matrix."""
    spin_dim = coeffs.shape[0]
    eye = np.eye(spin_dim, dtype=complex)
    terms = []
    for i in range(spin_dim):
        for j in range(spin_dim):
            w = weight_scale * coeffs[i, j]
            if w == 0:
                continue
            terms.append(
                SuperpositionTerm(
                    [LocalizedFactor(f_factorizer, eye[i]), LocalizedFactor(g_factorizer, eye[j])],
                    weight=w,
                )
            )
    return terms


def embed_pure_by_terms(phi, regions, parity: Parity, num_modes: int) -> BuiltState:
    """``embed_pure`` over two regions as a superposition of one bracket per spin
    basis pair."""
    region1, region2 = regions
    spin_dim = nth_root_dim(phi.size, 2)
    coeffs = phi.reshape(spin_dim, spin_dim)
    f = mode_wavefunction(region1.sorted_modes()[0], num_modes)
    g = mode_wavefunction(region2.sorted_modes()[0], num_modes)
    terms = spin_basis_terms(coeffs, f, g, 1.0)
    return superposition_by_brackets(terms, parity)


def embed_mixed_by_terms(
    sigma, regions, parity: Parity, num_modes: int, cutoff: float = 1e-12
) -> BuiltState:
    """``embed_mixed`` over two regions as a superposition of one bracket per
    spin basis pair and eigenvector, each eigenvector in its own pair of modes."""
    region1, region2 = regions
    spin_dim = nth_root_dim(sigma.shape[0], 2)
    eigvals, eigvecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    order = [k for k in range(eigvals.size - 1, -1, -1) if eigvals[k] > cutoff]
    rank = len(order)
    modes1 = region1.sorted_modes()[:rank]
    modes2 = region2.sorted_modes()[:rank]

    terms = []
    for slot, k in enumerate(order):
        weight = float(np.sqrt(eigvals[k]))
        coeffs = eigvecs[:, k].reshape(spin_dim, spin_dim)
        f = mode_wavefunction(modes1[slot], num_modes)
        g = mode_wavefunction(modes2[slot], num_modes)
        terms.extend(spin_basis_terms(coeffs, f, g, weight))
    return superposition_by_brackets(terms, parity)


def symmetrized_pair(product: np.ndarray, parity: Parity) -> BuiltState:
    """The normalized bracket x + phase * swap(x) of a two-particle tensor x
    on (C^d) x (C^d), whose leading axes index the first particle."""
    d = math.isqrt(product.size)
    return _finalize(2.0 * symmetrize(product.reshape(-1), 2, d, parity))


def embed_two_regions(
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


def shared_spatial_by_modes(spatial_part, spin_part, spec: SpaceSpec) -> BuiltState:
    """``subspace_state`` of kind ``shared_spatial``, one mode at a time: each mode's
    antisymmetrized spins are added at the index of that mode repeated n times."""
    n = spec.particles
    c = as_vector(spatial_part)
    if c.size != spec.num_modes:
        raise ValueError("mode amplitude vector has wrong length")
    # column m of chis is the antisymmetrized spin vector of mode m
    chis = symmetrize(_per_mode_spins(spin_part, spec).T, n, spec.spin_dim, Parity.FERMI)
    grouped = np.zeros((spec.num_modes**n, chis.shape[0]), dtype=complex)
    for mode, amp in enumerate(c):
        if abs(amp) == 0.0:
            continue
        grouped[_repeated_mode_index(mode, spec.num_modes, n)] += amp * chis[:, mode]
    raw = interleave_particles(grouped.reshape(-1), spec)
    norm = float(np.linalg.norm(raw))
    if norm < ZERO_TOL:
        raise ZeroStateError("subspace state vanishes after projection")
    return BuiltState(raw / norm, norm)


def interleave_particles(grouped: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Reorder a vector from (modes^n) x (spins^n) grouping to the interleaved
    (mode, spin)^n convention."""
    n = spec.particles
    dims = (spec.num_modes,) * n + (spec.spin_dim,) * n
    # input factor k (a mode) goes to slot 2k, input factor n+k (a spin) to slot 2k+1
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return permute_factors(grouped, dims, perm)


def subspace_state_by_grouping(
    kind: SubspaceKind,
    spatial_part,
    spin_part,
    spec: SpaceSpec,
) -> BuiltState:
    """``subspace_state`` before it wrote the interleaved tensor in place: the parts
    are laid out grouped, modes^n x spins^n, and then interleaved."""
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


def _repeated_mode_index(mode: int, num_modes: int, n: int) -> int:
    idx = 0
    for _ in range(n):
        idx = idx * num_modes + mode
    return idx


def perm_compose(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """(first o second)(k) = first[second[k]]."""
    return tuple(first[second[k]] for k in range(len(second)))


def perm_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def perm_unitary(perm: Sequence[int], dim: int) -> np.ndarray:
    """The unitary permuting the n tensor factors of (C^dim)^n: the identity
    with the factors of its row index permuted."""
    n = len(perm)
    rows = identity(dim**n).reshape((dim,) * n + (dim**n,))
    return rows.transpose(perm_inverse(perm) + (n,)).reshape(dim**n, dim**n)


def symmetrize_by_permutations(x, n: int, dim: int, parity: Parity) -> np.ndarray:
    """(1/n!) sum over sigma of phase(sigma) U_sigma x: the symmetric (Bose) or
    antisymmetric (Fermi) projection of a vector on (C^dim)^n, or of each
    column of a matrix whose rows index that space.  Each U_sigma x is a
    transposed view of the tensor axes, added straight into the running sum."""
    x = np.asarray(x, dtype=complex)
    tensor = x.reshape((dim,) * n + x.shape[1:])
    tail = tuple(range(n, tensor.ndim))
    acc = np.zeros_like(tensor)
    for perm in enumerate_sn(n):
        moved = tensor.transpose(perm_inverse(perm) + tail)
        if phase(parity, perm) > 0:
            acc += moved
        else:
            acc -= moved
    acc /= math.factorial(n)
    return acc.reshape(x.shape)


def symmetrizer(n: int, dim: int, parity: Parity) -> np.ndarray:
    """Dense matrix of the symmetric (Bose) or antisymmetric (Fermi) projection
    of (C^dim)^n: a reference construction, as ``symmetrize`` never forms it."""
    return symmetrize(identity(dim**n), n, dim, parity)


def local_generator(side: int, spin_op, p, q) -> np.ndarray:
    """Generator of one local subalgebra: the lifted product with the spin
    observable behind projector ``p`` (side 1) or behind ``q`` (side 2)."""
    spin_op = as_matrix(spin_op)
    p = as_matrix(p)
    q = as_matrix(q)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ValueError("p and q must be square matrices of equal dimension")
    spin_dim = spin_op.shape[0]
    if side == 1:
        slots = [kron(p, spin_op), kron(q, identity(spin_dim))]
    elif side == 2:
        slots = [kron(p, identity(spin_dim)), kron(q, spin_op)]
    else:
        raise ValueError("side must be 1 or 2")
    return lift_product(slots)


def reduced_spin_closed_form(
    terms: Sequence[SuperpositionTerm],
    normalized: bool = True,
) -> np.ndarray:
    """Gram-weighted closed form of the reduced spin state of a two-particle
    superposition over disjoint regions.

    Works entirely with one-particle inner products and spin dyads, never
    touching the two-particle tensor space, so it serves as an independent
    oracle for ``reduced_spin_probe``.  With ``normalized=True`` (default) it
    is the reduction of the unit-normalized superposition; with
    ``normalized=False`` it applies the conventional 1/N bookkeeping of an
    unnormalized N-term family instead.
    """
    if not terms:
        raise ValueError("closed form needs at least one term")
    spin_dim = terms[0].factors[0].spin_dim
    total = spin_dim * spin_dim
    gram_sum = np.zeros((total, total), dtype=complex)
    norm_sq_half = 0.0 + 0.0j
    for t in terms:  # bra side
        for u in terms:  # ket side
            coeff = (
                np.conj(t.weight)
                * u.weight
                * overlap(t.factors[0].wavefunction, u.factors[0].wavefunction)
                * overlap(t.factors[1].wavefunction, u.factors[1].wavefunction)
            )
            if coeff == 0:
                continue
            dyad = kron(
                np.outer(u.factors[0].spin, np.conj(t.factors[0].spin)),
                np.outer(u.factors[1].spin, np.conj(t.factors[1].spin)),
            )
            gram_sum += coeff * dyad
            norm_sq_half += (
                coeff
                * complex(np.vdot(t.factors[0].spin, u.factors[0].spin))
                * complex(np.vdot(t.factors[1].spin, u.factors[1].spin))
            )
    if not normalized:
        return gram_sum / len(terms)
    denom = norm_sq_half.real  # half the squared norm of the raw superposition
    if denom < 1e-24:
        raise ValueError("superposition has (numerically) zero norm")
    return gram_sum / denom
