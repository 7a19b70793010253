"""Reference results computed with plain numpy, independent of spinsep.

Index conventions match the toolkit's: a one-particle vector is
``kron(mode_amplitudes, spin)`` and particle 1 is the slowest factor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def kron_all(factors) -> np.ndarray:
    out = np.ones((1,) * np.ndim(factors[0]), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out.reshape(-1) if np.ndim(factors[0]) == 1 else out


def dyad(v) -> np.ndarray:
    return np.outer(v, np.conj(v))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def symmetrized(vectors, fermi: bool) -> np.ndarray:
    """Normalized sum over orderings of one-particle vectors, signed for
    fermions."""
    n = len(vectors)
    out = 0
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm) if fermi else 1
        out = out + sign * kron_all([vectors[p] for p in perm])
    return unit(out)


def pair_superposition(terms, fermi: bool) -> np.ndarray:
    """Normalized sum of weighted (anti)symmetrized brackets; each term is
    ``(weight, amps_1, spin_1, amps_2, spin_2)``."""
    sign = -1.0 if fermi else 1.0
    out = 0
    for w, f1, s1, f2, s2 in terms:
        a, b = np.kron(f1, s1), np.kron(f2, s2)
        out = out + w * (np.kron(a, b) + sign * np.kron(b, a))
    return unit(out)


def probe_trace(psi, region_modes, num_modes: int, spin_dim: int) -> float:
    """sum over orderings sigma of <psi| (x)_k (P_sigma(k) (x) 1) |psi>: the
    trace of the probe reduction for any region layout."""
    n = len(region_modes)
    weights = np.abs(np.asarray(psi).reshape((num_modes, spin_dim) * n)) ** 2
    weights = weights.sum(axis=tuple(range(1, 2 * n, 2)))
    masks = []
    for modes in region_modes:
        m = np.zeros(num_modes)
        m[list(modes)] = 1.0
        masks.append(m)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        w = weights
        for k in range(n):
            w = np.tensordot(w, masks[perm[k]], axes=([0], [0]))
        total += float(w)
    return total


def gram_reduction(terms) -> np.ndarray:
    """Unit-trace reduced spin state of a two-particle superposition over
    disjoint regions, from one-particle overlaps and spin dyads."""
    acc = 0
    for wt, f1t, s1t, f2t, s2t in terms:  # bra side
        for wu, f1u, s1u, f2u, s2u in terms:  # ket side
            coeff = np.conj(wt) * wu * np.vdot(f1t, f1u) * np.vdot(f2t, f2u)
            acc = acc + coeff * np.kron(np.outer(s1u, np.conj(s1t)), np.outer(s2u, np.conj(s2t)))
    return acc / np.trace(acc).real


def spatial_trace_orthogonal(spins) -> np.ndarray:
    """Spin state left by tracing out mutually orthogonal spatial factors:
    (1/n!) sum_sigma (x)_k |xi_sigma(k)><xi_sigma(k)|."""
    n = len(spins)
    acc = 0
    for perm in itertools.permutations(range(n)):
        acc = acc + kron_all([dyad(spins[p]) for p in perm])
    return acc / math.factorial(n)


def sector_defect(rho, n: int, dim: int, fermi: bool) -> float:
    """|| Pi rho Pi - rho || with Pi the (anti)symmetrizer on (C^dim)^n,
    applied by permuting tensor axes."""

    def project(mat, side):
        t = mat.reshape((dim,) * (2 * n))
        acc = 0
        for perm in itertools.permutations(range(n)):
            sign = perm_sign(perm) if fermi else 1
            axes = list(perm) + list(range(n, 2 * n)) if side == 0 else list(range(n)) + [n + p for p in perm]
            acc = acc + sign * t.transpose(axes)
        return (acc / math.factorial(n)).reshape(mat.shape)

    rho = np.asarray(rho)
    return float(np.linalg.norm(project(project(rho, 0), 1) - rho))


def negativity(rho, d_left: int, d_right: int) -> float:
    t = np.asarray(rho).reshape(d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1)
    pt = t.reshape(d_left * d_right, d_left * d_right)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(-eigs[eigs < 0.0].sum())


def random_vector(rng, dim: int) -> np.ndarray:
    return unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_density(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    sigma = g @ g.conj().T
    return sigma / np.trace(sigma).real


def decode(encoded) -> np.ndarray:
    """A report matrix of ``[re, im]`` entries as a complex array."""
    return np.array([[complex(re, im) for re, im in row] for row in encoded])


def encode(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def encode_vec(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]
