"""Acceptance criteria for the package, one test per criterion.

Each test prints a single pass/fail line (run pytest with ``-s`` to see them
all) and enforces both the stated numerical tolerance and the stated runtime
budget.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np

from spinsep.algebra import bipartition_check, commutator_expansion
from spinsep.embedding import embed_mixed, embed_pure
from spinsep.entanglement import negativity
from spinsep.lift import lift_one_particle
from spinsep.linalg import frob, kron
from spinsep.reduction import (
    classify_symmetry,
    cluster_expectation,
    reduced_spin_probe,
    reduction_report,
    trace_out_spatial,
)
from spinsep.runner import EXIT_OK, run_suite
from spinsep.spatial import SpaceSpec, SpatialRegion, mode_wavefunction, wavefunction
from spinsep.states import (
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    ZeroStateError,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from spinsep.symmetry import (
    ANTISYMMETRIC,
    SYMMETRIC,
    Parity,
    enumerate_sn,
)

from oracles import (
    local_generator,
    perm_compose,
    perm_inverse,
    perm_unitary,
    rand_matrix,
    rand_unit,
    reduced_spin_closed_form,
    symmetrize_by_permutations,
    symmetrizer,
)

CLAIMS_DIR = Path(__file__).resolve().parents[1] / "src" / "spinsep" / "scenarios" / "claims"
PARITIES = (Parity.FERMI, Parity.BOSE)


def criterion(num, title, limit_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\ncriterion {num:2d} FAIL  {title} ({elapsed:.2f}s)", flush=True)
                raise
            elapsed = time.perf_counter() - start
            suffix = f"; {detail}" if detail else ""
            print(
                f"\ncriterion {num:2d} PASS  {title} "
                f"({elapsed:.2f}s < {limit_s:g}s{suffix})",
                flush=True,
            )
            assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeded {limit_s}s"
        return wrapper
    return decorate


def _dyad(v):
    return np.outer(v, np.conj(v))


@criterion(1, "permutation unitaries form a representation", 5.0)
def test_criterion_01_representation_laws():
    worst = 0.0
    for n in (2, 3, 4):
        perms = enumerate_sn(n)
        index = {p: k for k, p in enumerate(perms)}
        m = len(perms)
        for d in (2, 4):
            total = d**n
            stack = np.empty((m, total, total))
            for p in perms:
                w = perm_unitary(p, d)
                assert np.all(w.imag == 0.0)
                stack[index[p]] = w.real  # exact 0/1 entries; real matmuls suffice
            for p in perms:
                worst = max(
                    worst, frob(stack[index[p]].T - stack[index[perm_inverse(p)]])
                )
            # all m right factors at once: one (total x m*total) product per sigma
            right = stack.transpose(1, 0, 2).reshape(total, m * total)
            for sigma in perms:
                products = stack[index[sigma]] @ right
                expected_ids = [index[perm_compose(sigma, tau)] for tau in perms]
                expected = stack[expected_ids].transpose(1, 0, 2).reshape(total, m * total)
                sq = ((products - expected) ** 2).reshape(total, m, total).sum(axis=(0, 2))
                worst = max(worst, math.sqrt(float(sq.max())))
    assert worst <= 1e-12
    return f"max defect {worst:.2e}"


@criterion(2, "symmetrizers are orthogonal projections of the right rank", 5.0)
def test_criterion_02_projector_laws():
    worst = 0.0
    for n in range(1, 5):
        for d in range(2, 5):
            anti = symmetrizer(n, d, Parity.FERMI)
            sym = symmetrizer(n, d, Parity.BOSE)
            for proj in (anti, sym):
                worst = max(worst, frob(proj @ proj - proj))
                worst = max(worst, frob(proj - proj.conj().T))
            if n >= 2:
                worst = max(worst, frob(sym @ anti))
            worst = max(worst, abs(np.trace(anti).real - math.comb(d, n)))
            worst = max(worst, abs(np.trace(sym).real - math.comb(d + n - 1, n)))
    assert worst <= 1e-10
    return f"max defect {worst:.2e}"


@criterion(3, "one-particle lifts preserve both statistics sectors", 5.0)
def test_criterion_03_lift_invariance():
    rng = np.random.default_rng(1003)
    n, d = 3, 4
    total = d**n
    projs = [symmetrizer(n, d, parity) for parity in PARITIES]
    comps = [np.eye(total) - proj for proj in projs]
    worst = 0.0
    for _ in range(50):
        lifted = lift_one_particle(rand_matrix(rng, d), n)
        for proj, comp in zip(projs, comps):
            worst = max(worst, frob(comp @ lifted @ proj))
    assert worst <= 1e-11
    return f"max residual {worst:.2e}"


@criterion(4, "disjoint localized pairs reduce to spin products, parity-blind", 10.0)
def test_criterion_04_two_particle_theorem():
    rng = np.random.default_rng(1004)
    regions = [SpatialRegion([0]), SpatialRegion([1])]
    worst_target = 0.0
    worst_parity = 0.0
    for trial in range(100):
        d_h = 2 if trial % 2 == 0 else 3
        phase_f = np.exp(2j * math.pi * rng.random())
        phase_g = np.exp(2j * math.pi * rng.random())
        f = wavefunction(phase_f * np.array([1.0, 0.0]), SpatialRegion([0]))
        g = wavefunction(phase_g * np.array([0.0, 1.0]), SpatialRegion([1]))
        xi, eta = rand_unit(rng, d_h), rand_unit(rng, d_h)
        target = kron(_dyad(xi), _dyad(eta))
        results = []
        for parity in PARITIES:
            vec, _ = n_particle_localized(
                [LocalizedFactor(f, xi), LocalizedFactor(g, eta)], parity
            )
            raw = reduced_spin_probe(_dyad(vec), regions, d_h)
            results.append(raw.matrix)
            worst_target = max(worst_target, frob(raw.matrix - target))
        worst_parity = max(worst_parity, frob(results[0] - results[1]))
    assert worst_target <= 1e-10
    assert worst_parity <= 1e-12
    return f"target defect {worst_target:.2e}, parity gap {worst_parity:.2e}"


@criterion(5, "probe reduction matches the Gram closed form", 30.0)
def test_criterion_05_gram_closed_form():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for trial in range(100):
        d_h = int(rng.integers(2, 4))
        d_l = int(rng.integers(2, 7))
        cut = int(rng.integers(1, d_l))
        modes_1, modes_2 = list(range(cut)), list(range(cut, d_l))
        r1, r2 = SpatialRegion(modes_1), SpatialRegion(modes_2)
        n_terms = int(rng.integers(1, 5))
        parity = PARITIES[trial % 2]
        while True:
            terms = []
            for _ in range(n_terms):
                f = np.zeros(d_l, complex)
                f[modes_1] = rand_unit(rng, len(modes_1))
                g = np.zeros(d_l, complex)
                g[modes_2] = rand_unit(rng, len(modes_2))
                weight = 1.0 if trial % 3 == 0 else complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                terms.append(
                    SuperpositionTerm(
                        LocalizedFactor(wavefunction(f, r1), rand_unit(rng, d_h)),
                        LocalizedFactor(wavefunction(g, r2), rand_unit(rng, d_h)),
                        weight=weight,
                    )
                )
            try:
                vec, _ = superposition_state(terms, parity)
                break
            except ZeroStateError:
                continue
        probe = reduced_spin_probe(_dyad(vec), [r1, r2], d_h)
        closed = reduced_spin_closed_form(terms)
        worst = max(worst, frob(probe.matrix - closed))
    assert worst <= 1e-10
    return f"max deviation {worst:.2e}"


@criterion(6, "three disjoint particles reduce to a product of spin dyads", 60.0)
def test_criterion_06_n_particle_theorem():
    rng = np.random.default_rng(1006)
    regions = [SpatialRegion([k]) for k in range(3)]
    worst = 0.0
    for _ in range(25):
        factors = []
        for k in range(3):
            phase = np.exp(2j * math.pi * rng.random())
            amps = np.zeros(3, complex)
            amps[k] = phase
            factors.append(
                LocalizedFactor(
                    wavefunction(amps, SpatialRegion([k])), rand_unit(rng, 2)
                )
            )
        target = kron(*[_dyad(f.spin) for f in factors])
        for parity in PARITIES:
            vec, _ = n_particle_localized(factors, parity)
            raw = reduced_spin_probe(_dyad(vec), regions, 2)
            worst = max(worst, frob(raw.matrix - target))
    assert worst <= 1e-10
    return f"max deviation {worst:.2e}"


@criterion(7, "remote-cluster expectations see only the local spin", 5.0)
def test_criterion_07_cluster_separability():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for trial in range(50):
        d_h = 2 if trial % 2 == 0 else 3
        f = mode_wavefunction(0, 2)
        g = mode_wavefunction(1, 2)
        xi, eta = rand_unit(rng, d_h), rand_unit(rng, d_h)
        vec, _ = n_particle_localized(
            [LocalizedFactor(f, xi), LocalizedFactor(g, eta)], PARITIES[trial % 2]
        )
        op = rand_matrix(rng, d_h)
        got = cluster_expectation(vec, SpatialRegion([0]), op, SpatialRegion([1]))
        worst = max(worst, abs(got - complex(np.vdot(xi, op @ xi))))
    assert worst <= 1e-11
    return f"max deviation {worst:.2e}"


@criterion(8, "special subspaces hide, keep, or flip the reduced statistics", 10.0)
def test_criterion_08_statistics_transmutation():
    rng = np.random.default_rng(1008)
    worst = 0.0

    def random_sector_vector(n, d, parity):
        proj = symmetrizer(n, d, parity)
        while True:
            cand = proj @ rand_unit(rng, d**n)
            norm = np.linalg.norm(cand)
            if norm > 1e-6:
                return cand / norm

    for trial in range(20):
        d_l = 2 if trial % 2 == 0 else 3
        d_h = 2 if trial % 3 == 0 else 3
        spec = SpaceSpec(d_l, d_h, 2)

        # every particle in one spatial mode, antisymmetric spins
        per_mode = np.vstack(
            [random_sector_vector(2, d_h, Parity.FERMI) for _ in range(d_l)]
        )
        st = subspace_state(
            SubspaceKind.SHARED_SPATIAL, rand_unit(rng, d_l), per_mode, spec
        )
        verdict = classify_symmetry(trace_out_spatial(_dyad(st.vector), spec), 2, d_h)
        assert verdict.label == ANTISYMMETRIC
        worst = max(worst, verdict.antisymmetric_defect)

        # symmetric space, antisymmetric spins
        st = subspace_state(
            SubspaceKind.SYMMETRIC_SPATIAL,
            random_sector_vector(2, d_l, Parity.BOSE),
            random_sector_vector(2, d_h, Parity.FERMI),
            spec,
        )
        verdict = classify_symmetry(trace_out_spatial(_dyad(st.vector), spec), 2, d_h)
        assert verdict.label == ANTISYMMETRIC
        worst = max(worst, verdict.antisymmetric_defect)

        # antisymmetric space, symmetric spins
        st = subspace_state(
            SubspaceKind.ANTISYMMETRIC_SPATIAL,
            random_sector_vector(2, d_l, Parity.FERMI),
            random_sector_vector(2, d_h, Parity.BOSE),
            spec,
        )
        verdict = classify_symmetry(trace_out_spatial(_dyad(st.vector), spec), 2, d_h)
        assert verdict.label == SYMMETRIC
        worst = max(worst, verdict.symmetric_defect)
    assert worst <= 1e-10
    return f"max classification defect {worst:.2e}"


@criterion(9, "local subalgebras commute exactly for orthogonal projections", 30.0)
def test_criterion_09_bipartition_iff():
    rng = np.random.default_rng(1009)
    d_l = 3
    worst_disjoint = 0.0
    worst_expansion = 0.0
    smallest_overlap_norm = math.inf

    def random_unitary(dim):
        q, r = np.linalg.qr(rand_matrix(rng, dim))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for trial in range(20):
        d_h = 2 if trial % 2 == 0 else 3

        # disjoint pair: rotate a pair of orthogonal diagonal projections
        u = random_unitary(d_l)
        p_diag = np.diag([1.0, 0.0, 0.0]).astype(complex)
        q_diag = np.diag([0.0, 1.0, 1.0 if trial % 3 == 0 else 0.0]).astype(complex)
        p = u @ p_diag @ u.conj().T
        q = u @ q_diag @ u.conj().T
        verdict = bipartition_check(p, q, d_h)
        assert verdict.commutes
        worst_disjoint = max(worst_disjoint, verdict.max_commutator_norm)

        # overlapping pair: independent random projections almost surely overlap
        p = _random_projection(rng, d_l, int(rng.integers(1, d_l)))
        q = _random_projection(rng, d_l, int(rng.integers(1, d_l)))
        verdict = bipartition_check(p, q, d_h)
        assert not verdict.commutes
        assert verdict.witness is not None
        smallest_overlap_norm = min(smallest_overlap_norm, verdict.max_commutator_norm)

        # the closed four-term expansion reproduces the direct commutator
        a1, a2 = rand_matrix(rng, d_h), rand_matrix(rng, d_h)
        g1 = local_generator(1, a1, p, q)
        g2 = local_generator(2, a2, p, q)
        direct = g1 @ g2 - g2 @ g1
        worst_expansion = max(
            worst_expansion, frob(direct - commutator_expansion(p, q, a1, a2))
        )

    assert worst_disjoint <= 1e-12
    assert smallest_overlap_norm >= 1e-3
    assert worst_expansion <= 1e-12
    return (
        f"disjoint max {worst_disjoint:.2e}, overlap min {smallest_overlap_norm:.2e}, "
        f"expansion max {worst_expansion:.2e}"
    )


def _random_projection(rng, dim, rank):
    q, _ = np.linalg.qr(rand_matrix(rng, dim))
    basis = q[:, :rank]
    return basis @ basis.conj().T


@criterion(10, "every n-spin state is reachable by spatially separated reduction", 60.0)
def test_criterion_10_embedding_surjectivity():
    rng = np.random.default_rng(1010)
    regions = [SpatialRegion([0, 1, 2, 3]), SpatialRegion([4, 5, 6, 7])]
    projs = {parity: symmetrizer(2, 16, parity) for parity in PARITIES}
    worst_round_trip = 0.0
    worst_negativity = 0.0
    worst_sector = 0.0
    npt_count = 0
    for trial in range(200):
        if trial < 120:
            rank = 4
        elif trial < 160:
            rank = 2
        else:
            rank = 1
        g = rand_matrix(rng, 4, rank)
        sigma = g @ g.conj().T
        sigma = sigma / np.trace(sigma).real
        target_neg = negativity(sigma, 2, 2)
        if target_neg > 1e-6:
            npt_count += 1
        for parity in PARITIES:
            vec, _ = embed_mixed(sigma, regions, parity, 8)
            worst_sector = max(worst_sector, frob(projs[parity] @ vec - vec))
            rep = reduction_report(reduced_spin_probe(_dyad(vec), regions, 2, 8), 2, 2)
            worst_round_trip = max(worst_round_trip, frob(rep.normalized - sigma))
            if target_neg > 1e-6:
                got_neg = negativity(rep.normalized, 2, 2)
                worst_negativity = max(worst_negativity, abs(got_neg - target_neg))
    # n spins, one region of three modes per particle: pure targets and ranks 1-3
    worst_raw_norm = 0.0
    for n, spin_dim, ranks in ((3, 2, (1, 2, 3)), (4, 2, (1, 2, 3)), (3, 3, (2,))):
        side, num_modes = spin_dim**n, 3 * n
        modes = rng.permutation(num_modes)
        regions = [SpatialRegion(modes[j::n]) for j in range(n)]
        phi = rand_unit(rng, side)
        targets = [(embed_pure, phi, _dyad(phi))]
        for rank in ranks:
            g = rand_matrix(rng, side, rank)
            sigma = g @ g.conj().T
            sigma = sigma / np.trace(sigma).real
            targets.append((embed_mixed, sigma, sigma))
        for embed, target, want in targets:
            for parity in PARITIES:
                vec, raw_norm = embed(target, regions, parity, num_modes)
                sector = symmetrize_by_permutations(vec, n, num_modes * spin_dim, parity)
                worst_sector = max(worst_sector, frob(sector - vec))
                worst_raw_norm = max(worst_raw_norm, abs(raw_norm - math.sqrt(math.factorial(n))))
                raw = reduced_spin_probe(vec, regions, spin_dim, num_modes)
                rep = reduction_report(raw, n, spin_dim)
                worst_round_trip = max(worst_round_trip, frob(rep.normalized - want))
    assert worst_round_trip <= 1e-9
    assert worst_negativity <= 1e-9
    assert worst_sector <= 1e-12
    assert worst_raw_norm <= 1e-12
    assert npt_count >= 50
    return (
        f"round trip {worst_round_trip:.2e}, negativity gap {worst_negativity:.2e}, "
        f"{npt_count} NPT targets, n = 2, 3, 4"
    )


@criterion(11, "the bundled claims suite passes with byte-identical reports", 120.0)
def test_criterion_11_cli_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_suite(CLAIMS_DIR, out_dir=out_a, echo=lambda *a: None) == EXIT_OK
    assert run_suite(CLAIMS_DIR, out_dir=out_b, echo=lambda *a: None) == EXIT_OK
    reports = sorted(out_a.glob("*.report.json"))
    assert len(reports) == 8
    for report_a in reports:
        assert report_a.read_bytes() == (out_b / report_a.name).read_bytes()
    return "8 scenarios, 8 byte-identical report pairs"
