"""Seeded inputs, operations and output checks for the two workloads.

Each workload builds a fixed list of operations (one *round*).  The seed
draws every number in the inputs (spins, amplitudes, weights, targets,
region layouts); it never changes a dimension, a state kind or the number of
operations, so the work per round is the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spinsep import reduction, runner, scenario, spatial

import refs

MATRIX_TOL = 1e-9
SCALAR_TOL = 1e-8


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got, want, tol: float, what: str) -> None:
    dev = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    _expect(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.0e}")


@dataclass
class Op:
    """One call into spinsep's public API and the check of its output."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


# ---------------------------------------------------------------- helpers


def _blocks(rng, num_modes: int, parts: int) -> list[list[int]]:
    """A seeded split of the modes into ``parts`` disjoint regions of fixed
    sizes."""
    order = rng.permutation(num_modes)
    return [sorted(int(m) for m in b) for b in np.array_split(order, parts)]


def _amps_on(rng, num_modes: int, modes) -> np.ndarray:
    amps = np.zeros(num_modes, dtype=complex)
    amps[list(modes)] = refs.random_vector(rng, len(modes))
    return amps


def _regions(blocks) -> list[dict]:
    return [{"name": f"r{k}", "modes": list(b)} for k, b in enumerate(blocks)]


def _scenario(name, n, d_l, d_h, regions, analyses, parity=None, state=None, seed=None):
    obj = {
        "name": name,
        "space": {"modes": d_l, "spin_levels": d_h, "particles": n},
        "regions": regions,
        "analyses": analyses,
    }
    if parity is not None:
        obj["parity"] = parity
    if state is not None:
        obj["state"] = state
    if seed is not None:
        obj["seed"] = seed
    return scenario.parse_scenario(obj)


def _execute(parsed) -> Callable[[], Any]:
    return lambda: runner.execute_scenario(parsed).report


def _result(report, analysis: str) -> dict:
    entry = report["results"].get(analysis)
    _expect(entry is not None and "error" not in entry, f"{analysis} analysis failed: {entry}")
    return entry


def _check_negativity(report, rho, d_left: int, d_right: int) -> None:
    got = _result(report, "entanglement")["negativity"]
    want = refs.negativity(rho, d_left, d_right)
    _expect(abs(got - want) <= SCALAR_TOL, f"negativity {got!r} != reference {want!r}")


def _check_statistics(report, wanted: str) -> None:
    got = report["construction"]["statistics"]
    _expect(got == wanted, f"statistics {got!r}, wanted {wanted!r}")


# ---------------------------------------------------------------- reduce


def _localized_pair_ops(rng, n, d_l, d_h, parities):
    """Localized products in disjoint regions: the reduction is the product
    of the spin dyads, and bose equals fermi."""
    blocks = _blocks(rng, d_l, n)
    amps = [_amps_on(rng, d_l, b) for b in blocks]
    spins = [refs.random_vector(rng, d_h) for _ in range(n)]
    factors = [
        {"amplitudes": refs.encode_vec(a), "spin": refs.encode_vec(s)} for a, s in zip(amps, spins)
    ]
    want = refs.kron_all([refs.dyad(s) for s in spins])
    reductions: dict = {}  # parity -> last raw matrix, for bose vs fermi
    ops = []
    for parity in parities:
        fermi = parity == "fermi"
        psi = refs.symmetrized([np.kron(a, s) for a, s in zip(amps, spins)], fermi)
        parsed = _scenario(
            f"loc_{parity}_{n}_{d_l}_{d_h}", n, d_l, d_h, _regions(blocks),
            ["reduction", "entanglement"], parity, {"kind": "localized", "factors": factors},
        )

        def check(report, psi=psi, parity=parity):
            red = _result(report, "reduction")
            raw = refs.decode(red["raw_matrix"])
            _close(raw, want, MATRIX_TOL, "localized reduction vs product of spin dyads")
            trace = refs.probe_trace(psi, blocks, d_l, d_h)
            _expect(abs(red["trace"] - trace) <= SCALAR_TOL, "raw trace vs sum over orderings")
            _check_statistics(report, "antisymmetric" if parity == "fermi" else "symmetric")
            _check_negativity(report, want, d_h, d_h ** (n - 1))
            reductions[parity] = raw
            if len(reductions) == 2:
                _close(reductions["bose"], reductions["fermi"], MATRIX_TOL, "bose vs fermi reduction")

        ops.append(Op(f"reduce/localized_{parity}_n{n}_dl{d_l}_dh{d_h}", _execute(parsed), check))
    return ops


def _superposition_terms(rng, d_l, d_h, count, modes_1, modes_2):
    terms = []
    for _ in range(count):
        w = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(
            (
                w,
                refs.unit(_amps_on(rng, d_l, modes_1)),
                refs.random_vector(rng, d_h),
                refs.unit(_amps_on(rng, d_l, modes_2)),
                refs.random_vector(rng, d_h),
            )
        )
    return terms


def _encode_terms(terms) -> list[dict]:
    return [
        {
            "weight": [w.real, w.imag],
            "factor_1": {"amplitudes": refs.encode_vec(f1), "spin": refs.encode_vec(s1)},
            "factor_2": {"amplitudes": refs.encode_vec(f2), "spin": refs.encode_vec(s2)},
        }
        for w, f1, s1, f2, s2 in terms
    ]


def _superposition_op(rng, d_l, d_h, count, overlapping: bool, parity: str) -> Op:
    blocks = _blocks(rng, d_l, 2)
    if overlapping:
        # each region reaches one mode into the other's block; factors spread
        # over every mode
        regions = [blocks[0] + [blocks[1][0]], blocks[1] + [blocks[0][0]]]
        everywhere = list(range(d_l))
        terms = _superposition_terms(rng, d_l, d_h, count, everywhere, everywhere)
        analyses = ["reduction"]
    else:
        regions = blocks
        terms = _superposition_terms(rng, d_l, d_h, count, blocks[0], blocks[1])
        analyses = ["reduction", "entanglement"]
    psi = refs.pair_superposition(terms, parity == "fermi")
    parsed = _scenario(
        f"sup_{parity}_{d_l}_{d_h}", 2, d_l, d_h, _regions(regions), analyses, parity,
        {"kind": "superposition", "terms": _encode_terms(terms)},
    )

    def check(report):
        red = _result(report, "reduction")
        trace = refs.probe_trace(psi, regions, d_l, d_h)
        _expect(abs(red["trace"] - trace) <= SCALAR_TOL, "raw trace vs sum over orderings")
        _close(np.trace(refs.decode(red["raw_matrix"])).real, trace, SCALAR_TOL, "matrix trace")
        if not overlapping:
            want = refs.gram_reduction(terms)
            _expect(red["normalized"] is not None, "no normalized reduction")
            _close(refs.decode(red["normalized"]), want, MATRIX_TOL, "superposition vs Gram sum")
            _check_negativity(report, want, d_h, d_h)

    layout = "overlapping" if overlapping else "disjoint"
    return Op(f"reduce/superposition_{layout}_dl{d_l}_dh{d_h}", _execute(parsed), check)


def _embed_op(rng, d_l, d_h, rank, parity, random_kind: bool) -> Op:
    blocks = _blocks(rng, d_l, 2)
    if random_kind:
        seed = int(rng.integers(2**63))
        sigma = refs.random_density(np.random.default_rng(seed), d_h * d_h, rank)
        state = {"kind": "embed_random", "rank": rank}
    else:
        seed = None
        sigma = refs.random_density(rng, d_h * d_h, rank)
        state = {"kind": "embed_mixed", "target": refs.encode(sigma)}
    parsed = _scenario(
        f"embed_{parity}_{d_l}_{d_h}_r{rank}", 2, d_l, d_h, _regions(blocks),
        ["reduction", "entanglement"], parity, state, seed,
    )

    def check(report):
        red = _result(report, "reduction")
        _expect(red["normalized"] is not None, "no normalized reduction")
        _close(refs.decode(red["normalized"]), sigma, MATRIX_TOL, "embedded reduction vs target")
        _check_negativity(report, sigma, d_h, d_h)

    return Op(f"reduce/{state['kind']}_dl{d_l}_dh{d_h}_rank{rank}", _execute(parsed), check)


def _sweep_rows_reference(m1, m2, spin_1, spin_2, d_l, d_h, steps, fermi):
    """(sin theta, raw trace) for each step of the overlap sweep."""
    rows = []
    f = np.kron(np.eye(d_l)[m1], spin_1)
    for k in range(steps):
        theta = (math.pi / 2.0) * k / (steps - 1)
        g_amps = math.sin(theta) * np.eye(d_l)[m1] + math.cos(theta) * np.eye(d_l)[m2]
        psi = refs.symmetrized([f, np.kron(g_amps, spin_2)], fermi)
        rows.append((math.sin(theta), refs.probe_trace(psi, [[m1], [m2]], d_l, d_h)))
    return rows


def _check_sweep_rows(rows, reference) -> None:
    _expect(len(rows) == len(reference), f"sweep has {len(rows)} rows, wanted {len(reference)}")
    for row, (overlap, trace) in zip(rows, reference):
        _expect(abs(row[0] - overlap) <= SCALAR_TOL, "sweep overlap column")
        _expect(abs(row[1] - trace) <= SCALAR_TOL, f"sweep trace {row[1]!r} vs {trace!r}")


def _sweep_op(rng, d_l, d_h, parity) -> Op:
    m1, m2 = (int(m) for m in rng.choice(d_l, size=2, replace=False))
    spin_1, spin_2 = refs.random_vector(rng, d_h), refs.random_vector(rng, d_h)
    steps = 21
    parsed = _scenario(
        f"sweep_{d_l}_{d_h}", 2, d_l, d_h,
        [{"name": "p", "modes": [m1]}, {"name": "q", "modes": [m2]}],
        [{"analysis": "overlap_sweep", "steps": steps,
          "spin_1": refs.encode_vec(spin_1), "spin_2": refs.encode_vec(spin_2)}],
        parity,
    )
    reference = _sweep_rows_reference(m1, m2, spin_1, spin_2, d_l, d_h, steps, parity == "fermi")
    check = lambda report: _check_sweep_rows(_result(report, "overlap_sweep")["rows"], reference)
    return Op(f"reduce/overlap_sweep_dl{d_l}_dh{d_h}", _execute(parsed), check)


def _mixed_probe_op(rng, n, d_l, d_h, rank, parity) -> Op:
    """reduced_spin_probe on a rank-``rank`` mixture of localized states: the
    reduction is linear in rho, so it equals the weighted sum of the
    components' spin-dyad products."""
    blocks = _blocks(rng, d_l, n)
    probs = rng.random(rank) + 0.1
    probs /= probs.sum()
    rho = 0
    want = 0
    for p in probs:
        spins = [refs.random_vector(rng, d_h) for _ in range(n)]
        vecs = [np.kron(_amps_on(rng, d_l, b), s) for b, s in zip(blocks, spins)]
        rho = rho + p * refs.dyad(refs.symmetrized(vecs, parity == "fermi"))
        want = want + p * refs.kron_all([refs.dyad(s) for s in spins])
    regions = [spatial.SpatialRegion(b) for b in blocks]

    def check(raw):
        _close(raw.matrix, want, MATRIX_TOL, "mixed reduction vs sum of component reductions")
        _expect(abs(raw.trace - 1.0) <= SCALAR_TOL, f"mixed raw trace {raw.trace!r}")

    call = lambda: reduction.reduced_spin_probe(rho, regions, d_h, d_l)
    return Op(f"reduce/probe_mixed_n{n}_dl{d_l}_dh{d_h}_rank{rank}", call, check)


def build_reduce(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    both = ("fermi", "bose")

    def median_pair() -> list[Op]:
        return _localized_pair_ops(rng, 2, 4, 3, both)

    # Four (2, 4, 3) pairs of equal cost fall in the middle of the round's
    # cost order (14 operations are cheaper, 13 dearer), so the median
    # operation time is taken among them.  They are spread through the
    # round so that they sample the whole of it.
    ops = median_pair()
    ops += [
        _superposition_op(rng, 4, 2, 2, False, "fermi"),
        _superposition_op(rng, 6, 3, 3, False, "bose"),
        _superposition_op(rng, 8, 2, 3, False, "fermi"),
        _superposition_op(rng, 4, 2, 2, True, "fermi"),
        _superposition_op(rng, 6, 2, 3, True, "bose"),
        _embed_op(rng, 4, 2, 1, "fermi", False),
        _embed_op(rng, 6, 3, 3, "bose", False),
        _embed_op(rng, 8, 2, 4, "fermi", False),
        _embed_op(rng, 6, 2, 2, "bose", True),
        _embed_op(rng, 8, 2, 4, "fermi", True),
        _sweep_op(rng, 4, 3, "fermi"),
        _mixed_probe_op(rng, 2, 4, 2, 2, "fermi"),
        _mixed_probe_op(rng, 2, 6, 3, 3, "bose"),
        _mixed_probe_op(rng, 2, 8, 2, 4, "fermi"),
        _mixed_probe_op(rng, 3, 3, 2, 4, "fermi"),
    ]
    ops += median_pair()
    for d_l, d_h in ((3, 2), (6, 2), (8, 3), (16, 2)):
        ops += _localized_pair_ops(rng, 2, d_l, d_h, both)
    ops += _localized_pair_ops(rng, 3, 3, 2, both)
    ops += _localized_pair_ops(rng, 3, 4, 2, ("bose",))
    ops += median_pair()
    # the one dim-729 scenario: three spin-1 particles
    ops += _localized_pair_ops(rng, 3, 3, 3, ("fermi",))
    ops += median_pair()
    return ops


# ---------------------------------------------------------------- construct


def _orthogonal_localized_op(rng, n, d_l, d_h, parity) -> Op:
    """Mutually orthogonal spatial factors: the spatial trace is the
    ordering average of the spin-dyad products."""
    blocks = _blocks(rng, d_l, n)
    spins = [refs.random_vector(rng, d_h) for _ in range(n)]
    factors = [
        {"amplitudes": refs.encode_vec(_amps_on(rng, d_l, b)), "spin": refs.encode_vec(s)}
        for b, s in zip(blocks, spins)
    ]
    parsed = _scenario(
        f"orth_{parity}_{n}_{d_l}_{d_h}", n, d_l, d_h, _regions(blocks),
        ["spatial_trace", "entanglement"], parity, {"kind": "localized", "factors": factors},
    )
    want = refs.spatial_trace_orthogonal(spins)

    def check(report):
        got = refs.decode(_result(report, "spatial_trace")["matrix"])
        _close(got, want, MATRIX_TOL, "spatial trace vs ordering average of spin dyads")
        _check_statistics(report, "antisymmetric" if parity == "fermi" else "symmetric")
        _check_negativity(report, want, d_h, d_h ** (n - 1))

    return Op(f"construct/localized_{parity}_n{n}_dl{d_l}_dh{d_h}", _execute(parsed), check)


# the paper's prediction for the spin sector left by each special subspace
SUBSPACE_SECTOR = {
    "shared_spatial": "antisymmetric",
    "symmetric_spatial": "antisymmetric",
    "antisymmetric_spatial": "symmetric",
}


def _subspace_op(rng, kind, n, d_l, d_h) -> Op:
    if kind == "shared_spatial":
        state = {
            "kind": kind,
            "mode_amplitudes": refs.encode_vec(refs.random_vector(rng, d_l)),
            "spin": refs.encode_vec(refs.random_vector(rng, d_h**n)),
        }
    else:
        state = {
            "kind": kind,
            "spatial": refs.encode_vec(refs.random_vector(rng, d_l**n)),
            "spin": refs.encode_vec(refs.random_vector(rng, d_h**n)),
        }
    parsed = _scenario(
        f"{kind}_{n}_{d_l}_{d_h}", n, d_l, d_h, [], ["spatial_trace", "entanglement"], state=state
    )
    sector = SUBSPACE_SECTOR[kind]

    def check(report):
        entry = _result(report, "spatial_trace")
        got = refs.decode(entry["matrix"])
        _expect(abs(np.trace(got).real - 1.0) <= SCALAR_TOL, "spatial trace is not unit-trace")
        defect = refs.sector_defect(got, n, d_h, fermi=sector == "antisymmetric")
        _expect(defect <= MATRIX_TOL, f"spin state leaves the {sector} sector by {defect:.3e}")
        _expect(entry["symmetry_class"] == sector, f"class {entry['symmetry_class']!r} != {sector!r}")
        _check_statistics(report, "antisymmetric")
        _check_negativity(report, got, d_h, d_h ** (n - 1))

    return Op(f"construct/{kind}_n{n}_dl{d_l}_dh{d_h}", _execute(parsed), check)


def _algebra_op(rng, d_l, d_h) -> Op:
    """Local algebras commute exactly when the region projections annihilate
    each other; one disjoint and one overlapping pair."""
    a, b = _blocks(rng, d_l, 2)
    c = [a[0], b[0]]
    regions = {"a": a, "b": b, "c": c}
    pairs = [["a", "b"], ["a", "c"]]
    parsed = _scenario(
        f"algebra_{d_l}_{d_h}", 2, d_l, d_h,
        [{"name": k, "modes": v} for k, v in regions.items()],
        [{"analysis": "algebra", "pairs": pairs}],
    )

    def projector(modes):
        return np.diag(np.isin(np.arange(d_l), modes).astype(float))

    orthogonal = [not np.any(projector(regions[p]) @ projector(regions[q])) for p, q in pairs]

    def check(report):
        entries = _result(report, "algebra")
        _expect([e["commutes"] for e in entries] == orthogonal, "commutes differs from PQ = 0")
        for e, orth in zip(entries, orthogonal):
            norm = e["max_commutator_norm"]
            _expect(norm <= 1e-10 if orth else norm >= 1e-3, f"commutator norm {norm!r} for {e['pair']}")

    return Op(f"construct/algebra_dl{d_l}_dh{d_h}", _execute(parsed), check)


def build_construct(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    # The four n=3 states (~250 ms each) fall in the middle of the round's
    # cost order, so the median operation time is taken among them.  They
    # alternate with the dear operations so that they sample the whole round.
    return [
        _orthogonal_localized_op(rng, 3, 4, 3, "fermi"),
        _orthogonal_localized_op(rng, 4, 4, 2, "fermi"),
        _subspace_op(rng, "symmetric_spatial", 3, 4, 3),
        _algebra_op(rng, 6, 3),
        _subspace_op(rng, "shared_spatial", 2, 16, 2),
        _orthogonal_localized_op(rng, 2, 16, 2, "bose"),
        _orthogonal_localized_op(rng, 2, 16, 2, "fermi"),
        _orthogonal_localized_op(rng, 3, 6, 2, "fermi"),
        _subspace_op(rng, "antisymmetric_spatial", 4, 4, 2),
        _subspace_op(rng, "antisymmetric_spatial", 3, 6, 2),
        _algebra_op(rng, 4, 3),
    ]


WORKLOADS = {"reduce": build_reduce, "construct": build_construct}
