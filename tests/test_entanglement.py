import json
import math

import numpy as np
import pytest

from spinsep.entanglement import (
    ENTANGLED,
    PPT_INCONCLUSIVE,
    SEPARABLE,
    negativity,
    partial_transpose,
    ppt_classification,
    schmidt,
    von_neumann_entropy,
)
from spinsep.linalg import kron
from spinsep.runner import EXIT_OK, run_scenario_file

from oracles import (
    entropy_of_every_eigenvalue,
    is_separable_pure,
    partial_transpose_by_loops,
    rand_density,
    rand_unit,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


def _dyad(v):
    return np.outer(v, np.conj(v))


def test_schmidt_product_state():
    rng = np.random.default_rng(70)
    psi = kron(rand_unit(rng, 2), rand_unit(rng, 3))
    data = schmidt(psi, 2, 3)
    assert abs(data.coefficients[0] - 1.0) < 1e-12
    assert float(data.coefficients[1:].max(initial=0.0)) < 1e-12


def test_schmidt_bell_state():
    data = schmidt(BELL, 2, 2)
    assert np.allclose(data.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_reconstruction_random():
    rng = np.random.default_rng(71)
    psi = rand_unit(rng, 9)
    data = schmidt(psi, 3, 3)
    rebuilt = sum(
        data.coefficients[k] * kron(data.left[:, k], data.right[:, k])
        for k in range(3)
    )
    assert np.linalg.norm(rebuilt - psi) < 1e-10
    assert abs((data.coefficients**2).sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        schmidt(psi, 2, 3)


def test_entropy_examples():
    assert von_neumann_entropy(_dyad(BELL)) < 1e-12
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    got = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
    assert abs(got - 0.8112781244591329) < 1e-12


def test_entropy_bounds_random():
    rng = np.random.default_rng(72)
    for _ in range(10):
        rho = rand_density(rng, 6)
        s = von_neumann_entropy(rho)
        assert -1e-10 <= s <= math.log2(6) + 1e-10


def test_entropy_drops_only_rounding():
    # eigenvalues at the rounding level of the largest are dropped: the entropy of a
    # mixed state moves by far less than 1e-12, and a rotated pure state reads exactly 0
    rng = np.random.default_rng(79)
    for d in (2, 4, 8, 16, 32, 64):
        for rank in (1, max(d // 2, 1), d):
            rho = rand_density(rng, d, rank)
            got, want = von_neumann_entropy(rho), entropy_of_every_eigenvalue(rho)
            assert abs(got - want) <= 1e-12, (d, rank)
        assert von_neumann_entropy(_dyad(rand_unit(rng, d))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_localized_products_report_zero_entropy(tmp_path, n):
    # random unit spins in single-mode regions reduce to a pure product of spin dyads
    rng = np.random.default_rng(80 + n)
    spins = [[[x.real, x.imag] for x in rand_unit(rng, 2)] for _ in range(n)]
    obj = {
        "name": "products",
        "space": {"modes": n, "spin_levels": 2, "particles": n},
        "parity": "fermi",
        "regions": [{"name": f"r{k}", "modes": [k]} for k in range(n)],
        "state": {
            "kind": "localized",
            "factors": [{"mode": k, "spin": spin} for k, spin in enumerate(spins)],
        },
        "analyses": ["reduction", "entanglement"],
    }
    path = tmp_path / "products.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run_scenario_file(path, out_dir=tmp_path, echo=lambda *a: None) == EXIT_OK
    report = json.loads((tmp_path / "products.report.json").read_text(encoding="utf-8"))
    assert report["results"]["entanglement"]["entropy_bits"] == 0.0


def test_entropy_matches_schmidt_marginals():
    rng = np.random.default_rng(73)
    psi = rand_unit(rng, 12)
    data = schmidt(psi, 3, 4)
    probs = data.coefficients**2
    probs = probs[probs > 0]
    want = float(-(probs * np.log2(probs)).sum())
    rho = _dyad(psi).reshape(3, 4, 3, 4)
    left = np.einsum("ijkj->ik", rho)
    assert abs(von_neumann_entropy(left) - want) < 1e-10


def test_partial_transpose_matches_loop_oracle():
    rng = np.random.default_rng(74)
    rho = rand_density(rng, 6)
    got = partial_transpose(rho, 2, 3, side="right")
    assert np.allclose(got, partial_transpose_by_loops(rho, 2, 3), atol=0)


def test_negativity_examples():
    rng = np.random.default_rng(75)
    product = kron(_dyad(rand_unit(rng, 2)), _dyad(rand_unit(rng, 2)))
    assert negativity(product, 2, 2) < 1e-12

    # independent oracle: hand partial transpose of the singlet, spectrum sum
    pt = partial_transpose_by_loops(_dyad(SINGLET), 2, 2)
    eigs = np.linalg.eigvalsh(pt)
    assert abs(-eigs[eigs < 0].sum() - 0.5) < 1e-12
    assert abs(negativity(_dyad(SINGLET), 2, 2) - 0.5) < 1e-12

    separable_mix = 0.5 * (_dyad(kron([1, 0], [1, 0])) + _dyad(kron([0, 1], [0, 1])))
    assert negativity(separable_mix, 2, 2) < 1e-12


def test_negativity_side_invariance():
    rng = np.random.default_rng(76)
    for _ in range(5):
        rho = rand_density(rng, 6)
        left = partial_transpose(rho, 2, 3, side="left")
        right = partial_transpose(rho, 2, 3, side="right")
        assert np.allclose(
            np.linalg.eigvalsh(left), np.linalg.eigvalsh(right), atol=1e-10
        )


def test_is_separable_pure():
    rng = np.random.default_rng(77)
    assert is_separable_pure(kron(rand_unit(rng, 2), rand_unit(rng, 2)), 2, 2)
    assert not is_separable_pure(BELL, 2, 2)
    # a reduced product-of-spins vector is separable
    xi, eta = rand_unit(rng, 2), rand_unit(rng, 2)
    assert is_separable_pure(kron(xi, eta), 2, 2)


def test_ppt_classification_regimes():
    assert ppt_classification(_dyad(SINGLET), 2, 2) == ENTANGLED
    assert ppt_classification(np.eye(4) / 4, 2, 2) == SEPARABLE
    assert ppt_classification(np.eye(6) / 6, 2, 3) == SEPARABLE
    # beyond 2x2 / 2x3: a PPT verdict is inconclusive
    assert ppt_classification(np.eye(9) / 9, 3, 3) == PPT_INCONCLUSIVE
    rng = np.random.default_rng(78)
    psi = rand_unit(rng, 2)
    big_product = kron(_dyad(psi), np.eye(4) / 4)
    assert ppt_classification(big_product, 2, 4) == PPT_INCONCLUSIVE
