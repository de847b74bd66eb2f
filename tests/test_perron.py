"""Perron solver on adversarial inputs, and weights built in log space.

Near-reducible, periodic and widely spread matrices must give a Perron pair
that passes every invariant within 50 ms; matrices whose entries or Perron
root lie outside the range of floats, whose Perron vector spans more than
double precision resolves, or that are reducible must raise
:class:`NumericError` with a message that names the cause.  Potentials beyond the range of ``exp`` and weights
that underflow must not change the pressure or the graph structure.
"""

import json
import time

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    NumericError,
    ReturnOperator,
    cli,
    perron_eigendata,
    pressure,
    recode_higher_block,
    restricted_spectrum,
    spectral_radius_reducible,
)
from conftest import make_system


def two_cliques(eps):
    """Two 3-cliques joined by one edge of weight eps each way (3.7 eps back)."""
    M = np.zeros((6, 6))
    M[:3, :3] = 1.0
    M[3:, 3:] = 1.0
    M[0, 3] = eps
    M[4, 1] = 3.7 * eps
    return M


def weighted_cycle(n, spread):
    """Period-n cycle with weights exp(linspace(-spread, spread, n)), whose product is 1: rho = 1.

    The right vector has entries v[i+1] = v[i] / w[i], so a large spread takes
    them below the roundoff of the solves (for n = 48, spread 2.5 reaches 1e-13).
    """
    return np.roll(np.diag(np.exp(np.linspace(-spread, spread, n))), 1, axis=1)


SPREAD = np.array([[np.exp(-300.0), 1.0], [1.0, np.exp(300.0)]])

# matrix and its Perron root, computed without the solver under test
SOLVABLE = {
    **{f"cliques-{eps:g}": (two_cliques(eps), None) for eps in (1e-3, 1e-6, 1e-9, 1e-11, 1e-12)},
    "cycle-5": (weighted_cycle(5, 3.0), 1.0),
    "cycle-48": (weighted_cycle(48, 1.0), 1.0),
    "spread": (SPREAD, np.exp(300.0)),
}

UNSOLVABLE = {
    "inf": (np.array([[1.0, np.inf], [1.0, 1.0]]), "non-finite entries"),
    "exp-709": (np.exp(709.0) * np.ones((3, 3)), "dominant eigenvalue inf is not a positive normal float"),
    "subnormal": (np.exp(-740.0) * np.ones((3, 3)), "is not a positive normal float"),
    # irreducible, but the smallest right entry is below the roundoff of the largest
    "cycle-48-wide": (weighted_cycle(48, 2.5), "the matrix is irreducible, but its Perron vector spans"),
    "reducible": (np.array([[1.0, 1.0], [0.0, 1.0]]), "not strictly positive; matrix not irreducible"),
}


def best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name", sorted(SOLVABLE))
def test_adversarial_matrix_passes_invariants(name):
    M, expected = SOLVABLE[name]
    if expected is None:
        expected = float(np.linalg.eigvals(M).real.max())
    data = perron_eigendata(M)
    v, u, rho = data.right_vec, data.left_vec, data.rho
    assert rho == pytest.approx(expected, rel=1e-13)
    assert data.residual <= 1e-12
    assert v.min() > 0.0 and u.min() > 0.0
    assert v.max() == 1.0
    assert u @ v == pytest.approx(1.0, abs=1e-12)
    assert np.abs(M @ v - rho * v).max() <= 1e-12 * rho
    assert np.abs(u @ M - rho * u).max() <= 1e-12 * rho * u.max()
    # one right and two left solves, more only where the gap is near the polish shift
    assert data.iterations == 3 or name in ("cliques-1e-09", "cliques-1e-11")
    assert best_time(lambda: perron_eigendata(M)) < 0.05


@pytest.mark.parametrize("name", sorted(UNSOLVABLE))
def test_out_of_range_matrix_raises(name):
    M, message = UNSOLVABLE[name]

    def attempt():
        with pytest.raises(NumericError, match=message):
            perron_eigendata(M)

    assert best_time(attempt) < 0.05


def test_lin_alg_failures_become_numeric_errors(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericError, match="Perron eigensolve failed: Singular matrix"):
        perron_eigendata(two_cliques(1e-3))


@pytest.mark.parametrize("shift", [710.0, -750.0])
def test_constant_potential_beyond_exp_range(tmp_path, shift):
    # exp(710) overflows and exp(-750) underflows; the shifted weights are all 1
    rec = recode_higher_block(make_system(np.ones((3, 3), dtype=int), (0,),
                                          potential=DepthKPotential(1, {(i,): shift for i in range(3)})))
    assert rec.weight_shift == shift
    assert (rec.weight_matrix() == 1.0).all()
    assert pressure(rec) == pytest.approx(np.log(3.0) + shift, abs=1e-12)
    op = ReturnOperator(rec)
    assert op.s_critical == pytest.approx(np.log(2.0) + shift, abs=1e-12)
    assert op.alpha0 == pytest.approx(np.log(1.5), abs=1e-12)
    config = {"system": {
        "n_symbols": 3, "transitions": np.ones((3, 3), dtype=int).tolist(),
        "potential": {"depth": 1, "values": [{"word": [i], "value": shift} for i in range(3)]},
        "target": [0],
    }}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    scalars = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["scalars"]
    assert scalars["pressure"]["value"] == pytest.approx(np.log(3.0) + shift, abs=1e-12)
    assert scalars["mu_target"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_underflowing_weight_keeps_graph_structure():
    # the complement {1, 2} is one component through the edge 2 -> 1, whose weight
    # exp(-800) underflows to 0; numerically it splits into two self-loops of weight 1
    trans = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
    values = {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0, (1, 2): 0.0, (2, 0): 0.0, (2, 1): -800.0, (2, 2): 0.0}
    rec = recode_higher_block(make_system(trans, (0,), potential=DepthKPotential(2, values)))
    sub = rec.weight_matrix()[1:, 1:]
    assert sub[1, 0] == 0.0
    radius, comps = spectral_radius_reducible(sub, rec.transitions[1:, 1:])
    assert comps == [[0, 1]]
    assert radius == 1.0
    value, components = restricted_spectrum(rec)
    assert components == [[1, 2]]
    assert value == 0.0
    op = ReturnOperator(rec)
    assert op.restricted_components == [[1, 2]]
    assert op.pressure == pytest.approx(np.log(2.0), abs=1e-12)  # rho of I + the 3-cycle
