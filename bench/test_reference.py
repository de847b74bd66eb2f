"""The benchmark's reference values against closed forms.

Run with ``python3 -m pytest bench/test_reference.py``.  A wrong reference
could pass a wrong program, so each route in ``reference.py`` is pinned to
an exact answer here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference
import workloads

PHI = (1.0 + math.sqrt(5.0)) / 2.0
ALPHAS = (-2.0, -0.7, 0.0, 0.3, 0.6)


def system(transitions, target, depth=1, value=lambda word: 0.0):
    adj = np.asarray(transitions, dtype=bool)
    words = reference._words(adj, depth)
    return {
        "n_symbols": adj.shape[0],
        "transitions": np.asarray(transitions).tolist(),
        "potential": {"depth": depth, "values": [{"word": list(w), "value": value(w)} for w in words]},
        "target": list(target),
    }


@pytest.fixture(scope="module")
def full2():
    return reference.build(system([[1, 1], [1, 1]], [0]))


@pytest.fixture(scope="module")
def golden():
    return reference.build(system([[1, 1], [1, 0]], [1]))


def test_full2_thermodynamics(full2):
    assert full2.pressure == pytest.approx(math.log(2.0), abs=1e-14)
    assert full2.mu == pytest.approx(0.5, abs=1e-14)
    assert full2.alpha0 == pytest.approx(math.log(2.0), abs=1e-14)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_full2_psi_and_derivatives(full2, alpha):
    assert reference.psi(full2, alpha) == pytest.approx(reference.full2_psi(alpha), abs=1e-13)
    assert reference.psi1(full2, alpha) == pytest.approx(reference.full2_psi1(alpha), rel=1e-11)
    assert reference.psi2(full2, alpha) == pytest.approx(reference.full2_psi2(alpha), rel=1e-7)


def test_full2_closed_form_derivatives_are_consistent():
    h = 1e-6
    for alpha in ALPHAS:
        slope = (reference.full2_psi(alpha + h) - reference.full2_psi(alpha - h)) / (2 * h)
        assert reference.full2_psi1(alpha) == pytest.approx(slope, rel=1e-8)
        curvature = (reference.full2_psi1(alpha + h) - reference.full2_psi1(alpha - h)) / (2 * h)
        assert reference.full2_psi2(alpha) == pytest.approx(curvature, rel=1e-7)


@pytest.mark.parametrize("u", (1.25, 1.8, 2.0, 3.0, 5.0))
def test_full2_rate(full2, u):
    value, alpha = reference.full2_rate(u)
    assert reference.full2_psi1(alpha) == pytest.approx(u, rel=1e-14)
    assert value == pytest.approx(u * alpha - reference.full2_psi(alpha), abs=1e-14)
    dense_value, dense_alpha = reference.rate(full2, u)
    assert dense_value == pytest.approx(value, abs=1e-11)
    assert dense_alpha == pytest.approx(alpha, abs=1e-9)


def test_full2_limit_rate_at_three_is_log_32_over_27():
    assert reference.full2_rate(3.0)[0] == pytest.approx(math.log(32.0 / 27.0), abs=1e-15)


def test_full2_variances(full2):
    assert reference.sigma2(full2) == pytest.approx(2.0, rel=1e-12)
    assert reference.counting_variance(full2) == pytest.approx(0.25, rel=1e-12)
    # visits of the full 2-shift are iid Bernoulli(1/2)
    assert reference.finite_horizon_count_variance(full2, 37) == pytest.approx(37 * 0.25, rel=1e-12)


def test_full2_cycles_are_iid(full2):
    for alpha in (-1.0, 0.2):
        assert max(abs(c) for c in reference.sandwich_constants(full2, alpha)) < 1e-12


def test_full2_tail_probability():
    # P(T_40 >= 120) = P(Bin(119, 1/2) <= 39)
    direct = sum(math.comb(119, j) for j in range(40)) / 2.0**119
    p = reference.full2_tail_probability(40, 120)
    assert p == pytest.approx(direct, rel=1e-15)
    assert p == pytest.approx(1.07745e-4, rel=1e-5)


def test_golden_mean(golden):
    assert golden.pressure == pytest.approx(math.log(PHI), abs=1e-14)
    assert golden.mu == pytest.approx(1.0 / (1.0 + PHI**2), rel=1e-13)
    for alpha in (-2.0, -0.5, 0.0, 0.4):
        # tau = 1 + Geometric(1/phi^2): Psi = 2 alpha - 2 log phi - log(1 - e^alpha / phi)
        closed = 2.0 * alpha - 2.0 * math.log(PHI) - math.log(1.0 - math.exp(alpha) / PHI)
        assert reference.psi(golden, alpha) == pytest.approx(closed, abs=1e-13)
    assert reference.sigma2(golden) == pytest.approx(PHI**3, rel=1e-12)
    assert reference.psi2(golden, 0.0) == pytest.approx(PHI**3, rel=1e-7)


def test_depth3_presentation_matches_depth1():
    transitions = [[1, 1, 0], [1, 0, 1], [1, 1, 1]]
    weights = {0: 0.3, 1: -0.8, 2: 0.5}
    flat = reference.build(system(transitions, [0], depth=1, value=lambda w: weights[w[0]]))
    blocks = reference.build(system(transitions, [0], depth=3, value=lambda w: weights[w[0]]))
    assert blocks.n_states == 7
    assert blocks.pressure == pytest.approx(flat.pressure, abs=1e-13)
    assert blocks.mu == pytest.approx(flat.mu, abs=1e-13)
    assert reference.sigma2(blocks) == pytest.approx(reference.sigma2(flat), rel=1e-10)
    for alpha in (-1.0, 0.1):
        assert reference.psi(blocks, alpha) == pytest.approx(reference.psi(flat, alpha), abs=1e-12)


def test_sandwich_fault_system_has_c3_near_zero():
    ref = reference.build(workloads.SANDWICH_FAULT_SYSTEM)
    cs = reference.sandwich_constants(ref, -0.2)
    assert cs[0] == pytest.approx(0.104, abs=5e-4)
    assert cs[2] == pytest.approx(-0.002, abs=5e-4)
    assert max(abs(c) for c in cs) > 2.0 * abs(cs[2])


def test_attainable_fault_system_has_bounded_returns():
    ref = reference.build(workloads.ATTAINABLE_FAULT_SYSTEM)
    assert ref.alpha0 == math.inf
