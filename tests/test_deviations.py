"""Legendre conjugation, the LD limit values, and the variance report."""

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    DomainError,
    NumericError,
    ReturnOperator,
    recode_higher_block,
)
from conftest import GOLDEN_RATIO, make_system, variance_of
from references import deviation_limit, rate_function

# the landing chain of target states {0, 1} swaps them (0 -> 2 ... 2 -> 1, 1 -> 0),
# so the covariance series oscillates and only its Cesaro sum exists
PERIODIC_LANDING = make_system([[0, 0, 1], [1, 0, 0], [0, 1, 1]], (0, 1))
PERIODIC_LANDING_SIGMA2 = 3.38068465164
GEOMETRIC_P = 0.03


def geometric_returns(p):
    """Full 2-shift as iid symbols, 0 with probability p: returns to 0 are iid Geometric(p)."""
    potential = DepthKPotential(1, {(0,): 0.0, (1,): float(np.log((1.0 - p) / p))})
    return make_system(np.ones((2, 2), dtype=int), (0,), potential=potential)


def full2_rate(u):
    """Closed-form conjugate of alpha - log(2 - e^alpha) on its attainable range."""
    if u == 1.0:
        return np.log(2.0)
    return (u - 1.0) * np.log(2.0 * (u - 1.0) / u) + np.log(2.0) - np.log(u)


@pytest.fixture(scope="module")
def full2_op(full2_recoded):
    return ReturnOperator(full2_recoded)


@pytest.fixture(scope="module")
def golden_op(golden_recoded):
    return ReturnOperator(golden_recoded)


class TestRateFunction:
    def test_zero_at_mean(self, full2_op):
        value, alpha_star = rate_function(full2_op, 2.0)
        assert abs(value) <= 1e-10
        assert abs(alpha_star) <= 1e-9

    def test_closed_form_points(self, full2_op):
        for u in (1.5, 2.5, 3.0, 5.0):
            value, alpha_star = rate_function(full2_op, u)
            assert value == pytest.approx(full2_rate(u), abs=1e-8)
            assert full2_op.scgf_derivatives(alpha_star)[0] == pytest.approx(u, abs=1e-10)

    def test_boundary_value_is_limit(self, full2_op):
        value, alpha_star = rate_function(full2_op, 1.0)
        assert value == pytest.approx(np.log(2.0), abs=1e-10)
        assert alpha_star == float("-inf")

    def test_below_range_raises_with_range(self, full2_op):
        with pytest.raises(NumericError, match="attainable range"):
            rate_function(full2_op, 0.5)

    def test_nonpositive_rejected(self, full2_op):
        with pytest.raises(DomainError):
            rate_function(full2_op, 0.0)
        with pytest.raises(DomainError):
            rate_function(full2_op, -1.0)

    def test_nonnegative_zero_at_mean_convex(self, random_recoded):
        for rec in random_recoded[:8]:
            op = ReturnOperator(rec)
            mean = 1.0 / op.mu_target
            ceiling = float(op.max_cycle_mean) if op.max_cycle_mean is not None else np.inf
            hi1 = min(1.5 * mean, mean + 0.6 * (ceiling - mean))
            hi2 = min(2.5 * mean, mean + 0.8 * (ceiling - mean))
            us = np.array([0.7 * mean + 0.3 * float(op.min_cycle_mean), mean, hi1, hi2])
            vals = np.array([rate_function(op, float(u))[0] for u in us])
            assert (vals >= -1e-12).all()
            assert abs(vals[1]) <= 1e-10
            mid = rate_function(op, float(0.5 * (us[2] + us[3])))[0]
            assert mid <= 0.5 * (vals[2] + vals[3]) + 1e-10

    def test_double_conjugacy(self, random_recoded):
        # sup_u {u alpha - I(u)} recovers Psi(alpha) for convex Psi
        for rec in random_recoded[:5]:
            op = ReturnOperator(rec)
            for alpha in (-0.8, -0.1, min(0.3 * op.alpha0, 0.4)):
                u = op.scgf_derivatives(alpha)[0]
                value, alpha_star = rate_function(op, u)
                assert u * alpha_star - value == pytest.approx(op.scgf(alpha), abs=1e-8)

    def test_evaluations_per_rate_point(self, random_recoded, monkeypatch):
        # safeguarded Newton with exact Psi'': bisection to 1e-8 took about 36
        evals = []
        original = ReturnOperator.solve

        def counting(self, S_values):
            evals.extend(S_values)
            return original(self, S_values)

        monkeypatch.setattr(ReturnOperator, "solve", counting)
        worst = 0
        for rec in random_recoded:
            op = ReturnOperator(rec)
            mean = 1.0 / op.mu_target
            ceiling = float(op.max_cycle_mean) if op.max_cycle_mean is not None else np.inf
            for u in (0.7 * mean + 0.3 * float(op.min_cycle_mean), mean,
                      min(1.5 * mean, mean + 0.6 * (ceiling - mean)),
                      min(2.5 * mean, mean + 0.8 * (ceiling - mean))):
                evals.clear()
                _, alpha_star = rate_function(op, float(u))
                worst = max(worst, len(evals))
                assert op.scgf_derivatives(alpha_star)[0] == pytest.approx(u, rel=1e-12)
        assert worst <= 12

    def test_rate_curve_checks_invariants(self, full2_op):
        rate = np.array([rate_function(full2_op, u)[0] for u in (1.5, 2.0, 3.0, 4.0)])
        assert rate[1] <= 1e-10
        assert (rate >= -1e-12).all()


class TestDeviationLimit:
    def test_upper_example(self, full2_op):
        assert deviation_limit(full2_op, 1.0, "upper") == pytest.approx(-np.log(32 / 27), abs=1e-10)

    def test_lower_example(self, full2_op):
        assert deviation_limit(full2_op, 1.0, "lower") == pytest.approx(-np.log(2.0), abs=1e-10)

    def test_small_u_continuity(self, full2_op, golden_op):
        for op in (full2_op, golden_op):
            for side in ("upper", "lower"):
                assert abs(deviation_limit(op, 1e-5, side)) <= 1e-6

    def test_lower_beyond_mean_rejected(self, full2_op):
        with pytest.raises(DomainError, match="1/mu"):
            deviation_limit(full2_op, 2.0, "lower")

    def test_impossible_abscissa_is_minus_infinity(self, full2_op):
        assert deviation_limit(full2_op, 1.5, "lower") == float("-inf")

    def test_values_nonpositive(self, random_recoded):
        for rec in random_recoded[:6]:
            op = ReturnOperator(rec)
            assert deviation_limit(op, 0.5, "upper") <= 1e-12
            low_u = 0.25 * (1.0 / op.mu_target)
            assert deviation_limit(op, low_u, "lower") <= 1e-12

    def test_bounded_returns_upper_boundary(self, random_recoded):
        # instances with bounded return times have a finite Psi' ceiling
        bounded = [r for r in random_recoded if ReturnOperator(r).max_cycle_mean is not None]
        for rec in bounded[:3]:
            op = ReturnOperator(rec)
            ceiling = float(op.max_cycle_mean)
            value, alpha_star = rate_function(op, ceiling)
            assert np.isfinite(value) and value >= -1e-12
            assert alpha_star == float("inf")
            assert deviation_limit(op, ceiling - 1.0 / op.mu_target + 1.0, "upper") == float("-inf")

    def test_bad_side_rejected(self, full2_op):
        with pytest.raises(DomainError, match="side"):
            deviation_limit(full2_op, 1.0, "both")


class TestVarianceReport:
    def test_full2(self, full2_recoded):
        report = variance_of(full2_recoded)
        assert report.sigma2 == pytest.approx(2.0, abs=1e-9)
        assert report.sigma2_bar == pytest.approx(0.25, abs=1e-9)
        assert report.series_sigma2 == pytest.approx(2.0, abs=1e-6)
        assert report.sigma2_bar == report.sigma2 * report.mu_target**3

    def test_golden(self, golden_recoded):
        report = variance_of(golden_recoded)
        rho = GOLDEN_RATIO
        assert report.sigma2 == pytest.approx(rho**3, abs=1e-9)
        assert report.sigma2_bar == pytest.approx(rho**3 / (rho**2 + 1) ** 3, abs=1e-9)
        assert abs(report.series_sigma2 - report.sigma2) <= 1e-6

    def test_two_routes_agree_on_random_instances(self, random_recoded):
        for rec in random_recoded:
            report = variance_of(rec)
            assert abs(report.series_sigma2 - report.sigma2) <= 1e-6
            assert report.sigma2 > 1e-10

    def test_periodic_landing_chain(self):
        report = variance_of(recode_higher_block(PERIODIC_LANDING))
        assert abs(report.series_sigma2 - report.sigma2) <= 1e-12
        assert report.sigma2 == pytest.approx(PERIODIC_LANDING_SIGMA2, abs=1e-10)

    def test_large_variance_agrees_relatively(self):
        # sigma^2 = (1 - p) / p^2 = 1077.7...: an absolute 1e-6 gate is 1e-9 relative here
        report = variance_of(recode_higher_block(geometric_returns(GEOMETRIC_P)))
        exact = (1.0 - GEOMETRIC_P) / GEOMETRIC_P**2
        assert report.sigma2 > 1000.0
        assert abs(report.series_sigma2 - report.sigma2) <= 1e-10 * report.sigma2
        assert abs(report.sigma2 - exact) <= 1e-12 * exact
        assert abs(report.series_sigma2 - exact) <= 1e-12 * exact

    def test_degenerate_returns_rejected(self):
        # pure 2-cycle: every return takes exactly 2 steps, variance is zero
        rec_sys = make_system([[0, 1], [1, 0]], (0,))
        with pytest.raises(NumericError, match="positive|deterministic"):
            variance_of(recode_higher_block(rec_sys))
