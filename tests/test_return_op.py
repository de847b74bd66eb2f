"""Induced return operator: R(S), lambda_S, the scaled CGF and derivatives."""

from itertools import product

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    DomainError,
    NumericError,
    ReturnOperator,
    recode_higher_block,
    return_op,
)
from conftest import GOLDEN_RATIO, full_shift, make_system
from references import first_return_series


def psi_full2(alpha):
    return alpha - np.log(2.0 - np.exp(alpha))


def psi_golden(alpha):
    p = np.log(GOLDEN_RATIO)
    return 2.0 * (alpha - p) - np.log(1.0 - np.exp(alpha - p))


class TestCriticalParameter:
    def test_full_2_shift(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        assert op.s_critical == pytest.approx(0.0, abs=1e-12)
        assert op.alpha0 == pytest.approx(np.log(2.0), abs=1e-12)

    def test_full_3_shift(self):
        op = ReturnOperator(recode_higher_block(full_shift(3)))
        assert op.s_critical == pytest.approx(np.log(2.0), abs=1e-12)
        assert op.alpha0 == pytest.approx(np.log(1.5), abs=1e-12)

    def test_golden_mean(self, golden_recoded):
        op = ReturnOperator(golden_recoded)
        assert op.s_critical == pytest.approx(0.0, abs=1e-12)
        assert op.alpha0 == pytest.approx(np.log(GOLDEN_RATIO), abs=1e-12)

    def test_underflowing_complement_cycle_is_a_numeric_error(self):
        # the only complement cycle 1 -> 2 -> 1 has weight exp(-800), which underflows to 0:
        # return times are unbounded (S_c = -400), but the numeric complement radius is 0
        trans = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
        values = {(0, 0): 0.0, (0, 1): 0.0, (1, 2): 0.0, (2, 0): 0.0, (2, 1): -800.0}
        rec = recode_higher_block(make_system(trans, (0,), potential=DepthKPotential(2, values)))
        with pytest.raises(NumericError, match="restricted pressure lies below double range"):
            ReturnOperator(rec)

    def test_acyclic_complement_bounds_the_returns(self):
        # the complement {2} has no self loop, so every return takes 1 or 2 steps
        op = ReturnOperator(recode_higher_block(make_system([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (0, 1))))
        assert op.s_critical == float("-inf")
        assert op.max_cycle_mean == 2


class TestOperatorEval:
    def test_full2_scalar_geometric(self, full2_recoded):
        ev = ReturnOperator(full2_recoded).eval(np.log(2.0))
        assert ev.R.shape == (1, 1)
        assert ev.R[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert ev.lam == pytest.approx(1.0, abs=1e-12)

    def test_full2_at_log4(self, full2_recoded):
        ev = ReturnOperator(full2_recoded).eval(np.log(4.0))
        assert ev.lam == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_golden_lambda_one_at_pressure(self, golden_recoded):
        op = ReturnOperator(golden_recoded)
        ev = op.eval(op.pressure)
        assert ev.lam == pytest.approx(1.0, abs=1e-12)

    def test_lambda_one_at_pressure_random(self, random_recoded):
        for rec in random_recoded:
            op = ReturnOperator(rec)
            assert abs(op.eval(op.pressure).lam - 1.0) <= 1e-10

    def test_perron_pair_residuals(self, random_recoded):
        for rec in random_recoded[:10]:
            op = ReturnOperator(rec)
            ev = op.eval(op.pressure + 0.3)
            assert np.abs(ev.R @ ev.h_vec - ev.lam * ev.h_vec).max() <= 1e-12 * ev.lam * ev.h_vec.max()
            assert np.abs(ev.m_vec @ ev.R - ev.lam * ev.m_vec).max() <= 1e-12 * ev.lam * ev.m_vec.max()
            assert ev.m_vec @ ev.h_vec == pytest.approx(1.0, abs=1e-12)
            assert ev.h_vec.min() > 0.0

    def test_below_critical_rejected(self, full2_recoded):
        with pytest.raises(DomainError, match="critical"):
            ReturnOperator(full2_recoded).eval(0.0)
        with pytest.raises(DomainError, match="critical"):
            ReturnOperator(full2_recoded).eval(-0.5)

    def test_lambda_strictly_decreasing_and_log_convex(self, random_recoded):
        for rec in random_recoded[:10]:
            op = ReturnOperator(rec)
            base = op.s_critical if np.isfinite(op.s_critical) else op.pressure - 5.0
            s_grid = base + np.array([0.2, 0.5, 1.0, 2.0, 4.0])
            lams = np.array([op.eval(float(s)).lam for s in s_grid])
            assert (np.diff(lams) < 0.0).all()
            logs = np.log(lams)
            mids = [(s_grid[i] + s_grid[i + 2]) / 2 for i in range(3)]
            for i, s_mid in enumerate(mids):
                chord = 0.5 * (logs[i] + logs[i + 2])
                assert np.log(op.eval(float(s_mid)).lam) <= chord + 1e-12

    def test_memo_hit_is_read_only_and_matches_a_fresh_operator(self, random_recoded, monkeypatch):
        # eval solves R(S) once per S, with its derivatives; every later request reads the same record
        solves = []

        def counting(M, original=return_op.perron_stack):
            solves.extend([M.shape[1:]] * M.shape[0])
            return original(M)

        for rec in random_recoded[:6]:
            fresh_op = ReturnOperator(rec)
            S = fresh_op.pressure - 0.1
            fresh = fresh_op.eval(S)
            op = ReturnOperator(rec)
            monkeypatch.setattr(return_op, "perron_stack", counting)
            solves.clear()
            ev = op.eval(S)
            op.solve([S, S])
            assert op.eval(S) is ev
            assert op.scgf_slope(0.1) == -ev.lam_prime / ev.lam
            assert len(solves) == 1
            monkeypatch.undo()
            for name in ("R", "h_vec", "m_vec"):
                arr = getattr(ev, name)
                assert not arr.flags.writeable
                assert arr.tobytes() == getattr(fresh, name).tobytes()
            assert (ev.lam, ev.lam_prime, ev.lam_second) == (fresh.lam, fresh.lam_prime, fresh.lam_second)
            with pytest.raises(ValueError):
                ev.R[0, 0] = 0.0


class TestSeriesEquivalence:
    def test_truncated_series_matches_resolvent(self, random_recoded):
        for rec in random_recoded[:12]:
            if rec.n_states > 6:
                continue
            op = ReturnOperator(rec)
            S = op.s_critical + 0.2 if np.isfinite(op.s_critical) else op.pressure
            terms = 40
            direct, tail = first_return_series(rec, S, terms)
            while tail > 1e-10:
                terms *= 2
                direct, tail = first_return_series(rec, S, terms)
            ev = op.eval(S)
            assert np.abs(direct - ev.R).max() <= tail + 1e-10

    def test_series_matches_explicit_path_enumeration(self):
        # genuine brute force: weight of every first-return path up to length 8
        trans = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        rng = np.random.default_rng(23)
        values = {}
        for i, j in product(range(3), range(3)):
            if trans[i][j]:
                values[(i, j)] = float(rng.uniform(-1.0, 1.0))
        sys = make_system(trans, (0,), potential=values_to_potential(values))
        rec = recode_higher_block(sys)
        S = 0.9
        horizon = 8
        brute = np.zeros((1, 1))
        target = {0}
        for length in range(1, horizon + 1):
            for path in product(*([range(3)] * (length - 1))):
                full = (0,) + path + (0,)
                if any(p in target for p in path):
                    continue
                if all(trans[a][b] for a, b in zip(full, full[1:])):
                    weight = sum(values[(a, b)] for a, b in zip(full, full[1:]))
                    brute[0, 0] += np.exp(weight - S * length)
        direct, _ = first_return_series(rec, S, horizon)
        assert direct[0, 0] == pytest.approx(brute[0, 0], rel=1e-12)


def values_to_potential(values):
    from sftreturns import DepthKPotential

    return DepthKPotential(2, values)


class TestScgf:
    def test_zero_at_zero(self, random_recoded):
        for rec in random_recoded[:15]:
            assert abs(ReturnOperator(rec).scgf(0.0)) <= 1e-10

    def test_full2_closed_form(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        assert op.scgf(np.log(1.5)) == pytest.approx(np.log(3.0), abs=1e-12)
        for alpha in np.linspace(-3.0, 0.6, 20):
            assert op.scgf(alpha) == pytest.approx(psi_full2(alpha), abs=1e-10)

    def test_golden_closed_form(self, golden_recoded):
        op = ReturnOperator(golden_recoded)
        p = np.log(GOLDEN_RATIO)
        assert op.scgf(p - np.log(2.0)) == pytest.approx(-np.log(2.0), abs=1e-12)
        for alpha in np.linspace(-3.0, 0.4, 20):
            assert op.scgf(alpha) == pytest.approx(psi_golden(alpha), abs=1e-10)

    def test_domain_error_names_alpha0(self, full2_recoded):
        with pytest.raises(DomainError, match="alpha0"):
            ReturnOperator(full2_recoded).scgf(np.log(2.0))
        with pytest.raises(DomainError, match="alpha0"):
            ReturnOperator(full2_recoded).scgf(np.log(2.0) - 1e-9)


class TestDerivatives:
    def test_full2_at_zero(self, full2_recoded):
        psi1, psi2 = ReturnOperator(full2_recoded).scgf_derivatives(0.0)
        assert psi1 == pytest.approx(2.0, abs=1e-10)
        assert psi2 == pytest.approx(2.0, abs=1e-9)

    def test_full2_at_log_3_halves(self, full2_recoded):
        psi1, _ = ReturnOperator(full2_recoded).scgf_derivatives(np.log(1.5))
        assert psi1 == pytest.approx(4.0, abs=1e-10)

    def test_golden_at_zero(self, golden_recoded):
        psi1, psi2 = ReturnOperator(golden_recoded).scgf_derivatives(0.0)
        assert psi1 == pytest.approx(GOLDEN_RATIO + 2.0, abs=1e-10)
        assert psi2 == pytest.approx(GOLDEN_RATIO**3, abs=1e-9)

    def test_analytic_matches_finite_differences(self, random_recoded):
        for rec in random_recoded[:10]:
            op = ReturnOperator(rec)
            top = min(0.25 * op.alpha0, 0.5)
            for alpha in (-1.3, -0.4, top):
                h = 1e-6
                fd = (op.scgf(alpha + h) - op.scgf(alpha - h)) / (2 * h)
                assert op.scgf_derivatives(alpha)[0] == pytest.approx(fd, abs=1e-6)

    def test_analytic_psi2_full2_closed_form(self, full2_recoded):
        # Psi'' = 2 e^a / (2 - e^a)^2; alpha0 - 1e-6 lies inside the old difference step
        op = ReturnOperator(full2_recoded)
        for alpha in (-3.0, -1.0, 0.0, 0.3, op.alpha0 - 1e-6):
            exact = 2.0 * np.exp(alpha) / (2.0 - np.exp(alpha)) ** 2
            # near alpha0 both sides lose eps / (alpha0 - alpha) = 2e-10 to cancellation
            rel = 1e-13 if alpha < 0.5 else 1e-8
            assert op.scgf_derivatives(alpha)[1] == pytest.approx(exact, rel=rel)

    def test_analytic_psi2_matches_richardson(self, random_recoded):
        # reference: one Richardson step of central differences of the analytic Psi'
        for rec in random_recoded[:10]:
            op = ReturnOperator(rec)
            top = min(0.25 * op.alpha0, 0.5)
            for alpha in (-1.3, -0.4, 0.0, top):
                h = 1e-5
                coarse = (op.scgf_slope(alpha + h) - op.scgf_slope(alpha - h)) / (2.0 * h)
                fine = (op.scgf_slope(alpha + h / 2.0) - op.scgf_slope(alpha - h / 2.0)) / h
                richardson = (4.0 * fine - coarse) / 3.0
                assert op.scgf_derivatives(alpha)[1] == pytest.approx(richardson, rel=1e-6)

    def test_derivatives_reuse_the_resolvent_solve(self, random_recoded, monkeypatch):
        # eval factors I - W_CC for X = K W_CA and reuses it for K^2 W_CA and K^3 W_CA only
        rec = next(r for r in random_recoded if len(r.complement_blocks) != len(r.target_blocks))
        op = ReturnOperator(rec)
        S = op.pressure - 0.1
        n_c = len(rec.complement_blocks)
        solve, calls = np.linalg.solve, []

        def counting(A, B):
            if A.shape[-2:] == (n_c, n_c):
                calls.append(A)
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "solve", counting)
        ev = op.eval(S)
        assert len(calls) == 3
        monkeypatch.undo()
        Waa, Wac, Wca, resolvent = op._blocks(S)
        C = np.array(rec.complement_blocks)
        Wcc = np.exp(rec.weight_shift - S) * rec.weight_matrix()[np.ix_(C, C)]
        assert resolvent.tobytes() == (np.eye(n_c) - Wcc).tobytes()
        X = np.linalg.solve(resolvent, Wca)
        X2 = np.linalg.solve(resolvent, X)
        R_prime = -(Waa + Wac @ X) - Wac @ X2
        assert ev.lam_prime == float(ev.m_vec @ R_prime @ ev.h_vec)

    def test_derivatives_match_the_resolvent_and_the_group_inverse(self, random_recoded):
        # R'(S) and R''(S) from K = (I - W_CC)^-1 itself, and the group inverse G of
        # lambda I - R by an explicit inverse, against the record's lambda' and lambda''
        for rec in random_recoded[:12]:
            op = ReturnOperator(rec)
            top = 0.5 * op.alpha0 if np.isfinite(op.alpha0) else 0.5
            for S in (op.pressure - top, op.pressure, op.pressure + 1.0):
                ev = op.eval(S)
                Waa, Wac, Wca, resolvent = op._blocks(S)
                K = np.linalg.inv(resolvent)
                R = Waa + Wac @ K @ Wca
                R_prime = -R - Wac @ K @ K @ Wca
                R_second = Waa + Wac @ (2.0 * K @ K @ K + K @ K + K) @ Wca
                m, h = ev.m_vec, ev.h_vec
                hm = np.outer(h, m)
                G = np.linalg.inv(ev.lam * np.eye(len(R)) - R + ev.lam * hm) - hm / ev.lam
                lam_prime = m @ R_prime @ h
                lam_second = m @ R_second @ h + 2.0 * m @ R_prime @ G @ R_prime @ h
                scale = abs(ev.lam)
                assert ev.lam_prime == pytest.approx(lam_prime, rel=1e-9, abs=1e-12 * scale)
                assert ev.lam_second == pytest.approx(lam_second, rel=1e-8, abs=1e-12 * scale)

    def test_kac_identity(self, random_recoded):
        for rec in random_recoded:
            op = ReturnOperator(rec)
            psi1, _ = op.scgf_derivatives(0.0)
            assert abs(psi1 * op.mu_target - 1.0) <= 1e-8

    def test_step_underflow_near_alpha0(self, full2_recoded):
        # no difference step: the only limit is the DOMAIN_TOL margin below alpha0
        op = ReturnOperator(full2_recoded)
        psi1, psi2 = op.scgf_derivatives(op.alpha0 - 5e-6)
        assert psi1 > 0.0 and psi2 > 0.0
        with pytest.raises(DomainError, match=r"alpha0=.*margin 1e-08"):
            op.scgf_derivatives(op.alpha0 - 5e-9)

    def test_short_return_asymptote_singleton(self, random_recoded, full2_recoded):
        # for a single target state lambda_S e^{tau S} converges to the weight
        # of the shortest return branch; tau is the minimal return time
        cases = [full2_recoded] + [r for r in random_recoded if len(r.target_blocks) == 1][:6]
        for rec in cases:
            op = ReturnOperator(rec)
            c = float(op.min_cycle_mean)
            assert c == float(op.minimal_return)
            r20 = np.log(op.eval(20.0).lam) + c * 20.0
            r30 = np.log(op.eval(30.0).lam) + c * 30.0
            assert abs(r30 - r20) < 1e-4

    def test_short_return_asymptote_union(self, random_recoded):
        # union targets: the decay exponent is the minimum mean cycle of
        # shortest first-return durations; the slope decreases monotonically
        # onto it (log lambda_S is convex)
        cases = [r for r in random_recoded if len(r.target_blocks) > 1][:6]
        for rec in cases:
            op = ReturnOperator(rec)
            c = float(op.min_cycle_mean)
            slopes = []
            for S in (op.pressure + 2.0, op.pressure + 5.0, op.pressure + 8.0):
                ev = op.eval(float(S))
                slopes.append(-ev.lam_prime / ev.lam)
            assert slopes[0] >= slopes[1] >= slopes[2] >= c - 1e-9
            assert slopes[2] - c < slopes[0] - c + 1e-12


class TestCurve:
    def test_invariants_on_random_instances(self, random_recoded):
        for rec in random_recoded[:10]:
            op = ReturnOperator(rec)
            top = op.alpha0 - 0.05 if np.isfinite(op.alpha0) else 3.0
            grid = np.linspace(-5.0, top, 12)
            curve = op.curve(grid)
            assert (curve.psi2 > 0.0).all()
            assert (np.diff(curve.psi1) > 0.0).all()
            assert (curve.psi1 > 0.0).all()

    def test_psi1_grows_toward_alpha0(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        near = op.scgf_derivatives(op.alpha0 - 1e-2)[0]
        far = op.scgf_derivatives(op.alpha0 - 1e-1)[0]
        assert near > far

    def test_closed_form_curve_values(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        curve = op.curve(np.array([-1.0, 0.0, 0.3]))
        expected = [psi_full2(a) for a in (-1.0, 0.0, 0.3)]
        assert np.allclose(curve.psi, expected, atol=1e-10)

    def test_domain_violations_reported_with_indices(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        with pytest.raises(DomainError, match=r"indices \[2, 3\]"):
            op.curve(np.array([0.0, 0.5, 0.693147175, 0.7]))

    def test_grid_must_increase(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        with pytest.raises(DomainError, match="increasing"):
            op.curve(np.array([0.3, 0.0]))
