"""Exact first-return laws, the law of T_n, tilted kernels, covariances."""

import dataclasses
from fractions import Fraction
from math import ceil, floor, fsum

import numpy as np
import pytest

from sftreturns import (
    ConfigurationError,
    DomainError,
    NumericError,
    ReturnOperator,
    exact_mgf,
    first_return_law,
    first_return_lengths,
    gibbs_chain,
    mgf_matrix,
    recode_higher_block,
    return_time_law,
)
from sftreturns.oracle import _validate_law, largest_certifiable_alpha
from sftreturns.perron import _contraction, _geometric_sum
from conftest import GOLDEN_RATIO, golden_mean, variance_of
from references import (
    cycle_covariance, first_return_durations, minimal_return_time, normalized_moments,
    stationary_cycle_moment,
)


def reference_weighted_tail(alpha, p_cc, v_next, t_max, cache):
    """The tilted tail bound at one horizon, its geometric sum computed from scratch."""
    if p_cc.size == 0 or not v_next.any():
        return 0.0
    step = np.exp(alpha) * p_cc
    if alpha not in cache:
        try:
            cache[alpha] = _contraction(step)
        except NumericError as exc:
            cache[alpha] = str(exc)
    if isinstance(cache[alpha], str):
        raise NumericError(cache[alpha])
    raw = _geometric_sum(step, v_next, *cache[alpha])
    if raw <= 0.0:
        return 0.0
    log_bound = alpha * (t_max + 1) + np.log(raw)
    return float(np.exp(log_bound)) if log_bound < 700.0 else float("inf")


def reference_horizon(chain, targets, tol, alpha_max):
    """(t_max, tail bound, weighted tail bound at alpha_max) of the horizon loop that
    re-evaluates the tilted bound, k products, at every step whose tail is below tol."""
    n = chain.n_states
    A = np.array(targets)
    C = np.array([i for i in range(n) if i not in set(targets)])
    P = chain.transition_probs
    Pcc = P[np.ix_(C, C)]
    V = P[np.ix_(A, C)].copy()
    tail = float(V.sum(axis=1).max())
    cache = {}
    t = 1
    while True:
        if tail <= tol and reference_weighted_tail(alpha_max, Pcc, V, t, cache) <= tol:
            return t, tail, reference_weighted_tail(alpha_max, Pcc, V, t, {})
        V = V @ Pcc
        tail = float(V.sum(axis=1).max())
        t += 1


def reference_distributions(law, n_max):
    """probs of the n-th return time (duration n + index) for n = 1..n_max, by the
    dynamic program run from the first return."""
    m = law.n_target
    cur = np.einsum("a,pab->bp", law.start, law.kernels)
    yield cur.sum(axis=0)
    for _ in range(2, n_max + 1):
        new = np.zeros((m, cur.shape[1] + law.t_max - 1))
        for a in range(m):
            for b in range(m):
                new[b] += np.convolve(cur[a], law.kernels[:, a, b])
        cur = new
        yield cur.sum(axis=0)


def reference_mgfs(law, n_max, alpha):
    """E e^(alpha T_n) for n = 1..n_max, summed over the dynamic program's law in log space."""
    values = []
    for n, probs in enumerate(reference_distributions(law, n_max), start=1):
        mask = probs > 0.0
        exponents = alpha * (n + np.flatnonzero(mask)) + np.log(probs[mask])
        peak = exponents.max()
        values.append(float(np.exp(peak) * np.exp(exponents - peak).sum()))
    return values


def tail_of(probs, n, threshold, side):
    """P(T_n >= threshold) or P(T_n <= threshold), summed over the dynamic program's law."""
    durations = n + np.arange(probs.size)
    keep = durations >= threshold if side == "upper" else durations <= threshold
    return fsum(probs[keep])


def tails_of_law(probs, beyond, threshold):
    """(P(T_n >= threshold), P(T_n <= threshold)) read off return_time_law to horizon
    probs.size; an upper cut past the horizon reads 0, which is within beyond of the tail."""
    cut = max(ceil(threshold), 1)  # the least duration in the upper event
    upper = fsum(probs[cut - 1:]) + beyond if cut <= probs.size + 1 else 0.0
    return upper, fsum(probs[:max(min(floor(threshold), probs.size), 0)])


def direct_tails(chain, target, n, threshold):
    """Both tails at the horizons validate asks for: the mass beyond cut - 1, the mass up to cut."""
    upper = return_time_law(chain, target, n, max(ceil(threshold), 1) - 1)[1]
    lower = return_time_law(chain, target, n, max(floor(threshold), 0))[0].sum()
    return upper, float(lower)


def edge_thresholds(n, t_max, mu_target):
    top = n * t_max
    middle = n / mu_target
    return (-2.0, 0.0, 0.5, 1.0, n - 0.5, n, top, top + 0.5, top + 7.0, 1e300,
            middle + 0.25, middle + 0.5, middle - 0.75, np.floor(middle) + 0.5)


def assert_relative(value, expected, tol):
    assert abs(value - expected) <= tol * abs(expected), (value, expected)


@pytest.fixture(scope="module")
def full2_law(full2_recoded):
    chain = gibbs_chain(full2_recoded)
    return first_return_law(chain, full2_recoded.target_blocks, tol=1e-12, alpha_max=0.45)


@pytest.fixture(scope="module")
def full2_chain(full2_recoded):
    return gibbs_chain(full2_recoded)


@pytest.fixture(scope="module")
def kernel_dp(random_recoded):
    """(n, law, kernel DP probs, return_time_law to horizon n t_max + 7) on every instance."""
    cases = []
    for rec in random_recoded:
        chain = gibbs_chain(rec)
        law = first_return_law(chain, rec.target_blocks, tol=1e-12)
        for n, probs in enumerate(reference_distributions(law, 64), start=1):
            if n in (1, 2, 5, 25, 64):
                exact = return_time_law(chain, rec.target_blocks, n, n * law.t_max + 7)
                cases.append((n, law, probs, exact))
    return cases


@pytest.fixture(scope="module")
def golden_law(golden_recoded):
    chain = gibbs_chain(golden_recoded)
    return first_return_law(chain, golden_recoded.target_blocks, tol=1e-12, alpha_max=0.3)


class TestFirstReturnLaw:
    def test_full2_geometric(self, full2_law):
        probs = full2_law.duration_probabilities()
        ps = np.arange(1, full2_law.t_max + 1)
        assert np.abs(probs - 0.5**ps).max() <= 1e-14

    def test_golden_no_immediate_return(self, golden_law):
        probs = golden_law.duration_probabilities()
        assert probs[0] == 0.0
        ps = np.arange(2, golden_law.t_max + 1)
        assert np.abs(probs[1:] - GOLDEN_RATIO ** (-ps.astype(float))).max() <= 1e-12

    def test_kac_mean(self, full2_law, golden_law):
        mean2 = float(full2_law.start @ full2_law.duration_moment_matrix(1).sum(axis=1))
        assert mean2 == pytest.approx(2.0, abs=1e-9)
        meang = float(golden_law.start @ golden_law.duration_moment_matrix(1).sum(axis=1))
        assert meang == pytest.approx(GOLDEN_RATIO**2 + 1.0, abs=1e-8)

    def test_kac_check_fails_on_nan(self, golden_law):
        # the Kac residual is tested as "not residual <= slack", so a nan mu fails it
        _validate_law(golden_law)
        with pytest.raises(NumericError, match="Kac check failed"):
            _validate_law(dataclasses.replace(golden_law, mu_target=float("nan")))

    def test_tail_is_exact_remaining_mass(self, full2_law):
        mass = full2_law.kernels.sum(axis=(0, 2))
        assert 1.0 - mass.max() <= full2_law.tail_bound + 1e-15

    def test_tol_validation(self, full2_recoded):
        chain = gibbs_chain(full2_recoded)
        with pytest.raises(ConfigurationError, match="tol"):
            first_return_law(chain, full2_recoded.target_blocks, tol=1e-3)

    def test_min_duration_matches_graph(self, random_recoded):
        for rec in random_recoded[:12]:
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-11)
            probs = law.duration_probabilities()
            first = int(np.flatnonzero(probs > 0.0)[0]) + 1
            assert first == minimal_return_time(rec)

    def test_kernel_support_is_the_first_return_walk(self, random_recoded):
        for rec in random_recoded:
            law = first_return_law(gibbs_chain(rec), rec.target_blocks, tol=1e-12)
            hits, _ = first_return_lengths(rec)
            for t in range(1, min(law.t_max, len(rec.complement_blocks) + 1) + 1):
                expected = hits[t - 1] if t <= len(hits) else np.zeros_like(hits[0])
                assert np.array_equal(law.kernels[t - 1] > 0.0, expected)

    @pytest.mark.parametrize("fraction", [0.1, 0.45, 0.55, 0.9])
    def test_tilted_horizon_matches_per_step_reference(self, random_recoded, fraction):
        for rec in random_recoded:
            op = ReturnOperator(rec)
            alpha = fraction * (op.alpha0 if np.isfinite(op.alpha0) else 2.0)
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=alpha)
            expected = reference_horizon(chain, rec.target_blocks, 1e-12, alpha)
            assert (law.t_max, law.tail_bound, law.weighted_tail_bound(alpha)) == expected

    def test_failed_contraction_raises_the_reference_message(self, full2_recoded, golden_recoded):
        for rec in (full2_recoded, golden_recoded):
            chain = gibbs_chain(rec)
            untilted = first_return_law(chain, rec.target_blocks, tol=1e-12)
            alpha = 1.1 * largest_certifiable_alpha(untilted)
            with pytest.raises(NumericError) as expected:
                reference_horizon(chain, rec.target_blocks, 1e-12, alpha)
            with pytest.raises(NumericError) as info:
                first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=alpha)
            assert str(info.value) == str(expected.value)


class TestExactDistribution:
    def test_n1_is_start_averaged_law(self, full2_law, full2_chain):
        probs, beyond = return_time_law(full2_chain, full2_law.target_states, 1, full2_law.t_max)
        assert np.allclose(probs, full2_law.duration_probabilities(), atol=1e-15)
        assert beyond <= full2_law.tail_bound + 1e-15

    def test_full2_n2_negative_binomial(self, full2_chain):
        probs, beyond = return_time_law(full2_chain, (0,), 2, 60)
        ts = np.arange(1, 61)
        assert np.abs(probs - (ts - 1) * 0.5**ts).max() <= 1e-14
        assert_relative(beyond, 61 * 0.5**60, 1e-13)  # at most one visit in 60 steps

    @pytest.mark.parametrize("n", [400, 3200])
    def test_full2_binomial_tails(self, full2_chain, n):
        # T_n >= t when steps 1..t-1 visit at most n - 1 times; T_n <= t when steps 1..t visit
        # at least n times; each visit is a fair coin, so both tails are binomial sums
        def at_most(trials, k_max):
            """P(Bin(trials, 1/2) <= k_max), exactly."""
            term = total = 1
            for k in range(1, k_max + 1):
                term = term * (trials - k + 1) // k
                total += term
            return Fraction(total, 2**trials)

        upper = return_time_law(full2_chain, (0,), n, 3 * n - 1)[1]
        assert_relative(upper, float(at_most(3 * n - 1, n - 1)), 1e-13)
        lower = return_time_law(full2_chain, (0,), n, 3 * n // 2)[0].sum()
        assert_relative(lower, float(1 - at_most(3 * n // 2, n - 1)), 1e-13)

    def test_mean_is_kac_multiple(self, random_recoded):
        for rec in random_recoded[:8]:
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12)
            mu = float(chain.stationary[list(rec.target_blocks)].sum())
            for n in (1, 3, 7):
                probs, beyond = return_time_law(chain, rec.target_blocks, n, n * law.t_max)
                assert beyond <= n * law.tail_bound + 1e-15
                mean = float(np.arange(1, probs.size + 1) @ probs / probs.sum())
                assert mean == pytest.approx(n / mu, abs=1e-6 * n)

    def test_support_minimum_by_bfs_dp(self, random_recoded):
        for rec in random_recoded[:10]:
            chain = gibbs_chain(rec)
            d = first_return_durations(rec)
            n = 5
            best = np.where(np.isfinite(d), d, np.inf)
            dp = best.copy()
            for _ in range(n - 1):
                dp = np.min(dp[:, :, None] + best[None, :, :], axis=1)
            probs, _ = return_time_law(chain, rec.target_blocks, n, int(dp.min()))
            assert not probs[:-1].any() and probs[-1] > 0.0

    def test_shorter_horizon_is_a_prefix(self, golden_recoded, random_recoded):
        for rec in [golden_recoded] + random_recoded[:6]:
            chain = gibbs_chain(rec)
            probs, beyond = return_time_law(chain, rec.target_blocks, 6, 80)
            for h in (0, 1, 17, 79):
                head, rest = return_time_law(chain, rec.target_blocks, 6, h)
                assert np.array_equal(head, probs[:h])
                # the recursion keeps the mass of each step up to roundoff, about an ulp a step
                assert rest == pytest.approx(probs[h:].sum() + beyond, rel=80 * np.finfo(float).eps)

    def test_rejects_bad_input(self, full2_chain):
        with pytest.raises(ConfigurationError, match="n must be"):
            return_time_law(full2_chain, (0,), 0, 5)
        with pytest.raises(ConfigurationError, match="horizon"):
            return_time_law(full2_chain, (0,), 2, -1)
        for target in ((), (0, 1)):
            with pytest.raises(ConfigurationError, match="proper subset"):
                return_time_law(full2_chain, target, 2, 5)


class TestExactTailProbability:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_matches_full_distribution(self, kernel_dp, side):
        # the kernel DP drops the paths with a cycle past t_max, at most n tail_bound of mass;
        # a tail near 1 also carries up to an ulp of mass per return from either route's
        # n-fold products (at n = 64 the DP's total mass reads 1 + 1.8e-15 on an instance
        # whose kernels drop nothing)
        for n, law, reference, (probs, beyond) in kernel_dp:
            slack = n * law.tail_bound + 1e-15
            padded = np.zeros(probs.size)
            padded[n - 1:n - 1 + reference.size] = reference
            assert np.abs(probs - padded).max() <= slack
            for threshold in edge_thresholds(n, law.t_max, law.mu_target):
                value = tails_of_law(probs, beyond, threshold)[side == "lower"]
                reference_tail = tail_of(reference, n, threshold, side)
                assert abs(value - reference_tail) <= slack + n * np.finfo(float).eps

    def test_edge_cuts(self, full2_recoded, golden_recoded, random_recoded):
        # each tail straight from the horizon validate asks for; no horizon reaches 1e300,
        # which test_matches_full_distribution reads off one long law
        picked = [full2_recoded, golden_recoded] + [
            rec for rec in random_recoded if len(rec.target_blocks) > 1][:3]
        for rec in picked:
            chain, target = gibbs_chain(rec), rec.target_blocks
            law = first_return_law(chain, target, tol=1e-12)
            for n, reference in enumerate(reference_distributions(law, 6), start=1):
                if n not in (1, 3, 6):
                    continue
                slack = n * law.tail_bound + 1e-15
                top = n * law.t_max
                for threshold in edge_thresholds(n, law.t_max, law.mu_target):
                    if threshold > top + 7.0:
                        continue
                    tails = direct_tails(chain, target, n, threshold)
                    for side, value in zip(("upper", "lower"), tails):
                        assert abs(value - tail_of(reference, n, threshold, side)) <= slack
                # below the shortest duration a tail is all or nothing, and past the longest
                # kernel duration only the mass the kernels drop is left
                upper, lower = direct_tails(chain, target, n, 0.5)
                assert abs(upper - 1.0) <= 1e-15 and lower == 0.0
                assert direct_tails(chain, target, n, top + 0.5)[0] <= n * law.tail_bound


class TestExactMgf:
    def test_matches_dynamic_program_sum(self, random_recoded):
        for rec in random_recoded:
            op = ReturnOperator(rec)
            half = 0.5 * op.alpha0 if np.isfinite(op.alpha0) else 1.0
            law = first_return_law(gibbs_chain(rec), rec.target_blocks, tol=1e-12,
                                   alpha_max=1.1 * half)
            for alpha in (-1.0, -0.2, half):
                expected = reference_mgfs(law, 8, alpha)
                for n in range(1, 9):
                    assert_relative(exact_mgf(law, n, alpha)[0], expected[n - 1], 1e-13)

    def test_alpha_zero_is_one(self, full2_law, golden_law):
        for law in (full2_law, golden_law):
            value, bound = exact_mgf(law, 3, 0.0)
            assert abs(value - 1.0) <= bound + 1e-12

    def test_full2_closed_form(self, full2_law):
        value, bound = exact_mgf(full2_law, 1, np.log(1.5))
        assert abs(value - 3.0) <= bound + 1e-10
        assert bound < 1e-9

    def test_sandwich_constant_bounded(self, full2_recoded, golden_recoded):
        for rec in (full2_recoded, golden_recoded):
            op = ReturnOperator(rec)
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=0.3)
            for alpha in (-1.0, -0.2, 0.2):
                psi = op.scgf(alpha)
                cs = [abs(np.log(exact_mgf(law, n, alpha)[0]) - n * psi) for n in range(1, 13)]
                assert max(cs) <= max(2.0 * cs[2], 1e-9)

    def test_sandwich_union_target_converges(self, random_recoded):
        # multi-state targets: C_n = |log E - n Psi| stays bounded
        picked = [r for r in random_recoded if len(r.target_blocks) > 1][:4]
        for rec in picked:
            op = ReturnOperator(rec)
            alpha = min(0.2, 0.3 * op.alpha0)
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=alpha + 0.05)
            psi = op.scgf(alpha)
            cs = [abs(np.log(exact_mgf(law, n, alpha)[0]) - n * psi) for n in range(1, 13)]
            assert max(cs[6:]) <= 1.5 * max(cs[:6]) + 1e-9

    def test_coarse_law_rejected(self, full2_recoded):
        chain = gibbs_chain(full2_recoded)
        law = first_return_law(chain, full2_recoded.target_blocks, tol=1e-8)
        with pytest.raises(ConfigurationError, match="tail"):
            exact_mgf(law, 2, 0.1)

    def test_uncertifiable_alpha_raises(self, full2_law):
        with pytest.raises(DomainError, match="certifiable"):
            exact_mgf(full2_law, 2, 0.8)


class TestConjugacy:
    def test_tilted_kernel_is_conjugated_operator(self, random_recoded):
        for rec in random_recoded[:20]:
            op = ReturnOperator(rec)
            chain = gibbs_chain(rec)
            half = 0.5 * op.alpha0 if np.isfinite(op.alpha0) else 1.0
            law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=half * 1.1)
            v_t = op.right_vec[np.array(rec.target_blocks)]
            for alpha in (-1.0, 0.0, half):
                Q, _ = mgf_matrix(law, alpha)
                R = op.eval(op.pressure - alpha).R
                conj = np.diag(1.0 / v_t) @ R @ np.diag(v_t)
                assert np.abs(Q - conj).max() <= 1e-10


class TestCycleCovariance:
    def test_single_state_independent(self, full2_law):
        for j in (2, 3, 5, 10):
            assert cycle_covariance(full2_law, j) == pytest.approx(0.0, abs=1e-12)

    def test_golden_variance(self, golden_law):
        assert cycle_covariance(golden_law, 1) == pytest.approx(GOLDEN_RATIO**3, abs=1e-8)

    def test_stationarity_of_cycle_means(self, random_recoded):
        for rec in random_recoded[:8]:
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12)
            Pi, G1, _ = normalized_moments(law)
            md = G1.sum(axis=1)
            w = law.start
            e1 = float(w @ md)
            for _ in range(3):
                w = w @ Pi
                assert float(w @ md) == pytest.approx(e1, abs=1e-10)

    def test_exponential_decay_fit(self, random_recoded):
        # |Cov(tau^1, tau^j)| <= C theta^j over j <= 30 for some theta < 1
        picked = [r for r in random_recoded if len(r.target_blocks) > 1][:5]
        for rec in picked:
            chain = gibbs_chain(rec)
            law = first_return_law(chain, rec.target_blocks, tol=1e-12)
            covs = np.array([abs(cycle_covariance(law, j)) for j in range(2, 31)])
            if covs.max() < 1e-13:
                continue
            nz = covs > 1e-16
            js = np.arange(2, 31)[nz]
            logs = np.log(covs[nz])
            slope = np.polyfit(js, logs, 1)[0]
            theta = np.exp(slope)
            assert theta < 1.0
            c_fit = covs[nz].max() / theta ** js[covs[nz].argmax()]
            assert (covs[nz] <= 10.0 * c_fit * theta**js + 1e-13).all()

    def test_second_moment_route(self, golden_law):
        second = stationary_cycle_moment(golden_law, 2)
        var = cycle_covariance(golden_law, 1)
        mean = stationary_cycle_moment(golden_law, 1)
        assert var == pytest.approx(second - mean**2, abs=1e-12)


def _covariance_cutoff(law, tol):
    """J with sum_{j > J} |Cov(tau^1, tau^j)| <= tol on the normalized law.

    Cov(tau^1, tau^(k+2)) = d Pi^k g with d = s G1 - (s G1 1) s, a zero-sum row,
    so |d Pi^k g| <= ||d Pi^k||_1 (max g - min g) / 2.  With L the first power
    whose Dobrushin coefficient is at most 1/2, ||d Pi^(k+iL)||_1 <= 2^-i ||d Pi^k||_1,
    and the terms after J sum to at most L (max g - min g) ||d Pi^(J-1)||_1.
    """
    Pi, G1, _ = normalized_moments(law)
    power, L = Pi, 1
    while 0.5 * np.abs(power[:, None, :] - power[None, :, :]).sum(axis=2).max() > 0.5:
        power, L = power @ Pi, L + 1
        assert L < 1000, "landing chain mixes too slowly (or is periodic) for this test"
    g = G1.sum(axis=1)
    x = law.start @ G1
    d = x - x.sum() * law.start
    J = 2
    while L * (g.max() - g.min()) * np.abs(d @ Pi).sum() > tol:
        d, J = d @ Pi, J + 1
    return J


def test_law_series_matches_closed_form_variance(random_recoded):
    # the covariance series summed term by term on the truncated law, against the
    # closed form of variance_report: they differ by the law's truncation, which
    # moment_tail_bound(2) bounds, by the omitted terms, and by roundoff per term
    remainder = 1e-12
    for rec in [recode_higher_block(golden_mean())] + list(random_recoded):
        report = variance_of(rec)
        law = first_return_law(gibbs_chain(rec), rec.target_blocks, tol=1e-12)
        J = _covariance_cutoff(law, remainder)
        covariances = sum(cycle_covariance(law, j) for j in range(2, J + 1))
        series = stationary_cycle_moment(law, 2) - 1.0 / law.mu_target**2 + 2.0 * covariances
        roundoff = 1e-14 * J * max(1.0, report.sigma2, 1.0 / law.mu_target**2)
        slack = law.moment_tail_bound(2) + 2.0 * remainder + roundoff
        assert abs(series - report.series_sigma2) <= slack

