"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criterion 9 compares the empirical tail rate -(1/n) log(frequency) at n = 40
with its finite-n large-deviation prediction, not with the n -> oo limit
I(u).  On the full 2-shift the cycles are iid and integer-valued, so the
lattice Bahadur-Rao refinement gives P(r^n >= n u) ~ e^{-n I(u)} /
((1 - e^{-alpha*}) sigma_{alpha*} sqrt(2 pi n)), i.e. the rate
I(u) + log((1 - e^{-alpha*}) sigma_{alpha*} sqrt(2 pi n))/n.  The prefactor
term is about 0.057 at n = 40, a third of I(3) itself.  The count is also
z-tested against the exact oracle probability, and the exact oracle rate must
match the same prediction, so a wrong spectral or oracle route fails the test.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from conftest import GOLDEN_RATIO, full_shift, variance_of
from references import rate_function
from sftreturns import (
    ReturnOperator,
    SimConfig,
    empirical_clt,
    empirical_tail_rate,
    exact_mgf,
    first_return_law,
    gibbs_chain,
    mgf_matrix,
    recode_higher_block,
    return_time_law,
    sample_return_times,
    visit_counts,
)
from sftreturns.cli import main as cli_main

RHO = GOLDEN_RATIO


def record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if passed else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def psi_full2(alpha):
    return alpha - np.log(2.0 - np.exp(alpha))


def psi_golden(alpha):
    p = np.log(RHO)
    return 2.0 * (alpha - p) - np.log(1.0 - np.exp(alpha - p))


def full2_rate_closed(u):
    if u == 1.0:
        return np.log(2.0)
    return (u - 1.0) * np.log(2.0 * (u - 1.0) / u) + np.log(2.0) - np.log(u)


@pytest.fixture(scope="module")
def operators(random_recoded):
    return [ReturnOperator(rec) for rec in random_recoded]


def test_criterion_01_lambda_at_pressure(operators):
    start = time.perf_counter()
    worst = max(abs(op.eval(op.pressure).lam - 1.0) for op in operators)
    elapsed = time.perf_counter() - start
    record(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"|lambda_P - 1| <= 1e-10 on 50 random instances (worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_kac(operators, random_recoded):
    worst_spectral = 0.0
    worst_oracle_excess = 0.0
    for op, rec in zip(operators, random_recoded):
        psi1, _ = op.scgf_derivatives(0.0)
        worst_spectral = max(worst_spectral, abs(psi1 * op.mu_target - 1.0))
        chain = gibbs_chain(rec)
        law = first_return_law(chain, rec.target_blocks, tol=1e-12)
        mean = float(law.start @ law.duration_moment_matrix(1).sum(axis=1))
        slack = law.moment_tail_bound(1) + 1e-9
        worst_oracle_excess = max(
            worst_oracle_excess, abs(mean - 1.0 / op.mu_target) - slack
        )
    record(
        2,
        worst_spectral <= 1e-8 and worst_oracle_excess <= 0.0,
        "Psi'(0) mu(A) = 1 within 1e-8 and oracle mean within certified tail "
        f"(worst residual {worst_spectral:.2e}, worst certified excess {worst_oracle_excess:.2e})",
    )


def test_criterion_03_closed_form_cgf(full2_recoded, golden_recoded):
    start = time.perf_counter()
    op2 = ReturnOperator(full2_recoded)
    grid2 = np.linspace(-3.0, np.log(2.0) - 0.05, 20)
    worst2 = max(abs(op2.scgf(a) - psi_full2(a)) for a in grid2)
    opg = ReturnOperator(golden_recoded)
    gridg = np.linspace(-3.0, np.log(RHO) - 0.05, 20)
    worstg = max(abs(opg.scgf(a) - psi_golden(a)) for a in gridg)
    elapsed = time.perf_counter() - start
    record(
        3,
        worst2 <= 1e-10 and worstg <= 1e-10 and elapsed < 1.0,
        f"closed-form CGFs matched at 20 points (full 2-shift {worst2:.2e}, "
        f"golden mean {worstg:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_04_pressure_gap_and_alpha0(operators):
    gaps_ok = all(op.pressure - op.s_critical > 1e-12 for op in operators)
    rec3 = recode_higher_block(full_shift(3))
    op3 = ReturnOperator(rec3)
    alpha0_err = abs(op3.alpha0 - np.log(1.5))
    record(
        4,
        gaps_ok and alpha0_err <= 1e-12,
        f"strict pressure gap on all instances; full 3-shift alpha0 error {alpha0_err:.2e}",
    )


def test_criterion_05_sandwich(full2_recoded, golden_recoded):
    start = time.perf_counter()
    worst_ratio = 0.0
    for rec in (full2_recoded, golden_recoded):
        op = ReturnOperator(rec)
        chain = gibbs_chain(rec)
        law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=0.25)
        for alpha in (-1.0, -0.2, 0.2):
            psi = op.scgf(alpha)
            cs = [abs(math.log(exact_mgf(law, n, alpha)[0]) - n * psi) for n in range(1, 13)]
            # the 1e-9 floor guards the iid case where every C_n is roundoff
            worst_ratio = max(worst_ratio, max(cs) / max(2.0 * cs[2], 1e-9))
    elapsed = time.perf_counter() - start
    record(
        5,
        worst_ratio <= 1.0 and elapsed < 30.0,
        f"n|n^-1 log E - Psi| bounded for n <= 12 (worst ratio {worst_ratio:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_06_strict_convexity(operators):
    worst = np.inf
    for op in operators:
        top = op.alpha0 - 0.05 if np.isfinite(op.alpha0) else 3.0
        grid = np.linspace(-5.0, top, 25)
        curve = op.curve(grid)
        worst = min(worst, float(curve.psi2.min()))
    record(6, worst > 1e-8, f"Psi'' > 1e-8 on grids for all 50 instances (min {worst:.2e})")


def test_criterion_07_variance_two_routes(random_recoded, full2_recoded, golden_recoded):
    worst_gap = 0.0
    for rec in random_recoded:
        report = variance_of(rec)
        worst_gap = max(worst_gap, abs(report.sigma2 - report.series_sigma2))
    err2 = abs(variance_of(full2_recoded).sigma2 - 2.0)
    errg = abs(variance_of(golden_recoded).sigma2 - RHO**3)
    record(
        7,
        worst_gap <= 1e-6 and err2 <= 1e-9 and errg <= 1e-9,
        f"|Psi''(0) - series| <= 1e-6 on all instances (worst {worst_gap:.2e}); "
        f"closed-form variances within 1e-9 ({err2:.2e}, {errg:.2e})",
    )


def test_criterion_08_variancebis_montecarlo(full2_recoded, golden_recoded):
    start = time.perf_counter()
    rel_errs = []
    for rec, seed in ((full2_recoded, 1101), (golden_recoded, 1102)):
        chain = gibbs_chain(rec)
        op = ReturnOperator(rec)
        predicted = op.scgf_derivatives(0.0)[1] * op.mu_target**3
        cfg = SimConfig(seed=seed, n_samples=100_000, horizon=10_000)
        _, var_rate = visit_counts(chain, rec.target_blocks, cfg)
        rel_errs.append(abs(var_rate - predicted) / predicted)
    elapsed = time.perf_counter() - start
    record(
        8,
        max(rel_errs) <= 0.05 and elapsed < 60.0,
        f"counting variance within 5% of Psi''(0) mu^3 (rel errs {rel_errs[0]:.3f}, "
        f"{rel_errs[1]:.3f}; {elapsed:.0f}s)",
    )


def test_criterion_09_large_deviations(full2_recoded):
    start = time.perf_counter()
    op = ReturnOperator(full2_recoded)
    legendre_worst = max(
        abs(rate_function(op, u)[0] - full2_rate_closed(u)) for u in (1.0, 1.5, 3.0, 5.0)
    )
    assert legendre_worst <= 1e-8, f"Legendre mismatch {legendre_worst:.2e}"

    chain = gibbs_chain(full2_recoded)
    n = 40
    n_samples = 1_000_000
    cfg = SimConfig(seed=1903, n_returns=n, n_samples=n_samples)
    stats = sample_return_times(chain, full2_recoded.target_blocks, cfg)
    rate, count = empirical_tail_rate(stats, op.mu_target, 1.0, "upper")
    # The event is r^n/n >= 1/mu + 1 = 3.  The cycles are iid and integer
    # valued with span 1, and 3n lies on the lattice, so the lattice
    # Bahadur-Rao prediction below is exact to first order on this system.
    u = 3.0
    limit_rate, alpha_star = rate_function(op, u)
    sigma_star = math.sqrt(op.scgf_derivatives(alpha_star)[1])
    prefactor = math.log(
        (1.0 - math.exp(-alpha_star)) * sigma_star * math.sqrt(2.0 * math.pi * n)
    ) / n
    target_rate = limit_rate + prefactor
    rel = abs(rate - target_rate) / target_rate

    # P(T_n >= u n) is the mass of the exact law beyond u n - 1
    p_exact = return_time_law(chain, full2_recoded.target_blocks, n, round(u * n) - 1)[1]
    oracle_rate = -math.log(p_exact) / n
    oracle_rel = abs(oracle_rate - target_rate) / target_rate
    expected = n_samples * p_exact
    z = abs(count - expected) / math.sqrt(expected * (1.0 - p_exact))
    elapsed = time.perf_counter() - start
    record(
        9,
        rel <= 0.15 and oracle_rel <= 0.15 and z <= 5.0 and elapsed < 120.0,
        f"Legendre worst err {legendre_worst:.2e} (PASS at 1e-8); empirical rate "
        f"{rate:.4f} vs finite-n prediction {target_rate:.4f} = I({u:g}) {limit_rate:.4f} "
        f"+ prefactor {prefactor:.4f} is {100 * rel:.1f}% off, oracle rate "
        f"{oracle_rate:.4f} is {100 * oracle_rel:.1f}% off (allowed 15%); count {count} vs "
        f"oracle expectation {expected:.1f} (z = {z:.2f}, allowed 5; {elapsed:.0f}s)",
    )


def test_criterion_10_clt(full2_recoded, golden_recoded):
    start = time.perf_counter()
    results = []
    for rec, seed in ((full2_recoded, 2201), (golden_recoded, 2202)):
        chain = gibbs_chain(rec)
        op = ReturnOperator(rec)
        sigma = math.sqrt(op.scgf_derivatives(0.0)[1])
        cfg = SimConfig(seed=seed, n_returns=2000, n_samples=100_000)
        stats = sample_return_times(chain, rec.target_blocks, cfg)
        ks_good = empirical_clt(stats, sigma, op.mu_target)
        ks_half = empirical_clt(stats, sigma / 2.0, op.mu_target)
        results.append((ks_good, ks_half))
    elapsed = time.perf_counter() - start
    ok = all(g <= 0.05 and h >= 0.15 for g, h in results)
    record(
        10,
        ok and elapsed < 120.0,
        "KS <= 0.05 with predicted sigma and >= 0.15 with halved sigma "
        f"(full 2-shift {results[0][0]:.3f}/{results[0][1]:.3f}, "
        f"golden mean {results[1][0]:.3f}/{results[1][1]:.3f}; {elapsed:.0f}s)",
    )


def test_criterion_11_conjugacy(operators, random_recoded):
    worst = 0.0
    for op, rec in zip(operators[:20], random_recoded[:20]):
        tilt = 0.5 * op.alpha0 if np.isfinite(op.alpha0) else 1.0
        chain = gibbs_chain(rec)
        law = first_return_law(chain, rec.target_blocks, tol=1e-12, alpha_max=1.1 * tilt)
        v_t = op.right_vec[np.array(op.target)]
        for alpha in (-1.0, 0.0, tilt):
            Q, _ = mgf_matrix(law, alpha)
            R = op.eval(op.pressure - alpha).R
            conj = np.diag(1.0 / v_t) @ R @ np.diag(v_t)
            worst = max(worst, float(np.abs(Q - conj).max()))
    record(
        11,
        worst <= 1e-10,
        f"Q(alpha) = D_v^-1 R(P - alpha) D_v entrywise on 20 instances (worst {worst:.2e})",
    )


def test_criterion_12_reproducibility(tmp_path):
    config = {
        "system": {
            "n_symbols": 2,
            "transitions": [[1, 1], [1, 0]],
            "potential": {"depth": 1, "values": []},
            "target": [1],
        },
        "alpha_grid": {"min": -1.5, "max": 0.3, "count": 7},
        "u_grid": {"min": 2.5, "max": 6.0, "count": 5},
        "simulation": {
            "seed": 424242,
            "n_returns": 15,
            "n_samples": 20000,
            "horizon": 2000,
            "workers": 1,
            "tails": [{"u": 1.5, "side": "upper"}],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    workers_config = json.loads(json.dumps(config))
    workers_config["simulation"]["workers"] = 4
    workers_path = tmp_path / "config_workers.json"
    workers_path.write_text(json.dumps(workers_config), encoding="utf-8")

    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert cli_main(["validate", "--config", str(cfg_path), "--out", str(outs[0])]) == 0
    assert cli_main(["validate", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
    assert cli_main(["validate", "--config", str(workers_path), "--out", str(outs[2])]) == 0
    identical = True
    for name in ("scgf.csv", "rate.csv", "clt.csv", "tails.csv"):
        ref = (outs[0] / name).read_bytes()
        identical = identical and (outs[1] / name).read_bytes() == ref
        identical = identical and (outs[2] / name).read_bytes() == ref
    record(
        12,
        identical,
        "validate reruns and worker-hint changes produce byte-identical CSVs",
    )
