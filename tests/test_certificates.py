"""Closed-form tail certificates, and pinned oracle outputs.

The oracle bounds each omitted tail sum_j X^j b (X = e^alpha P_cc) by one
solve of I - X, checked in floats (``oracle._certificate``).  The bounds are
checked against brute-force sums of the omitted terms, against the
contraction bound they replaced (``references.powered_rowsum_bound``), and on
the small-gap full 2-shift, where that bound found no contracting power.

The pinned values (float.hex and sha256 of the raw bytes) were first recorded
with the code that ran every contraction search to its cap and searched the
contraction of the tilted step matrix again at every horizon step.  ``sigma2``
and ``sigma2_bar`` are Psi''(0) from the exact Perron perturbation formula,
re-pinned when it replaced the Richardson difference; they are also checked
against the closed forms 2 (full 2-shift) and phi^3 (golden mean).  The
golden-mean and fault-sandwich values depend on the roundoff of the Perron
vectors behind the Gibbs chain, and were re-pinned when the dense eigensolve
with inverse-iteration polish replaced the power iteration.  ``series`` is the
cycle-covariance series, re-pinned when its exact sum in the Gibbs chain
(complement resolvent and fundamental matrix of the landing chain) replaced
the truncated first-return law with a fitted geometric-decay stop; it must
match Psi''(0) to 1e-12 relative.

``t_max``, ``tail``, ``kernels``, ``moment1`` and ``weighted`` were re-pinned
when the closed-form certificates replaced the contraction bound.  The tilted
tail now reaches tol earlier, so the law stops earlier and keeps fewer
kernels; the moment tail is now the closed form of the steps left until
landing, in place of the exponential envelope of a tilted bound:
- full2: t_max 122 -> 119, tail 0x1.0000000000000p-122 -> 0x1.0000000000000p-119,
  kernels d8b33536... -> 280e4430..., moment1 0x1.5e26384e8162ap-113 ->
  0x1.e400000004311p-113 (the exact tail is 121 * 2^-119 = 0x1.e4p-113),
  weighted 0x1.cddf32c1def48p-86 -> 0x1.faf61880438a6p-85 (the law stops
  three steps earlier, so more of the tilted mass is omitted);
- golden: t_max 167 -> 162, tail 0x1.b04937f4d11a7p-116 ->
  0x1.2ba2014b6569dp-112, kernels e90b1281... -> 76105304..., moment1
  0x1.5790f7c525806p-106 -> 0x1.8159ef7ec54efp-105, weighted
  0x1.324af21c6d8d7p-65 -> 0x1.dd50a9d17b575p-65;
- fault-sandwich: t_max 949 -> 869, tail 0x1.27a949ba89b46p-100 ->
  0x1.8ac85ef4215bep-92, kernels b1ade77c... -> 6ca04030..., moment1
  0x1.7a24ee18ddf6dp-85 -> 0x1.5481ce42cc2b4p-82; weighted stays a refusal,
  now the certificate's.
"""

import hashlib
import warnings

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    DomainError,
    NumericError,
    ReturnOperator,
    exact_mgf,
    first_return_law,
    gibbs_chain,
    recode_higher_block,
    variance_report,
)
from sftreturns import oracle
from sftreturns.oracle import MAX_HORIZON, _kac_roundoff, _validate_law, largest_certifiable_alpha
from conftest import GOLDEN_RATIO, full_shift, golden_mean, make_system
from references import powered_rowsum_bound, scaled_tail

TAIL_FAILED = (
    "tail certificate failed at alpha={}: no finite w >= 0 with X w + b <= w was found for "
    "X = e^alpha P_cc; the series diverges from largest_certifiable_alpha = -log rho(P_cc) on"
)

# The 10th system drawn by conftest.random_instance from np.random.default_rng(5).
# Its complement block has spectral radius 0.93, so no tilt above 0.073 is certifiable.
SANDWICH = make_system(
    [[1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
    (0, 2, 3),
    potential=DepthKPotential(2, {
        (0, 0): -0.936838860181463, (0, 3): -0.7391779181837066,
        (1, 0): 0.838916123097571, (1, 1): 0.6212593443971881,
        (2, 0): -0.48996095118105476, (2, 2): -0.3226846399272256,
        (3, 1): -0.9237520919459414, (3, 2): -0.7464060816150129,
    }),
)

CLOSED_FORM_SIGMA2 = {"full2": 2.0, "golden": GOLDEN_RATIO**3}

PINNED = {
    "full2": dict(
        system=lambda: full_shift(2), alpha_max="0x1.ccccccccccccdp-2", t_max=119,
        tail="0x1.0000000000000p-119",
        kernels="280e4430a717d5de10408a2649612b71a99fc4dd064cf314d72782e2304b33ad",
        moment1="0x1.e400000004311p-113", weighted="0x1.faf61880438a6p-85",
        sigma2="0x1.0000000000000p+1", sigma2_bar="0x1.0000000000000p-2",
        mu="0x1.0000000000000p-1", series="0x1.0000000000000p+1",
    ),
    "golden": dict(
        system=golden_mean, alpha_max="0x1.3333333333333p-2", t_max=162,
        tail="0x1.2ba2014b6569dp-112",
        kernels="7610530487fdbad7587d8015f73bc6f77ae44b2f7203a95b6982eaf1bf8163de",
        moment1="0x1.8159ef7ec54efp-105", weighted="0x1.dd50a9d17b575p-65",
        sigma2="0x1.0f1bbcdcbfa56p+2", sigma2_bar="0x1.6e5b7d16657e6p-4",
        mu="0x1.1b06d1d200914p-2", series="0x1.0f1bbcdcbfa66p+2",
    ),
    # alpha_max is validate's tilt budget 1.1 * alpha0 / 2; the tilt 0.2 is not certifiable
    "fault-sandwich": dict(
        system=lambda: SANDWICH, alpha_max="0x1.489672c3e8c72p-5", t_max=869,
        tail="0x1.8ac85ef4215bep-92",
        kernels="6ca04030d8692093999ac2cdac1704f1c03790798a024710ce175644ade6ed60",
        moment1="0x1.5481ce42cc2b4p-82", weighted=None,
        sigma2="0x1.70a99ec3b989ap+6", sigma2_bar="0x1.15125f2c1b2fdp-2",
        mu="0x1.253ff1e3a212bp-3", series="0x1.70a99ec3b987cp+6",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_oracle_outputs_match_pinned_values(name):
    pin = PINNED[name]
    recoded = recode_higher_block(pin["system"]())
    chain = gibbs_chain(recoded)
    law = first_return_law(
        chain, recoded.target_blocks, tol=1e-12, alpha_max=float.fromhex(pin["alpha_max"])
    )
    assert law.t_max == pin["t_max"]
    assert law.tail_bound.hex() == pin["tail"]
    assert hashlib.sha256(law.kernels.tobytes()).hexdigest() == pin["kernels"]
    assert law.moment_tail_bound(1).hex() == pin["moment1"]
    if pin["weighted"] is None:
        with pytest.raises(NumericError) as info:
            law.weighted_tail_bound(0.2)
        assert str(info.value) == TAIL_FAILED.format(0.2)
    else:
        assert law.weighted_tail_bound(0.2).hex() == pin["weighted"]
    report = variance_report(ReturnOperator(recoded), chain)
    assert report.sigma2.hex() == pin["sigma2"]
    assert report.sigma2_bar.hex() == pin["sigma2_bar"]
    assert report.mu_target.hex() == pin["mu"]
    assert report.series_sigma2.hex() == pin["series"]
    assert abs(report.series_sigma2 - report.sigma2) <= 1e-12 * report.sigma2
    if name in CLOSED_FORM_SIGMA2:
        assert abs(report.sigma2 - CLOSED_FORM_SIGMA2[name]) <= 1e-13


def small_gap(phi11):
    """The full 2-shift, target {0}, with phi(1, 1) = phi11: rho(P_cc) = 0.99966 at 4."""
    values = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): phi11}
    return make_system(np.ones((2, 2), dtype=int), (0,), potential=DepthKPotential(2, values))


# target {0}; the complement 1 -> 2 -> 3 -> 1 is a cycle of period 3, each state also
# stepping into the target
CYCLIC = make_system([[0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]], (0,))

# fractions of -log rho(P_cc): validate's tilt budget is 0.55 of it
FRACTIONS = (-0.5, 0.0, 0.1, 0.45, 0.55, 0.9)


def law_of(system, alpha_max=0.0):
    recoded = recode_higher_block(system)
    return first_return_law(gibbs_chain(recoded), recoded.target_blocks, tol=1e-12, alpha_max=alpha_max)


@pytest.fixture(scope="module")
def laws(random_instances):
    """Untilted laws of the 50 Tier-1 instances, the full 2-shift, the golden mean,
    fault-sandwich and the phi(1, 1) = 4 full 2-shift, with their tilt limits."""
    named = {f"instance {i}": s for i, s in enumerate(random_instances)}
    named.update({"full2": full_shift(2), "golden": golden_mean(), "fault-sandwich": SANDWICH,
                  "small gap": small_gap(4.0)})
    out = {}
    for name, system in named.items():
        law = law_of(system)
        if law._v_next.any():
            out[name] = law, largest_certifiable_alpha(law)
    return out


def brute_tail(law, alpha=0.0, order=0, block=256, max_blocks=10**4):
    """max over start states of sum_{p > t_max} p^order e^(alpha p) q(p), term by term.

    The term of p = t_max + 1 + j is p^order e^(alpha (t_max + 1)) V X^j P_ca 1
    with X = e^alpha P_cc; the terms come ``block`` steps at a time, from the
    stacked X^j P_ca 1, j < block.  V is rescaled every block and
    its scale kept as a log, so no term under- or overflows; the sum stops at
    the first block that adds less than 1e-20 of it, or after which V is 0.
    """
    t = law.t_max
    X = np.exp(alpha) * law._p_cc
    landing = [law._landing]
    for _ in range(block - 1):
        landing.append(X @ landing[-1])
    landing, leap = np.array(landing).T, np.linalg.matrix_power(X, block)
    W = law._v_next / law._v_next.max()
    log_scale = np.log(law._v_next.max()) + alpha * (t + 1)
    total = np.zeros(W.shape[0])
    for start in range(0, block * max_blocks, block):
        added = (W @ landing) @ (t + 1.0 + start + np.arange(block)) ** order
        total += added
        W = W @ leap
        peak = W.max()
        if added.max() <= 1e-20 * total.max() or peak == 0.0:
            return float(np.exp(log_scale + np.log(total.max())))
        W /= peak
        log_scale += np.log(peak)
        total /= peak
    raise AssertionError("brute-force tail did not converge")


def test_tilted_bound_against_brute_force(laws):
    # measured: at most 2.9e-8 above the brute-force sum, on the small gap at 0.9 of its
    # limit; at most 2.8e-10 above on the other systems
    for name, (law, limit) in laws.items():
        for fraction in FRACTIONS:
            alpha = fraction * limit
            bound, brute = law.weighted_tail_bound(alpha), brute_tail(law, alpha)
            assert brute <= bound <= brute * (1.0 + 1e-7), (name, fraction)


def test_tilted_bound_is_never_looser_than_the_contraction_bound(laws):
    # the contraction bound sums max-rowsum(V X^j) with P_ca 1 <= 1 dropped; measured
    # at 0.0003-0.89 of it, and it finds no contracting power on the small gap
    refused = []
    for name, (law, limit) in laws.items():
        for fraction in FRACTIONS:
            alpha = fraction * limit
            try:
                old = scaled_tail(alpha, law.t_max, powered_rowsum_bound(np.exp(alpha) * law._p_cc, law._v_next))
            except NumericError:
                refused.append((name, fraction))
                old = np.inf
            assert law.weighted_tail_bound(alpha) <= old, (name, fraction)
    assert refused and {name for name, _ in refused} == {"small gap"}


def test_bound_at_zero_tilt_is_the_tail_bound(laws):
    # at alpha = 0 the series is P_cc^j P_ca 1 summed, which is 1; the certificate's room
    # adds 1e-12 max(w) (I - P_cc)^-1 1, measured at most 2.9e-9 relative on the small gap
    for name, (law, _) in laws.items():
        assert law.tail_bound <= law.weighted_tail_bound(0.0) <= law.tail_bound * (1.0 + 1e-8), name


def test_refused_above_the_limit_on_a_cyclic_complement():
    law = law_of(CYCLIC)
    limit = largest_certifiable_alpha(law)
    assert law.weighted_tail_bound(0.999 * limit) < np.inf
    alpha = 1.001 * limit
    with pytest.raises(NumericError) as info:
        law.weighted_tail_bound(alpha)
    assert str(info.value) == TAIL_FAILED.format(alpha)
    with pytest.raises(NumericError) as info:
        law_of(CYCLIC, alpha_max=alpha)
    assert str(info.value) == TAIL_FAILED.format(alpha)


@pytest.mark.parametrize("order", [1, 2])
def test_moment_tail_against_brute_force(laws, order):
    # measured: at most 3.1e-9 above the brute-force sum, on the small gap
    for name, (law, _) in laws.items():
        bound, brute = law.moment_tail_bound(order), brute_tail(law, order=order)
        assert brute <= bound <= brute * (1.0 + 1e-7), name


@pytest.mark.parametrize("alpha", [710.0, 1e308, np.inf])
def test_tilt_past_double_range_raises_numeric_error(alpha):
    law = law_of(golden_mean())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as info:
            law.weighted_tail_bound(alpha)
        assert str(info.value) == TAIL_FAILED.format(alpha)
        with pytest.raises(NumericError) as info:
            law_of(golden_mean(), alpha_max=alpha)
        assert str(info.value) == TAIL_FAILED.format(alpha)


def test_singular_step_raises_numeric_error():
    # e^alpha P_cc = 1 exactly: I - X is singular, and the solve's LinAlgError is not let out
    alpha = np.log(2.0)
    with pytest.raises(NumericError) as info:
        oracle._certificate(alpha, np.array([[0.5]]), np.array([0.5]))
    assert str(info.value) == TAIL_FAILED.format(alpha)


def test_exact_mgf_keeps_its_domain_error():
    law = law_of(golden_mean())
    with pytest.raises(DomainError) as info:
        exact_mgf(law, 2, 0.8)
    assert str(info.value) == (
        "alpha=0.8 is too close to the domain boundary for certification; "
        f"largest certifiable alpha is about {largest_certifiable_alpha(law):.6f}"
    )
    assert isinstance(info.value.__cause__, NumericError)


def test_kac_slack_is_tighter_than_the_absolute_one(random_instances):
    # the Kac check's roundoff term replaced an absolute 1e-9; on the 50 Tier-1 laws
    # it runs from 1.9e-15 to 4.5e-12, and every law still passes
    for system in random_instances:
        law = law_of(system)
        mean = float(law.start @ law.duration_moment_matrix(1).sum(axis=1))
        assert 0.0 < _kac_roundoff(law, mean) < 1e-11
        _validate_law(law)


class TestSmallGap:
    """The full 2-shift with phi(1, 1) = 4, where no power of P_cc below 4096 contracts."""

    def test_untilted_law_builds_and_passes_kac(self):
        law = law_of(small_gap(4.0))
        _validate_law(law)
        assert law.tail_bound <= 1e-12

    def test_law_at_the_validate_tilt_budget_builds(self):
        system = small_gap(4.0)
        alpha = 1.1 * ReturnOperator(recode_higher_block(system)).alpha0 / 2
        law = law_of(system, alpha_max=alpha)
        assert law.weighted_tail_bound(alpha) <= 1e-12

    def test_smaller_gap_fails_only_at_the_horizon_cap(self):
        # phi(1, 1) = 5: the tilted tail decays as e^(-0.45 alpha0 t), alpha0 = 4.6e-5
        system = small_gap(5.0)
        alpha = 1.1 * ReturnOperator(recode_higher_block(system)).alpha0 / 2
        try:
            law = law_of(system, alpha_max=alpha)
        except NumericError as exc:
            # the untilted tail is 1.4e-20 there: the message names the tilted one
            prefix = f"first-return tail weighted by e^(alpha p) at alpha={alpha:.6g} still "
            assert str(exc).startswith(prefix)
            assert str(exc).endswith(f"after horizon {MAX_HORIZON}; tol unreachable")
            assert float(str(exc)[len(prefix):].split()[0]) > 1e-12
        else:
            assert law.weighted_tail_bound(alpha) <= 1e-12

    def test_smaller_gap_untilted_law_passes_kac(self):
        # phi(1, 1) = 5: t_max 604,408, and the mean return missed 1/mu by 6.6e-7 against
        # the absolute slack's 6.27e-7, a 3e-11 relative gap
        law = law_of(small_gap(5.0))
        _validate_law(law)
        assert law.t_max > 600_000 and law.tail_bound <= 1e-12
