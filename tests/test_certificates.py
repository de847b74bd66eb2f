"""Geometric tail certificates: the Collatz-Wielandt stop and pinned oracle outputs.

The pinned values (float.hex and sha256 of the raw bytes) were recorded with
the code that ran every contraction search to its cap and searched the
contraction of the tilted step matrix again at every horizon step.  Stopping
hopeless searches early and sharing one search must leave every certified
value bit-identical.  ``sigma2`` and ``sigma2_bar`` are Psi''(0) from the exact
Perron perturbation formula, re-pinned when it replaced the Richardson
difference; they are also checked against the closed forms 2 (full 2-shift)
and phi^3 (golden mean).  The golden-mean and fault-sandwich values depend
on the roundoff of the Perron vectors behind the Gibbs chain, and were
re-pinned when the dense eigensolve with inverse-iteration polish replaced
the power iteration.  ``series`` is the cycle-covariance series, re-pinned
when its exact sum in the Gibbs chain (complement resolvent and fundamental
matrix of the landing chain) replaced the truncated first-return law with a
fitted geometric-decay stop; it must match Psi''(0) to 1e-12 relative.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    NumericError,
    ReturnOperator,
    first_return_law,
    gibbs_chain,
    recode_higher_block,
    variance_report,
)
from sftreturns import cli, oracle
from sftreturns.perron import CW_CHECK_STEPS, _contraction
from conftest import GOLDEN_RATIO, full_shift, golden_mean, make_system
from references import powered_rowsum_bound

NO_CONTRACTION = (
    "geometric tail cannot be certified: no contracting power of the step matrix found within {} steps"
)

# The 10th system drawn by conftest.random_instance from np.random.default_rng(5).
# Its complement block has spectral radius 0.93, so the tilts 0.5, 0.25 and 0.1
# tried by moment_tail_bound cannot contract.
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
        system=lambda: full_shift(2), alpha_max="0x1.ccccccccccccdp-2", t_max=122,
        tail="0x1.0000000000000p-122",
        kernels="d8b33536e850d2828586c79a147babc06510d60ec7bfa91d684b5ee32735b882",
        moment1="0x1.5e26384e8162ap-113", weighted="0x1.cddf32c1def48p-86",
        sigma2="0x1.0000000000000p+1", sigma2_bar="0x1.0000000000000p-2",
        mu="0x1.0000000000000p-1", series="0x1.0000000000000p+1",
    ),
    "golden": dict(
        system=golden_mean, alpha_max="0x1.3333333333333p-2", t_max=167,
        tail="0x1.b04937f4d11a7p-116",
        kernels="e90b1281a60fdcb09613fa6f41414e82c3712961275991081bdde1120975cbe8",
        moment1="0x1.5790f7c525806p-106", weighted="0x1.324af21c6d8d7p-65",
        sigma2="0x1.0f1bbcdcbfa56p+2", sigma2_bar="0x1.6e5b7d16657e6p-4",
        mu="0x1.1b06d1d200914p-2", series="0x1.0f1bbcdcbfa66p+2",
    ),
    # alpha_max is validate's tilt budget 1.1 * alpha0 / 2; the tilt 0.2 cannot contract
    "fault-sandwich": dict(
        system=lambda: SANDWICH, alpha_max="0x1.489672c3e8c72p-5", t_max=949,
        tail="0x1.27a949ba89b46p-100",
        kernels="b1ade77c880915a8964413c8677ad6c820c6a13e213cc7d1355cce53d6892304",
        moment1="0x1.7a24ee18ddf6dp-85", weighted=None,
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
        assert str(info.value) == NO_CONTRACTION.format(4096)
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


def _stochastic(n, seed):
    a = np.random.default_rng(seed).random((n, n))
    return a / a.sum(axis=1, keepdims=True)


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


V = np.random.default_rng(12).random((3, 48)) * 0.01


@pytest.mark.parametrize("kind", ["dense", "periodic"])
def test_non_contracting_step_matrix_fails_early(kind):
    # rho = 1.02: every power has max-rowsum above 1, so no certificate exists
    base = _stochastic(48, 11) if kind == "dense" else np.roll(np.eye(48), 1, axis=1)
    X = 1.02 * base

    def attempt():
        for cap in (4096, 10**6):
            with pytest.raises(NumericError) as info:
                powered_rowsum_bound(X, V, cap)
            assert str(info.value) == NO_CONTRACTION.format(cap)

    def power_steps():
        power = np.eye(48)
        for _ in range(4096):
            power = power @ X
            float(power.sum(axis=1).max())

    # a search run to the 4096 cap does at least these 4096 steps of the power alone
    assert _best_time(attempt) < 0.5 * _best_time(power_steps)


def test_slow_contraction_is_unchanged():
    # rho = 0.999: the Collatz-Wielandt check at CW_CHECK_STEPS must let the search go on
    X = 0.999 * _stochastic(48, 13)
    k, _ = _contraction(X)
    assert k > CW_CHECK_STEPS
    assert powered_rowsum_bound(X, V).hex() == "0x1.019eaec504fc2p+8"


def test_failed_contraction_searched_once_per_law(tmp_path, monkeypatch):
    # validate on fault-sandwich builds 1 law, the bundle's tilted one shared by every
    # oracle check; it tries the hopeless tilts 0.5, 0.25 and 0.1 once, and a later
    # moment_tail_bound call re-raises the remembered failure
    # (without the memo every moment_tail_bound call searches again)
    failed, laws = [], []

    def counting(X, *args):
        try:
            return _contraction(X, *args)
        except NumericError:
            failed.append(X)
            raise

    def recording(law):
        laws.append(law)
        return validate_law(law)

    validate_law = oracle._validate_law
    monkeypatch.setattr(oracle, "_contraction", counting)
    monkeypatch.setattr(oracle, "_validate_law", recording)
    config = {
        "system": {
            "n_symbols": SANDWICH.n_symbols,
            "transitions": SANDWICH.transitions.tolist(),
            "potential": {"depth": 2, "values": [
                {"word": list(word), "value": value}
                for word, value in SANDWICH.potential.values.items()
            ]},
            "target": list(SANDWICH.target.symbols),
        },
        "simulation": {"seed": 5, "n_returns": 25, "n_samples": 1000, "horizon": 200},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert len(laws) == 1
    assert len(failed) <= 3 * len(laws)
    searched = len(failed)
    for law in laws:
        law.moment_tail_bound(2)
        with pytest.raises(NumericError) as info:
            law.weighted_tail_bound(0.5)
        assert str(info.value) == NO_CONTRACTION.format(4096)
    assert len(failed) == searched
