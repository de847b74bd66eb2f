"""Pressure, Perron data, Gibbs chains, restricted pressure, target measure."""

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    GibbsChain,
    NumericError,
    gibbs_chain,
    perron_eigendata,
    pressure,
    recode_higher_block,
    restricted_spectrum,
)
from conftest import GOLDEN_RATIO, full_shift, golden_mean, make_system
from references import target_measure


class TestPressure:
    def test_full_2_shift(self, full2_recoded):
        assert pressure(full2_recoded) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_golden_mean(self, golden_recoded):
        assert pressure(golden_recoded) == pytest.approx(np.log(GOLDEN_RATIO), abs=1e-12)

    def test_normalized_potential_gives_zero(self):
        rng = np.random.default_rng(3)
        q = rng.random((3, 3))
        q /= q.sum(axis=1, keepdims=True)
        pot = DepthKPotential(2, {(i, j): float(np.log(q[i, j])) for i in range(3) for j in range(3)})
        sys = make_system(np.ones((3, 3), dtype=int), (0,), potential=pot)
        assert pressure(recode_higher_block(sys)) == pytest.approx(0.0, abs=1e-12)

    def test_additivity_under_constant_shift(self, random_recoded):
        rng = np.random.default_rng(11)
        for rec in random_recoded[:10]:
            c = float(rng.uniform(-2.0, 2.0))
            shifted = type(rec)(
                block_states=rec.block_states,
                transitions=rec.transitions.copy(),
                potential2=rec.potential2 + c,
                target_blocks=rec.target_blocks,
                block_length=rec.block_length,
            )
            assert pressure(shifted) == pytest.approx(pressure(rec) + c, abs=1e-10)

    def test_monotonicity(self, random_recoded):
        rng = np.random.default_rng(12)
        for rec in random_recoded[:10]:
            bump = rng.uniform(0.0, 1.0, size=rec.potential2.shape)
            bigger = type(rec)(
                block_states=rec.block_states,
                transitions=rec.transitions.copy(),
                potential2=rec.potential2 + bump,
                target_blocks=rec.target_blocks,
                block_length=rec.block_length,
            )
            assert pressure(bigger) >= pressure(rec) - 1e-12


class TestPerron:
    def test_residuals_and_positivity(self, random_recoded):
        for rec in random_recoded:
            data = perron_eigendata(rec.weight_matrix())
            assert data.residual <= 1e-12
            assert data.right_vec.min() > 0.0 and data.left_vec.min() > 0.0
            assert data.left_vec @ data.right_vec == pytest.approx(1.0, abs=1e-12)
            assert data.right_vec.max() == pytest.approx(1.0, abs=0.0)


class TestGibbsChain:
    def test_full_2_shift_uniform(self, full2_recoded):
        chain = gibbs_chain(full2_recoded)
        assert np.allclose(chain.transition_probs, 0.5, atol=1e-12)
        assert np.allclose(chain.stationary, 0.5, atol=1e-12)
        assert chain.entropy == pytest.approx(np.log(2.0), abs=1e-12)

    def test_golden_mean_parry(self, golden_recoded):
        chain = gibbs_chain(golden_recoded)
        rho = GOLDEN_RATIO
        expected = np.array([[1 / rho, 1 / rho**2], [1.0, 0.0]])
        assert np.allclose(chain.transition_probs, expected, atol=1e-10)
        assert np.allclose(chain.stationary, [rho**2 / (rho**2 + 1), 1 / (rho**2 + 1)], atol=1e-10)

    def test_golden_mean_closed_form_to_roundoff(self, golden_recoded):
        # the power iteration stopped short of these by 3.6e-14 and 6.1e-14
        chain = gibbs_chain(golden_recoded)
        rho = GOLDEN_RATIO
        expected = np.array([[1 / rho, 1 / rho**2], [1.0, 0.0]])
        assert np.abs(chain.transition_probs - expected).max() <= 4e-16
        mu = target_measure(chain, golden_recoded.target_blocks)
        assert abs(mu - 1.0 / (1.0 + rho**2)) <= 1e-15

    def test_stochastic_potential_is_fixed_point(self):
        rng = np.random.default_rng(5)
        q = rng.random((4, 4)) + 0.05
        q /= q.sum(axis=1, keepdims=True)
        pot = DepthKPotential(2, {(i, j): float(np.log(q[i, j])) for i in range(4) for j in range(4)})
        sys = make_system(np.ones((4, 4), dtype=int), (1, 2), potential=pot)
        chain = gibbs_chain(recode_higher_block(sys))
        assert np.allclose(chain.transition_probs, q, atol=1e-10)

    def test_variational_equality(self, random_recoded):
        for rec in random_recoded:
            chain = gibbs_chain(rec)
            p, pi = chain.transition_probs, chain.stationary
            mean_phi = float((pi[:, None] * p * np.where(p > 0, rec.potential2, 0.0)).sum())
            assert chain.entropy + mean_phi == pytest.approx(chain.pressure, abs=1e-10)

    @pytest.mark.parametrize("row, pi, message", [
        ([np.nan, np.nan], [0.5, 0.5], "chain is not stochastic (row defect nan)"),
        ([0.5, 0.5], [np.nan, 0.5], "chain is not stochastic (row defect 0.000e+00)"),
        ([0.5, 0.5], [0.75, 0.25], "stationarity defect 2.500e-01 exceeds tolerance"),
    ])
    def test_nan_defects_fail_the_chain_checks(self, row, pi, message):
        with pytest.raises(NumericError) as info:
            GibbsChain(transition_probs=np.array([row, [0.5, 0.5]]), stationary=np.array(pi),
                       pressure=0.0, entropy=0.0)
        assert str(info.value) == message


class TestRestrictedPressure:
    def test_full_2_shift(self, full2_recoded):
        assert restricted_spectrum(full2_recoded)[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_3_shift(self):
        rec = recode_higher_block(full_shift(3))
        assert restricted_spectrum(rec)[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_golden_mean(self, golden_recoded):
        assert restricted_spectrum(golden_recoded)[0] == pytest.approx(0.0, abs=1e-12)

    def test_strict_gap_everywhere(self, random_recoded):
        for rec in random_recoded:
            assert pressure(rec) - restricted_spectrum(rec)[0] > 1e-12

    def test_reducible_remainder_components(self):
        # complement {1, 2} has no cross edges; radius is the larger self weight
        trans = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
        values = {w: 0.0 for w in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]}
        values[(1, 1)] = 0.3
        values[(2, 2)] = 0.7
        sys = make_system(trans, (0,), potential=DepthKPotential(2, values))
        rec = recode_higher_block(sys)
        value, components = restricted_spectrum(rec)
        assert value == pytest.approx(0.7, abs=1e-12)
        assert components == [[1], [2]]

    def test_acyclic_remainder_gives_minus_infinity(self):
        rec = recode_higher_block(make_system([[0, 1], [1, 0]], (0,)))
        assert restricted_spectrum(rec)[0] == float("-inf")


class TestTargetMeasure:
    def test_examples(self, full2_recoded, golden_recoded):
        chain2 = gibbs_chain(full2_recoded)
        assert target_measure(chain2, full2_recoded.target_blocks) == pytest.approx(0.5, abs=1e-12)
        gchain = gibbs_chain(golden_recoded)
        assert target_measure(gchain, golden_recoded.target_blocks) == pytest.approx(
            1.0 / (GOLDEN_RATIO**2 + 1.0), abs=1e-10
        )
        rec3 = recode_higher_block(full_shift(3, target=(0, 1)))
        chain3 = gibbs_chain(rec3)
        assert target_measure(chain3, rec3.target_blocks) == pytest.approx(2.0 / 3.0, abs=1e-12)
