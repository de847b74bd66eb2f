"""Simulation layer: determinism, empirical statistics, CLT and tails.

Sample counts here are kept modest; the full-size stochastic gates live in
the acceptance suite.
"""

import hashlib

import numpy as np
import pytest

import references as ref
from conftest import full_shift, golden_mean, make_system, random_instance
from sftreturns import (
    ConfigurationError,
    DepthKPotential,
    DomainError,
    ReturnOperator,
    SimConfig,
    admissible_words,
    empirical_clt,
    empirical_scgf,
    empirical_tail_rate,
    gibbs_chain,
    normal_cdf,
    recode_higher_block,
    return_time_law,
    sample_return_times,
    visit_counts,
)
from sftreturns import montecarlo
from sftreturns.montecarlo import (
    RNG_ALGORITHM,
    EmpiricalStats,
    SharedDraws,
    _BlockStreams,
    _StepTable,
    tail_cut,
)


@pytest.fixture(scope="module")
def full2_chain(full2_recoded):
    return gibbs_chain(full2_recoded)


@pytest.fixture(scope="module")
def golden_chain(golden_recoded):
    return gibbs_chain(golden_recoded)


class TestDeterminism:
    def test_same_seed_identical(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=123, n_returns=3, n_samples=500)
        a = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        b = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_single_sample_reproducible(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=9, n_returns=1, n_samples=1)
        a = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        b = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        assert a.samples[0] == b.samples[0]

    def test_worker_hint_invariance(self, golden_chain, golden_recoded):
        base = dict(seed=77, n_returns=4, n_samples=70000)
        a = sample_return_times(golden_chain, golden_recoded.target_blocks, SimConfig(workers=1, **base))
        b = sample_return_times(golden_chain, golden_recoded.target_blocks, SimConfig(workers=3, **base))
        assert np.array_equal(a.samples, b.samples)

    def test_visit_counts_worker_invariance(self, full2_chain, full2_recoded):
        base = dict(seed=5, n_samples=40000, horizon=50)
        a, va = visit_counts(full2_chain, full2_recoded.target_blocks, SimConfig(workers=1, **base))
        b, vb = visit_counts(full2_chain, full2_recoded.target_blocks, SimConfig(workers=4, **base))
        assert np.array_equal(a, b)
        assert va == vb

    def test_different_seeds_differ(self, full2_chain, full2_recoded):
        cfg1 = SimConfig(seed=1, n_returns=3, n_samples=200)
        cfg2 = SimConfig(seed=2, n_returns=3, n_samples=200)
        a = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg1)
        b = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg2)
        assert not np.array_equal(a.samples, b.samples)

    def test_seeds_above_2_63_are_distinct(self, full2_chain, full2_recoded):
        def samples(seed):
            cfg = SimConfig(seed=seed, n_returns=3, n_samples=200)
            return sample_return_times(full2_chain, full2_recoded.target_blocks, cfg).samples

        assert not np.array_equal(samples(2**63), samples(2**63 + 5))
        assert not np.array_equal(samples(2**64 - 1), samples(0))

    def test_block_streams_match_fresh_philox(self):
        seed = 2**63 + 12345
        fresh = {
            index: np.random.Generator(
                np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
            ).random(2000)
            for index in range(1000, 1300)
        }
        streams = _BlockStreams(seed)
        for index in (1000, 1009):
            sought = [streams.seek(index, p).random() for p in range(2000)]
            assert np.array_equal(sought, fresh[index])
        # several tiles, a partial last tile, and a start off the four-draw grid
        draws = np.empty((7, 300))
        streams.fill(draws, np.arange(1000, 1300), 5)
        assert np.array_equal(draws, np.array([fresh[i][5:12] for i in range(1000, 1300)]).T)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(seed=-1)
        with pytest.raises(ConfigurationError):
            SimConfig(seed=0, n_samples=0)


def rare_target_system():
    """3 symbols, depth-3 potential, target {0} with mu(A) about 0.11 (7 chain states)."""
    transitions = [[1, 1, 0], [1, 1, 1], [1, 0, 1]]
    words = admissible_words(np.array(transitions, dtype=bool), 3)
    values = {w: (-2.5 if w[0] == 0 else 0.2 * (w[2] - w[0])) for w in words}
    return make_system(transitions, (0,), potential=DepthKPotential(3, values))


PINNED_SYSTEMS = {"full2": lambda: full_shift(2), "golden": golden_mean, "rare3": rare_target_system}
PINNED_CASES = {
    "one-chunk": dict(n_returns=40, n_samples=20_000, horizon=16, workers=1),
    "outlive-chunk": dict(n_returns=300, n_samples=2_000, horizon=1_300, workers=1),
    "blocks": dict(n_returns=4, n_samples=70_000, horizon=40, workers=2),
}
# sha256 of samples.tobytes(), counts.tobytes() and repr(var_rate), recorded
# with the per-sample Philox(key=[seed, index]) kernel this one replaced.
PINNED_DIGESTS = {
    ('full2', 'blocks'): (
        "e10dc2158de43eac5b918c38c848f3466439709a1fb7551d81ad6e51ab78dc6c",
        "587dad5cebaf3c19f68ef7755271c66c61d937f2332e468e2317dacffb760453",
        "d064d1cfac15eeb6f5de2bb2684c274155328a2133d6091a1164bb8b99005d89",
    ),
    ('full2', 'one-chunk'): (
        "d3bc911c3d0b779d88cde66f4c0e29b0ced4e25d987127594b57105084a1c78b",
        "a4704cb4a6a717629c6f0b6dc071bdf3cb5a11180192fbfa55373e94b8f087c8",
        "e0c6a07eec0effd8a295ba2c4eb2ded2172f1936cc3186e156993c36539b18fa",
    ),
    ('full2', 'outlive-chunk'): (
        "97585a5520a42a322eff11aa818ea4d92dae6eca64f5ece3d3473c80414ade7f",
        "cc89fb1bbfefff57cf53a1c586be82466afa3de33c76c8054a88dee1437223db",
        "b33a1a1087f5f58a6f33642a36197a3884cce4cc7090306130fba025a5036878",
    ),
    ('golden', 'blocks'): (
        "936ac617fc0341b52972c164217e572efbc4130ba3e0922229f48bec0417978e",
        "fe04789b2aa10f59481732f2c9421889baf6f74a3adce7a259fad6c815b9a466",
        "92009412473f62be5cb2cf76d0dad21d4ac6a58f3441b68d85895d4d5a6967fd",
    ),
    ('golden', 'one-chunk'): (
        "dcc753e80dbfbd4360322a47aa4fac60440cae55bf25874b3956d14046df3791",
        "5fcc267d7bbe231c3569ca1c75b9d7ef8b8e312323a6b3a9436311b1a4e4d158",
        "011d8de277ec35f44f204897382a66d819586bc8d79e6b9ef131719fd6cd4d53",
    ),
    ('golden', 'outlive-chunk'): (
        "b73078cc9b96425e3567c780cc0a867681104783167be7bb7be4a514d2b21cb4",
        "7f0c4ddf3e4f3cf158fa89ed4c8557692fd2db8ed5d7f116818fa914c9721d9a",
        "a64a40d6fdc8bb185b79b05b42a0b4719dbd607c7f46ce452f3412547bb6be41",
    ),
    ('rare3', 'blocks'): (
        "ac210359be544093cc8f9b4caeb9f195c69c07cff4f600d9c12f953b2d574e13",
        "0e3c02f97d0f8bab97398733c6df3992c645c6a1c8f0ce4b0d1959e76b43155b",
        "dbfab8f9d6c14ecc5a023b17637e976b5a517cdc366fcc678b3e9e142a92badf",
    ),
    ('rare3', 'one-chunk'): (
        "f4f41b6511e639eccd13c4620e0c3e9b71b2690b0c8578a16464008669e52d4b",
        "7c5561f8b23b6b8f2002a356d2a7d86200d6a914f593383546772304cf3a6791",
        "4b4504f65ea6b50a68e2167cbfe5305d66163b13f0dfe937905185f30cb7ac97",
    ),
    ('rare3', 'outlive-chunk'): (
        "5ca66f19947ad9fc23876f93839b2eddb5e875aa7375f98e388d10aebccb4c16",
        "705f223adb6353c90e1cf05a92f06e46bdd81477ffe639b3567b8f532ea6b09c",
        "77651bd4024bbf52e63cc1d83ba985b2e069494f0ddab0d018550a38c3c7d81b",
    ),
}


def output_digests(system: str, case: str, share: bool = False) -> tuple[str, str, str]:
    rec = recode_higher_block(PINNED_SYSTEMS[system]())
    chain = gibbs_chain(rec)
    cfg = SimConfig(seed=4242, **PINNED_CASES[case])
    shared = SharedDraws(cfg) if share else None
    samples = sample_return_times(chain, rec.target_blocks, cfg, shared).samples
    counts, var_rate = visit_counts(chain, rec.target_blocks, cfg, shared)
    if share:
        assert shared.draws is None and shared.block is None
    return tuple(
        hashlib.sha256(data).hexdigest()
        for data in (samples.tobytes(), counts.tobytes(), repr(var_rate).encode())
    )


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
@pytest.mark.parametrize("system", sorted(PINNED_SYSTEMS))
def test_outputs_match_pinned_digests(system, case):
    assert output_digests(system, case) == PINNED_DIGESTS[system, case]


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
@pytest.mark.parametrize("system", sorted(PINNED_SYSTEMS))
def test_shared_draws_match_pinned_digests(system, case):
    # the visit walk on the return walk's first chunk, which it leaves empty
    assert output_digests(system, case, share=True) == PINNED_DIGESTS[system, case]


@pytest.fixture
def seek_positions(monkeypatch):
    """The position of every ``_BlockStreams.seek`` call, in order."""
    positions = []
    seek = _BlockStreams.seek

    def recording(self, index, position):
        positions.append(position)
        return seek(self, index, position)

    monkeypatch.setattr(_BlockStreams, "seek", recording)
    return positions


class TestSharedDraws:
    def test_return_walk_widens_its_first_chunk_to_the_visit_walks(
        self, full2_chain, full2_recoded, seek_positions
    ):
        # the return walk's own first chunk is 40 rows here, the visit walk's 200;
        # two blocks, the last of 7,232 samples
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=8, n_returns=3, n_samples=40_000, horizon=200)
        shared = SharedDraws(cfg)
        stats = sample_return_times(full2_chain, target, cfg, shared)
        assert shared.block == (8, 32768, 40_000) and shared.draws.shape == (200, 7232)
        counts, var_rate = visit_counts(full2_chain, target, cfg, shared)
        assert shared.draws is None and shared.block is None
        # the visit walk draws its first chunk only for the block not held
        assert seek_positions.count(0) == 40_000 + 32768
        assert np.array_equal(stats.samples, sample_return_times(full2_chain, target, cfg).samples)
        alone, alone_rate = visit_counts(full2_chain, target, cfg)
        assert np.array_equal(counts, alone) and var_rate == alone_rate

    def test_each_stream_sought_once_for_the_shared_chunk(
        self, full2_chain, full2_recoded, seek_positions
    ):
        # validate on the full 2-shift: 20,000 samples of T_40, visit horizon 16
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=12, n_returns=40, n_samples=20_000, horizon=16)
        shared = SharedDraws(cfg)
        sample_return_times(full2_chain, target, cfg, shared)
        assert shared.draws.shape == (133, 20_000)
        returns = len(seek_positions)
        visit_counts(full2_chain, target, cfg, shared)
        assert seek_positions.count(0) == 20_000
        assert len(seek_positions) == returns
        assert shared.draws is None

    def test_a_block_not_held_is_drawn(self, full2_chain, full2_recoded):
        target = full2_recoded.target_blocks
        held = SimConfig(seed=3, n_returns=5, n_samples=500, horizon=30)
        other = SimConfig(seed=4, n_returns=5, n_samples=500, horizon=30)
        shared = SharedDraws(held)
        sample_return_times(full2_chain, target, held, shared)
        counts, _ = visit_counts(full2_chain, target, other, shared)
        assert np.array_equal(counts, visit_counts(full2_chain, target, other)[0])
        assert shared.draws is None


LAST_DRAW = np.nextafter(1.0, 0.0)  # 1 - 2^-53, the largest uniform Philox gives


def step(table, codes, u):
    """The states the table steps to from ``codes`` on the uniforms ``u``."""
    nxt = np.empty_like(codes)
    above = np.empty(codes.size, dtype=bool)
    return table.states[table.advance(codes, u, nxt, np.empty(codes.size), above)]


def reference_step(probs, states, u):
    nxt = np.empty_like(states)
    above = np.empty(states.size, dtype=bool)
    return ref.advance(states, u, ref.step_columns(probs), nxt, np.empty(states.size), above)


def random_step_chain(rng):
    """m from 2 to 16 and one out-degree from 1 to m, on random columns (so rows
    have leading and middle zeros), about a third of the rows redrawn until
    their sum falls short of 1."""
    m = int(rng.integers(2, 17))
    degree = int(rng.integers(1, m + 1))
    probs = np.zeros((m, m))
    for row in probs:
        columns = rng.choice(m, size=degree, replace=False)
        for _ in range(100 if rng.random() < 1 / 3 else 1):
            weights = rng.random(degree) ** 3
            row[columns] = weights / weights.sum()
            if np.cumsum(row)[-1] < 1.0:
                break
    return probs


def probe_uniforms(probs, rng):
    """0, every cumulative threshold and its neighbours, the last draw and random
    draws, all in [0, 1)."""
    cum = np.cumsum(probs, axis=1).ravel()
    u = np.concatenate([
        [0.0, LAST_DRAW], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), rng.random(64),
    ])
    return np.unique(u[u < 1.0])


def depth3_chain():
    """12 states, out-degree 3: the 2-words of the complete graph on 4 symbols."""
    rng = np.random.default_rng(3)
    transitions = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    words = admissible_words(transitions.astype(bool), 3)
    potential = DepthKPotential(3, {w: float(rng.uniform(-1.0, 1.0)) for w in words})
    return gibbs_chain(recode_higher_block(make_system(transitions, (0,), potential=potential)))


class TestStepTable:
    # row 0 sums to 0.9999999999999999, so u = 1 - 2^-53 passes all three of its
    # unclosed thresholds, which would step to state 3
    SHORT_ROW_CHAIN = [[0.7, 0.2, 0.1, 0.0], [0.25] * 4, [0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]]

    # a full second row keeps the state columns, a sparse one takes codes
    @pytest.mark.parametrize("second_row", [[0.25] * 4, [0.0, 0.0, 0.3, 0.7]])
    def test_no_step_takes_a_zero_probability_transition(self, second_row):
        first, _, *rest = self.SHORT_ROW_CHAIN
        chains = [np.array([first, second_row, *rest])]
        assert np.cumsum(chains[0][0])[-1] < 1.0
        # both chains have rows that fall short of 1 ahead of zero entries
        rng = np.random.default_rng(0)
        chains += [gibbs_chain(recode_higher_block(random_instance(rng))).transition_probs for _ in range(2)]
        for probs in chains:
            table = _StepTable(probs, [0])
            codes = np.arange(table.states.size)
            nxt = step(table, codes, np.full(codes.size, LAST_DRAW))
            assert (probs[table.states, nxt] > 0.0).all()

    def test_step_matches_the_column_reference(self):
        rng = np.random.default_rng(15)
        paths, short_rows = set(), 0
        for _ in range(200):
            probs = random_step_chain(rng)
            short_rows += int((np.cumsum(probs, axis=1)[:, -1] < 1.0).sum())
            table = _StepTable(probs, [0])
            paths.add(table.base is None)
            u = probe_uniforms(probs, rng)
            codes = np.repeat(np.arange(table.states.size), u.size)
            u = np.tile(u, table.states.size)
            assert np.array_equal(step(table, codes, u), reference_step(probs, table.states[codes], u))
            assert np.array_equal(table.hits, table.states == 0)
        assert paths == {True, False} and short_rows >= 50

    def test_state_columns_past_the_table_budget(self, monkeypatch):
        probs = depth3_chain().transition_probs
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 8 * 12 * 4 * 2 - 1)
        table = _StepTable(probs, [0])
        assert table.base is None and len(table.cols) == 11
        u = probe_uniforms(probs, np.random.default_rng(7))
        states = np.repeat(np.arange(12), u.size)
        u = np.tile(u, 12)
        assert np.array_equal(step(table, states, u), reference_step(probs, states, u))
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 8 * 12 * 4 * 2)
        assert _StepTable(probs, [0]).base is not None

    def test_state_columns_on_full_rows_codes_on_sparse_ones(self, full2_chain, golden_chain):
        for chain in (full2_chain, golden_chain):
            table = _StepTable(chain.transition_probs, [0])
            assert table.base is None and len(table.cols) == 1
        rare3 = gibbs_chain(recode_higher_block(rare_target_system()))
        depth3 = depth3_chain()
        assert depth3.n_states == 12
        for chain in (rare3, depth3):
            table = _StepTable(chain.transition_probs, [0])
            assert table.base is not None and len(table.cols) < chain.n_states - 1


class TestSampleLaw:
    def test_full2_single_return_frequency(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=101, n_returns=1, n_samples=100_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        freq1 = stats.histogram.get(1, 0) / stats.samples.size
        assert freq1 == pytest.approx(0.5, abs=0.005)

    def test_golden_never_returns_in_one_step(self, golden_chain, golden_recoded):
        cfg = SimConfig(seed=55, n_returns=1, n_samples=50_000)
        stats = sample_return_times(golden_chain, golden_recoded.target_blocks, cfg)
        assert stats.samples.min() >= 2

    def test_samples_at_least_n(self, golden_chain, golden_recoded):
        cfg = SimConfig(seed=3, n_returns=6, n_samples=5000)
        stats = sample_return_times(golden_chain, golden_recoded.target_blocks, cfg)
        assert stats.samples.min() >= 6

    def test_histogram_matches_oracle_in_total_variation(self, golden_chain, golden_recoded):
        n, n_samples = 4, 120_000
        cfg = SimConfig(seed=29, n_returns=n, n_samples=n_samples)
        stats = sample_return_times(golden_chain, golden_recoded.target_blocks, cfg)
        horizon = max(stats.histogram)
        probs, beyond = return_time_law(golden_chain, golden_recoded.target_blocks, n, horizon)
        exact = {t: float(p) for t, p in enumerate(probs, start=1)}
        support = set(exact) | set(stats.histogram)
        tv = 0.5 * (beyond + sum(
            abs(exact.get(k, 0.0) - stats.histogram.get(k, 0) / n_samples) for k in support
        ))
        assert tv <= 5.0 / np.sqrt(n_samples)

    def test_mean_flag_fires_on_wrong_target(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=31, n_returns=10, n_samples=20_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        assert stats.flags == ()


class TestEmpiricalScgf:
    def test_zero_alpha_is_zero(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=41, n_returns=5, n_samples=2000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        value, ess = empirical_scgf(stats, 0.0)
        assert value == 0.0
        assert ess == pytest.approx(2000.0, rel=1e-12)

    def test_matches_spectral_at_negative_alpha(self, full2_chain, full2_recoded):
        n, n_samples = 10, 200_000
        cfg = SimConfig(seed=43, n_returns=n, n_samples=n_samples)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        op = ReturnOperator(full2_recoded)
        alpha = -0.5
        value, ess = empirical_scgf(stats, alpha)
        assert ess > 100.0
        # C/n finite-size bias plus three standard errors of the estimator
        psi = op.scgf(alpha)
        bias = 0.5 / n
        weights = np.exp(alpha * stats.samples - alpha * stats.samples.max())
        se = weights.std() / (weights.mean() * np.sqrt(n_samples) * n)
        assert abs(value - psi) <= bias + 3.0 * se

    def test_large_negative_alpha_high_ess(self, full2_chain, full2_recoded):
        n = 3
        cfg = SimConfig(seed=47, n_returns=n, n_samples=50_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        value, ess = empirical_scgf(stats, -5.0)
        assert ess > 100.0
        # bounded weights: close to the spectral value up to the C/n bias
        op = ReturnOperator(full2_recoded)
        assert abs(value - op.scgf(-5.0)) <= 1.0 / n


class TestTailRate:
    def test_zero_frequency_reports_infinite_rate(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=51, n_returns=30, n_samples=1000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        rate, count = empirical_tail_rate(stats, 0.5, 50.0, "upper")
        assert rate == float("inf") and count == 0

    def test_sides_validated(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=53, n_returns=2, n_samples=100)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        with pytest.raises(DomainError):
            empirical_tail_rate(stats, 0.5, 3.0, "lower")
        with pytest.raises(DomainError):
            empirical_tail_rate(stats, 0.5, -1.0, "upper")

    def test_edge_within_roundoff_of_an_integer_is_that_integer(self):
        # n (1/mu + u) computes to 99.00000000000001 at n = 45, mu = 2/3, u = 0.7
        assert 45 * (1.0 / (2 / 3) + 0.7) > 99
        assert tail_cut(45, 2 / 3, 0.7, "upper") == 99
        assert tail_cut(45, 2 / 3, 0.7, "lower") == 36
        assert tail_cut(45, 2 / 3, 0.71, "upper") == 100
        stats = EmpiricalStats(samples=np.array([99]), n_returns=45, mean=99.0, variance=0.0,
                               histogram={99: 1}, seed=0, rng_algorithm=RNG_ALGORITHM, flags=())
        assert empirical_tail_rate(stats, 2 / 3, 0.7, "upper").count == 1

    def test_typical_event_rate_near_zero(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=57, n_returns=50, n_samples=20_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        rate, count = empirical_tail_rate(stats, 0.5, 1e-6, "upper")
        assert count > 5000
        assert rate <= 0.02


class TestCltAndVisits:
    def test_normal_cdf_reference_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        assert normal_cdf(-8.0) == pytest.approx(6.22096057e-16, rel=1e-6)

    def test_ks_moderate_n(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=61, n_returns=400, n_samples=20_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        ks_good = empirical_clt(stats, np.sqrt(2.0), 0.5)
        ks_bad = empirical_clt(stats, np.sqrt(2.0) / 2.0, 0.5)
        assert ks_good < 0.08
        assert ks_bad > 0.12

    def test_lattice_n1_is_far_from_normal(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=63, n_returns=1, n_samples=20_000)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        assert empirical_clt(stats, np.sqrt(2.0), 0.5) > 0.15

    def test_sigma_must_be_positive(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=65, n_returns=2, n_samples=50)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        with pytest.raises(DomainError):
            empirical_clt(stats, 0.0, 0.5)

    def test_horizon_one_bernoulli_variance(self, full2_chain, full2_recoded):
        cfg = SimConfig(seed=67, n_samples=200_000, horizon=1)
        counts, var_rate = visit_counts(full2_chain, full2_recoded.target_blocks, cfg)
        assert set(np.unique(counts)) <= {0, 1}
        assert var_rate == pytest.approx(0.25, abs=0.01)

    def test_visit_variance_rate_moderate_horizon(self, golden_chain, golden_recoded):
        cfg = SimConfig(seed=69, n_samples=30_000, horizon=2000)
        _, var_rate = visit_counts(golden_chain, golden_recoded.target_blocks, cfg)
        rho = (1 + np.sqrt(5)) / 2
        predicted = rho**3 * (1 / (rho**2 + 1)) ** 3
        assert var_rate == pytest.approx(predicted, rel=0.08)
