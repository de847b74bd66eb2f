"""Simulation layer: determinism, empirical statistics, CLT and tails.

Sample counts here are kept modest; the full-size stochastic gates live in
the acceptance suite.
"""

import hashlib
import os
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import references as ref
from conftest import count_forks, force_processes, full_shift, golden_mean, make_system, random_instance
from sftreturns import (
    ConfigurationError,
    DepthKPotential,
    DomainError,
    NumericError,
    ReturnOperator,
    SimConfig,
    admissible_words,
    empirical_clt,
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
    EmpiricalStats,
    _BlockStreams,
    _Ranks,
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
        # a fill stores each draw's rank among 1,000 thresholds, which pins it within about 1e-3
        seed = 2**63 + 12345
        fresh = {
            index: np.random.Generator(
                np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
            ).random(2000)
            for index in range(1000, 1300)
        }
        tau = np.sort(np.random.default_rng(4).random(1000))
        rank = _Ranks(tau)
        streams = _BlockStreams(seed, rank)
        one = np.empty((1, 1), dtype=rank.dtype)
        for index in (1000, 1009):
            sought = []
            for p in range(2000):
                streams.fill(one, np.array([index]), p)
                sought.append(one[0, 0])
            assert np.array_equal(sought, np.searchsorted(tau, fresh[index], side="right"))
        # several tiles, a partial last tile, and a start off the four-draw grid
        ranks = np.empty((7, 300), dtype=rank.dtype)
        streams.fill(ranks, np.arange(1000, 1300), 5)
        expected = np.array([fresh[i][5:12] for i in range(1000, 1300)]).T
        assert np.array_equal(ranks, np.searchsorted(tau, expected, side="right"))

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
    "one-chunk": dict(n_returns=40, n_samples=20_000, horizon=16),
    "outlive-chunk": dict(n_returns=300, n_samples=2_000, horizon=1_300),
    "blocks": dict(n_returns=4, n_samples=70_000, horizon=40),
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


def output_digests(system: str, case: str, lockstep: bool = False) -> tuple[str, str, str]:
    rec = recode_higher_block(PINNED_SYSTEMS[system]())
    chain = gibbs_chain(rec)
    cfg = SimConfig(seed=4242, **PINNED_CASES[case])
    if lockstep:
        counts, var_rate, stats = visit_counts(chain, rec.target_blocks, cfg, returns=True)
        samples = stats.samples
    else:
        samples = sample_return_times(chain, rec.target_blocks, cfg).samples
        counts, var_rate = visit_counts(chain, rec.target_blocks, cfg)
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
    # the return walk and the visit walk in lockstep on each block's first chunk
    assert output_digests(system, case, lockstep=True) == PINNED_DIGESTS[system, case]


def record_fills(monkeypatch, record):
    """Calls ``record(ranks, indices, position)`` before every ``_BlockStreams.fill``.

    A forked process's fills are not seen here, so every walk stays in this process.
    """
    force_processes(monkeypatch, 1)
    fill = _BlockStreams.fill

    def recording(self, ranks, indices, position):
        record(ranks, indices, position)
        return fill(self, ranks, indices, position)

    monkeypatch.setattr(_BlockStreams, "fill", recording)


@pytest.fixture
def seek_positions(monkeypatch):
    """The position every stream is sought at, in order: a fill seeks each of its streams once."""
    positions = []
    record_fills(monkeypatch, lambda ranks, indices, position: positions.extend([position] * indices.size))
    return positions


def assert_lockstep_matches_separate_walks(chain, target, cfg):
    """The lockstep walk gives the return statistics and the visit counts of the two walks run alone."""
    counts, var_rate, stats = visit_counts(chain, target, cfg, returns=True)
    alone = sample_return_times(chain, target, cfg)
    alone_counts, alone_rate = visit_counts(chain, target, cfg)
    assert np.array_equal(stats.samples, alone.samples)
    assert (stats.mean, stats.variance, stats.histogram, stats.flags) == (
        alone.mean, alone.variance, alone.histogram, alone.flags
    )
    assert np.array_equal(counts, alone_counts) and var_rate == alone_rate
    return stats, counts


class TestSharedDraws:
    def test_return_walk_widens_its_first_chunk_to_the_visit_walks(
        self, full2_chain, full2_recoded, seek_positions
    ):
        # validate on 40,000 samples: the return walk's own first chunk is 40 rows
        # here, the visit walk's 200; two blocks, the last of 7,232 samples.  Each
        # block draws one first chunk of 200 rows for both walkers, so every stream
        # is sought at draw 0 once
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=8, n_returns=3, n_samples=40_000, horizon=200)
        counts, var_rate, stats = visit_counts(full2_chain, target, cfg, returns=True)
        assert seek_positions.count(0) == 40_000
        assert set(seek_positions) == {0}
        seek_positions.clear()
        # the two walks alone draw the first chunks twice
        assert np.array_equal(stats.samples, sample_return_times(full2_chain, target, cfg).samples)
        alone, alone_rate = visit_counts(full2_chain, target, cfg)
        assert np.array_equal(counts, alone) and var_rate == alone_rate
        assert seek_positions.count(0) == 2 * 40_000

    def test_each_stream_sought_once_for_the_shared_chunk(
        self, full2_chain, full2_recoded, seek_positions
    ):
        # validate on the full 2-shift: 20,000 samples of T_40, visit horizon 16
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=12, n_returns=40, n_samples=20_000, horizon=16)
        sample_return_times(full2_chain, target, cfg)
        returns = list(seek_positions)
        seek_positions.clear()
        visit_counts(full2_chain, target, cfg, returns=True)
        assert seek_positions.count(0) == 20_000
        # the visit walk draws nothing past the return walk's draws
        assert seek_positions == returns

    def test_every_block_walks_both_walkers_on_its_first_chunk(
        self, full2_chain, full2_recoded, monkeypatch, seek_positions
    ):
        target = full2_recoded.target_blocks
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 128)
        cfg = SimConfig(seed=3, n_returns=5, n_samples=500, horizon=30)
        visit_counts(full2_chain, target, cfg, returns=True)
        assert seek_positions.count(0) == 500
        assert_lockstep_matches_separate_walks(full2_chain, target, cfg)


class TestDrawSizes:
    def test_first_chunk_from_the_kac_mean(self, full2_chain, full2_recoded, monkeypatch):
        # T_40 on the full 2-shift has Kac mean 80: the first chunk holds the start
        # draw, 80 steps and 32 more, and every stream is sought at draw 0 once per
        # walk; a straggler's chunk covers the returns it still misses
        fills = []
        record_fills(monkeypatch, lambda ranks, indices, position: fills.append(
            (ranks.shape[0], position, indices.size, ranks.dtype)))
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=12, n_returns=40, n_samples=20_000, horizon=16)
        for walk in (lambda: sample_return_times(full2_chain, target, cfg).samples,
                     lambda: visit_counts(full2_chain, target, cfg, returns=True)[2].samples):
            fills.clear()
            times = walk()
            # one byte per draw: the ranks among the single threshold 1/2
            assert fills[0] == (113, 0, 20_000, np.uint8)
            assert [position for _, position, _, _ in fills].count(0) == 1
            late = times > 112
            assert 0 < late.sum() == fills[1][2]
            assert all(rows < 113 for rows, _, _, _ in fills[1:])

    def test_first_chunk_takes_one_byte_a_draw(self, full2_chain, full2_recoded):
        # the first chunk of 20,000 samples of T_40 is 113 x 20,000 ranks: 2.2 MiB
        # of bytes, where doubles took 17.2 MiB
        cfg = SimConfig(seed=12, n_returns=40, n_samples=20_000)
        tracemalloc.start()
        try:
            sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("chunk", [33, 64])
    def test_chunk_size_does_not_change_the_walks(self, random_recoded, monkeypatch, chunk):
        rare = recode_higher_block(rare_target_system())
        cases = [(rare, SimConfig(seed=28, n_returns=20, n_samples=400, horizon=150))] + [
            (rec, SimConfig(seed=29 + k, n_returns=70, n_samples=200, horizon=70 + 11 * k))
            for k, rec in enumerate(random_recoded[:50:10])
        ]
        walks = []
        for rec, cfg in cases:
            chain = gibbs_chain(rec)
            times = sample_return_times(chain, rec.target_blocks, cfg).samples
            walks.append((chain, times, visit_counts(chain, rec.target_blocks, cfg)[0]))
        monkeypatch.setattr(montecarlo, "CHUNK_STEPS", chunk)
        for (rec, cfg), (chain, times, counts) in zip(cases, walks):
            # the first chunk has at most ``chunk`` rows, so some sample is a straggler
            assert times.max() >= chunk
            stats, got_counts = assert_lockstep_matches_separate_walks(chain, rec.target_blocks, cfg)
            assert np.array_equal(stats.samples, times) and np.array_equal(got_counts, counts)


class TestLockstep:
    """The lockstep walk against the return walk and the visit walk run alone."""

    def test_tier1_instances(self, random_recoded):
        for k, rec in enumerate(random_recoded):
            chain = gibbs_chain(rec)
            horizon = 1 + 13 * (k % 5)
            cfg = SimConfig(seed=900 + k, n_returns=1 + k % 7, n_samples=150, horizon=horizon)
            assert_lockstep_matches_separate_walks(chain, rec.target_blocks, cfg)

    def test_return_walk_outlives_the_visit_horizon(self, golden_chain, golden_recoded):
        cfg = SimConfig(seed=21, n_returns=60, n_samples=3_000, horizon=5)
        target = golden_recoded.target_blocks
        stats, _ = assert_lockstep_matches_separate_walks(golden_chain, target, cfg)
        assert stats.samples.min() > cfg.horizon

    def test_visit_horizon_outlives_the_return_walk(self, golden_chain, golden_recoded):
        cfg = SimConfig(seed=22, n_returns=2, n_samples=3_000, horizon=400)
        target = golden_recoded.target_blocks
        stats, _ = assert_lockstep_matches_separate_walks(golden_chain, target, cfg)
        assert stats.samples.max() < cfg.horizon

    @pytest.mark.parametrize("horizon", [16, 2_000])
    def test_stragglers(self, horizon):
        # T_60 has mean 540 on rare3 and the first chunk is 512 rows: most samples
        # return past it, some within it
        rec = recode_higher_block(rare_target_system())
        chain = gibbs_chain(rec)
        cfg = SimConfig(seed=23, n_returns=60, n_samples=1_000, horizon=horizon)
        stats, _ = assert_lockstep_matches_separate_walks(chain, rec.target_blocks, cfg)
        assert stats.samples.min() < montecarlo.CHUNK_STEPS < stats.samples.max()

    def test_several_blocks(self, golden_chain, golden_recoded, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 97)
        for n_returns, horizon in ((3, 4), (2, 60), (30, 700)):
            cfg = SimConfig(seed=24, n_returns=n_returns, n_samples=350, horizon=horizon)
            assert_lockstep_matches_separate_walks(golden_chain, golden_recoded.target_blocks, cfg)

    def test_horizon_past_one_chunk(self, full2_chain, full2_recoded):
        for horizon in (montecarlo.CHUNK_STEPS + 1, 3 * montecarlo.CHUNK_STEPS + 7):
            cfg = SimConfig(seed=25, n_returns=4, n_samples=500, horizon=horizon)
            assert_lockstep_matches_separate_walks(full2_chain, full2_recoded.target_blocks, cfg)

    def test_visit_horizon_ends_around_the_last_return(self, golden_chain, golden_recoded):
        # the walkers stop on the same step, or one or two steps apart, either way round
        target = golden_recoded.target_blocks
        cfg = SimConfig(seed=26, n_returns=3, n_samples=40)
        last = int(sample_return_times(golden_chain, target, cfg).samples.max())
        for horizon in range(last - 1, last + 4):
            cfg = SimConfig(seed=26, n_returns=3, n_samples=40, horizon=horizon)
            assert_lockstep_matches_separate_walks(golden_chain, target, cfg)


def reference_walks(chain, targets, cfg, length):
    """Return times and visit counts walked one fresh Philox(key=[seed, i]) stream per sample,
    on the step of every column of the cumulative table."""
    pi = chain.stationary
    keys = [np.array([cfg.seed, i], dtype=np.uint64) for i in range(cfg.n_samples)]
    draws = np.array([np.random.Generator(np.random.Philox(key=key)).random(length) for key in keys]).T
    cols = ref.step_columns(chain.transition_probs)

    def step(state, u):
        return ref.advance(state, u, cols, np.empty_like(state), np.empty(u.size), np.empty(u.size, dtype=bool))

    def start(weights):
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        return np.searchsorted(cum, draws[0], side="right")

    hits = np.isin(np.arange(chain.n_states), targets)
    state = start(pi)
    counts = hits[state].astype(np.int64)
    for u in draws[1 : cfg.horizon]:
        state = step(state, u)
        counts += hits[state]
    state = np.asarray(targets)[start(pi[targets] / pi[targets].sum())]
    returns, times = np.zeros((2, cfg.n_samples), dtype=np.int64)
    for t, u in enumerate(draws[1:], start=1):
        state = step(state, u)
        returns += hits[state]
        times[(returns == cfg.n_returns) & hits[state]] = t
    assert (returns >= cfg.n_returns).all(), "draw more steps"
    return times, counts


@pytest.mark.parametrize("horizon", [1, 2, 511, 512, 513, 1025])
def test_walks_match_a_fresh_philox_reference(monkeypatch, horizon):
    # rare3 has stragglers past the first chunk at n = 60; three blocks of 40 samples
    rec = recode_higher_block(rare_target_system())
    chain = gibbs_chain(rec)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 40)
    cfg = SimConfig(seed=27, n_returns=60, n_samples=100, horizon=horizon)
    times, counts = reference_walks(chain, np.array(rec.target_blocks), cfg, 3_000)
    assert times.min() < montecarlo.CHUNK_STEPS < times.max()
    got_counts, _, stats = visit_counts(chain, rec.target_blocks, cfg, returns=True)
    assert np.array_equal(stats.samples, times) and np.array_equal(got_counts, counts)
    assert np.array_equal(sample_return_times(chain, rec.target_blocks, cfg).samples, times)
    assert np.array_equal(visit_counts(chain, rec.target_blocks, cfg)[0], counts)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def all_walks(chain, target, cfg):
    """Return times alone, visit counts alone, and both in lockstep, with no child left after any."""
    times = sample_return_times(chain, target, cfg).samples
    assert_no_child_left()
    counts = visit_counts(chain, target, cfg)[0]
    assert_no_child_left()
    both_counts, _, both = visit_counts(chain, target, cfg, returns=True)
    assert_no_child_left()
    return times, counts, both.samples, both_counts


def fail_in_children(monkeypatch, fail):
    """Runs ``fail(indices)`` in a forked child before each of its fills, and never here."""
    parent, fill = os.getpid(), _BlockStreams.fill

    def failing(self, ranks, indices, position):
        if os.getpid() != parent:
            fail(indices)
        return fill(self, ranks, indices, position)

    monkeypatch.setattr(_BlockStreams, "fill", failing)


class TestSplit:
    """Sample ranges walked in forked processes, against the walks in this process."""

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("columns", [False, True], ids=["layers", "columns"])
    def test_equal_to_the_serial_walks(self, golden_chain, golden_recoded, monkeypatch, processes, columns):
        if columns:
            monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 0)
        target = golden_recoded.target_blocks
        cfg = SimConfig(seed=31, n_returns=20, n_samples=1_001, horizon=300)
        with monkeypatch.context() as patch:
            force_processes(patch, 1)
            forks = count_forks(patch)
            serial = all_walks(golden_chain, target, cfg)
            assert forks == []
        force_processes(monkeypatch, processes)
        forks = count_forks(monkeypatch)
        split = all_walks(golden_chain, target, cfg)
        assert len(forks) == 3 * (processes - 1)
        for got, want in zip(split, serial):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_ranges_cut_through_blocks(self, monkeypatch, processes):
        # blocks of 40 samples and ranges of 50 or 33-34: every range ends inside a block;
        # rare3 has stragglers past the first chunk at n = 60
        rec = recode_higher_block(rare_target_system())
        chain = gibbs_chain(rec)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 40)
        cfg = SimConfig(seed=27, n_returns=60, n_samples=100, horizon=513)
        times, counts = reference_walks(chain, np.array(rec.target_blocks), cfg, 3_000)
        force_processes(monkeypatch, processes)
        forks = count_forks(monkeypatch)
        got = all_walks(chain, rec.target_blocks, cfg)
        assert len(forks) == 3 * (processes - 1)
        assert np.array_equal(got[0], times) and np.array_equal(got[2], times)
        assert np.array_equal(got[1], counts) and np.array_equal(got[3], counts)

    def test_step_cap_in_a_child_raises_the_serial_message(self, full2_chain, full2_recoded, monkeypatch):
        target = full2_recoded.target_blocks
        cfg = SimConfig(seed=32, n_returns=5, n_samples=600, horizon=20)
        with monkeypatch.context() as patch:
            force_processes(patch, 1)
            patch.setattr(montecarlo, "STEP_CAP", 0)
            with pytest.raises(NumericError) as serial:
                sample_return_times(full2_chain, target, cfg)
        force_processes(monkeypatch, 2)
        fail_in_children(monkeypatch, lambda indices: setattr(montecarlo, "STEP_CAP", 0))
        for walk in (lambda: sample_return_times(full2_chain, target, cfg),
                     lambda: visit_counts(full2_chain, target, cfg, returns=True)):
            with pytest.raises(NumericError) as split:
                walk()
            assert type(split.value) is NumericError and str(split.value) == str(serial.value)
            assert_no_child_left()
        assert montecarlo.STEP_CAP == 10**9

    def test_first_failure_in_sample_order(self, full2_chain, full2_recoded, monkeypatch):
        # each child fails with its own first sample in the message: the ranges start at
        # 200 and 400, and the one at 200 is raised
        force_processes(monkeypatch, 3)
        fail_in_children(monkeypatch, lambda indices: setattr(montecarlo, "STEP_CAP", -int(indices[0])))
        cfg = SimConfig(seed=33, n_returns=5, n_samples=600)
        with pytest.raises(NumericError, match=r"^a sample exceeded the -200 step cap$"):
            sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        assert_no_child_left()

    def test_an_exception_here_kills_every_child(self, full2_chain, full2_recoded, monkeypatch):
        # the children would sleep for a minute; this process fails on its first fill
        parent, fill = os.getpid(), _BlockStreams.fill

        def failing(self, ranks, indices, position):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60.0)
            return fill(self, ranks, indices, position)

        force_processes(monkeypatch, 3)
        monkeypatch.setattr(_BlockStreams, "fill", failing)
        forks = count_forks(monkeypatch)
        cfg = SimConfig(seed=34, n_returns=5, n_samples=600, horizon=20)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            visit_counts(full2_chain, full2_recoded.target_blocks, cfg, returns=True)
        assert len(forks) == 2 and time.perf_counter() - start < 30.0
        assert_no_child_left()

    def test_benchmark_sized_walks_stay_here(self, random_recoded, monkeypatch):
        # 1,000 samples of T_25 with mean return up to 20, horizon 200, on two CPUs:
        # at most 10.6 ms expected, below the 20 ms that a process needs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = count_forks(monkeypatch)
        cfg = SimConfig(seed=35, n_returns=25, n_samples=1_000, horizon=200)
        walked = 0
        for rec in random_recoded[:10]:
            chain = gibbs_chain(rec)
            if chain.stationary[list(rec.target_blocks)].sum() >= 1 / 20:
                visit_counts(chain, rec.target_blocks, cfg, returns=True)
                walked += 1
        assert walked >= 5 and forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_tail_walk_splits_in_two(self, full2_chain, full2_recoded, monkeypatch, cpus):
        # 20,000 samples of T_40 on the full 2-shift, horizon 16: 49 ms expected, two
        # processes' worth
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = count_forks(monkeypatch)
        cfg = SimConfig(seed=36, n_returns=40, n_samples=20_000, horizon=16)
        visit_counts(full2_chain, full2_recoded.target_blocks, cfg, returns=True)
        assert len(forks) == min(cpus, 2) - 1
        assert_no_child_left()


LAST_DRAW = np.nextafter(1.0, 0.0)  # 1 - 2^-53, the largest uniform Philox gives
EDGE = 1.0 / montecarlo.RANK_BINS  # the width of a rank bin


def ranks_of(rank, u):
    out = np.empty(np.shape(u), dtype=rank.dtype)
    u = np.asarray(u, dtype=float)
    rank(u, out, np.empty(u.shape, dtype=np.intp))
    return out


def step(table, states, u):
    """The states the table steps to from ``states`` on the uniforms ``u``."""
    code = states * table.scale
    scratch = np.empty(code.shape, dtype=table.rank.dtype), np.empty(code.shape, dtype=bool)
    table.advance(code, ranks_of(table.rank, u), np.empty_like(code), *scratch)
    return code // table.scale


def reference_step(probs, states, u):
    nxt = np.empty_like(states)
    above = np.empty(states.size, dtype=bool)
    return ref.advance(states, u, ref.step_columns(probs), nxt, np.empty(states.size), above)


def thresholds(probs):
    """The distinct thresholds in (0, 1) of the closed cumulative table."""
    values = np.concatenate(ref.step_columns(probs))
    return np.unique(values[(values > 0.0) & (values < 1.0)])


def column_table(monkeypatch, probs, starts=()):
    """The table of ``probs`` stepping on the state columns: no jump table fits."""
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "STEP_TABLE_BYTES", 0)
        return _StepTable(probs, [0], starts)


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


def probe_uniforms(cum, rng):
    """0, every cumulative threshold and its neighbours, the last draw and random
    draws, all in [0, 1)."""
    cum = np.ravel(cum)
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


def dense_chain(m, seed):
    """A random chain on m states with every transition allowed: about m (m-1) thresholds."""
    probs = np.random.default_rng(seed).random((m, m))
    return probs / probs.sum(axis=1, keepdims=True)


class TestRanks:
    """r(u) = #{tau <= u} against a binary search over the thresholds tau."""

    def assert_exact(self, tau):
        tau = np.asarray(tau, dtype=float)
        edges = np.arange(montecarlo.RANK_BINS) * EDGE
        u = np.concatenate([
            tau, np.nextafter(tau, 0.0), np.nextafter(tau, 1.0),
            edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0), [0.0, LAST_DRAW],
        ])
        rank = _Ranks(tau)
        assert np.array_equal(ranks_of(rank, u), np.searchsorted(tau, u, side="right"))
        # a fill ranks a sample-major tile past the draws it skips
        tile = np.column_stack([u, u[::-1], u])[:, 1:]
        assert np.array_equal(ranks_of(rank, tile), np.searchsorted(tau, tile, side="right"))
        return rank

    def test_thresholds_on_bin_edges_and_inside_bins(self):
        tau = np.unique([
            EDGE, 3 * EDGE, 0.5, 4095 * EDGE,  # on bin edges
            np.nextafter(7 * EDGE, 1.0), np.nextafter(9 * EDGE, 0.0),  # one ulp inside a bin
            0.1, 0.1 + 1e-12, 0.3, 0.7, 2.0**-53, LAST_DRAW,  # strictly inside, two in one bin
        ])
        rank = self.assert_exact(tau)
        assert rank.dtype == np.uint8
        # bins 1 and 3 start at a threshold and hold no other: their ranks are read off the
        # table (2^-53 lies below both); bins 0 and 7 hold a threshold strictly inside
        assert rank.lut[1] == 2 and rank.lut[3] == 3
        assert rank.lut[0] == rank.lut[7] == rank.sentinel

    @pytest.mark.parametrize("tau", [0.5, 3 * EDGE, 0.1, 2.0**-53, LAST_DRAW])
    def test_one_threshold_is_one_compare(self, tau):
        assert self.assert_exact([tau]).dtype == np.uint8

    def test_no_threshold_ranks_every_draw_0(self):
        self.assert_exact([])

    @pytest.mark.parametrize("size, dtype", [
        (254, np.uint8), (255, np.uint16), (65534, np.uint16), (65535, np.uint32),
    ])
    def test_the_rank_dtype_keeps_its_largest_value_free(self, size, dtype):
        rng = np.random.default_rng(size)
        tau = np.unique(np.concatenate([np.arange(1, 200) * 17 * EDGE % 1.0, rng.random(size)]))
        tau = np.sort(rng.choice(tau[tau > 0.0], size=size, replace=False))
        assert self.assert_exact(tau).dtype == dtype


class TestStepTable:
    # row 0 sums to 0.9999999999999999, so u = 1 - 2^-53 passes all three of its
    # unclosed thresholds, which would step to state 3
    SHORT_ROW_CHAIN = [[0.7, 0.2, 0.1, 0.0], [0.25] * 4, [0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]]

    # a full second row and a sparse one, each on the jump table and on the state columns
    @pytest.mark.parametrize("second_row", [[0.25] * 4, [0.0, 0.0, 0.3, 0.7]])
    def test_no_step_takes_a_zero_probability_transition(self, second_row, monkeypatch):
        first, _, *rest = self.SHORT_ROW_CHAIN
        chains = [np.array([first, second_row, *rest])]
        assert np.cumsum(chains[0][0])[-1] < 1.0
        # both chains have rows that fall short of 1 ahead of zero entries
        rng = np.random.default_rng(0)
        chains += [gibbs_chain(recode_higher_block(random_instance(rng))).transition_probs for _ in range(2)]
        for probs in chains:
            states = np.arange(probs.shape[0])
            for table in (_StepTable(probs, [0], ()), column_table(monkeypatch, probs)):
                nxt = step(table, states, np.full(states.size, LAST_DRAW))
                assert (probs[states, nxt] > 0.0).all()

    def test_step_matches_the_column_reference(self, monkeypatch):
        rng = np.random.default_rng(15)
        short_rows = 0
        for _ in range(200):
            probs = random_step_chain(rng)
            m = probs.shape[0]
            short_rows += int((np.cumsum(probs, axis=1)[:, -1] < 1.0).sum())
            # a start law on some of the states, with zero weights among them
            labels = rng.permutation(m)[: rng.integers(1, m + 1)]
            weights = rng.random(labels.size) ** 3 * (rng.random(labels.size) < 0.8)
            weights[-1] += 1e-3
            start_cum = montecarlo._start_cum(weights / weights.sum())
            starts = [(start_cum, labels)]
            tables = (_StepTable(probs, [0], starts), column_table(monkeypatch, probs, starts))
            assert tables[0].jump is not None and tables[1].jump is None
            u = probe_uniforms(np.concatenate([np.cumsum(probs, axis=1).ravel(), start_cum]), rng)
            states = np.repeat(np.arange(m), u.size)
            u_all = np.tile(u, m)
            expected = reference_step(probs, states, u_all)
            for table in tables:
                assert np.array_equal(step(table, states, u_all), expected)
                assert np.array_equal(table.hits[np.arange(m) * table.scale], np.arange(m) == 0)
                start = table.starts[0].take(ranks_of(table.rank, u))
                assert np.array_equal(start // table.scale, labels[np.searchsorted(start_cum, u, side="right")])
        assert short_rows >= 50

    def test_state_columns_past_the_table_budget(self, monkeypatch):
        # 12 states and K thresholds: the jump table is 8 x 12 (K+1) bytes
        probs = depth3_chain().transition_probs
        budget = 8 * 12 * (thresholds(probs).size + 1)
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", budget - 1)
        table = _StepTable(probs, [0], ())
        assert table.jump is None and table.scale == 1 and len(table.cols) == 11
        u = probe_uniforms(np.cumsum(probs, axis=1), np.random.default_rng(7))
        states = np.repeat(np.arange(12), u.size)
        u = np.tile(u, 12)
        assert np.array_equal(step(table, states, u), reference_step(probs, states, u))
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", budget)
        assert _StepTable(probs, [0], ()).jump is not None

    def test_jump_table_on_full_rows_and_sparse_ones(self, full2_chain, golden_chain):
        # one entry per state and rank, whatever the width of the rows
        rare3 = gibbs_chain(recode_higher_block(rare_target_system()))
        for chain in (full2_chain, golden_chain, rare3, depth3_chain()):
            probs = chain.transition_probs
            table = _StepTable(probs, [0], ())
            tau = thresholds(probs)
            assert np.array_equal(table.rank.tau, tau)
            assert table.scale == tau.size + 1 and table.jump.size == chain.n_states * table.scale
        assert np.array_equal(_StepTable(full2_chain.transition_probs, [0], ()).rank.tau, [0.5])

    @pytest.mark.parametrize("m, dtype, columns", [(20, np.uint16, False), (200, np.uint16, True)])
    def test_walks_match_the_reference_step_for_step(self, m, dtype, columns):
        # 380 thresholds take uint16 ranks on the jump table; 200 dense states pass
        # STEP_TABLE_BYTES and step on the state columns
        probs = dense_chain(m, seed=m)
        table = _StepTable(probs, [0], ())
        assert table.rank.dtype == dtype and thresholds(probs).size > 254
        assert (table.jump is None) == columns
        rng = np.random.default_rng(m + 1)
        cols = ref.step_columns(probs)
        states = rng.integers(0, m, size=300)
        code = states * table.scale
        scratch = np.empty_like(code), np.empty(code.shape, dtype=dtype), np.empty(code.shape, dtype=bool)
        tau = table.rank.tau
        for _ in range(60):
            # a third of the draws on a threshold or one ulp either side of it
            u = rng.random(states.size)
            on = rng.choice(tau, size=100)
            u[:100] = np.where(rng.random(100) < 0.5, on, np.nextafter(on, rng.choice([0.0, 1.0], size=100)))
            table.advance(code, ranks_of(table.rank, u), *scratch)
            states = ref.advance(states, u, cols, np.empty_like(states), np.empty(u.size), np.empty(u.size, bool))
            assert np.array_equal(code // table.scale, states)


def chain_of(probs):
    """What the walks read of a Gibbs chain with transitions ``probs``: those and its stationary law."""
    w, v = np.linalg.eig(probs.T)
    pi = np.abs(np.real(v[:, np.argmax(np.real(w))]))
    return SimpleNamespace(transition_probs=probs, stationary=pi / pi.sum(), n_states=probs.shape[0])


@pytest.fixture
def tables(monkeypatch):
    """Every _StepTable made, in order."""
    made = []
    init = _StepTable.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(_StepTable, "__init__", recording)
    return made


def walks(chain, targets, cfg):
    """(return times, visit counts), each walk alone and the two in lockstep, which must agree."""
    times, _ = montecarlo._walk(chain, targets, cfg, returns=True, visits=False)
    _, counts = montecarlo._walk(chain, targets, cfg, returns=False, visits=True)
    both = montecarlo._walk(chain, targets, cfg, returns=True, visits=True)
    assert np.array_equal(both[0], times) and np.array_equal(both[1], counts)
    return times, counts


class TestLayeredWalk:
    """The return walker whose code counts its returns, against walks that count them step by step."""

    def assert_every_table_matches(self, chain, targets, cfg, tables, monkeypatch):
        """The walks on the layered table, on the plain rows and on the state columns all give
        the per-step reference's return times and visit counts; returns the lockstep's layered
        table and the return times."""
        expected = reference_walks(chain, targets, cfg, 600)
        assert all(map(np.array_equal, walks(chain, targets, cfg), expected))
        # the return walk's, the visit walk's and the lockstep's, which has every threshold
        returns, _, lockstep = tables
        assert returns.absorbed is not None and lockstep.absorbed is not None
        # the plain rows fit and the layers do not: the return walker counts step by step
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 8 * chain.n_states * lockstep.scale)
        assert all(map(np.array_equal, walks(chain, targets, cfg), expected))
        assert all(table.jump is not None and table.absorbed is None for table in tables[3:])
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 0)
        assert all(map(np.array_equal, walks(chain, targets, cfg), expected))
        assert all(table.jump is None for table in tables[6:])
        return lockstep, expected[0]

    @pytest.mark.parametrize("window", [1, 3, 16])
    def test_random_chains(self, random_recoded, tables, monkeypatch, window):
        # Tier-1 chains take uint8 ranks, a dense 20-state chain uint16; a first chunk of at
        # most 10 rows leaves stragglers; the walk checks for its end every ``window`` steps
        cases = [(gibbs_chain(rec), np.array(rec.target_blocks)) for rec in random_recoded[3:40:9]]
        cases.append((chain_of(dense_chain(20, seed=5)), np.array([0, 3, 11])))
        dtypes = set()
        for k, (chain, targets) in enumerate(cases):
            for n_returns, horizon in ((1, 5), (12, 45)):
                cfg = SimConfig(seed=30 + k, n_returns=n_returns, n_samples=70, horizon=horizon)
                tables.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(montecarlo, "CHUNK_STEPS", 10)
                    patch.setattr(montecarlo, "WINDOW", window)
                    table, times = self.assert_every_table_matches(chain, targets, cfg, tables, patch)
                dtypes.add(table.rank.dtype)
                if n_returns > 1:
                    assert times.max() > 9  # a straggler
        assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}

    def test_last_return_on_the_first_and_last_row_of_a_chunk(
        self, golden_chain, golden_recoded, full2_chain, full2_recoded, monkeypatch
    ):
        # chunks of at most 8 rows: on the golden mean at n = 3, some sample makes its n-th
        # return on the last row of the first chunk, some on the first row of a straggler
        # chunk and some on the last; on the full 2-shift at n = 1, some on step 1
        monkeypatch.setattr(montecarlo, "CHUNK_STEPS", 8)
        for chain, rec, n_returns in ((golden_chain, golden_recoded, 3), (full2_chain, full2_recoded, 1)):
            targets = np.array(rec.target_blocks)
            cfg = SimConfig(seed=31, n_returns=n_returns, n_samples=300, horizon=12)
            times, counts = reference_walks(chain, targets, cfg, 200)
            got_counts, _, stats = visit_counts(chain, targets, cfg, returns=True)
            assert np.array_equal(stats.samples, times) and np.array_equal(got_counts, counts)
            fills = []
            with monkeypatch.context() as patch:
                record_fills(patch, lambda ranks, indices, position: fills.append((position, ranks.shape[0])))
                assert np.array_equal(sample_return_times(chain, targets, cfg).samples, times)
            (start, rows), *stragglers = fills
            ends = set(times.tolist())
            assert (start, rows) == (0, 8)
            if n_returns == 1:
                assert 1 in ends
            else:
                assert 7 in ends
                assert {position for position, _ in stragglers} & ends
                assert {position + rows - 1 for position, rows in stragglers} & ends

    @pytest.mark.parametrize("window", [1, 4])
    def test_horizon_ends_before_and_after_the_last_return(
        self, full2_chain, full2_recoded, tables, monkeypatch, window
    ):
        # the lockstep stops at the end of the horizon, with samples still to return, or
        # at the check after the last return, and the visit walker goes on alone
        targets = np.array(full2_recoded.target_blocks)
        monkeypatch.setattr(montecarlo, "WINDOW", window)
        stats = sample_return_times(full2_chain, targets, SimConfig(seed=32, n_returns=4, n_samples=50))
        last = int(stats.samples.max())
        for horizon in (last - 3, last, last + 1, last + 9):
            cfg = SimConfig(seed=32, n_returns=4, n_samples=50, horizon=horizon)
            tables.clear()
            with monkeypatch.context() as patch:
                self.assert_every_table_matches(full2_chain, targets, cfg, tables, patch)

    def test_layers_count_returns_then_steps(self, golden_chain):
        # a step onto a target moves a code up a layer of width m (K+1); past the n-th
        # return, every rank moves it one (K+1) further into the absorbing region
        probs = golden_chain.transition_probs
        start = [(np.array([1.0]), np.array([0]))]  # the return walker starts in state 0
        table = _StepTable(probs, [0], start, n_returns=2, chunk=5)
        assert set(table.starts[0].tolist()) == {table.width}  # on every rank, layer 1
        m, scale = probs.shape[0], table.scale
        width = m * scale
        assert table.width == width and table.absorbed == 3 * width
        assert table.jump.size == (2 * m + 5 + m) * scale
        states = np.repeat(np.arange(m), scale)
        ranks = np.tile(np.arange(scale), m).astype(table.rank.dtype)
        nxt = table.jump[: m * scale] // scale  # the plain rows
        for layer in (1, 2):
            code = layer * width + states * scale
            table.advance(code, ranks, np.empty_like(code), np.empty_like(ranks), np.empty(code.shape, bool))
            hit = nxt == 0
            assert np.array_equal(code[~hit], (layer * width + nxt * scale)[~hit])
            # onto target state 0: up a layer, or from the last layer to the absorbing region
            assert (code[hit] == (table.absorbed if layer == 2 else (layer + 1) * width)).all()
        code = table.absorbed + np.arange(5) * scale
        for rank in range(scale):
            after, ranks = code.copy(), np.full(5, rank, dtype=table.rank.dtype)
            table.advance(after, ranks, np.empty_like(after), np.empty_like(ranks), np.empty(5, bool))
            assert np.array_equal(after, code + scale)

    def test_no_chain_on_the_jump_table_falls_to_the_state_columns(self, monkeypatch):
        # a layered table past the budget keeps the plain rows of the jump table
        probs = depth3_chain().transition_probs
        plain = 8 * 12 * (thresholds(probs).size + 1)
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", plain)
        start = [(np.array([1.0]), np.array([0]))]
        table = _StepTable(probs, [0], start, n_returns=1000, chunk=512)
        assert table.jump is not None and table.jump.size == 12 * table.scale and table.absorbed is None
        monkeypatch.setattr(montecarlo, "STEP_TABLE_BYTES", 8 * (1000 * 12 + 512 + 12) * table.scale)
        assert _StepTable(probs, [0], start, n_returns=1000, chunk=512).absorbed is not None

    def test_peak_memory(self, full2_chain, full2_recoded):
        # 20,000 samples of T_40, horizon 16: the first chunk's 2.2 MiB of ranks, no count
        # array for the return walker, its times read after the draws are freed
        cfg = SimConfig(seed=12, n_returns=40, n_samples=20_000, horizon=16)
        target = full2_recoded.target_blocks
        peaks = []
        for walk in (lambda: sample_return_times(full2_chain, target, cfg),
                     lambda: visit_counts(full2_chain, target, cfg, returns=True)):
            walk()
            tracemalloc.start()
            try:
                walk()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 3.05 * 2**20 and peaks[1] <= 3.55 * 2**20


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
        value, ess = ref.empirical_scgf(stats, 0.0)
        assert value == 0.0
        assert ess == pytest.approx(2000.0, rel=1e-12)

    def test_matches_spectral_at_negative_alpha(self, full2_chain, full2_recoded):
        n, n_samples = 10, 200_000
        cfg = SimConfig(seed=43, n_returns=n, n_samples=n_samples)
        stats = sample_return_times(full2_chain, full2_recoded.target_blocks, cfg)
        op = ReturnOperator(full2_recoded)
        alpha = -0.5
        value, ess = ref.empirical_scgf(stats, alpha)
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
        value, ess = ref.empirical_scgf(stats, -5.0)
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
                               histogram={99: 1}, flags=())
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
