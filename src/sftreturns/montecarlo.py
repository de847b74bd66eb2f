"""Seed-reproducible simulation of the Gibbs chain for return statistics.

Every sample owns a counter-based random stream: the Philox(4x64, 10 rounds)
stream keyed by (seed, sample index), the seed taken as a uint64.  A sample
consumes its stream strictly in order (one draw for the start state, one per
chain step), so results are bit-identical regardless of how samples are
partitioned into blocks or chunks; merging is by sample index.  Each block
serves all of its samples' streams from one Philox bit generator, re-keyed
per sample and positioned by its counter, and stores the draws step-major so
that a chain step reads one contiguous row.

A step from state s on uniform u goes to #{j < m-1 : cum[s, j] <= u}, with
row s of the cumulative table closed to 1.0 from its last positive entry on,
so that no step takes a transition of probability 0.  A step, and a start
draw, only change where u crosses one of the chain's distinct thresholds in
(0, 1), so a block stores each draw as its rank among them, one byte for up
to 254 thresholds (:class:`_Ranks`), and a step adds the rank to the
walker's code and gathers the next code from a (state x rank) jump table
(:class:`_StepTable`).

Both walks read a sample's stream from draw 0: the return walk until the
sample's n-th return, in chunks sized from the Kac mean n / mu(A) of the
n-th return time, the visit walk over the horizon.  One block kernel runs
either walk or both.  With both, a block draws its first chunk once and
steps the two walkers as one (2, N) code array on it, one add, one jump
gather and one hit gather per step; when one walker stops, the other goes
on alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .thermo import GibbsChain

RNG_ALGORITHM = "numpy-philox4x64-10, key=(seed, sample_index)"
BLOCK_SIZE = 32768
CHUNK_STEPS = 512
STEP_CAP = 10**9
WALK_CAP = 10**10  # most expected sample-steps of a return walk, n_samples x n / mu(A)
STEP_TABLE_BYTES = 2**24  # largest jump table; past it the walks step on the state columns
RANK_BINS = 2**12


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizes plus the reproducibility seed and a worker hint.

    ``workers`` is validated and kept for configs that set it, but has no
    effect: blocks run in order on one thread, and results never depend on it.
    """

    seed: int
    n_returns: int = 1
    n_samples: int = 1
    horizon: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("n_returns", "n_samples", "horizon", "workers"):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Samples of the n-th return time with summary statistics.

    ``histogram`` maps each sampled value to its count, in ascending order of
    value.  ``flags`` carries soft warnings (for example a sample mean farther than
    five standard errors from the Kac mean); they never abort a run.
    """

    samples: np.ndarray
    n_returns: int
    mean: float
    variance: float
    histogram: dict[int, int]
    seed: int
    rng_algorithm: str
    flags: tuple[str, ...]


class TailRate(NamedTuple):
    rate_estimate: float
    count: int


class _Ranks:
    """r(u) = #{tau <= u}, the rank of a uniform u among sorted thresholds tau in (0, 1).

    Ranks are uint8 for at most 254 thresholds, else uint16 or uint32, so
    that the dtype's largest value is free as a sentinel.  u * RANK_BINS is
    exact and truncates to u's bin.  A bin with no threshold strictly inside
    holds the rank of all its uniforms; one with a threshold inside holds the
    sentinel, and its uniforms take a binary search.  A single threshold
    takes one compare.
    """

    def __init__(self, tau: np.ndarray) -> None:
        self.tau = tau
        self.dtype = np.dtype(np.uint8 if tau.size <= 254 else np.uint16 if tau.size <= 65534 else np.uint32)
        self.sentinel = np.iinfo(self.dtype).max
        edges = np.arange(RANK_BINS + 1) / RANK_BINS
        lo = np.searchsorted(tau, edges[:-1], side="right")
        self.lut = np.where(lo == np.searchsorted(tau, edges[1:]), lo, self.sentinel).astype(self.dtype)

    def __call__(self, u: np.ndarray, out: np.ndarray) -> None:
        """The ranks of ``u`` into ``out``, of u's shape and the rank dtype."""
        if self.tau.size == 1:
            np.greater_equal(u, self.tau[0], out=out.view(bool))
            return
        self.lut.take((u * RANK_BINS).astype(np.intp), out=out, mode="clip")
        miss = out == self.sentinel
        if miss.any():
            out[miss] = np.searchsorted(self.tau, u[miss], side="right")


class _BlockStreams:
    """The streams of one block's samples, served by a single Philox and stored as ranks.

    Draw p of sample i's stream is reached in O(1): key (seed, i), counter
    p // 4 with the four-double buffer empty (numpy advances the counter
    before it refills), then p % 4 draws discarded.  A fill sets the counter
    once; per stream it sets the key and draws the discarded draws with its own.
    """

    TILE = 128  # samples filled sample-major, ranked, then copied transposed

    def __init__(self, seed: int, rank: _Ranks) -> None:
        self._bitgen = np.random.Philox()
        self._gen = np.random.Generator(self._bitgen)
        self._rank = rank
        # python ints: the state setter converts each to uint64 exactly
        self._key = [int(seed), 0]
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def fill(self, ranks: np.ndarray, indices: np.ndarray, position: int) -> None:
        """Column k of ``ranks`` gets the ranks of draws position, position+1, ... of stream indices[k]."""
        self._counter[0], skip = divmod(position, 4)
        bitgen, gen, key, state = self._bitgen, self._gen, self._key, self._state
        tile = np.empty((min(self.TILE, indices.size), skip + ranks.shape[0]))
        tile_ranks = np.empty((tile.shape[0], ranks.shape[0]), dtype=ranks.dtype)
        lines = list(tile)
        for first in range(0, indices.size, self.TILE):
            chunk = indices[first : first + self.TILE].tolist()
            for line, index in zip(lines, chunk):
                key[1] = index
                bitgen.state = state
                gen.random(out=line)
            size = len(chunk)
            self._rank(tile[:size, skip:], tile_ranks[:size])
            ranks[:, first : first + size] = tile_ranks[:size].T


def _start_cum(weights: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return cum


class _StepTable:
    """The chain's step and its start laws, on the ranks of the uniforms.

    Row s of the cumulative table is closed to 1.0 from its last positive
    entry on, so no u < 1 steps to a successor of probability 0.  The next
    state, #{j < m-1 : cum[s, j] <= u}, then changes only where u crosses a
    threshold of the row in (0, 1), and a start state, searchsorted(cum, u)
    on a start law's cumulative weights, only where u crosses one of the
    law's.  With tau the sorted union of all of them, u >= tau[k] exactly
    when r(u) > k, so every u of rank r steps as the probe of rank r does:
    0 for r = 0 and tau[r-1] after.  The walks step on codes s (K+1), with
    K = tau.size: a step adds the rank and gathers the next code from the
    (state x rank) ``jump`` table, and a start law maps a rank through its
    table in ``starts``.  When the jump table's 8 m (K+1) bytes would pass
    STEP_TABLE_BYTES, codes are the states themselves and a step counts the
    m-1 columns of cum that the rank passes, each entry as the least rank
    of a u >= cum[s, j]: #{tau <= cum[s, j]}, plus one for entries of 1.
    """

    def __init__(
        self, transition_probs: np.ndarray, targets: np.ndarray,
        starts: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """``starts`` holds each start law's cumulative weights and states."""
        m = transition_probs.shape[0]
        cum = np.cumsum(transition_probs, axis=1)
        last = m - 1 - np.argmax(transition_probs[:, ::-1] > 0.0, axis=1)
        cum[np.arange(m) >= last[:, None]] = 1.0
        cum = cum[:, :-1]
        values = np.concatenate([cum.ravel(), *(weights for weights, _ in starts)])
        tau = np.unique(values[(values > 0.0) & (values < 1.0)])
        self.rank = _Ranks(tau)
        probes = np.concatenate([[0.0], tau])
        self.jump: np.ndarray | None = None
        if 8 * m * probes.size > STEP_TABLE_BYTES:
            self.scale = 1
            passes = np.searchsorted(tau, cum, side="right") + (cum >= 1.0)
            self.cols = [np.ascontiguousarray(c, dtype=self.rank.dtype) for c in passes.T]
        else:
            self.scale = probes.size
            # clipped at 1, each row is sorted, and its entries past 1 pass no probe either way
            nxt = [np.searchsorted(row, probes, side="right") for row in np.minimum(cum, 1.0)]
            self.jump = np.concatenate(nxt) * self.scale
        self.hits = np.repeat(np.isin(np.arange(m), targets), self.scale)
        self.starts = [
            states[np.searchsorted(weights, probes, side="right")] * self.scale for weights, states in starts
        ]

    def advance(
        self, code: np.ndarray, ranks: np.ndarray, idx: np.ndarray, thr: np.ndarray, above: np.ndarray
    ) -> None:
        """Steps ``code`` in place on ``ranks``; ``idx`` (int), ``thr`` (rank) and ``above`` (bool) are scratch."""
        if self.jump is not None:
            np.add(code, ranks, out=idx)
            self.jump.take(idx, out=code, mode="clip")
            return
        self.cols[0].take(code, out=thr, mode="clip")
        np.greater_equal(ranks, thr, out=idx)
        for col in self.cols[1:]:
            col.take(code, out=thr, mode="clip")
            np.greater_equal(ranks, thr, out=above)
            idx += above
        code[...] = idx


class _Returns:
    """The return walker of one block: the samples still walking (``orig``),
    their n-th return times (``times``) and the steps taken so far."""

    def __init__(self, n: int, size: int) -> None:
        self.n = n
        self.orig = np.arange(size)
        self.times = np.zeros(size, dtype=np.int64)
        self.time = 0


def _step(
    table: _StepTable, code: np.ndarray, counts: np.ndarray, steps: np.ndarray,
    returns: _Returns | None = None,
) -> np.ndarray:
    """Step the walkers' ``code`` on the rank rows of ``steps``, adding their hits to ``counts``.

    ``code`` is one walker's codes, or two walkers' as rows, and steps in
    place.  With ``returns``, the walker (row 0 of two) is the return walker:
    the step of a sample's n-th hit is its return time, and the walk stops
    once every sample has returned.  Returns the codes.
    """
    idx, thr, hit = np.empty_like(code), np.empty(code.shape, steps.dtype), np.empty(code.shape, dtype=bool)
    if returns is not None:
        n, time = returns.n, returns.time
        returning, returned = (counts, hit) if code.ndim == 1 else (counts[0], hit[0])
        newly = np.empty(returning.shape, dtype=bool)
    for ranks in steps:
        table.advance(code, ranks, idx, thr, hit)
        table.hits.take(code, out=hit, mode="clip")
        counts += hit
        if returns is not None:
            time += 1
            np.equal(returning, n, out=newly)
            newly &= returned  # counts rise by at most one per step: the n-th return
            if newly.any():
                returns.times[returns.orig[newly]] = time
                if returning.min() >= n:
                    break
    if returns is not None:
        returns.time = time
    return code


def _walk(
    chain: GibbsChain, targets: np.ndarray, cfg: SimConfig, returns: bool, visits: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(n-th return times, visit counts) of every sample, block by block, each None if not asked for.

    A block draws its first chunk once for the walkers asked for: row 0 of
    the codes is the return walker, started in the target, the last row the
    visit walker, started anywhere, both from draw 0.  They step together
    up to the end of the visit horizon in the chunk or the last return,
    whichever comes first, and the other walker then finishes the chunk
    alone.  The visit walker draws its positions past the chunk for all of
    the block's samples, in the chunk's rows, and the return walker its
    stragglers' in chunks of their own.  The return walk's first chunk is
    n / mu + 33 rows, a straggler chunk k / mu + 32 rows, k the most returns
    a straggler still misses, each at most CHUNK_STEPS: a row across N
    samples costs about N x 7 ns of Philox fill and ranking with a single
    threshold and N x 11 ns through the rank table, a straggler's re-seek
    about 1.3 us (2-CPU x86_64 host).  Draws are stored as ranks, one byte
    each for up to 254 thresholds.  A return walk expected to take more
    than WALK_CAP sample-steps is refused before its first draw.  Blocks
    run in order: the fill and step loops hold the GIL, so worker threads
    would only contend for it.
    """
    pi = chain.stationary
    n, horizon = cfg.n_returns, cfg.horizon
    starts = []
    rows = 1
    if returns:
        mu = float(pi[targets].sum())
        expected = cfg.n_samples * n / mu
        if not expected <= WALK_CAP:
            raise NumericError(
                f"the return walk would take {expected:.3g} steps in expectation ({cfg.n_samples} "
                f"samples x {n} returns / mu(A) = {mu:.3g}), past the cap of {WALK_CAP:.0e} steps"
            )
        starts.append((_start_cum(pi[targets] / mu), targets))
        # the start draw, the Kac mean n / mu of T_n and 32 steps of margin
        rows = min(CHUNK_STEPS, int(n / mu) + 33)
    if visits:
        starts.append((_start_cum(pi), np.arange(pi.size)))
        # one row for the start draw, then one per step; later chunks reuse the rows
        rows = max(rows, min(CHUNK_STEPS, horizon))
    table = _StepTable(chain.transition_probs, targets, starts)
    visit_end = min(rows, horizon) if visits else rows  # the visit walker's rows in the first chunk
    times, visited = [], []  # each block's, joined when the last block's draws are freed
    for lo in range(0, cfg.n_samples, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, cfg.n_samples)
        streams = _BlockStreams(cfg.seed, table.rank)
        draws = np.empty((rows, hi - lo), dtype=table.rank.dtype)
        streams.fill(draws, np.arange(lo, hi), 0)
        code = np.stack([start.take(draws[0]) for start in table.starts])
        counts = np.zeros(code.shape, dtype=np.int64)
        if visits:
            counts[-1] = table.hits[code[-1]]
        walker = _Returns(n, hi - lo) if returns else None
        if returns and visits:
            code = _step(table, code, counts, draws[1:visit_end], walker)
            if walker.time + 1 < visit_end:  # every sample has returned
                code[1] = _step(table, code[1], counts[1], draws[walker.time + 1 : visit_end])
            elif (counts[0] < n).any():
                code[0] = _step(table, code[0], counts[0], draws[visit_end:], walker)
        else:
            code[0] = _step(table, code[0], counts[0], draws[1:visit_end], walker)
        if visits:
            for done in range(visit_end, horizon, rows):
                steps = draws[: min(rows, horizon - done)]
                streams.fill(steps, np.arange(lo, hi), done)
                code[-1] = _step(table, code[-1], counts[-1], steps)
            visited.append(counts[-1])
        draws = steps = None  # freed before the stragglers' chunks are drawn
        if returns:
            code, counts = code[0], counts[0]
            while True:
                keep = counts < n
                walker.orig, code, counts = walker.orig[keep], code[keep], counts[keep]
                if walker.time > STEP_CAP:
                    raise NumericError(f"a sample exceeded the {STEP_CAP} step cap")
                if not walker.orig.size:
                    break
                steps = np.empty(
                    (min(CHUNK_STEPS, int((n - counts.min()) / mu) + 32), walker.orig.size), table.rank.dtype
                )
                streams.fill(steps, lo + walker.orig, walker.time + 1)
                code = _step(table, code, counts, steps, walker)
            times.append(walker.times)
    return (
        np.concatenate(times) if returns else None, np.concatenate(visited) if visits else None
    )


def _targets(chain: GibbsChain, target_states: Sequence[int]) -> np.ndarray:
    targets = np.array(sorted(int(a) for a in target_states), dtype=int)
    if targets.size == 0 or targets.size >= chain.n_states:
        raise ConfigurationError("target must be a nonempty proper subset of the states")
    return targets


def _return_stats(
    chain: GibbsChain, targets: np.ndarray, cfg: SimConfig, samples: np.ndarray
) -> EmpiricalStats:
    n = cfg.n_returns
    mu = float(chain.stationary[targets].sum())
    mean = float(samples.mean())
    variance = float(samples.var(ddof=1)) if cfg.n_samples > 1 else 0.0
    values, freq = np.unique(samples, return_counts=True)
    flags: list[str] = []
    if cfg.n_samples > 1 and variance > 0.0:
        drift = abs(mean - n / mu) / math.sqrt(variance / cfg.n_samples)
        if drift > 5.0:
            flags.append(f"mean-deviates-from-kac:{drift:.2f}-sigma")
    return EmpiricalStats(
        samples=samples,
        n_returns=n,
        mean=mean,
        variance=variance,
        histogram={int(v): int(c) for v, c in zip(values, freq)},
        seed=cfg.seed,
        rng_algorithm=RNG_ALGORITHM,
        flags=tuple(flags),
    )


def sample_return_times(
    chain: GibbsChain, target_states: Sequence[int], cfg: SimConfig
) -> EmpiricalStats:
    """Times of the cfg.n_returns-th entry into the target, one per sample.

    Starts are drawn from the stationary distribution conditioned on the
    target; each sample walks its own Philox stream until the n-th hit.
    """
    targets = _targets(chain, target_states)
    samples, _ = _walk(chain, targets, cfg, returns=True, visits=False)
    return _return_stats(chain, targets, cfg, samples)


def visit_counts(
    chain: GibbsChain, target_states: Sequence[int], cfg: SimConfig, returns: bool = False
) -> tuple[np.ndarray, float] | tuple[np.ndarray, float, EmpiricalStats]:
    """Target visit counts over the horizon, from stationary starts.

    Counts hits at times 0 .. horizon-1 (the start state included) and
    returns the per-sample counts together with Var(count)/horizon, the
    simulation estimate of the counting variance rate.  With ``returns``,
    the return walk of :func:`sample_return_times` steps in lockstep with the
    visit walk on the same draws, and its statistics come third.
    """
    targets = _targets(chain, target_states)
    samples, counts = _walk(chain, targets, cfg, returns=returns, visits=True)
    variance_rate = float(counts.var(ddof=1) / cfg.horizon) if cfg.n_samples > 1 else 0.0
    if returns:
        return counts, variance_rate, _return_stats(chain, targets, cfg, samples)
    return counts, variance_rate


def tail_cut(n: int, mu_target: float, u: float, side: str) -> int:
    """The integer edge of the deviation event of the n-th return time T.

    ``upper``: the least T in {T / n >= 1/mu + u}; ``lower``: the greatest T
    in {T / n <= 1/mu - u}.  An edge n (1/mu +- u) within roundoff of an
    integer is that integer: at n = 45, mu = 2/3 and u = 0.7 it computes to
    99.00000000000001, and T = 99 is in the upper event.  The empirical count
    and the exact tail probability both take their event from here.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if not u > 0.0:
        raise DomainError(f"deviation size must be positive, got {u}")
    mean = 1.0 / mu_target
    if side == "lower" and u >= mean:
        raise DomainError(f"lower deviation {u} >= 1/mu = {mean}; event is empty")
    edge = n * (mean + u) if side == "upper" else n * (mean - u)
    nearest = round(edge)
    if abs(edge - nearest) <= 4.0 * np.finfo(float).eps * n * (mean + u):
        return nearest
    return math.ceil(edge) if side == "upper" else math.floor(edge)


def empirical_tail_rate(
    stats: EmpiricalStats, mu_target: float, u: float, side: str
) -> TailRate:
    """-(1/n) log of the empirical frequency of the deviation event.

    ``upper``: {r^n / n >= 1/mu + u}; ``lower``: {r^n / n <= 1/mu - u}, both
    cut at :func:`tail_cut`.  A zero frequency is reported as an infinite
    rate with count 0.
    """
    n = stats.n_returns
    cut = tail_cut(n, mu_target, u, side)
    if side == "upper":
        count = int((stats.samples >= cut).sum())
    else:
        count = int((stats.samples <= cut).sum())
    if count == 0:
        return TailRate(rate_estimate=float("inf"), count=0)
    freq = count / stats.samples.size
    return TailRate(rate_estimate=-math.log(freq) / n, count=count)


def normal_cdf(t: float) -> float:
    """Standard normal CDF (complementary-error-function route)."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def empirical_clt(stats: EmpiricalStats, sigma_pred: float, mu_target: float) -> float:
    """Kolmogorov-Smirnov distance of standardized return times to the normal law."""
    if not sigma_pred > 0.0:
        raise DomainError(f"sigma_pred must be positive, got {sigma_pred}")
    n = stats.n_returns
    # return times are integers, so the normal CDF is taken once per distinct value;
    # standardizing is increasing, so repeating the sorted values sorts the samples
    values, counts = np.unique(stats.samples, return_counts=True)
    z = (values - n / mu_target) / (sigma_pred * math.sqrt(n))
    cdf = np.repeat([normal_cdf(t) for t in z], counts)
    grid = np.arange(1, cdf.size + 1) / cdf.size
    return float(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / cdf.size - cdf)).max())

