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
n-th return time, the visit walk over the horizon.  The return walker's
code also counts its returns, in layers of the jump table, and after the
n-th the steps since, so a return-walk step is one add and one gather, and
the return times are read off the codes once per chunk.  The visit walker
writes each step's target hits into the step's spent rank row, summed once
per chunk.  One block kernel runs either walk or both.  With both, a block
draws its first chunk once and steps the two walkers as one (2, N) code
array on it, one add and one gather per step, then the visit hits; when
one walker stops, the other goes on alone.
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
WALK_CAP = 10**10  # most expected cost of a return walk, (n_samples + LOCKSTEP_COST) x n / mu(A)
# the fixed cost of a lockstep step in sample-steps: a walk costs about 1.3-1.6 us a step
# plus 11.6-11.9 ns a sample-step (least squares over 1 to 10,000 samples, n / mu(A) = 5e4,
# 2-state chain, 2-CPU x86_64 host), a ratio of 111-136 in four of five fits (the fifth 43);
# one sample alone took 1.4-1.8 us a step, 120-155 sample-steps, and the constant sits near
# the top of that range
LOCKSTEP_COST = 150
STEP_TABLE_BYTES = 2**24  # largest jump table; past it the walks step on the state columns
WINDOW = 16  # return-walk steps between checks that every sample has returned, on a layered table
RANK_BINS = 2**12


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizes plus the reproducibility seed."""

    seed: int
    n_returns: int = 1
    n_samples: int = 1
    horizon: int = 1

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("n_returns", "n_samples", "horizon"):
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

    def __call__(self, u: np.ndarray, out: np.ndarray, bins: np.ndarray) -> None:
        """The ranks of ``u`` into ``out``, of u's shape and the rank dtype; ``bins``, intp
        of u's shape, is scratch, unused with a single threshold."""
        if self.tau.size == 1:
            np.greater_equal(u, self.tau[0], out=out.view(bool))
            return
        np.multiply(u, RANK_BINS, out=bins, casting="unsafe")
        self.lut.take(bins, out=out, mode="clip")
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
        bins = np.empty(tile_ranks.shape, dtype=np.intp)
        lines = list(tile)
        for first in range(0, indices.size, self.TILE):
            chunk = indices[first : first + self.TILE].tolist()
            for line, index in zip(lines, chunk):
                key[1] = index
                bitgen.state = state
                gen.random(out=line)
            size = len(chunk)
            self._rank(tile[:size, skip:], tile_ranks[:size], bins[:size])
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
    table in ``starts``.  ``hits`` maps a code to 1 on a target state, else
    0, in the rank dtype.  When the jump table's 8 m (K+1) bytes would pass
    STEP_TABLE_BYTES, codes are the states themselves and a step counts the
    m-1 columns of cum that the rank passes, each entry as the least rank
    of a u >= cum[s, j]: #{tau <= cum[s, j]}, plus one for entries of 1.

    With ``n_returns``, the return walker's code also counts its returns
    if the table's 8 (n m + chunk + m) (K+1) bytes stay within
    STEP_TABLE_BYTES (else the walker counts them step by step, as on the
    state columns).  The jump table then gets layers
    l = 1 .. n of width W = m (K+1) after the plain rows, a walker with
    l - 1 returns at l W + s (K+1), and a step onto a target moves it up a
    layer.  The n-th return moves it to ``absorbed`` = (n+1) W, whose codes
    count the steps since: absorbed + j (K+1) steps to absorbed +
    (j+1) (K+1) on every rank, for j < ``chunk``.  ``starts[0]`` is then
    the return walker's start law, in layer 1.
    """

    def __init__(
        self, transition_probs: np.ndarray, targets: np.ndarray,
        starts: Sequence[tuple[np.ndarray, np.ndarray]], n_returns: int = 0, chunk: int = CHUNK_STEPS,
    ) -> None:
        """``starts`` holds each start law's cumulative weights and states; ``chunk`` bounds
        the steps that the return walker takes in one chunk."""
        m = transition_probs.shape[0]
        cum = np.cumsum(transition_probs, axis=1)
        last = m - 1 - np.argmax(transition_probs[:, ::-1] > 0.0, axis=1)
        cum[np.arange(m) >= last[:, None]] = 1.0
        cum = cum[:, :-1]
        values = np.concatenate([cum.ravel(), *(weights for weights, _ in starts)])
        tau = np.unique(values[(values > 0.0) & (values < 1.0)])
        self.rank = _Ranks(tau)
        probes = np.concatenate([[0.0], tau])
        hit = np.bincount(targets, minlength=m) > 0
        self.jump: np.ndarray | None = None
        self.absorbed: int | None = None
        if 8 * m * probes.size > STEP_TABLE_BYTES:
            self.scale = 1
            passes = np.searchsorted(tau, cum, side="right") + (cum >= 1.0)
            self.cols = [np.ascontiguousarray(c, dtype=self.rank.dtype) for c in passes.T]
        else:
            self.scale = probes.size
            # clipped at 1, each row is sorted, and its entries past 1 pass no probe either way
            nxt = np.array([np.searchsorted(row, probes, side="right") for row in np.minimum(cum, 1.0)])
            self.jump = (nxt * self.scale).ravel()
            if n_returns and 8 * (n_returns * m + chunk + m) * self.scale <= STEP_TABLE_BYTES:
                self.width = m * self.scale
                self.absorbed = (n_returns + 1) * self.width
                layer = np.arange(1, n_returns + 1)[:, None, None] + hit[nxt]
                layers = np.where(layer <= n_returns, layer * self.width + nxt * self.scale, self.absorbed)
                after = np.repeat(self.absorbed + self.scale * np.arange(1, chunk + 1), self.scale)
                self.jump = np.concatenate([self.jump, layers.ravel(), after])
        self.hits = np.repeat(hit, self.scale).astype(self.rank.dtype)
        self.starts = [
            states[np.searchsorted(weights, probes, side="right")] * self.scale for weights, states in starts
        ]
        if self.absorbed is not None:
            self.starts[0] += self.width

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
    their n-th return times (``times``) and the steps taken so far.

    On a layered table the codes count the returns, and a chunk's return
    times are read off them once it is walked.  Otherwise ``counts`` holds
    each sample's returns, counted step by step, and the step of the n-th is
    recorded as it is taken.
    """

    def __init__(self, table: _StepTable, n: int, size: int) -> None:
        self.table, self.n = table, n
        self.orig = np.arange(size)
        self.times = np.zeros(size, dtype=np.int64)
        self.time = 0
        self.counts = None if table.absorbed is not None else np.zeros(size, dtype=np.int64)

    def stepped(self, code: np.ndarray, time: int) -> bool:
        """Whether every sample has returned once ``code`` is at step ``time``; without
        layers, counts that step's returns."""
        if self.counts is None:
            return code.min() >= self.table.absorbed
        hit = self.table.hits.take(code, mode="clip")
        self.counts += hit
        newly = np.logical_and(self.counts == self.n, hit)  # counts rise by at most one per step
        if not newly.any():
            return False
        self.times[self.orig[newly]] = time
        return self.counts.min() >= self.n

    def missing(self, code: np.ndarray) -> int:
        """The most returns that a sample still misses, at ``code``."""
        if self.counts is None:
            return self.n + 1 - int(code.min()) // self.table.width
        return self.n - int(self.counts.min())

    def settle(self, code: np.ndarray) -> np.ndarray:
        """The codes of the samples still walking after a chunk; the others leave with their times."""
        if self.counts is None:
            done = code >= self.table.absorbed
            self.times[self.orig[done]] = self.time - (code[done] - self.table.absorbed) // self.table.scale
            keep = ~done
        else:
            keep = self.counts < self.n
            self.counts = self.counts[keep]
        self.orig = self.orig[keep]
        return code[keep]


def _step(
    table: _StepTable, code: np.ndarray, steps: np.ndarray, returns: _Returns | None = None,
    visits: bool = False,
) -> None:
    """Step the walkers' ``code`` in place on the rank rows of ``steps``.

    ``code`` is one walker's codes, or two walkers' as rows.  With
    ``visits``, the walker (the last row of two) is the visit walker, and
    the hits of each step overwrite the step's spent rank row.  With
    ``returns``, the walker (row 0 of two) is the return walker, and the
    walk stops once every sample has returned: checked every WINDOW steps on
    a layered table, else on every step that makes an n-th return.
    """
    idx, thr, above = np.empty_like(code), np.empty(code.shape, steps.dtype), np.empty(code.shape, dtype=bool)
    visitor, returner = (code[-1], code[0]) if code.ndim > 1 else (code, code)
    window = steps.shape[0] if returns is None else WINDOW if returns.counts is None else 1
    taken = 0
    while taken < steps.shape[0]:
        for ranks in steps[taken : taken + window]:
            table.advance(code, ranks, idx, thr, above)
            if visits:
                table.hits.take(visitor, out=ranks, mode="clip")
        taken = min(taken + window, steps.shape[0])
        if returns is not None and returns.stepped(returner, returns.time + taken):
            break
    if returns is not None:
        returns.time += taken


def _walk(
    chain: GibbsChain, targets: np.ndarray, cfg: SimConfig, returns: bool, visits: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(n-th return times, visit counts) of every sample, block by block, each None if not asked for.

    A block draws its first chunk once for the walkers asked for: row 0 of
    the codes is the return walker, started in the target, the last row the
    visit walker, started anywhere, both from draw 0.  They step together
    up to the end of the visit horizon in the chunk or the last return,
    whichever comes first, and the other walker then finishes the chunk
    alone.  The visit walker writes each step's hits into the spent rank
    row and sums a chunk's rows once it is walked, then draws its positions
    past the chunk for all of the block's samples, in the chunk's rows; the
    return walker draws its stragglers' in chunks of their own and reads its
    return times off the codes after each chunk, once the chunk's draws are
    freed.  The return walk's first chunk is n / mu + 33 rows, a straggler
    chunk k / mu + 32 rows, k the most returns a straggler still misses,
    each at most CHUNK_STEPS: a row across N samples costs about N x 7 ns
    of Philox fill and ranking with a single threshold and N x 11 ns
    through the rank table, a straggler's re-seek about 1.3 us (2-CPU
    x86_64 host).  Draws are stored as ranks, one byte each for up to 254
    thresholds.  A return walk whose expected cost,
    (n_samples + LOCKSTEP_COST) x n / mu sample-steps, passes WALK_CAP is
    refused before its first draw: each of its n / mu lockstep steps costs
    about LOCKSTEP_COST sample-steps whatever the block size.  Blocks run
    in order on one thread: the per-sample loop of a fill that sets each
    stream's key and the step calls hold the GIL, which ``Generator.random``
    releases only while it generates, so worker threads would mostly
    contend for it.
    """
    pi = chain.stationary
    n, horizon = cfg.n_returns, cfg.horizon
    starts = []
    rows = 1
    if returns:
        mu = float(pi[targets].sum())
        cost = (cfg.n_samples + LOCKSTEP_COST) * n / mu
        if not cost <= WALK_CAP:
            raise NumericError(
                f"the return walk would take {cfg.n_samples * n / mu:.3g} steps in expectation "
                f"({cfg.n_samples} samples x {n} returns / mu(A) = {mu:.3g}), and {cost:.3g} counting "
                f"{LOCKSTEP_COST} for the fixed cost of each lockstep step, "
                f"past the cap of {WALK_CAP:.0e} steps"
            )
        starts.append((_start_cum(pi[targets] / mu), targets))
        # the start draw, the Kac mean n / mu of T_n and 32 steps of margin
        rows = min(CHUNK_STEPS, int(n / mu) + 33)
    if visits:
        starts.append((_start_cum(pi), np.arange(pi.size)))
        # one row for the start draw, then one per step; later chunks reuse the rows
        rows = max(rows, min(CHUNK_STEPS, horizon))
    # no chunk is longer than the first: a straggler chunk has at most min(CHUNK_STEPS, n / mu + 32) rows
    table = _StepTable(chain.transition_probs, targets, starts, n if returns else 0, rows)
    visit_end = min(rows, horizon) if visits else rows  # the visit walker's rows in the first chunk
    times, visited = [], []  # each block's, joined when the last block's draws are freed
    for lo in range(0, cfg.n_samples, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, cfg.n_samples)
        streams = _BlockStreams(cfg.seed, table.rank)
        draws = np.empty((rows, hi - lo), dtype=table.rank.dtype)
        streams.fill(draws, np.arange(lo, hi), 0)
        code = np.stack([start.take(draws[0]) for start in table.starts])
        if visits:
            table.hits.take(code[-1], out=draws[0])  # the start's hit, in the spent start row
        walker = _Returns(table, n, hi - lo) if returns else None
        if returns and visits:
            _step(table, code, draws[1:visit_end], walker, visits=True)
            if walker.time + 1 < visit_end:  # every sample has returned
                _step(table, code[1], draws[walker.time + 1 : visit_end], visits=True)
            elif walker.missing(code[0]) > 0:
                _step(table, code[0], draws[visit_end:], walker)
        else:
            _step(table, code[0], draws[1:visit_end], walker, visits)
        if visits:
            # a chunk has at most CHUNK_STEPS rows of hits of 0 or 1
            counts = draws[:visit_end].sum(axis=0, dtype=np.uint16).astype(np.int64)
            for done in range(visit_end, horizon, rows):
                steps = draws[: min(rows, horizon - done)]
                streams.fill(steps, np.arange(lo, hi), done)
                _step(table, code[-1], steps, visits=True)
                counts += steps.sum(axis=0, dtype=np.uint16)
            visited.append(counts)
        draws = steps = None  # freed before the return times are read and the stragglers' chunks drawn
        if returns:
            code = code[0]
            while True:
                code = walker.settle(code)
                if walker.time > STEP_CAP:
                    raise NumericError(f"a sample exceeded the {STEP_CAP} step cap")
                if not code.size:
                    break
                steps = np.empty(
                    (min(CHUNK_STEPS, int(walker.missing(code) / mu) + 32), code.size), table.rank.dtype
                )
                streams.fill(steps, lo + walker.orig, walker.time + 1)
                _step(table, code, steps, walker)
                steps = None
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

