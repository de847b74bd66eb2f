"""References that only the tests use.

The per-step loops that ``perron._contraction``, ``perron._geometric_sum`` and
the horizon search of ``oracle.first_return_law`` replaced: one product and
its row sums, one check per Python step, and for the tilted stop a lead copy
of the V recursion running k - 1 steps ahead of the horizon loop.  The
blocked versions must reproduce them bit for bit.

The cycle moments and covariances of a truncated law (``normalized_moments``,
``stationary_cycle_moment``, ``cycle_covariance``), which the program does
not use: its variance route sums the covariance series in closed form.

The direct series of R(S) over first-return paths (``first_return_series``),
certified by ``powered_rowsum_bound``, against which the resolvent form of
R(S) is validated.

The limit value of the large-deviation theorem (``deviation_limit``), which
no command reports, and the rate function at one u (``rate_function``) or
over a grid that raises its first failure (``rate_grid``), thin wrappers
over ``deviations.conjugate_points``, which the commands read directly.

The return-time combinatorics that the program reads only through
``system.return_time_bounds``: the shortest and longest first-return
durations between target states, the minimal return time and the least and
greatest first-return cycle means, each from its own walk; and the target
measure of a Gibbs chain (``target_measure``), which the operator reads off
its own Perron pair.

The empirical scaled CGF of sampled return times (``empirical_scgf``), which
no command reports.

The Monte Carlo step on every column of the cumulative table
(``step_columns``, ``advance``), which ``montecarlo._StepTable`` replaced by
a step on each row's distinct thresholds; its rows are closed to 1.0 from
their last positive entry on, as the table's are.
"""

from math import log
from typing import NamedTuple

import numpy as np

from sftreturns import ConfigurationError, DomainError, InvalidSystemError, NumericError, SftReturnsError
from sftreturns import oracle
from sftreturns.deviations import BOUNDARY_BAND, _attainable_range, conjugate_points
from sftreturns.perron import CW_CHECK_STEPS, _contraction, _geometric_sum
from sftreturns.system import (
    _karp_min_mean_cycle, _longest, _maximal_cycle_mean, _shortest, first_return_lengths,
)


def contraction(X, max_steps=4096):
    power = np.eye(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_steps + 1):
            power = power @ X
            beta = float(power.sum(axis=1).max())
            if beta <= 0.5:
                return k, beta
            if not np.isfinite(beta):
                break
            if k == CW_CHECK_STEPS:
                w, vecs = np.linalg.eig(X)
                x = np.abs(vecs[:, np.argmax(np.abs(w))])
                if ((X @ x)[x > 0.0] / x[x > 0.0]).min() > 1.0 + 1e-12:
                    break
    raise NumericError(
        "geometric tail cannot be certified: no contracting power of the step "
        f"matrix found within {max_steps} steps"
    )


def geometric_sum(X, V, k, beta):
    prefix = 0.0
    for _ in range(k):
        prefix += float(V.sum(axis=1).max())
        V = V @ X
    return prefix / (1.0 - beta)


def scaled_tail(alpha, t_max, raw):
    if raw <= 0.0:
        return 0.0
    log_bound = alpha * (t_max + 1) + np.log(raw)
    return float(np.exp(log_bound)) if log_bound < 700.0 else float("inf")


def tilt_contraction(alpha, step, cache):
    if alpha not in cache:
        try:
            cache[alpha] = contraction(step)
        except NumericError as exc:
            cache[alpha] = str(exc)
    if isinstance(cache[alpha], str):
        raise NumericError(cache[alpha])
    return cache[alpha]


class TiltedTail:
    """The tilted bound at successive horizons, from a lead copy of the V recursion
    k - 1 steps ahead and a ring buffer of log r_t .. log r_(t+k-1) stored twice over."""

    def __init__(self, alpha, p_cc, v, tail, cache):
        k, beta = tilt_contraction(alpha, np.exp(alpha) * p_cc, cache)
        self.alpha, self.p_cc, self.beta, self.k = alpha, p_cc, beta, k
        self.ramp = alpha * np.arange(k)
        self.logs = np.empty(2 * k)
        self.pos = 0
        self.lead = v
        self._store(0, tail)
        for j in range(1, k):
            self.lead = self.lead @ p_cc
            self._store(j, float(self.lead.sum(axis=1).max()))

    def _store(self, slot, r):
        self.logs[slot] = self.logs[slot + self.k] = log(r) if r > 0.0 else -np.inf

    def advance(self):
        self.lead = self.lead @ self.p_cc
        self._store(self.pos, float(self.lead.sum(axis=1).max()))
        self.pos = (self.pos + 1) % self.k

    def bound(self, t):
        window = self.logs[self.pos:self.pos + self.k]
        raw = float(np.exp(self.ramp + window).sum()) / (1.0 - self.beta)
        return scaled_tail(self.alpha, t, raw)


def horizon(P, targets, tol, alpha_max):
    """(kernels, tail bound, V_(t_max), contraction cache) of the per-step horizon loop.

    ``oracle.MAX_HORIZON`` is read at call time, so a test may lower it.
    """
    n = P.shape[0]
    A = np.array(targets, dtype=int)
    C = np.array([i for i in range(n) if i not in set(targets)], dtype=int)
    Pcc = P[np.ix_(C, C)]
    Pca = P[np.ix_(C, A)]
    kernels = [P[np.ix_(A, A)]]
    V = P[np.ix_(A, C)].copy()
    tail = float(V.sum(axis=1).max())
    cache = {}
    tilted = None
    t = 1
    while t < oracle.MAX_HORIZON:
        if tilted is None and tail <= tol and alpha_max > 0.0 and V.any():
            tilted = TiltedTail(alpha_max, Pcc, V, tail, cache)
        if tail <= tol and (tilted is None or tilted.bound(t) <= tol):
            return np.stack(kernels), tail, V.copy(), cache
        kernels.append(V @ Pca)
        V = V @ Pcc
        tail = float(V.sum(axis=1).max())
        t += 1
        if tilted is not None:
            tilted.advance()
    raise NumericError(
        f"first-return tail still {tail:.3e} after horizon {oracle.MAX_HORIZON}; tol unreachable"
    )


def normalized_moments(law):
    """(Pi, G1, G2) of the per-state normalized (exactly stochastic) kernels.

    Normalizing away the truncation deficit (at most the law's tail bound)
    removes the spurious mass drift that would otherwise contaminate long
    covariance chains.
    """
    mass = law.kernels.sum(axis=(0, 2))
    kernels = law.kernels / mass[np.newaxis, :, np.newaxis]
    p = np.arange(1, law.t_max + 1, dtype=float)
    Pi = kernels.sum(axis=0)
    G1 = np.tensordot(p, kernels, axes=(0, 0))
    G2 = np.tensordot(p * p, kernels, axes=(0, 0))
    return Pi, G1, G2


def stationary_cycle_moment(law, order):
    """E[(tau^1)^order] under the stationary conditional start (normalized law)."""
    if order not in (1, 2):
        raise DomainError(f"only moments of order 1 and 2 are provided, got {order}")
    _, G1, G2 = normalized_moments(law)
    G = G1 if order == 1 else G2
    return float(law.start @ G.sum(axis=1))


def cycle_covariance(law, j):
    """Cov(tau^1, tau^j) under the stationary conditional start.

    Intermediate cycle durations are marginalized exactly: the covariance
    reduces to the landing-state chain bridging the first and j-th cycles.
    Cov(tau^1, tau^1) is the variance of a single cycle.
    """
    if j < 1:
        raise DomainError(f"cycle index must be >= 1, got {j}")
    Pi, G1, G2 = normalized_moments(law)
    mean_by_state = G1.sum(axis=1)
    mean = float(law.start @ mean_by_state)
    if j == 1:
        return float(law.start @ G2.sum(axis=1)) - mean * mean
    x = law.start @ G1
    w = law.start.copy()
    for _ in range(j - 2):
        x = x @ Pi
        w = w @ Pi
    # E[tau^j] is recomputed along the same chain so truncation drifts cancel
    return float(x @ mean_by_state) - mean * float((w @ Pi) @ mean_by_state)


def powered_rowsum_bound(X, V, max_contraction_steps=4096):
    """Rigorous upper bound on sum_{j>=0} max-rowsum(V @ X^j) for nonnegative X, V.

    Finds k with max-rowsum(X^k) <= 1/2, sums the first k terms directly and
    bounds the remainder by the geometric series of k-step blocks.  Raises
    :class:`NumericError` when no such k exists within the cap (the series
    cannot be certified to converge), after CW_CHECK_STEPS steps already
    when the Collatz-Wielandt bound proves rho(X) > 1.
    """
    X = np.asarray(X, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if X.size == 0 or V.size == 0:
        return float(V.sum(axis=1).max(initial=0.0))
    return _geometric_sum(X, V, *_contraction(X, max_contraction_steps))


def first_return_series(recoded, S, n_terms):
    """Direct truncated series sum_{p <= n_terms} exp(-pS) F_p with a tail bound.

    F_p is the weight matrix of first-return paths of duration p, built by
    iterated products through the complement; the certified bound covers the
    omitted entries.  This is the series route against which the resolvent
    form of R(S) is validated.
    """
    M = recoded.weight_matrix()  # exp(-pS) M^p = t^p weight_matrix()^p
    A = np.array(recoded.target_blocks, dtype=int)
    C = np.array(recoded.complement_blocks, dtype=int)
    Maa = M[np.ix_(A, A)]
    Mac = M[np.ix_(A, C)]
    Mca = M[np.ix_(C, A)]
    Mcc = M[np.ix_(C, C)]
    t = float(np.exp(recoded.weight_shift - S))
    total = t * Maa
    V = Mac.copy()
    factor = t
    for _ in range(2, n_terms + 1):
        factor *= t
        total = total + factor * (V @ Mca)
        V = V @ Mcc
    tail = powered_rowsum_bound(t * Mcc, (factor * t) * V) * max(
        float(Mca.sum(axis=1).max(initial=0.0)), 0.0
    )
    return total, tail


def deviation_limit(op, u, side):
    """Limit value of the large-deviation theorem at deviation size u.

    ``upper`` is the event {r^n/n >= 1/mu + u} for u > 0; ``lower`` is
    {r^n/n <= 1/mu - u} for 0 < u < 1/mu.  The value is -I(abscissa), equal
    to -inf when the abscissa falls below every attainable return average.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if not u > 0.0:
        raise DomainError(f"deviation size must be positive, got {u}")
    mean = 1.0 / op.mu_target
    if side == "lower" and u >= mean:
        raise DomainError(
            f"lower deviation {u} >= 1/mu = {mean}; returns below zero are impossible"
        )
    abscissa = mean + u if side == "upper" else mean - u
    floor, ceiling = _attainable_range(op)
    if abscissa < floor - BOUNDARY_BAND or abscissa > ceiling + BOUNDARY_BAND:
        return float("-inf")
    return -rate_function(op, abscissa)[0]


def rate_grid(op, us):
    """(I(u), alpha_star) for every u of a grid, by ``conjugate_points``;
    the error raised is the failure of the first failing u in grid order."""
    points = conjugate_points(op, us)
    for point in points:
        if isinstance(point, SftReturnsError):
            raise point
    return points


def rate_function(op, u):
    """(I(u), alpha_star) by safeguarded Newton on Psi'(alpha) = u; a grid of one."""
    return rate_grid(op, [u])[0]


def first_return_durations(system):
    """Shortest first-return duration between target states.

    Entry (a, a') is the length of the shortest path from target state a to
    target state a' whose intermediate states all avoid the target
    (``inf`` when no such path exists).
    """
    return _shortest(first_return_lengths(system)[0])


def minimal_return_time(system):
    """Shortest k >= 1 such that some length-k path starts and ends in the target.

    Intermediate symbols are unrestricted, so this is the least shortest
    first-return duration; by irreducibility it is finite.
    """
    return int(first_return_durations(system).min())


def minimal_return_cycle_mean(system):
    """Minimum mean cycle of the shortest first-return durations (Karp).

    This rational number is the infimum of the attainable long-run averages
    of return durations; for a single-state target it equals the minimal
    return time.
    """
    return _karp_min_mean_cycle(first_return_durations(system))


def longest_first_return_durations(system):
    """Longest first-return duration between target states; defined when the complement is acyclic."""
    hits, unbounded = first_return_lengths(system)
    if unbounded:
        raise InvalidSystemError("complement graph has a cycle; first-return durations are unbounded")
    return _longest(hits)


def maximal_return_cycle_mean(system):
    """Maximum mean cycle of the longest first-return durations.

    The supremum of attainable long-run return averages; finite exactly when
    the complement graph is acyclic.
    """
    return _maximal_cycle_mean(longest_first_return_durations(system))


def target_measure(chain, target_states):
    """Equilibrium measure of the target, mu(A) = sum of stationary weights."""
    idx = list(target_states)
    if not idx:
        raise ConfigurationError("target is empty")
    value = float(chain.stationary[idx].sum())
    if not 0.0 < value < 1.0:
        raise NumericError(f"target measure {value} outside (0, 1)")
    return value


class EmpiricalScgf(NamedTuple):
    value: float
    effective_sample_size: float


def empirical_scgf(stats, alpha):
    """(1/n) log of the sample mean of exp(alpha * r^n), with effective sample size.

    Evaluated through a max-shifted log-sum-exp so heavy tilts cannot
    silently overflow; the effective sample size (sum w)^2 / sum w^2 exposes
    estimator degeneracy near the domain boundary.
    """
    x = alpha * stats.samples.astype(float)
    if not np.isfinite(x).all():
        raise NumericError(f"tilt alpha={alpha} overflows the exponent")
    peak = float(x.max())
    shifted = np.exp(x - peak)
    s1 = float(shifted.sum())
    s2 = float((shifted * shifted).sum())
    n_samples = stats.samples.size
    value = (peak + log(s1 / n_samples)) / stats.n_returns
    return EmpiricalScgf(value=value, effective_sample_size=s1 * s1 / s2)


def step_columns(transition_probs):
    """Per-column cumulative thresholds, each row closed to 1.0 from its last
    positive entry on; the last column (always 1) is dropped.

    The next state from s on uniform u is the number of thresholds
    cum[s, j] <= u, so a step is one gather-and-compare per column.
    """
    cum = np.cumsum(transition_probs, axis=1)
    for s, row in enumerate(transition_probs):
        cum[s, np.flatnonzero(row)[-1]:] = 1.0
    return [np.ascontiguousarray(cum[:, j]) for j in range(cum.shape[1] - 1)]


def advance(state, u, cols, nxt, thr, above):
    """Next states into ``nxt``; ``thr`` (float) and ``above`` (bool) are scratch."""
    np.take(cols[0], state, out=thr, mode="clip")
    np.greater_equal(u, thr, out=nxt)
    for col in cols[1:]:
        np.take(col, state, out=thr, mode="clip")
        np.greater_equal(u, thr, out=above)
        nxt += above
    return nxt
