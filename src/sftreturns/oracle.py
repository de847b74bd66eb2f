"""Exact combinatorics of the Markov-additive first-return process.

Everything here works directly on the Gibbs chain, with no reference to the
induced operator's spectral data: first-return kernels are built by iterated
vector-matrix products through the complement, n-fold return distributions
by dynamic programming over (target state, accumulated duration), and every
truncation carries a rigorous geometric certificate.  These are the
independent cross-checks for the spectral route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import expm1, log1p
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .perron import _contraction, _geometric_sum, spectral_radius_reducible
from .thermo import GibbsChain

MAX_HORIZON = 10**6
MAX_CONVOLUTION_RETURNS = 64
KAC_SLACK = 1e-9


@dataclass
class FirstReturnLaw:
    """Per-state first-return kernel q_a(a', p), truncated with certificate.

    ``kernels[p-1, a, a']`` is the probability, starting from target state
    ``target_states[a]``, that the first return happens after exactly p steps
    and lands in target state ``target_states[a']``.  ``tail_bound`` is the
    exact probability mass of returns longer than ``t_max`` (max over start
    states).  ``start`` is the stationary distribution conditioned on the
    target, the canonical initial law of the return process.
    """

    kernels: np.ndarray
    tail_bound: float
    start: np.ndarray
    target_states: tuple[int, ...]
    mu_target: float
    _p_cc: np.ndarray
    _v_next: np.ndarray
    _contractions: dict[float, tuple[int, float] | str] = field(default_factory=dict, repr=False)
    _dist_cache: dict[int, "ExactReturnStats"] = field(default_factory=dict, repr=False)

    @property
    def t_max(self) -> int:
        return self.kernels.shape[0]

    @property
    def n_target(self) -> int:
        return self.kernels.shape[1]

    def duration_probabilities(self, state: int | None = None) -> np.ndarray:
        """P(first return takes p steps), p = 1..t_max, from one state or start-averaged."""
        per_state = self.kernels.sum(axis=2)
        if state is None:
            return per_state @ self.start
        return per_state[:, state]

    def duration_moment_matrix(self, order: int) -> np.ndarray:
        """Matrix of E[p^order ; land in a' | start a] values."""
        p = np.arange(1, self.t_max + 1, dtype=float) ** order
        return np.tensordot(p, self.kernels, axes=(0, 0))

    def weighted_tail_bound(self, alpha: float) -> float:
        """Certified upper bound on sum_{p > t_max} e^{alpha p} (omitted mass).

        Uses the substochastic contraction of the complement block; raises
        :class:`NumericError` when exp(alpha) is too large for the series to
        be certified.  The leading exponential is applied in log space so a
        huge but certifiable tail reports as inf rather than overflowing.
        """
        return _weighted_tail(alpha, self._p_cc, self._v_next, self.t_max, self._contractions)

    def moment_tail_bound(self, order: int) -> float:
        """Certified bound on sum_{p > t_max} p^order (omitted mass)."""
        t0 = self.t_max + 1
        for eps in (0.5, 0.25, 0.1, 0.05, 0.01, 0.002):
            try:
                weighted = self.weighted_tail_bound(eps)
            except NumericError:
                continue
            if t0 >= order / eps:
                scale = t0**order * np.exp(-eps * t0)
            else:
                scale = (order / (np.e * eps)) ** order
            return float(scale * weighted)
        raise NumericError("no certifiable exponential envelope for the moment tail")


def first_return_law(
    chain: GibbsChain,
    target_states: Sequence[int],
    tol: float,
    alpha_max: float = 0.0,
) -> FirstReturnLaw:
    """First-return kernels of the chain, truncated once the tail is below tol.

    The horizon is extended until the exact omitted probability mass is at
    most ``tol`` for every start state, and, when ``alpha_max > 0``, until
    the certified exp(alpha_max * p)-weighted tail is also below ``tol`` (so
    the law supports moment generating functions up to that tilt).
    """
    if not 0.0 < tol <= 1e-6:
        raise ConfigurationError(f"tol must lie in (0, 1e-6], got {tol}")
    targets = tuple(int(a) for a in target_states)
    n = chain.n_states
    if not targets or len(targets) >= n:
        raise ConfigurationError("target must be a nonempty proper subset of the states")
    A = np.array(targets, dtype=int)
    C = np.array([i for i in range(n) if i not in set(targets)], dtype=int)
    P = chain.transition_probs
    Paa = P[np.ix_(A, A)]
    Pac = P[np.ix_(A, C)]
    Pca = P[np.ix_(C, A)]
    Pcc = P[np.ix_(C, C)]
    pi_a = chain.stationary[A]
    mu = float(pi_a.sum())
    start = pi_a / mu

    kernels = [Paa]
    V = Pac.copy()
    tail = float(V.sum(axis=1).max())
    cache: dict[float, tuple[int, float] | str] = {}  # one contraction search for every horizon
    t = 1
    while t < MAX_HORIZON:
        if tail <= tol and (alpha_max <= 0.0 or _weighted_tail(alpha_max, Pcc, V, t, cache) <= tol):
            law = FirstReturnLaw(
                kernels=np.stack(kernels),
                tail_bound=tail,
                start=start,
                target_states=targets,
                mu_target=mu,
                _p_cc=Pcc,
                _v_next=V.copy(),
                _contractions=cache,
            )
            _validate_law(law)
            return law
        kernels.append(V @ Pca)
        V = V @ Pcc
        tail = float(V.sum(axis=1).max())
        t += 1
    raise NumericError(
        f"first-return tail still {tail:.3e} after horizon {MAX_HORIZON}; tol unreachable"
    )


def _weighted_tail(alpha: float, p_cc: np.ndarray, v_next: np.ndarray, t_max: int, cache: dict) -> float:
    """FirstReturnLaw.weighted_tail_bound; ``cache`` keeps each tilt's contraction (k, beta),
    or the message of its failed search, which is raised again without searching."""
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


def _validate_law(law: FirstReturnLaw) -> None:
    mass = law.kernels.sum(axis=(0, 2))
    if (mass > 1.0 + 1e-12).any() or (mass < 1.0 - law.tail_bound - 1e-12).any():
        raise NumericError("first-return mass inconsistent with its tail certificate")
    mean = float(law.start @ law.duration_moment_matrix(1).sum(axis=1))
    slack = law.moment_tail_bound(1) + KAC_SLACK
    if abs(mean - 1.0 / law.mu_target) > slack:
        raise NumericError(
            f"Kac check failed: mean return {mean!r} vs 1/mu = {1.0 / law.mu_target!r} "
            f"(certified slack {slack:.3e})"
        )


@dataclass
class ExactReturnStats:
    """Distribution of the n-th return time, exact up to a certified tail.

    ``probs[i]`` is the probability of total duration ``offset + i``; the
    omitted mass is ``1 - total_mass`` and is bounded by n times the law's
    per-cycle tail.  Mean and variance are computed from the normalized
    truncated distribution.  ``mgf_cache`` maps previously requested tilts
    to (value, certified error bound) pairs.
    """

    n: int
    offset: int
    probs: np.ndarray
    total_mass: float
    mean: float
    variance: float
    mgf_cache: dict[float, tuple[float, float]] = field(default_factory=dict, repr=False)

    @property
    def durations(self) -> np.ndarray:
        return self.offset + np.arange(self.probs.size)

    @property
    def support_min(self) -> int:
        return int(self.offset + np.flatnonzero(self.probs > 0.0)[0])


def exact_return_distribution(law: FirstReturnLaw, n: int) -> ExactReturnStats:
    """n-fold first-return convolution over the Markov-additive chain.

    Dynamic programming over (landing target state, accumulated duration),
    started from the stationary conditional distribution on the target.
    """
    if not 1 <= n <= MAX_CONVOLUTION_RETURNS:
        raise ConfigurationError(
            f"n must lie in [1, {MAX_CONVOLUTION_RETURNS}] (desk-scale cap), got {n}"
        )
    if law.tail_bound > 1e-10:
        raise ConfigurationError(
            f"law tail bound {law.tail_bound:.3e} too coarse; rebuild with tol <= 1e-10"
        )
    if n in law._dist_cache:
        return law._dist_cache[n]
    m = law.n_target
    t_max = law.t_max
    # cur[a, i] = P(k returns so far, duration i + k, currently at target state a)
    cur = np.einsum("a,pab->bp", law.start, law.kernels)
    for k in range(2, n + 1):
        length = cur.shape[1] + t_max - 1
        new = np.zeros((m, length))
        for a in range(m):
            for b in range(m):
                new[b] += np.convolve(cur[a], law.kernels[:, a, b])
        cur = new
    probs = cur.sum(axis=0)
    total = float(probs.sum())
    norm = probs / total
    durations = n + np.arange(probs.size)
    mean = float(norm @ durations)
    variance = float(norm @ (durations - mean) ** 2)
    stats = ExactReturnStats(
        n=n, offset=n, probs=probs, total_mass=total, mean=mean, variance=variance
    )
    law._dist_cache[n] = stats
    return stats


def exact_mgf(law: FirstReturnLaw, n: int, alpha: float) -> tuple[float, float]:
    """E[exp(alpha * r^n)] from the exact distribution, with a certified bound.

    The error bound covers all trajectories in which at least one cycle
    exceeded the law's horizon: with per-cycle tilted mass q and certified
    per-cycle weighted tail b, the omitted contribution is at most
    (q + b)^n - q^n.
    """
    stats = exact_return_distribution(law, n)
    if alpha in stats.mgf_cache:
        return stats.mgf_cache[alpha]
    mask = stats.probs > 0.0
    exponents = alpha * stats.durations[mask] + np.log(stats.probs[mask])
    peak = float(exponents.max())
    value = float(np.exp(peak) * np.exp(exponents - peak).sum())
    if not np.isfinite(value):
        raise NumericError(f"moment generating function overflowed at alpha={alpha}")
    try:
        b1 = law.weighted_tail_bound(alpha)
    except NumericError as exc:
        raise DomainError(
            f"alpha={alpha} is too close to the domain boundary for certification; "
            f"largest certifiable alpha is about {largest_certifiable_alpha(law):.6f}"
        ) from exc
    p = np.arange(1, law.t_max + 1, dtype=float)
    q_eff = float((np.exp(alpha * p)[:, None, None] * law.kernels).sum(axis=(0, 2)).max())
    bound = float(q_eff**n * expm1(n * log1p(b1 / q_eff)))
    stats.mgf_cache[float(alpha)] = (value, bound)
    return value, bound


def largest_certifiable_alpha(law: FirstReturnLaw) -> float:
    """Estimate of the tilt limit -log(spectral radius of the complement block)."""
    radius, _ = spectral_radius_reducible(law._p_cc, law._p_cc > 0.0)
    return float(-np.log(radius)) if radius > 0.0 else float("inf")


def mgf_matrix(law: FirstReturnLaw, alpha: float) -> tuple[np.ndarray, float]:
    """Tilted kernel Q(alpha)[a, a'] = sum_p e^{alpha p} q_a(a', p), with entry bound."""
    p = np.arange(1, law.t_max + 1, dtype=float)
    Q = np.tensordot(np.exp(alpha * p), law.kernels, axes=(0, 0))
    return Q, law.weighted_tail_bound(alpha)


def _normalized_moments(law: FirstReturnLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def stationary_cycle_moment(law: FirstReturnLaw, order: int) -> float:
    """E[(tau^1)^order] under the stationary conditional start (normalized law)."""
    if order not in (1, 2):
        raise DomainError(f"only moments of order 1 and 2 are provided, got {order}")
    _, G1, G2 = _normalized_moments(law)
    G = G1 if order == 1 else G2
    return float(law.start @ G.sum(axis=1))


def cycle_covariance(law: FirstReturnLaw, j: int) -> float:
    """Cov(tau^1, tau^j) under the stationary conditional start.

    Intermediate cycle durations are marginalized exactly: the covariance
    reduces to the landing-state chain bridging the first and j-th cycles.
    Cov(tau^1, tau^1) is the variance of a single cycle.
    """
    if j < 1:
        raise DomainError(f"cycle index must be >= 1, got {j}")
    Pi, G1, G2 = _normalized_moments(law)
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


def cycle_covariance_tail_sum(
    law: FirstReturnLaw, tol: float = 5e-11, cap: int = 100_000
) -> tuple[float, int]:
    """sum_{j >= 2} Cov(tau^1, tau^j), truncated by a geometric-decay fit.

    The decay ratio fitted over a five-term window, with a safety factor of
    10, must certify the omitted tail below ``tol``; exact zeros (single
    target state) terminate immediately.
    """
    Pi, G1, _ = _normalized_moments(law)
    mean_by_state = G1.sum(axis=1)
    mean = float(law.start @ mean_by_state)
    x = law.start @ G1
    w = law.start.copy()
    total = 0.0
    window: list[float] = []
    tiny_streak = 0
    noise_floor = 1e-13 * max(1.0, mean * mean)
    for j in range(2, cap + 2):
        cov = float(x @ mean_by_state) - mean * float((w @ Pi) @ mean_by_state)
        total += cov
        mag = abs(cov)
        if mag < noise_floor:
            tiny_streak += 1
            if tiny_streak >= 3:
                return total, j
        else:
            tiny_streak = 0
        window.append(mag)
        if len(window) > 5:
            window.pop(0)
        if len(window) == 5 and window[0] > 0.0 and mag < window[0]:
            theta = (mag / window[0]) ** 0.25
            if 10.0 * mag * theta / (1.0 - theta) < tol:
                return total, j
        x = x @ Pi
        w = w @ Pi
    raise NumericError(f"covariance series did not certify convergence within {cap} terms")
