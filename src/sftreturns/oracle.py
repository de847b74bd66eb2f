"""Exact combinatorics of the Markov-additive first-return process.

Everything here works directly on the Gibbs chain, with no reference to the
induced operator's spectral data: first-return kernels are built by iterated
vector-matrix products through the complement, the law of the n-th return
time by a recursion on the chain's visit counts, and every truncation
carries a rigorous geometric certificate.  These are the independent
cross-checks for the spectral route.

Each piece of work is done once.  With V_t = P_ac P_cc^(t-1) and the tilted
step X = e^alpha P_cc, the window identity V_t X^j = e^(alpha j) V_(t+j) turns
the tilted tail bound at every horizon t into a weighted sum of the k tails
r_t .. r_(t+k-1) of the horizon loop's own V sequence, so the tilted horizon
search costs t_max + k - 1 products.  Each Python step does one product; the
tails, the kernels and the stop rule are read off each block of products in
bulk, the bounds over a sliding window of the log tails.

Each exact quantity comes from arithmetic sized to what is asked:

- ``return_time_law``: P(T_n = t) for t up to a horizon and P(T_n > horizon),
  by renewal duality, {T_n > t} = {at most n - 1 target visits in steps
  1..t}: one product with P per step over (visit count < n, state), any n,
  no kernel and no truncation.
- ``exact_mgf``: E e^(alpha T_n) = start Q(alpha)^n 1, n vector-matrix
  products with the tilted kernel Q(alpha) = sum_p e^(alpha p) K_p (the
  Markov-additive identity of Ney and Nummelin), built once per tilt.
- ``weighted_tail_bound``: kept on the law per tilt, so each tilt's geometric
  sum is computed once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import expm1, log, log1p
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, NumericError
from .perron import _contraction, _geometric_sum, _product_blocks, spectral_radius_reducible
from .thermo import GibbsChain

MAX_HORIZON = 10**6
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
    _tail_bounds: dict[float, float] = field(default_factory=dict, repr=False)
    _tilted: dict[float, np.ndarray] = field(default_factory=dict, repr=False)

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
        The law is fixed once built, so the bound is kept per tilt.
        """
        if alpha not in self._tail_bounds:
            if self._p_cc.size == 0 or not self._v_next.any():
                return 0.0
            step = np.exp(alpha) * self._p_cc
            k, beta = _tilt_contraction(alpha, step, self._contractions)
            raw = _geometric_sum(step, self._v_next, k, beta)
            self._tail_bounds[alpha] = float(_scaled_tail(alpha, self.t_max, raw))
        return self._tail_bounds[alpha]

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
    the law supports moment generating functions up to that tilt).  That
    tilted bound is ``weighted_tail_bound`` at each horizon t, which the window
    identity V_t X^j = e^(alpha j) V_(t+j) reads off the tails r_t .. r_(t+k-1)
    of the law's own V sequence, in bulk once a block of them is in (see
    :func:`_horizon`).
    """
    if not 0.0 < tol <= 1e-6:
        raise ConfigurationError(f"tol must lie in (0, 1e-6], got {tol}")
    A, C = _partition(chain, target_states)
    P = chain.transition_probs
    Paa = P[np.ix_(A, A)]
    Pac = P[np.ix_(A, C)]
    Pca = P[np.ix_(C, A)]
    Pcc = P[np.ix_(C, C)]
    pi_a = chain.stationary[A]
    mu = float(pi_a.sum())
    start = pi_a / mu

    cache: dict[float, tuple[int, float] | str] = {}  # one contraction search for every horizon
    kernels, tail, v_next = _horizon(Paa, Pac, Pca, Pcc, tol, alpha_max, cache)
    law = FirstReturnLaw(
        kernels=kernels,
        tail_bound=tail,
        start=start,
        target_states=tuple(A.tolist()),
        mu_target=mu,
        _p_cc=Pcc,
        _v_next=v_next,
        _contractions=cache,
    )
    _validate_law(law)
    return law


def _partition(chain: GibbsChain, target_states: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(target states, complement states) of the chain, the target in its given order."""
    targets = [int(a) for a in target_states]
    if not targets or len(targets) >= chain.n_states:
        raise ConfigurationError("target must be a nonempty proper subset of the states")
    rest = [i for i in range(chain.n_states) if i not in set(targets)]
    return np.array(targets, dtype=int), np.array(rest, dtype=int)


def _horizon(p_aa, p_ac, p_ca, p_cc, tol: float, alpha_max: float, cache: dict) -> tuple:
    """(kernels K_1 .. K_(t_max), r_(t_max), V_(t_max)) at the law's stop, r_t = max-rowsum(V_t).

    V_t comes in blocks of products, and the block of V_s .. V_e gives the
    kernels K_(s+1) .. K_(e+1) = V_t P_ca in one batched product.  The first
    t0 with r_t0 <= tol is the stop unless the tilt is needed; then it is the
    first t >= t0 with r_t <= tol and a tilted bound <= tol, decided once
    r_(t+k-1) is in.  One block of V is held, plus V at the start of each block
    that holds an undecided horizon, from which V_(t_max) is recomputed bit for bit.
    """
    kernels, checkpoints = [], []
    tilt = None  # (k, beta, alpha j for j < k) once the tilted bound is needed
    first, logs, tails = 0, np.empty(0), np.empty(0)  # log r_t and r_t of undecided t >= first
    cap_tail, s = 0.0, 1
    for block in itertools.chain([p_ac[np.newaxis]], _product_blocks(p_ac, p_cc, np.inf)):
        e = s + block.shape[0] - 1  # block[i] = V_(s + i)
        r = block.sum(axis=2).max(axis=1)
        kernels.append((s, np.matmul(block, p_ca)))
        if s <= MAX_HORIZON <= e:
            cap_tail = float(r[MAX_HORIZON - s])
        if tilt is not None:
            checkpoints.append((s, block[0].copy()))
        elif (hits := np.flatnonzero(r[:MAX_HORIZON - s] <= tol)).size:
            first = s + int(hits[0])
            if not (alpha_max > 0.0 and block[hits[0]].any()):
                t_max, tail, v = first, float(r[hits[0]]), block[hits[0]].copy()
                break
            k, beta = _tilt_contraction(alpha_max, np.exp(alpha_max) * p_cc, cache)
            tilt = k, beta, alpha_max * np.arange(k)
            checkpoints.append((first, block[hits[0]].copy()))
        if tilt is not None:
            k, beta, ramp = tilt
            new = r[max(first - s, 0):].tolist()
            logs = np.append(logs, [log(x) if x > 0.0 else -np.inf for x in new])
            tails = np.append(tails, new)
            last = min(e - k + 1, MAX_HORIZON - 1)  # the last horizon whose window is in
            if last >= first:
                count = last - first + 1
                raw = np.exp(ramp + sliding_window_view(logs, k)[:count]).sum(axis=1) / (1.0 - beta)
                bound = _scaled_tail(alpha_max, np.arange(first, last + 1), raw)
                stops = np.flatnonzero((tails[:count] <= tol) & (bound <= tol))
                if stops.size:
                    t_max = first + int(stops[0])
                    pos, v = (t_max, block[t_max - s].copy()) if t_max >= s else [
                        c for c in checkpoints if c[0] <= t_max][-1]
                    for _ in range(t_max - pos):
                        v = v @ p_cc
                    tail = float(tails[stops[0]])
                    break
                first, logs, tails = last + 1, logs[count:], tails[count:]
                checkpoints = [c for c, after in zip(checkpoints, checkpoints[1:] + [(np.inf,)])
                               if after[0] > first]
        if e >= MAX_HORIZON and (tilt is None or first >= MAX_HORIZON):
            raise NumericError(
                f"first-return tail still {cap_tail:.3e} after horizon {MAX_HORIZON}; tol unreachable"
            )
        s = e + 1
    kernels = [p_aa[np.newaxis]] + [K[:max(t_max - start, 0)] for start, K in kernels]
    return np.concatenate(kernels), tail, v


def _tilt_contraction(alpha: float, step: np.ndarray, cache: dict) -> tuple[int, float]:
    """The contraction (k, beta) of ``step`` = e^alpha P_cc; ``cache`` keeps it per tilt,
    or the message of its failed search, which is raised again without searching."""
    if alpha not in cache:
        try:
            cache[alpha] = _contraction(step)
        except NumericError as exc:
            cache[alpha] = str(exc)
    if isinstance(cache[alpha], str):
        raise NumericError(cache[alpha])
    return cache[alpha]


def _scaled_tail(alpha: float, t_max, raw):
    """e^(alpha (t_max + 1)) raw, elementwise in log space: 0 where raw is 0, inf once
    it is beyond the range of floats."""
    with np.errstate(divide="ignore", over="ignore"):
        log_bound = alpha * (np.asarray(t_max) + 1) + np.log(raw)
        return np.where(raw <= 0.0, 0.0, np.where(log_bound < 700.0, np.exp(log_bound), np.inf))


def _validate_law(law: FirstReturnLaw) -> None:
    mass = law.kernels.sum(axis=(0, 2))
    if (mass > 1.0 + 1e-12).any() or (mass < 1.0 - law.tail_bound - 1e-12).any():
        raise NumericError("first-return mass inconsistent with its tail certificate")
    mean = float(law.start @ law.duration_moment_matrix(1).sum(axis=1))
    slack = law.moment_tail_bound(1) + KAC_SLACK
    # written as "not <=" so that a nan residual fails
    if not abs(mean - 1.0 / law.mu_target) <= slack:
        raise NumericError(
            f"Kac check failed: mean return {mean!r} vs 1/mu = {1.0 / law.mu_target!r} "
            f"(certified slack {slack:.3e})"
        )


def _check_fine_law(law: FirstReturnLaw) -> None:
    if law.tail_bound > 1e-10:
        raise ConfigurationError(
            f"law tail bound {law.tail_bound:.3e} too coarse; rebuild with tol <= 1e-10"
        )


def return_time_law(
    chain: GibbsChain, target_states: Sequence[int], n: int, horizon: int
) -> tuple[np.ndarray, float]:
    """(probs, beyond): ``probs[t - 1]`` = P(T_n = t) for t = 1..horizon, ``beyond`` = P(T_n > horizon).

    T_n is the time of the n-th target visit after time 0, with X_0 drawn
    from the stationary law conditioned on the target (the law's ``start``).
    By renewal duality T_n > t exactly when steps 1..t visit the target at
    most n - 1 times, so the law is one recursion on P over
    f[k, s] = P(X_t = s, k visits so far), k < n: each step is f @ P, then
    the target columns move down one row, and the mass that leaves row n - 1
    is P(T_n = t).  The target states come first, so the move is two slice
    assignments.  Every entry is a sum of nonnegative terms, so both tails are
    exact up to roundoff, at any n, with no kernel to truncate.
    """
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n}")
    if horizon < 0:
        raise ConfigurationError(f"horizon must be nonnegative, got {horizon}")
    A, C = _partition(chain, target_states)
    order = np.concatenate([A, C])
    P = chain.transition_probs[np.ix_(order, order)]
    a = A.size
    pi_a = chain.stationary[A]
    f = np.zeros((n, order.size))
    f[0, :a] = pi_a / float(pi_a.sum())
    probs = np.empty(horizon)
    for t in range(horizon):
        f = f @ P
        probs[t] = f[n - 1, :a].sum()
        f[1:, :a] = f[:-1, :a]
        f[0, :a] = 0.0
    return probs, float(f.sum())


def exact_mgf(law: FirstReturnLaw, n: int, alpha: float) -> tuple[float, float]:
    """E[exp(alpha T_n)] = start Q(alpha)^n 1, with a certified bound.

    The error bound covers all trajectories in which at least one cycle
    exceeded the law's horizon: with q the largest row sum of Q(alpha) and b
    the certified per-cycle weighted tail, the omitted contribution is at
    most (q + b)^n - q^n.
    """
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n}")
    _check_fine_law(law)
    Q = _tilted_kernel(law, alpha)
    row = law.start
    for _ in range(n):
        row = row @ Q
    value = float(row.sum())
    if not np.isfinite(value):
        raise NumericError(f"moment generating function overflowed at alpha={alpha}")
    try:
        b1 = law.weighted_tail_bound(alpha)
    except NumericError as exc:
        raise DomainError(
            f"alpha={alpha} is too close to the domain boundary for certification; "
            f"largest certifiable alpha is about {largest_certifiable_alpha(law):.6f}"
        ) from exc
    q_eff = float(Q.sum(axis=1).max())
    bound = float(q_eff**n * expm1(n * log1p(b1 / q_eff)))
    return value, bound


def largest_certifiable_alpha(law: FirstReturnLaw) -> float:
    """Estimate of the tilt limit -log(spectral radius of the complement block)."""
    radius, _ = spectral_radius_reducible(law._p_cc, law._p_cc > 0.0)
    return float(-np.log(radius)) if radius > 0.0 else float("inf")


def mgf_matrix(law: FirstReturnLaw, alpha: float) -> tuple[np.ndarray, float]:
    """Tilted kernel Q(alpha)[a, a'] = sum_p e^{alpha p} q_a(a', p), with entry bound."""
    return _tilted_kernel(law, alpha), law.weighted_tail_bound(alpha)


def _tilted_kernel(law: FirstReturnLaw, alpha: float) -> np.ndarray:
    """Q(alpha), built once per tilt and kept read-only on the law."""
    if alpha not in law._tilted:
        p = np.arange(1, law.t_max + 1, dtype=float)
        Q = np.tensordot(np.exp(alpha * p), law.kernels, axes=(0, 0))
        Q.flags.writeable = False
        law._tilted[alpha] = Q
    return law._tilted[alpha]
