"""Exact combinatorics of the Markov-additive first-return process.

Everything here works directly on the Gibbs chain, with no reference to the
induced operator's spectral data: first-return kernels are built by iterated
vector-matrix products through the complement, the law of the n-th return
time by a recursion on the chain's visit counts, and every truncation
carries a rigorous certificate.  These are the independent cross-checks for
the spectral route.

With V_t = P_ac P_cc^(t-1), the kernels past a horizon t are
K_(t+1+j) = V_t P_cc^j P_ca, so each omitted tail is V_t times a series
sum_j X^j b: X = e^alpha P_cc and b = P_ca 1 for the tilted mass, X = P_cc
for the moments of the steps left until landing.  The series is the
solution of (I - X) w = b, the fundamental-matrix identity of absorbing
chains (Kemeny & Snell, Finite Markov Chains, 3.2), and any finite w >= 0
with X w + b <= w bounds it, by induction.  One linear solve gives such a
w, with room for roundoff, and a check in floats certifies it
(:func:`_certificate`).  The horizon loop does one product per Python step
and reads the tails, the kernels, the tilted tails and the stop rule off
each block of products in bulk.

Each exact quantity comes from arithmetic sized to what is asked:

- ``return_time_law``: P(T_n = t) for t up to a horizon and P(T_n > horizon),
  by renewal duality, {T_n > t} = {at most n - 1 target visits in steps
  1..t}: one product with P per step over (visit count < n, state), any n,
  no kernel and no truncation.
- ``exact_mgf``: E e^(alpha T_n) = start Q(alpha)^n 1, n vector-matrix
  products with the tilted kernel Q(alpha) = sum_p e^(alpha p) K_p (the
  Markov-additive identity of Ney and Nummelin), built once per tilt.
- ``weighted_tail_bound``: each tilt's certificate is solved once and kept
  on the law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, expm1, log1p
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .perron import _product_blocks, spectral_radius_reducible
from .thermo import GibbsChain

MAX_HORIZON = 10**6
# a certificate w gains CERTIFICATE_ROOM max(w) (I - X)^-1 1, which leaves that
# much room in every row of X w + b <= w: far above the backward error of the
# solve and of the check, about n eps max(w) for n complement states
CERTIFICATE_ROOM = 1e-12


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
    _landing: np.ndarray
    _v_next: np.ndarray
    _certificates: dict[float, np.ndarray] = field(default_factory=dict, repr=False)
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

        The omitted mass is e^(alpha (t_max + 1)) V_(t_max) w, with w the
        series sum_j (e^alpha P_cc)^j P_ca 1, bounded by the tilt's
        certificate, which is solved once and kept on the law; it raises
        :class:`NumericError` when the series cannot be certified.  The
        leading exponential is applied in log space so a huge but certifiable
        tail reports as inf rather than overflowing.  At alpha = 0 the series
        is 1 and the bound is ``tail_bound``, up to the certificate's room.
        """
        if not self._v_next.any():
            return 0.0
        return float(_scaled_tail(alpha, self.t_max, (self._v_next @ self._landing_series(alpha)).max()))

    def moment_tail_bound(self, order: int) -> float:
        """Certified bound on sum_{p > t_max} p^order (omitted mass).

        A return omitted at t = t_max comes after p = t + R steps, R >= 1 the
        steps left until landing, so the bound is
        max(V_t sum_i C(order, i) t^(order - i) z_i) with z_i a certified bound
        on E[R^i] from each complement state.  By first-step analysis
        z_i = sum_j P_cc^j (P_ca 1 + sum_(l<i) C(i, l) P_cc z_l); z_0, the
        landing probability, is 1 up to roundoff and is the tilt 0's certificate.
        """
        if not self._v_next.any():
            return 0.0
        P, t = self._p_cc, float(self.t_max)
        z = [self._landing_series(0.0)]
        for i in range(1, order + 1):
            z.append(_certificate(0.0, P, sum((comb(i, l) * (P @ z[l]) for l in range(i)), self._landing)))
        y = sum(comb(order, i) * t ** (order - i) * z[i] for i in range(order + 1))
        return float((self._v_next @ y).max())

    def _landing_series(self, alpha: float) -> np.ndarray:
        """The certificate of sum_j (e^alpha P_cc)^j P_ca 1, solved once per tilt."""
        if alpha not in self._certificates:
            self._certificates[alpha] = _certificate(alpha, self._p_cc, self._landing)
        return self._certificates[alpha]


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

    landing = Pca.sum(axis=1)
    kernels, tail, v_next, w = _horizon(Paa, Pac, Pca, Pcc, tol, alpha_max)
    law = FirstReturnLaw(
        kernels=kernels,
        tail_bound=tail,
        start=start,
        target_states=tuple(A.tolist()),
        mu_target=mu,
        _p_cc=Pcc,
        _landing=landing,
        _v_next=v_next,
        _certificates={} if w is None else {alpha_max: w},
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


def _horizon(p_aa, p_ac, p_ca, p_cc, tol: float, alpha_max: float) -> tuple:
    """(kernels K_1 .. K_(t_max), r_(t_max), V_(t_max), w) at the law's stop, r_t = max-rowsum(V_t).

    V_t comes in blocks of products, and the block of V_s .. V_e gives the
    kernels K_(s+1) .. K_(e+1) = V_t P_ca in one batched product.  The stop
    is the first t <= MAX_HORIZON with r_t <= tol and, when the tilt is needed
    and V_t != 0, e^(alpha_max (t + 1)) max(V_t w) <= tol, with w the tilt's
    certificate; w is solved at the first t with r_t <= tol and V_t != 0, and
    is None if there is none.  The stop is read off the block that holds V_(t_max),
    so one block of V is held.
    """
    kernels, w, s = [], None, 1
    landing = p_ca.sum(axis=1)
    for block in itertools.chain([p_ac[np.newaxis]], _product_blocks(p_ac, p_cc)):
        e = s + block.shape[0] - 1  # block[i] = V_(s + i)
        r = block.sum(axis=2).max(axis=1)
        kernels.append((s, np.matmul(block, p_ca)))
        stops = r[:MAX_HORIZON - s + 1] <= tol
        held = block[:stops.size]
        if alpha_max > 0.0 and (stops & held.any(axis=(1, 2))).any():
            w = _certificate(alpha_max, p_cc, landing) if w is None else w
            tilted = _scaled_tail(alpha_max, np.arange(s, s + stops.size), (held @ w).max(axis=1))
            stops &= tilted <= tol
        if stops.any():
            i = int(np.flatnonzero(stops)[0])
            t_max, tail, v = s + i, float(r[i]), block[i].copy()
            break
        if e >= MAX_HORIZON:
            # at the last horizon the tail missed tol, or else the tilted tail did
            i = MAX_HORIZON - s
            missed, value = "first-return tail", r[i]
            if value <= tol:
                missed = f"first-return tail weighted by e^(alpha p) at alpha={alpha_max:.6g}"
                value = tilted[i]
            raise NumericError(
                f"{missed} still {float(value):.3e} after horizon {MAX_HORIZON}; tol unreachable"
            )
        s = e + 1
    kernels = [p_aa[np.newaxis]] + [K[:max(t_max - start, 0)] for start, K in kernels]
    return np.concatenate(kernels), tail, v, w


def _certificate(alpha: float, p_cc: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A finite w >= 0 with X w + b <= w in floats, X = e^alpha P_cc; w bounds sum_j X^j b.

    For nonnegative X and b, X w + b <= w gives sum_(j<n) X^j b + X^n w <= w
    for every n, by induction.  One solve of I - X against [b, 1] gives the
    series s = (I - X)^-1 b and u = (I - X)^-1 1, and w = s + CERTIFICATE_ROOM
    max(s) u, for which X w + b = w - CERTIFICATE_ROOM max(s) 1 in exact
    arithmetic.  Raises :class:`NumericError` when the check fails (or I - X
    is singular), as it does past alpha = -log rho(P_cc), where the series
    diverges and no such w exists.
    """
    n = p_cc.shape[0]
    with np.errstate(all="ignore"):  # an overflowing e^alpha fails the check below
        X = np.exp(alpha) * p_cc
        try:
            s, u = np.linalg.solve(np.eye(n) - X, np.stack([b, np.ones(n)], axis=1)).T
        except np.linalg.LinAlgError:  # I - X singular
            s = u = np.full(n, np.nan)
        w = s + CERTIFICATE_ROOM * s.max() * u
        if np.isfinite(w).all() and (w >= 0.0).all() and (X @ w + b <= w).all():
            return w
    raise NumericError(
        f"tail certificate failed at alpha={alpha}: no finite w >= 0 with X w + b <= w "
        "was found for X = e^alpha P_cc; the series diverges from largest_certifiable_alpha "
        "= -log rho(P_cc) on"
    )


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
    slack = law.moment_tail_bound(1) + _kac_roundoff(law, mean)
    # written as "not <=" so that a nan residual fails
    if not abs(mean - 1.0 / law.mu_target) <= slack:
        raise NumericError(
            f"Kac check failed: mean return {mean!r} vs 1/mu = {1.0 / law.mu_target!r} "
            f"(certified slack {slack:.3e})"
        )


def _kac_roundoff(law: FirstReturnLaw, mean: float) -> float:
    """A bound on the roundoff of |mean - 1/mu| in the Kac check.

    The mean sums nonnegative terms: t_max per pair of target states, then
    over the landing and the start states, and recursive summation errs by
    at most gamma_k = k u / (1 - k u) times the sum, u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2); 1/mu, a
    sum over the target and a division, errs by gamma_(|A| + 1) of itself.
    """
    ku = (law.t_max + 3 * law.n_target + 2) * np.finfo(float).eps / 2
    return ku / (1.0 - ku) * (mean + 1.0 / law.mu_target)


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
