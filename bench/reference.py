"""Reference values computed from a configuration alone, with dense numpy.

Nothing here calls ``sftreturns``: the benchmark checks the program's
outputs against these numbers, so they must come from a different route.

* The weighted matrix M is built on the (depth-1)-block presentation
  directly from the config; the pressure and the Gibbs chain come from
  ``numpy.linalg.eig``.
* Psi(alpha) is log t for the t solving rho(e^{alpha-P} M D_{1/t}) = 1,
  where D_{1/t} divides every transition into the target by t.  That is the
  spectral radius of the full matrix, not of the induced operator R(S).
  Psi'(alpha) = 1 / mu_alpha(A), with mu_alpha the product of the left and
  right Perron vectors of that matrix (implicit differentiation).
* The counting variance comes from the Poisson equation of the Gibbs chain
  (Kemeny-Snell fundamental matrix) and sigma^2 = sigma_bar^2 / mu^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

ROOT_TOL = 1e-15


@dataclass(frozen=True)
class Reference:
    """Dense description of one configured system."""

    M: np.ndarray              # weighted transition matrix on block states
    in_target: np.ndarray      # boolean mask of target block states
    pressure: float
    chain: np.ndarray          # Gibbs transition matrix
    stationary: np.ndarray
    mu: float                  # equilibrium measure of the target
    restricted_pressure: float  # -inf when the complement is acyclic

    @property
    def alpha0(self) -> float:
        return self.pressure - self.restricted_pressure

    @property
    def n_states(self) -> int:
        return self.M.shape[0]


def _words(adj: np.ndarray, length: int) -> list[tuple[int, ...]]:
    words = [(s,) for s in range(adj.shape[0])]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(adj.shape[0]) if adj[w[-1], s]]
    return words


def weighted_matrix(system: dict) -> tuple[np.ndarray, np.ndarray]:
    """(M, target mask) on the block presentation of a config's ``system`` block.

    Depth 1 and 2 keep the symbols as states (a depth-1 value sits on the
    source symbol); depth k > 2 uses admissible (k-1)-words, an edge per
    admissible k-word, and marks a block as target when its first symbol is.
    """
    adj = np.asarray(system["transitions"], dtype=bool)
    depth = int(system["potential"]["depth"])
    phi = {tuple(item["word"]): float(item["value"]) for item in system["potential"]["values"]}
    target = set(int(s) for s in system["target"])
    if depth <= 2:
        n = adj.shape[0]
        M = np.zeros((n, n))
        for i, j in product(range(n), repeat=2):
            if adj[i, j]:
                M[i, j] = math.exp(phi.get((i,) if depth == 1 else (i, j), 0.0))
        return M, np.array([s in target for s in range(n)])
    states = _words(adj, depth - 1)
    index = {w: k for k, w in enumerate(states)}
    M = np.zeros((len(states), len(states)))
    for word in _words(adj, depth):
        M[index[word[:-1]], index[word[1:]]] = math.exp(phi.get(word, 0.0))
    return M, np.array([w[0] in target for w in states])


def perron(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root with positive right and left vectors, by dense eig."""
    vals, right = np.linalg.eig(M)
    k = int(np.argmax(vals.real))
    valsT, left = np.linalg.eig(M.T)
    kT = int(np.argmax(valsT.real))
    v = np.abs(right[:, k].real)
    u = np.abs(left[:, kT].real)
    return float(vals[k].real), v / v.max(), u / float(u @ v)


def spectral_radius(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(M)).max())


def build(system: dict) -> Reference:
    M, in_target = weighted_matrix(system)
    rho, v, u = perron(M)
    chain = M * v[np.newaxis, :] / (rho * v[:, np.newaxis])
    chain /= chain.sum(axis=1, keepdims=True)
    pi = u * v / float(u @ v)
    comp = ~in_target
    rho_c = spectral_radius(M[np.ix_(comp, comp)])
    # an acyclic complement is nilpotent; eigvals then returns roundoff only
    restricted = math.log(rho_c) if rho_c > 1e-8 * rho else float("-inf")
    return Reference(M, in_target, math.log(rho), chain, pi, float(pi[in_target].sum()), restricted)


def _tilted(ref: Reference, alpha: float, s: float) -> np.ndarray:
    """e^{alpha-P} M with every transition into the target divided by e^s."""
    return math.exp(alpha - ref.pressure) * ref.M * np.where(ref.in_target, math.exp(-s), 1.0)


def _log_radius(ref: Reference, alpha: float, s: float) -> float:
    return math.log(spectral_radius(_tilted(ref, alpha, s)))


def psi(ref: Reference, alpha: float) -> float:
    """Psi(alpha) = log t with rho(e^{alpha-P} M D_{1/t}) = 1, for alpha < alpha0.

    The log-radius falls strictly as s = log t grows, so the root is
    bracketed by stepping out from alpha / mu and then found by bisection
    with a secant step (Illinois rule).
    """
    if not alpha < ref.alpha0:
        raise ValueError(f"alpha={alpha} is not below alpha0={ref.alpha0}")
    s0 = alpha / ref.mu
    step = max(1.0, abs(s0))
    lo, hi = s0 - step, s0 + step
    f_lo, f_hi = _log_radius(ref, alpha, lo), _log_radius(ref, alpha, hi)
    while f_lo < 0.0:
        lo -= step
        step *= 2.0
        f_lo = _log_radius(ref, alpha, lo)
    while f_hi > 0.0:
        hi += step
        step *= 2.0
        f_hi = _log_radius(ref, alpha, hi)
    side = 0
    for _ in range(200):
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = _log_radius(ref, alpha, mid)
        if f_mid == 0.0 or hi - lo <= ROOT_TOL * max(1.0, abs(mid)):
            return mid
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = mid, f_mid
            if side == 1:
                f_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def psi1(ref: Reference, alpha: float) -> float:
    """Psi'(alpha) = 1 / mu_alpha(A) from the Perron pair of the tilted matrix."""
    K = _tilted(ref, alpha, psi(ref, alpha))
    _, r, l = perron(K)
    weights = l * r
    return float(weights.sum() / weights[ref.in_target].sum())


def psi2(ref: Reference, alpha: float) -> float:
    """Psi''(alpha): Richardson-extrapolated central differences of the exact Psi'.

    The step shrinks with the distance to alpha0, where Psi' blows up.
    """
    h = 1e-3 * min(1.0, ref.alpha0 - alpha)

    def central(step: float) -> float:
        return (psi1(ref, alpha + step) - psi1(ref, alpha - step)) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def rate(ref: Reference, u: float) -> tuple[float, float]:
    """(I(u), alpha*) with Psi'(alpha*) = u, by bisection on the increasing Psi'."""
    hi = min(1.0, 0.5 * ref.alpha0) if math.isfinite(ref.alpha0) else 1.0
    while psi1(ref, hi) < u:
        hi = 0.5 * (hi + ref.alpha0) if math.isfinite(ref.alpha0) else 2.0 * hi
    lo = -1.0
    while psi1(ref, lo) > u:
        lo *= 2.0
    while hi - lo > 1e-13 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if psi1(ref, mid) < u:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return u * alpha - psi(ref, alpha), alpha


def counting_variance(ref: Reference) -> float:
    """sigma_bar^2 = pi((f - mu)(2Z - (f - mu))), (I - P + 1 pi) Z = f - mu, f = 1_A."""
    n = ref.n_states
    f_bar = ref.in_target.astype(float) - ref.mu
    fundamental = np.eye(n) - ref.chain + np.outer(np.ones(n), ref.stationary)
    Z = np.linalg.solve(fundamental, f_bar)
    return float(ref.stationary @ (f_bar * (2.0 * Z - f_bar)))


def sigma2(ref: Reference) -> float:
    return counting_variance(ref) / ref.mu**3


def finite_horizon_count_variance(ref: Reference, horizon: int) -> float:
    """Var of the number of target visits at times 0..horizon-1 from a stationary start."""
    f_bar = ref.in_target.astype(float) - ref.mu
    weighted = ref.stationary * f_bar
    total = horizon * float(weighted @ f_bar)
    g = f_bar.copy()
    for lag in range(1, horizon):
        g = ref.chain @ g
        total += 2.0 * (horizon - lag) * float(weighted @ g)
    return total


def return_mgf_matrix(ref: Reference, alpha: float) -> np.ndarray:
    """Q[a, b] = E_a[e^{alpha tau}; X_tau = b] over target states a, b."""
    A, C = ref.in_target, ~ref.in_target
    P = ref.chain
    e = math.exp(alpha)
    inner = np.linalg.solve(np.eye(int(C.sum())) - e * P[np.ix_(C, C)], P[np.ix_(C, A)])
    return e * P[np.ix_(A, A)] + e * e * P[np.ix_(A, C)] @ inner


def sandwich_constants(ref: Reference, alpha: float, n_max: int = 8) -> list[float]:
    """C_n = log E e^{alpha T_n} - n Psi(alpha) for n = 1..n_max, target-stationary start."""
    Q = return_mgf_matrix(ref, alpha)
    start = ref.stationary[ref.in_target] / ref.mu
    p = psi(ref, alpha)
    out, vec = [], np.ones(Q.shape[0])
    for n in range(1, n_max + 1):
        vec = Q @ vec
        out.append(math.log(float(start @ vec)) - n * p)
    return out


# ---------------------------------------------------------------------------
# Closed forms: full 2-shift with target {0} and zero potential.  Returns are
# iid Geometric(1/2) on {1, 2, ...}.
# ---------------------------------------------------------------------------

def full2_psi(alpha: float) -> float:
    return alpha - math.log(2.0 - math.exp(alpha))


def full2_psi1(alpha: float) -> float:
    return 2.0 / (2.0 - math.exp(alpha))


def full2_psi2(alpha: float) -> float:
    e = math.exp(alpha)
    return 2.0 * e / (2.0 - e) ** 2


def full2_rate(u: float) -> tuple[float, float]:
    """I(u) = (u-1) log(2(u-1)/u) - log(u/2) and alpha* = log(2(u-1)/u), u > 1."""
    alpha = math.log(2.0 * (u - 1.0) / u)
    return (u - 1.0) * alpha - math.log(u / 2.0), alpha


def binomial_cdf_half(trials: int, k: int) -> float:
    """P(Bin(trials, 1/2) <= k), exactly in rational arithmetic, then rounded."""
    return float(Fraction(sum(math.comb(trials, j) for j in range(k + 1)), 2**trials))


def full2_tail_probability(n_returns: int, threshold: int) -> float:
    """P(T_n >= threshold) = P(fewer than n successes in threshold - 1 fair trials)."""
    return binomial_cdf_half(threshold - 1, n_returns - 1)
