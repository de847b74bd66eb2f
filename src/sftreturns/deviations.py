"""Large-deviation rate function and the CLT variance report.

The rate function is the Legendre conjugate I(u) = sup_{alpha < alpha0}
{u alpha - Psi(alpha)}.  Since every return takes at least one step, Psi'
ranges over (c, infinity) where c >= 1 is the minimum mean cycle of
first-return durations; at u = c the supremum is a limit as alpha -> -inf,
and below c it is infinite (the deviation event is impossible at scale n).
Inside the range the conjugate point solves Psi'(alpha) = u by safeguarded
Newton steps, each taking the exact Psi' and Psi'' of one R(S) evaluation.
The search is written once, as a generator that yields the alpha it needs
next; ``conjugate_points`` advances the searches of many u in lockstep and
solves each round's alphas in one stacked pass of ``ReturnOperator.solve``,
which gives every alpha Psi, Psi' and Psi'' alike and never raises: a search
whose alpha the pass left unsolved meets that alpha's own error when it reads
its point.  ``conjugate_points`` returns each point or the error its search
met.  Every search inside the range opens with the same
asks, the bracket ends and the first Newton point (``opening_asks``), so a
caller can solve them before the searches start.
The variance sigma^2 = Psi''(0) is cross-computed from the covariance
series of Poincare cycles, summed exactly in the Gibbs chain P: with target
A, complement C and the complement resolvent N = (I - P_CC)^-1, the landing
chain is Pi = P_AA + P_AC N P_CA, the duration-weighted kernels are
G1 = P_AA + P_AC (N + N^2) P_CA and G2 = G1 + 2 P_AC N^3 P_CA, and the
covariance tail sums to (s G1) Z g with g = G1 1, s the start law and Z the
fundamental matrix of Pi (Kemeny and Snell).  The counting variance follows
from sigma_bar^2 = sigma^2 mu(A)^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, SftReturnsError
from .return_op import ReturnOperator
from .thermo import GibbsChain

ROOT_TOL = 1e-12
BOUNDARY_BAND = 1e-9
SIGMA2_FLOOR = 1e-10
TWO_ROUTE_TOL = 1e-6
OPENING_GAP = 1e-4  # a search's bracket opens this far below a finite alpha0


@dataclass(frozen=True)
class VarianceReport:
    """CLT variance through both routes, plus the counting-variance relation."""

    sigma2: float
    sigma2_bar: float
    mu_target: float
    series_sigma2: float

    @property
    def two_route_gap(self) -> float:
        """|Psi''(0) - series|; the routes agree when it is at most TWO_ROUTE_TOL."""
        return abs(self.sigma2 - self.series_sigma2)


def _attainable_range(op: ReturnOperator) -> tuple[float, float]:
    """Open range of Psi': bounded below by the minimum mean return cycle and
    above by the maximum one (infinite when return times are unbounded)."""
    ceiling = float(op.max_cycle_mean) if op.max_cycle_mean is not None else float("inf")
    return float(op.min_cycle_mean), ceiling


def _asymptotic_conjugate(op: ReturnOperator, u: float, direction: float):
    """Limit of u*alpha - Psi(alpha) as alpha -> direction * inf, at a boundary u; a search as below.

    Iterates at alpha = direction 2^k, k < 20, until two agree within 1e-13.  If
    R(P - alpha) leaves double range or k runs out first, the last iterate stands
    only when the last step is at most half the one before (they contract).
    """
    values: list[float] = []
    for k in range(20):
        alpha = direction * 2.0**k
        yield alpha
        try:
            value = u * alpha - op.scgf(alpha)
        except (NumericError, DomainError):
            break
        if not np.isfinite(value):
            break
        if values and abs(value - values[-1]) < 1e-13:
            return value
        values.append(value)
    if len(values) >= 3 and abs(values[-1] - values[-2]) <= 0.5 * abs(values[-2] - values[-3]):
        return values[-1]
    raise NumericError(f"the conjugate limit at u={u} did not converge: its iterates stopped at alpha={alpha}")


def _bracket(op: ReturnOperator) -> tuple[float, float]:
    """The bracket (lo, hi) a search inside the attainable range opens with, before it widens either end."""
    return -1.0, (op.alpha0 - OPENING_GAP if np.isfinite(op.alpha0) else 1.0)


def opening_asks(op: ReturnOperator, us: Sequence[float]) -> list[float]:
    """The alphas that every search at a u of ``us`` inside the attainable range asks first, in order.

    They are the bracket ends hi and lo, then the first Newton point
    0.5 (lo + hi), which a search asks for unless it must widen its bracket;
    they are the same for every such u, and there are none when no u of
    ``us`` lies inside the range.
    """
    floor, ceiling = _attainable_range(op)
    if not any(floor + BOUNDARY_BAND < u < ceiling - BOUNDARY_BAND for u in us):
        return []
    lo, hi = _bracket(op)
    return [hi, lo, 0.5 * (lo + hi)]


def _conjugate_search(op: ReturnOperator, u: float):
    """(I(u), alpha_star) at one u, as a generator.

    It yields each alpha whose R(P - alpha) it needs next and reads the point
    off the operator's memo when resumed, so a caller can solve the needs of
    many searches in one stacked pass.  Inside the attainable range it runs
    safeguarded Newton on Psi'(alpha) = u: each step takes Psi' and Psi''
    from one evaluation, shrinks the bracket on the sign of Psi' - u and
    bisects where Newton would leave it, until |Psi' - u| <= ROOT_TOL max(1, u).
    Newton runs on 1/Psi' = 1/u, which is nearly linear near the pole of Psi'
    at alpha0.  At the edges of the range the supremum is a limit and
    ``alpha_star`` is -inf or +inf.
    """
    if not u > 0.0:
        raise DomainError(f"deviation abscissa must be positive, got {u}")
    floor, ceiling = _attainable_range(op)
    if u < floor - BOUNDARY_BAND or u > ceiling + BOUNDARY_BAND:
        raise NumericError(
            f"u={u} is outside the attainable range of Psi', which is ({floor}, {ceiling}); "
            "no finite conjugate point exists"
        )
    if u <= floor + BOUNDARY_BAND:
        return (yield from _asymptotic_conjugate(op, u, -1.0)), float("-inf")
    if u >= ceiling - BOUNDARY_BAND:
        return (yield from _asymptotic_conjugate(op, u, 1.0)), float("inf")

    lo, hi = _bracket(op)
    yield hi
    if np.isfinite(op.alpha0):
        gap = OPENING_GAP
        while op.scgf_slope(hi) < u:
            gap /= 4.0
            if gap < 2e-8:
                raise NumericError(
                    f"Psi'={u} not bracketed near alpha0; achieved range up to {op.scgf_slope(hi)}"
                )
            hi = op.alpha0 - gap
            yield hi
    else:
        while op.scgf_slope(hi) < u:
            hi *= 2.0
            if hi > 2.0**16:
                raise NumericError(f"Psi'={u} not bracketed; expansion cap reached")
            yield hi
    yield lo
    while op.scgf_slope(lo) > u:
        hi = lo
        lo *= 2.0
        if lo < -2.0**20:
            raise NumericError(
                f"Psi'={u} not bracketed; achieved Psi' range is ({floor}, {ceiling}) "
                f"but the expansion cap was reached"
            )
        yield lo
    alpha = 0.5 * (lo + hi)
    while True:
        yield alpha
        psi, psi1, psi2 = op.scgf_and_derivatives(alpha)
        residual = psi1 - u
        newton = alpha - (psi1 / u) * residual / psi2
        if abs(residual) <= ROOT_TOL * max(1.0, abs(u)):
            # the last step moves alpha_star, the conjugate value only by residual^2 / 2 Psi''
            return u * alpha - psi, newton
        if residual < 0.0:
            lo = alpha
        else:
            hi = alpha
        alpha = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < alpha < hi:
            raise NumericError(f"Newton iteration left residual {residual:.3e} at u={u}")


def conjugate_points(
    op: ReturnOperator, us: Sequence[float]
) -> list[tuple[float, float] | SftReturnsError]:
    """(I(u), alpha_star), or the error its search met, for every u, the searches advancing in lockstep.

    Each round gathers the alpha every unfinished search needs next and
    solves them in one stacked pass, then resumes the searches, which read
    their points off the memo.  A pass that fails memoizes nothing, and each
    search meets its own failure when it reads its point, so every value and
    every error equals that of the search at that u alone.  The commands solve
    :func:`opening_asks` up front with their other S, so the first rounds
    find their alphas memoized and make no pass.
    """
    searches = [_conjugate_search(op, u) for u in us]
    results: list = [None] * len(searches)
    asks: dict[int, float] = {}

    def advance(i: int) -> None:
        try:
            asks[i] = next(searches[i])
        except StopIteration as stop:
            results[i] = stop.value
        except SftReturnsError as exc:
            results[i] = exc

    for i in range(len(searches)):
        advance(i)
    while asks:
        op.solve([op.pressure - alpha for alpha in asks.values()])
        for i in list(asks):
            del asks[i]
            advance(i)
    return results


def variance_report(op: ReturnOperator, chain: GibbsChain) -> VarianceReport:
    """sigma^2 = Psi''(0) cross-checked against the cycle-covariance series.

    ``chain`` is the Gibbs chain P of the operator's system.  Series route:
    E[tau^2] - 1/mu^2 + 2 sum_{j>=2} Cov(tau^1, tau^j), summed in closed form
    as s G2 1 - 1/mu^2 + 2 (s G1) Z g.  N = (I - P_CC)^-1 enters through
    solves on P_CA; Z = (I - Pi + 1 s)^-1 - 1 s is the group inverse of
    I - Pi (Meyer), the Cesaro sum of Pi^k - 1 s, so the sum is right when
    the landing chain Pi is periodic.  The route uses P, not R(S), so it is
    independent of Psi''.  The variance must be strictly positive; whether the
    routes agree within TWO_ROUTE_TOL is the caller's verdict.
    """
    _, sigma2 = op.scgf_derivatives(0.0)
    if not sigma2 > SIGMA2_FLOOR:
        raise NumericError(
            f"predicted variance {sigma2!r} is not strictly positive; "
            "the return times appear deterministic"
        )
    mu = op.mu_target
    P = chain.transition_probs
    A = np.array(op.target, dtype=int)
    C = np.flatnonzero(np.bincount(A, minlength=P.shape[0]) == 0)
    p_ac = P[np.ix_(A, C)]
    resolvent = np.eye(C.size) - P[np.ix_(C, C)]
    y1 = np.linalg.solve(resolvent, P[np.ix_(C, A)])  # y_k = N^k P_CA
    y2 = np.linalg.solve(resolvent, y1)
    y3 = np.linalg.solve(resolvent, y2)
    landing = P[np.ix_(A, A)] + p_ac @ y1
    g1 = landing + p_ac @ y2
    g2 = g1 + 2.0 * p_ac @ y3
    start = chain.stationary[A] / chain.stationary[A].sum()
    g = g1.sum(axis=1)
    # sum_{j>=2} Cov(tau^1, tau^j) = (s G1) Z g = (s G1) (I - Pi + 1 s)^-1 g - (s g)^2
    zg = np.linalg.solve(np.eye(A.size) - landing + start, g)
    covariances = float(start @ g1 @ zg) - float(start @ g) ** 2
    series = float(start @ g2.sum(axis=1)) - 1.0 / mu**2 + 2.0 * covariances
    return VarianceReport(
        sigma2=float(sigma2),
        sigma2_bar=float(sigma2 * mu**3),
        mu_target=mu,
        series_sigma2=series,
    )
