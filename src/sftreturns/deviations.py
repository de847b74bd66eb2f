"""Large-deviation rate function and the CLT variance report.

The rate function is the Legendre conjugate I(u) = sup_{alpha < alpha0}
{u alpha - Psi(alpha)}.  Since every return takes at least one step, Psi'
ranges over (c, infinity) where c >= 1 is the minimum mean cycle of
first-return durations; at u = c the supremum is a limit as alpha -> -inf,
and below c it is infinite (the deviation event is impossible at scale n).
Inside the range the conjugate point solves Psi'(alpha) = u by safeguarded
Newton steps, each taking the exact Psi' and Psi'' of one R(S) evaluation.
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

import numpy as np

from .errors import DomainError, NumericError
from .return_op import ReturnOperator
from .thermo import GibbsChain

ROOT_TOL = 1e-12
BOUNDARY_BAND = 1e-9
SIGMA2_FLOOR = 1e-10
TWO_ROUTE_TOL = 1e-6


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


def _asymptotic_conjugate(op: ReturnOperator, u: float, direction: float) -> float:
    """Limit of u*alpha - Psi(alpha) as alpha -> direction * inf, at a boundary u."""
    alpha = direction
    prev = None
    while abs(alpha) < 2.0**20:
        try:
            value = u * alpha - op.scgf(alpha)
        except (NumericError, DomainError):
            break
        if not np.isfinite(value):
            break
        if prev is not None and abs(value - prev) < 1e-13:
            return value
        prev = value
        alpha *= 2.0
    if prev is None:
        raise NumericError(f"could not evaluate the conjugate limit at u={u}")
    return prev


def rate_function(op: ReturnOperator, u: float) -> tuple[float, float]:
    """(I(u), alpha_star) by safeguarded Newton on Psi'(alpha) = u inside a bracket.

    Each step takes Psi' and Psi'' from one evaluation, shrinks the bracket on
    the sign of Psi' - u and bisects where Newton would leave it, until
    |Psi' - u| <= ROOT_TOL max(1, u).  Newton runs on 1/Psi' = 1/u, which is
    nearly linear near the pole of Psi' at alpha0.  ``alpha_star`` solves
    Psi'(alpha) = u; at the edges of the attainable range the supremum is a
    limit and ``alpha_star`` is -inf or +inf.
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
        return _asymptotic_conjugate(op, u, -1.0), float("-inf")
    if u >= ceiling - BOUNDARY_BAND:
        return _asymptotic_conjugate(op, u, 1.0), float("inf")

    lo = -1.0
    if np.isfinite(op.alpha0):
        hi = op.alpha0 - 1e-4
        gap = 1e-4
        while op.scgf_slope(hi) < u:
            gap /= 4.0
            if gap < 2e-8:
                raise NumericError(
                    f"Psi'={u} not bracketed near alpha0; achieved range up to {op.scgf_slope(hi)}"
                )
            hi = op.alpha0 - gap
    else:
        hi = 1.0
        while op.scgf_slope(hi) < u:
            hi *= 2.0
            if hi > 2.0**16:
                raise NumericError(f"Psi'={u} not bracketed; expansion cap reached")
    while op.scgf_slope(lo) > u:
        hi = lo
        lo *= 2.0
        if lo < -2.0**20:
            raise NumericError(
                f"Psi'={u} not bracketed; achieved Psi' range is ({floor}, {ceiling}) "
                f"but the expansion cap was reached"
            )
    alpha = 0.5 * (lo + hi)
    while True:
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
    C = np.setdiff1d(np.arange(P.shape[0]), A)
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
