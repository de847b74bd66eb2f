"""Induced first-return transfer operator and the scaled CGF of return times.

For a parameter S the operator is the finite matrix over target states

    R(S) = W_AA + W_AC (I - W_CC)^{-1} W_CA,     W = exp(-S) M,

summing exp(Birkhoff sum - S * duration) over first-return paths (A target
states, C complement).  The series converges exactly for S above the
critical parameter S_c, which equals the pressure of the target-avoiding
subshift.  The scaled cumulant generating function of n-th return times is
Psi(alpha) = log lambda(P - alpha), where lambda(S) is the Perron root of
R(S) and P the full pressure; its derivative is computed analytically from
the eigenvalue perturbation formula, and the second derivative by one
Richardson step of central differences of the analytic first derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError
from .perron import perron_eigendata, powered_rowsum_bound
from .system import (
    RecodedSystem,
    maximal_return_cycle_mean,
    minimal_return_cycle_mean,
    minimal_return_time,
)
from .thermo import restricted_spectrum

CRITICAL_MARGIN = 1e-8
DOMAIN_TOL = 1e-8
PSI2_BASE_STEP = 1e-5


@dataclass(frozen=True)
class ReturnOperatorEval:
    """R(S) with its Perron data; m_vec . h_vec = 1 and h_vec has unit peak."""

    S: float
    R: np.ndarray
    lam: float
    h_vec: np.ndarray
    m_vec: np.ndarray


@dataclass(frozen=True)
class CgfCurve:
    """Grid evaluation of Psi with first and second derivatives.

    Invariants checked at construction: Psi vanishes at alpha = 0 when the
    grid contains it, both derivatives are strictly positive, and the first
    derivative increases along the grid.
    """

    alpha_grid: np.ndarray
    psi: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    alpha0: float

    def __post_init__(self) -> None:
        for name in ("alpha_grid", "psi", "psi1", "psi2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        zero = np.flatnonzero(self.alpha_grid == 0.0)
        if zero.size and abs(self.psi[zero[0]]) > 1e-10:
            raise NumericError(f"Psi(0) = {self.psi[zero[0]]!r} is not zero within 1e-10")
        if not (self.psi1 > 0.0).all() or not (self.psi2 > 0.0).all():
            raise NumericError("CGF curve is not strictly increasing and convex")
        if not (np.diff(self.psi1) > 0.0).all():
            raise NumericError("Psi' is not increasing along the grid")


class ReturnOperator:
    """Curve provider: caches pressure, critical parameter and block structure."""

    def __init__(self, recoded: RecodedSystem) -> None:
        self.recoded = recoded
        self._M = recoded.weight_matrix()
        data = perron_eigendata(self._M)
        self.pressure = float(np.log(data.rho))
        self.right_vec = data.right_vec
        stationary = data.left_vec * data.right_vec
        self._stationary = stationary / stationary.sum()
        self.s_critical, self.restricted_components = restricted_spectrum(recoded)
        self.alpha0 = self.pressure - self.s_critical
        self.target = tuple(recoded.target_blocks)
        self.complement = tuple(recoded.complement_blocks)
        self._A = np.array(self.target, dtype=int)
        self._C = np.array(self.complement, dtype=int)
        self.mu_target = float(self._stationary[self._A].sum())
        self.minimal_return = minimal_return_time(recoded)
        self.min_cycle_mean: Fraction = minimal_return_cycle_mean(recoded)
        # finite only when return times are bounded (acyclic complement);
        # then it caps the attainable range of Psi'
        self.max_cycle_mean: Fraction | None = (
            maximal_return_cycle_mean(recoded) if not np.isfinite(self.alpha0) else None
        )

    # -- evaluation --------------------------------------------------------

    def _check_parameter(self, S: float) -> None:
        if not np.isfinite(S):
            raise DomainError(f"operator parameter must be finite, got {S!r}")
        ratio = np.exp(self.s_critical - S) if np.isfinite(self.s_critical) else 0.0
        if not ratio <= 1.0 - CRITICAL_MARGIN:
            raise DomainError(
                f"parameter S={S!r} at or below critical value S_c={self.s_critical!r}: "
                "the first-return series does not converge"
            )

    def _blocks(self, S: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        W = np.exp(-S) * self._M
        A, C = self._A, self._C
        return (W[np.ix_(A, A)], W[np.ix_(A, C)], W[np.ix_(C, A)], W[np.ix_(C, C)])

    def eval(self, S: float) -> ReturnOperatorEval:
        """Return operator R(S) with Perron data; requires S safely above S_c."""
        self._check_parameter(S)
        Waa, Wac, Wca, Wcc = self._blocks(S)
        resolvent = np.eye(Wcc.shape[0]) - Wcc
        X = np.linalg.solve(resolvent, Wca) if Wcc.size else Wca
        R = Waa + Wac @ X
        data = perron_eigendata(R)
        return ReturnOperatorEval(
            S=float(S),
            R=R,
            lam=data.rho,
            h_vec=data.right_vec,
            m_vec=data.left_vec,
        )

    def eval_with_derivative(self, S: float) -> tuple[ReturnOperatorEval, float]:
        """R(S) eigendata plus the analytic derivative lambda'(S).

        R'(S) = -(W_AA + B K C) - B K^2 C with B = W_AC, C = W_CA and
        K = (I - W_CC)^{-1}; then lambda' = m . R' . h for the normalized
        Perron pair.
        """
        ev = self.eval(S)
        Waa, Wac, Wca, Wcc = self._blocks(S)
        if Wcc.size:
            resolvent = np.eye(Wcc.shape[0]) - Wcc
            X = np.linalg.solve(resolvent, Wca)
            X2 = np.linalg.solve(resolvent, X)
            R_prime = -(Waa + Wac @ X) - Wac @ X2
        else:
            R_prime = -Waa
        lam_prime = float(ev.m_vec @ R_prime @ ev.h_vec)
        return ev, lam_prime

    # -- scaled CGF ---------------------------------------------------------

    def _check_alpha(self, alpha: float) -> None:
        if not alpha < self.alpha0 - DOMAIN_TOL:
            raise DomainError(
                f"alpha={alpha!r} is not below alpha0={self.alpha0!r} (margin {DOMAIN_TOL}); "
                "the scaled CGF is only defined for alpha < alpha0"
            )

    def scgf(self, alpha: float) -> float:
        """Psi(alpha) = log lambda(P - alpha)."""
        self._check_alpha(alpha)
        return float(np.log(self.eval(self.pressure - alpha).lam))

    def scgf_slope(self, alpha: float) -> float:
        """Psi'(alpha) alone, from the analytic eigenvalue derivative."""
        ev, lam_prime = self.eval_with_derivative(self.pressure - alpha)
        return -lam_prime / ev.lam

    def scgf_derivatives(self, alpha: float) -> tuple[float, float]:
        """(Psi'(alpha), Psi''(alpha)); both are checked to be positive.

        Psi' is analytic; Psi'' is a Richardson-extrapolated central
        difference of Psi' with step max(1e-5, |alpha| * 1e-7).
        """
        self._check_alpha(alpha)
        h = max(PSI2_BASE_STEP, abs(alpha) * 1e-7)
        if not alpha + h < self.alpha0 - DOMAIN_TOL:
            raise DomainError(
                f"alpha={alpha!r} is within the difference step {h} of alpha0={self.alpha0!r}; "
                "evaluate at a smaller alpha"
            )
        psi1 = self.scgf_slope(alpha)
        coarse = (self.scgf_slope(alpha + h) - self.scgf_slope(alpha - h)) / (2.0 * h)
        fine = (self.scgf_slope(alpha + h / 2.0) - self.scgf_slope(alpha - h / 2.0)) / h
        psi2 = (4.0 * fine - coarse) / 3.0
        if psi1 <= 0.0:
            raise NumericError(f"Psi'({alpha}) = {psi1} is not positive")
        if psi2 <= 0.0:
            raise NumericError(
                f"Psi''({alpha}) = {psi2} is not positive; the instance may have "
                "degenerate (deterministic) return times"
            )
        return psi1, psi2

    def curve(self, alpha_grid: Sequence[float]) -> CgfCurve:
        """Evaluate Psi, Psi', Psi'' on an increasing grid below alpha0."""
        grid = np.asarray(alpha_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("alpha grid must be a nonempty 1-d sequence")
        if grid.size > 1 and not (np.diff(grid) > 0.0).all():
            raise DomainError("alpha grid must be strictly increasing")
        h = np.maximum(PSI2_BASE_STEP, np.abs(grid) * 1e-7)
        bad = np.flatnonzero(~(grid + h < self.alpha0 - DOMAIN_TOL))
        if bad.size:
            raise DomainError(
                f"grid points at indices {bad.tolist()} (values {grid[bad].tolist()}) are "
                f"not below alpha0={self.alpha0!r} with the required margin"
            )
        psi = np.array([self.scgf(a) for a in grid])
        pairs = [self.scgf_derivatives(a) for a in grid]
        psi1 = np.array([p[0] for p in pairs])
        psi2 = np.array([p[1] for p in pairs])
        return CgfCurve(alpha_grid=grid, psi=psi, psi1=psi1, psi2=psi2, alpha0=self.alpha0)


# ---------------------------------------------------------------------------
# Direct series route (the cross-check of the resolvent form)
# ---------------------------------------------------------------------------

def first_return_series(
    recoded: RecodedSystem, S: float, n_terms: int
) -> tuple[np.ndarray, float]:
    """Direct truncated series sum_{p <= n_terms} exp(-pS) F_p with a tail bound.

    F_p is the weight matrix of first-return paths of duration p, built by
    iterated products through the complement; the certified bound covers the
    omitted entries.  This is the series route against which the resolvent
    form of R(S) is validated.
    """
    M = recoded.weight_matrix()
    A = np.array(recoded.target_blocks, dtype=int)
    C = np.array(recoded.complement_blocks, dtype=int)
    Maa = M[np.ix_(A, A)]
    Mac = M[np.ix_(A, C)]
    Mca = M[np.ix_(C, A)]
    Mcc = M[np.ix_(C, C)]
    t = float(np.exp(-S))
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
