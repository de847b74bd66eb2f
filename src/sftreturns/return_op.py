"""Induced first-return transfer operator and the scaled CGF of return times.

For a parameter S the operator is the finite matrix over target states

    R(S) = W_AA + W_AC (I - W_CC)^{-1} W_CA,     W = exp(-S) M,

summing exp(Birkhoff sum - S * duration) over first-return paths (A target
states, C complement).  The series converges exactly for S above the
critical parameter S_c, which equals the pressure of the target-avoiding
subshift.  The scaled cumulant generating function of n-th return times is
Psi(alpha) = log lambda(P - alpha), where lambda(S) is the Perron root of
R(S) and P the full pressure.  Psi is analytic, and one evaluation of R(S)
gives both derivatives in closed form by Perron perturbation (Kato,
Perturbation Theory for Linear Operators, II.2): lambda' = m R' h and
lambda'' = m R'' h + 2 m R' G R' h, with G = (lambda (I + h m) - R)^{-1} - h m / lambda
the group inverse of lambda I - R (Meyer, SIAM Rev. 1975).

Every R(S) request passes through ``ReturnOperator.eval``, which memoizes
the solve keyed by the exact float S, so each R(S), and each pair of
eigenvalue derivatives, is computed once per operator; the blocks of M are
sliced once, at the first evaluation, and only scaled by exp(shift - S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError
from .perron import perron_eigendata
from .system import RecodedSystem, return_time_bounds
from .thermo import restricted_spectrum

CRITICAL_MARGIN = 1e-8
DOMAIN_TOL = 1e-8


@dataclass(frozen=True)
class ReturnOperatorEval:
    """R(S) with its Perron data; m_vec . h_vec = 1 and h_vec has unit peak.

    ``X`` is (I - W_CC)^{-1} W_CA, which the derivatives reuse.  The arrays
    are read-only, since the operator's memo hands the same ones to every
    request for S.
    """

    R: np.ndarray
    lam: float
    h_vec: np.ndarray
    m_vec: np.ndarray
    X: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.R, self.h_vec, self.m_vec, self.X):
            arr.setflags(write=False)


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
    """Curve provider: caches the full Perron pair, pressure, critical parameter and block structure.

    Evaluations are memoized by the exact float S: :meth:`eval` solves R(S)
    and its Perron pair once and returns the same read-only
    :class:`ReturnOperatorEval` to every later request for S, and
    :meth:`eval_with_derivative` completes that entry with lambda' and
    lambda'' once, from the memoized ``X``, without solving R(S) again.
    The parameter is still checked on every request.
    """

    def __init__(self, recoded: RecodedSystem) -> None:
        self.recoded = recoded
        self._M = recoded.weight_matrix()
        data = self.perron = perron_eigendata(self._M)
        self.pressure = float(np.log(data.rho)) + recoded.weight_shift
        self.right_vec = data.right_vec
        stationary = data.left_vec * data.right_vec
        self._stationary = stationary / stationary.sum()
        self.s_critical, self.restricted_components = restricted_spectrum(recoded, data)
        self.alpha0 = self.pressure - self.s_critical
        self.target = tuple(recoded.target_blocks)
        self._A = np.array(self.target, dtype=int)
        self._C = np.array(recoded.complement_blocks, dtype=int)
        self.mu_target = float(self._stationary[self._A].sum())
        # max_cycle_mean is finite only when return times are bounded (acyclic
        # complement); then it caps the attainable range of Psi'
        self.minimal_return, self.min_cycle_mean, self.max_cycle_mean = return_time_bounds(recoded)
        if self.max_cycle_mean is None and not np.isfinite(self.s_critical):
            raise NumericError(
                "the target complement has a cycle, but every cycle weight underflows: "
                "the restricted pressure lies below double range"
            )
        self._evals: dict[float, ReturnOperatorEval] = {}
        self._derivatives: dict[float, tuple[float, float]] = {}

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

    @cached_property
    def _sliced(self) -> tuple[np.ndarray, ...]:
        """M_AA, M_AC, M_CA, M_CC and the complement identity, sliced at the first evaluation."""
        A, C = self._A, self._C
        M = self._M
        return M[np.ix_(A, A)], M[np.ix_(A, C)], M[np.ix_(C, A)], M[np.ix_(C, C)], np.eye(C.size)

    def _blocks(self, S: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """W_AA, W_AC, W_CA and W_CC at S."""
        Maa, Mac, Mca, Mcc, _ = self._sliced
        t = np.exp(self.recoded.weight_shift - S)
        return t * Maa, t * Mac, t * Mca, t * Mcc

    def _resolvent(self, Wcc: np.ndarray) -> np.ndarray:
        return self._sliced[4] - Wcc

    def eval(self, S: float) -> ReturnOperatorEval:
        """Return operator R(S) with Perron data, solved once per S; requires S safely above S_c."""
        self._check_parameter(S)
        ev = self._evals.get(S)
        if ev is None:
            Waa, Wac, Wca, Wcc = self._blocks(S)
            X = np.linalg.solve(self._resolvent(Wcc), Wca)
            R = Waa + Wac @ X
            data = perron_eigendata(R)
            ev = ReturnOperatorEval(R=R, lam=data.rho, h_vec=data.right_vec, m_vec=data.left_vec, X=X)
            self._evals[S] = ev
        return ev

    def eval_with_derivative(self, S: float) -> tuple[ReturnOperatorEval, float, float]:
        """R(S) eigendata plus the analytic derivatives lambda'(S) and lambda''(S).

        With B = W_AC, C = W_CA and K = (I - W_CC)^{-1}, R' = -(W_AA + B K C)
        - B K^2 C and R'' = W_AA + B (2 K^3 + K^2 + K) C.  For the normalized
        Perron pair, lambda' = m R' h and lambda'' = m R'' h + 2 m R' G R' h,
        where G R' h = y - h lambda' / lambda with (lambda (I + h m) - R) y = R' h.
        The rank-one term is scaled by lambda so that the solve stays as well
        conditioned as lambda I - R off h when lambda is far from 1.  Both
        derivatives are memoized with the evaluation.
        """
        ev = self.eval(S)
        derivatives = self._derivatives.get(S)
        if derivatives is None:
            Waa, Wac, _, Wcc = self._blocks(S)
            resolvent = self._resolvent(Wcc)  # the complement is never empty
            X = ev.X
            X2 = np.linalg.solve(resolvent, X)
            X3 = np.linalg.solve(resolvent, X2)
            R_prime = -(Waa + Wac @ X) - Wac @ X2
            R_second = Waa + Wac @ (2.0 * X3 + X2 + X)
            h, m = ev.h_vec, ev.m_vec
            lam_prime = float(m @ R_prime @ h)
            y = np.linalg.solve(ev.lam * (np.eye(h.size) + np.outer(h, m)) - ev.R, R_prime @ h)
            lam_second = float(m @ R_second @ h + 2.0 * (m @ R_prime @ y - lam_prime * lam_prime / ev.lam))
            derivatives = self._derivatives[S] = (lam_prime, lam_second)
        return (ev, *derivatives)

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
        ev, lam_prime, _ = self.eval_with_derivative(self.pressure - alpha)
        return -lam_prime / ev.lam

    def scgf_and_derivatives(self, alpha: float) -> tuple[float, float, float]:
        """(Psi, Psi', Psi'') at alpha from one evaluation, Psi'' = lambda''/lambda - Psi'^2;
        both derivatives are checked to be positive."""
        self._check_alpha(alpha)
        ev, lam_prime, lam_second = self.eval_with_derivative(self.pressure - alpha)
        psi1 = -lam_prime / ev.lam
        psi2 = lam_second / ev.lam - psi1 * psi1
        if psi1 <= 0.0:
            raise NumericError(f"Psi'({alpha}) = {psi1} is not positive")
        if psi2 <= 0.0:
            raise NumericError(
                f"Psi''({alpha}) = {psi2} is not positive; the instance may have "
                "degenerate (deterministic) return times"
            )
        return float(np.log(ev.lam)), psi1, psi2

    def scgf_derivatives(self, alpha: float) -> tuple[float, float]:
        """(Psi'(alpha), Psi''(alpha)) from one evaluation; both are checked to be positive."""
        return self.scgf_and_derivatives(alpha)[1:]

    def curve(self, alpha_grid: Sequence[float]) -> CgfCurve:
        """Evaluate Psi, Psi', Psi'' on an increasing grid below alpha0."""
        grid = np.asarray(alpha_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("alpha grid must be a nonempty 1-d sequence")
        if grid.size > 1 and not (np.diff(grid) > 0.0).all():
            raise DomainError("alpha grid must be strictly increasing")
        bad = np.flatnonzero(~(grid < self.alpha0 - DOMAIN_TOL))
        if bad.size:
            raise DomainError(
                f"grid points at indices {bad.tolist()} (values {grid[bad].tolist()}) are "
                f"not below alpha0={self.alpha0!r} with the required margin {DOMAIN_TOL}"
            )
        psi, psi1, psi2 = np.array([self.scgf_and_derivatives(a) for a in grid]).T
        return CgfCurve(alpha_grid=grid, psi=psi, psi1=psi1, psi2=psi2)
