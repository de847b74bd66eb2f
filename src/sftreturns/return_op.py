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

Every R(S) is solved by ``ReturnOperator.solve``, which memoizes one
record per exact float S: R(S), its Perron pair and lambda', lambda'', so
each is computed once per operator; M is reordered once, target states
first, at the first evaluation, and each request scales it by
exp(shift - S) in one product whose blocks are views.  ``solve`` takes a
whole request of S and solves those not yet memoized in one stacked pass:
the blocks, R(S), the Perron pairs (:func:`perron_stack`) and the
derivatives carry a leading axis of S through stacked ``np.linalg.solve``,
``eig`` and ``@`` calls, which give every slice exactly the numbers it gets
alone.  ``solve`` never raises: it leaves out an S that fails the parameter
check, and a pass that fails memoizes nothing.  ``eval`` solves an S not
yet memoized alone and raises that S's own error, so a request changes how
many passes the records take, never a value or an error.  So
:meth:`ReturnOperator.curve` solves its grid in one pass, and a caller that
can name S before it needs them solves them up front in one pass with
:meth:`ReturnOperator.solve_ahead`: the commands do so for alpha 0, their
alpha grid, the oracle tilts and the rate searches' opening asks, and later
requests read the records off the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, SftReturnsError
from .perron import perron_eigendata, perron_stack
from .system import RecodedSystem, return_time_bounds
from .thermo import restricted_spectrum

CRITICAL_MARGIN = 1e-8
DOMAIN_TOL = 1e-8


@dataclass(frozen=True)
class ReturnOperatorEval:
    """R(S), its Perron data and lambda'(S), lambda''(S); m_vec . h_vec = 1 and h_vec has unit peak.

    The arrays are read-only, since the operator's memo hands the same ones
    to every request for S.
    """

    R: np.ndarray
    lam: float
    h_vec: np.ndarray
    m_vec: np.ndarray
    lam_prime: float
    lam_second: float


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

    Evaluations are memoized by the exact float S, in one memo: :meth:`solve`
    solves R(S), its Perron pair, lambda' and lambda'' once, stacked with the
    other new S of its request, and :meth:`eval` returns the same read-only
    :class:`ReturnOperatorEval` to every later request for S.  The parameter
    is checked once, when S is first solved.
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

    # -- evaluation --------------------------------------------------------

    def _check_parameter(self, S: float) -> None:
        if not math.isfinite(S):
            raise DomainError(f"operator parameter must be finite, got {S!r}")
        ratio = np.exp(self.s_critical - S) if math.isfinite(self.s_critical) else 0.0
        if not ratio <= 1.0 - CRITICAL_MARGIN:
            raise DomainError(
                f"parameter S={S!r} at or below critical value S_c={self.s_critical!r}: "
                "the first-return series does not converge"
            )

    @cached_property
    def _sliced(self) -> tuple[np.ndarray, np.ndarray]:
        """M with the target states first, and the complement identity, made at the first evaluation."""
        order = np.concatenate([self._A, self._C])
        return self._M[np.ix_(order, order)], np.eye(self._C.size)

    def _blocks(self, S: float | Sequence[float]) -> tuple[np.ndarray, ...]:
        """W_AA, W_AC, W_CA and the resolvent I - W_CC at S, stacked along a first axis for a sequence of S.

        W is scaled in one product and the blocks are views of it.
        """
        M, identity = self._sliced
        a = self._A.size
        W = np.exp(self.recoded.weight_shift - np.asarray(S, dtype=float))[..., np.newaxis, np.newaxis] * M
        return W[..., :a, :a], W[..., :a, a:], W[..., a:, :a], identity - W[..., a:, a:]

    def solve(self, S_values: Sequence[float]) -> None:
        """Memoize R(S), its Perron pair, lambda' and lambda'' for a request's S in one pass; never raises.

        An S already memoized or failing the parameter check is left out, and
        an S repeated in the request is solved once.  A pass that fails
        memoizes nothing, so a later :meth:`eval` solves each of its S alone
        and raises that S's own error: a request changes how many passes the
        records take, never a value or an error.
        """
        todo = []
        for S in dict.fromkeys(S_values):
            if S not in self._evals:
                try:
                    self._check_parameter(S)
                except DomainError:
                    continue
                todo.append(S)
        if todo:
            try:
                self._pass(todo)
            except (SftReturnsError, np.linalg.LinAlgError):
                pass

    def _pass(self, todo: list[float]) -> None:
        """Memoize the records of ``todo``, checked S not yet memoized, in one stacked pass, or raise.

        With B = W_AC, C = W_CA and K = (I - W_CC)^{-1}, R' = -R - B K^2 C
        reuses R = W_AA + B K C bit for bit, and R'' = W_AA + B (2 K^3 + K^2 + K) C.
        In lambda'', m R' G R' h = m R' y - lambda'^2 / lambda with
        (lambda (I + h m) - R) y = R' h, whose rank-one term is scaled by lambda
        so that the solve stays as well conditioned as lambda I - R off h.
        """
        # a scale past double range leaves inf or nan in R, which perron_stack rejects
        with np.errstate(over="ignore", invalid="ignore"):
            Waa, Wac, Wca, resolvent = self._blocks(todo)
            X = np.linalg.solve(resolvent, Wca)
            R = Waa + Wac @ X
        lam, h, m, _, _ = perron_stack(R)
        for arr in (R, h, m):
            arr.setflags(write=False)  # the memo hands the same arrays to every request for S
        X2 = np.linalg.solve(resolvent, X)
        X3 = np.linalg.solve(resolvent, X2)
        R_prime = -R - Wac @ X2
        R_second = Waa + Wac @ (2.0 * X3 + X2 + X)
        h_col, m_row = h[..., np.newaxis], m[:, np.newaxis]
        m_R_prime = m_row @ R_prime
        lam3 = np.array(lam)[:, np.newaxis, np.newaxis]
        y = np.linalg.solve(lam3 * (np.eye(h.shape[1]) + h_col * m_row) - R, R_prime @ h_col)
        terms = (m_R_prime @ h_col, m_row @ R_second @ h_col, m_R_prime @ y)
        rows = zip(todo, lam, h, m, R, *(t.ravel().tolist() for t in terms))
        for S, lam_S, h_S, m_S, R_S, lam_prime, m_R_second_h, m_R_prime_y in rows:
            lam_second = m_R_second_h + 2.0 * (m_R_prime_y - lam_prime * lam_prime / lam_S)
            self._evals[S] = ReturnOperatorEval(R_S, lam_S, h_S, m_S, lam_prime, lam_second)

    def solve_ahead(self, alphas: Sequence[float]) -> None:
        """Memoize R(P - alpha) for alphas a caller names before it needs them: :meth:`solve` at P - alpha."""
        self.solve([self.pressure - alpha for alpha in alphas])

    def eval(self, S: float) -> ReturnOperatorEval:
        """R(S) with its Perron data and derivatives, solved once per S; requires S safely above S_c.

        An S not yet memoized is checked and solved alone, and raises its own error.
        """
        ev = self._evals.get(S)
        if ev is None:
            self._check_parameter(S)
            self._pass([S])
            ev = self._evals[S]
        return ev

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
        ev = self.eval(self.pressure - alpha)
        return -ev.lam_prime / ev.lam

    def scgf_and_derivatives(self, alpha: float) -> tuple[float, float, float]:
        """(Psi, Psi', Psi'') at alpha from one evaluation, Psi'' = lambda''/lambda - Psi'^2;
        both derivatives are checked to be positive."""
        self._check_alpha(alpha)
        ev = self.eval(self.pressure - alpha)
        psi1 = -ev.lam_prime / ev.lam
        psi2 = ev.lam_second / ev.lam - psi1 * psi1
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
        self.solve((self.pressure - grid).tolist())  # each point below meets its own failure, in grid order
        psi, psi1, psi2 = np.array([self.scgf_and_derivatives(a) for a in grid]).T
        return CgfCurve(alpha_grid=grid, psi=psi, psi1=psi1, psi2=psi2)
