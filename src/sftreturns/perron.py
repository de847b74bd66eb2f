"""Perron eigendata of nonnegative matrices by shifted power iteration.

The iteration runs on M + I: for a nonnegative M the shift is exact
(spectral radius and Perron vectors are shared, shifted by one), and it
makes the iteration converge for periodic irreducible matrices.  Stopping
is on successive Rayleigh quotients differing by less than 1e-14 relative,
with a residual check on top; the iteration cap is 10^6.

Tail certificates search for a power of X with max-rowsum <= 1/2, which
cannot exist when rho(X) >= 1: a Collatz-Wielandt lower bound on rho(X)
(Horn & Johnson, Matrix Analysis, 8.1) stops such searches early.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .system import strongly_connected_components

RAYLEIGH_TOL = 1e-14
RESIDUAL_TOL = 1e-12
MAX_ITER = 10**6
CW_CHECK_STEPS = 64


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with positive right/left vectors, normalized u.v = 1.

    The right vector is scaled to unit maximum entry.  ``residual`` is the
    worst relative eigen-equation defect of the two vectors.
    """

    rho: float
    right_vec: np.ndarray
    left_vec: np.ndarray
    iterations: int
    residual: float


def _power_vector(M: np.ndarray, residual_tol: float) -> tuple[np.ndarray, float, int]:
    """Perron vector and root of an irreducible nonnegative M, via M/s + I.

    The unit shift is applied to the max-entry-normalized matrix so that it
    stays comparable to the spectrum at any scale (a fixed absolute shift
    would erase the spectral gap of matrices with tiny entries).  The shift
    is exact: Perron vectors are shared and the root just rescales.  The
    Rayleigh quotient stop is combined with a residual gate measured on M
    itself, relative to the unshifted root.
    """
    n = M.shape[0]
    scale = float(M.max())
    if not scale > 0.0:
        raise NumericError("matrix has no positive entry; no Perron data exists")
    A = M / scale + np.eye(n)
    v = np.ones(n)
    rayleigh = float(v @ A @ v) / float(v @ v)
    history = [rayleigh]
    stale = 0
    for it in range(1, MAX_ITER + 1):
        w = A @ v
        peak = w.max()
        if peak <= 0.0 or not np.isfinite(peak):
            raise NumericError("power iteration collapsed; matrix is not irreducible nonnegative")
        v = w / peak
        new_rayleigh = float(v @ A @ v) / float(v @ v)
        done = abs(new_rayleigh - rayleigh) < RAYLEIGH_TOL * abs(new_rayleigh)
        rayleigh = new_rayleigh
        if done:
            rho = scale * (rayleigh - 1.0)
            if rho > 0.0:
                resid = np.abs(M @ v - rho * v).max() / (rho * v.max())
                if resid <= residual_tol:
                    return v, rho, it
            stale += 1
            if stale > 64 and not rho > 0.0:
                raise NumericError(
                    "dominant eigenvalue is numerically zero; matrix effectively nilpotent"
                )
        history.append(rayleigh)
    raise NumericError(
        "power iteration did not converge within "
        f"{MAX_ITER} iterations; last Rayleigh quotients: {history[-5:]}"
    )


def perron_eigendata(M: np.ndarray) -> PerronData:
    """Perron root and positive left/right vectors of an irreducible nonnegative matrix."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        rho = float(M[0, 0])
        if rho <= 0.0:
            raise NumericError("1x1 matrix with nonpositive entry has no Perron data")
        return PerronData(rho, np.ones(1), np.ones(1), 0, 0.0)
    # each side converges past the final gate so the joint residual has slack
    v, rho_r, it_r = _power_vector(M, RESIDUAL_TOL / 8.0)
    u, rho_l, it_l = _power_vector(M.T, RESIDUAL_TOL / 8.0)
    rho = 0.5 * (rho_r + rho_l)
    if v.min() <= 0.0 or u.min() <= 0.0:
        raise NumericError("Perron vectors are not strictly positive; matrix not irreducible")
    v = v / v.max()
    u = u / float(u @ v)
    resid = max(
        np.abs(M @ v - rho * v).max() / (rho * v.max()),
        np.abs(u @ M - rho * u).max() / (rho * u.max()),
    )
    if resid > RESIDUAL_TOL:
        raise NumericError(f"Perron residual {resid:.3e} exceeds tolerance")
    return PerronData(rho, v, u, it_r + it_l, float(resid))


def spectral_radius_reducible(M: np.ndarray) -> tuple[float, list[list[int]]]:
    """Spectral radius of a possibly reducible nonnegative matrix.

    Decomposes into strongly connected components and takes the maximum of
    the component radii; a trivial component (single state without a self
    loop) contributes zero.  Returns the radius and the component list.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0, []
    comps = strongly_connected_components(M > 0.0)
    radius = 0.0
    for comp in comps:
        if len(comp) == 1:
            i = comp[0]
            radius = max(radius, float(M[i, i]))
        else:
            sub = M[np.ix_(comp, comp)]
            radius = max(radius, perron_eigendata(sub).rho)
    return radius, comps


def _contraction(X: np.ndarray, max_steps: int = 4096) -> tuple[int, float]:
    """Smallest k <= max_steps with beta = max-rowsum(X^k) <= 1/2, and that beta.

    Raises :class:`NumericError` if there is none within the cap, if the powers
    overflow, or after CW_CHECK_STEPS steps if min_{x_i > 0} (X x)_i / x_i,
    x = |dominant eigenvector|, a lower bound on rho(X), exceeds 1.
    """
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


def _geometric_sum(X: np.ndarray, V: np.ndarray, k: int, beta: float) -> float:
    """sum_{j<k} max-rowsum(V @ X^j) / (1 - beta), given the contraction (k, beta) of X."""
    prefix = 0.0
    for _ in range(k):
        prefix += float(V.sum(axis=1).max())
        V = V @ X
    return prefix / (1.0 - beta)


def powered_rowsum_bound(X: np.ndarray, V: np.ndarray, max_contraction_steps: int = 4096) -> float:
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
