"""Perron eigendata of nonnegative matrices: one dense eigensolve, polished by inverse iteration.

For an irreducible nonnegative M every eigenvalue lambda has |lambda| <= rho,
so the eigenvalue of largest real part is the Perron root rho, periodic or
not (Horn & Johnson, Matrix Analysis, 8.3-8.4).  One ``np.linalg.eig`` call
seeds it; the pair is then polished by inverse iteration with the shift
sigma = rho (1 + POLISH_SHIFT) (Golub & Van Loan, 7.6.1).  For sigma > rho,
sigma I - M is a nonsingular M-matrix and, M being irreducible, its inverse
is entrywise positive, so every polished vector is strictly positive by
structure: the right one from the seed's eigenvector, the left one from the
ones vector.  Each solve damps the other eigen-directions by
|sigma - rho| / |sigma - lambda|; the polish stops when the joint residual
of the normalized pair passes RESIDUAL_TOL, one right and two left solves in
all but near-reducible cases, and rho = u M v with u.v = 1.

The solve runs on a stack of matrices (k, n, n) in one pass of stacked
``eig``, ``solve`` and ``@`` calls, which work slice by slice, so every
slice gets exactly the numbers it gets alone; slices polish in lockstep and
leave the stack as they converge.  The right and the left solves of a
round share one stacked solve on A over A^T.  A single matrix is the stack
of one.  A stack with a failing slice raises that slice's error; its one
stacked caller, ``ReturnOperator.solve``, then memoizes nothing, and each S
is solved alone when it is asked for.

The exact oracle's horizon loop runs over growing blocks of products
(:func:`_product_blocks`), one product a Python step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .system import strongly_connected_components

RESIDUAL_TOL = 1e-12
POLISH_SHIFT = 1e-10
# a gap g below the shift damps by 1/(1 + g / shift) per solve, but then the
# residual is near g anyway: two 3-cliques joined by 1e-11 need 25 solves
MAX_SOLVES = 33
BLOCK_STEPS = 64  # the longest block of products read off at once,
BLOCK_BYTES = 1 << 18  # and its largest size
_TINY = np.finfo(float).tiny
_NON_FINITE = "matrix has non-finite entries; no Perron data exists"


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with positive right/left vectors, normalized u.v = 1.

    The right vector is scaled to unit maximum entry.  ``residual`` is the
    worst relative eigen-equation defect of the two vectors, ``iterations``
    the number of inverse-iteration solves.
    """

    rho: float
    right_vec: np.ndarray
    left_vec: np.ndarray
    iterations: int
    residual: float


def _inverse_step(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = np.linalg.solve(A, x)
    return y / np.abs(y).max(axis=1, keepdims=True)


def _positivity_error(M: np.ndarray) -> NumericError:
    if len(strongly_connected_components(M > 0.0)) == 1:
        return NumericError(
            "Perron vectors are not strictly positive: the matrix is irreducible, but "
            "its Perron vector spans more orders of magnitude than double precision resolves"
        )
    return NumericError("Perron vectors are not strictly positive; matrix not irreducible")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _perron_pass(M: np.ndarray) -> tuple:
    """The pass of :func:`perron_stack`, which :func:`perron_eigendata` calls directly.

    It runs under one ``np.errstate``: a zero, an inf or a nan it makes fails
    the positivity, finiteness or residual checks below, which raise.

    W stacks the right vectors over the left ones, all as columns (2k, n, 1),
    so one stacked solve on A over A^T polishes both, and one reduction
    checks their signs.  The left vectors are read as rows (k, 1, n) through
    a transposed view, so every product is a plain stacked ``@``; per-slice
    scalars are checked as Python floats, whose arithmetic is the same IEEE
    double arithmetic.
    """
    k, n = M.shape[0], M.shape[-1]
    if n == 1:
        rho = M[:, 0, 0].tolist()
        if not all(math.isfinite(r) for r in rho):
            raise NumericError(_NON_FINITE)
        if not all(r > 0.0 for r in rho):
            raise NumericError("1x1 matrix with nonpositive entry has no Perron data")
        ones = np.ones((2, k, 1))
        return rho, ones[0], ones[1], [0] * k, [0.0] * k
    try:
        eigenvalues, vectors = np.linalg.eig(M)  # raises on non-finite entries
        slices = np.arange(k)
        top = eigenvalues.real.argmax(axis=1)
        seed = eigenvalues.real.max(axis=1)
        for i, dominant in enumerate(seed.tolist()):
            if not _TINY < dominant < np.inf:
                if not M[i].max() > 0.0:  # a nonnegative matrix with no positive entry is 0
                    raise NumericError("matrix has no positive entry; no Perron data exists")
                raise NumericError(
                    f"dominant eigenvalue {dominant!r} is not a positive normal float; "
                    "the matrix is effectively nilpotent or its scale is out of range"
                )
        A = np.eye(n) * (seed * (1.0 + POLISH_SHIFT))[:, np.newaxis, np.newaxis]
        A -= M
        # the right solve (on A) and the second left one (on A^T) go in one stacked solve
        pair = np.concatenate([A, A.swapaxes(1, 2)])
        first_left = _inverse_step(pair[k:], np.ones((k, n, 1)))
        seeds = np.abs(vectors[slices, :, top].real)[..., np.newaxis]
        W = _inverse_step(pair, np.concatenate([seeds, first_left]))
        solves, parts = 3, []
        while True:
            if not W.min() > 0.0:
                lows = W.min(axis=1)[:, 0]
                positive = np.minimum(lows[:len(slices)], lows[len(slices):]) > 0.0
                raise _positivity_error(M[np.argmin(positive)])
            v, u = W[:len(slices)], W[len(slices):].swapaxes(1, 2)
            # a positive y / max|y| peaks at exactly 1.0: v needs no rescaling, and since
            # rounding is monotone, u / (u.v) peaks at exactly 1.0 / (u.v)
            dot = u @ v
            u /= dot  # in W, which the next polish solves on
            Mv = M @ v
            rho = u @ Mv
            # the peak defects of the right and the left equation in one reduction
            defects = np.abs(np.concatenate([Mv - rho * v, (u @ M - rho * u).swapaxes(1, 2)], axis=2))
            rhos = rho.ravel().tolist()
            rows = zip(defects.max(axis=1).tolist(), dot.ravel().tolist(), rhos)
            resid = [max(right, left / (1.0 / d)) / r for (right, left), d, r in rows]
            converged = [r <= RESIDUAL_TOL for r in resid]
            if all(converged):
                parts.append((slices, rhos, v, u, resid, solves))
                break
            if solves >= MAX_SOLVES:
                raise NumericError(f"Perron residual {resid[converged.index(False)]:.3e} exceeds tolerance")
            if any(converged):
                done = np.array(converged)
                kept = [r for r, c in zip(rhos, converged) if c], [r for r, c in zip(resid, converged) if c]
                parts.append((slices[done], kept[0], v[done], u[done], kept[1], solves))
                polish = np.concatenate([~done, ~done])
                slices, M, W, pair = slices[~done], M[~done], W[polish], pair[polish]
            W = _inverse_step(pair, W)
            solves += 2
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(M).all():
            raise NumericError(_NON_FINITE) from exc
        raise NumericError(f"Perron eigensolve failed: {exc}") from exc
    if len(parts) == 1:
        _, rhos, v, u, resid, solves = parts[0]
        return rhos, v[..., 0], u[:, 0], [solves] * k, resid
    # slices that converged in different rounds, back in stack order
    order = np.argsort(np.concatenate([part[0] for part in parts]))
    v, u = (np.concatenate([part[i] for part in parts])[order] for i in (2, 3))
    rhos, resid = ([r for part in parts for r in part[i]] for i in (1, 4))
    iterations = [part[5] for part in parts for _ in part[4]]
    order = order.tolist()
    return (
        [rhos[i] for i in order], v[..., 0], u[:, 0],
        [iterations[i] for i in order], [resid[i] for i in order],
    )


def perron_stack(M: np.ndarray) -> tuple:
    """Perron data of each matrix of a stack (k, n, n), in one pass of stacked LAPACK calls.

    Returns each slice's rho as a list, the right and left vectors as arrays
    with the stack's leading axis, and each slice's iterations and residual
    as lists: the fields of :class:`PerronData`, in order.  Every call works slice by slice, and
    stacked ``solve``, ``eig`` and products give each slice exactly the
    numbers it gets alone, so a slice's data do not depend on the stack it
    came in.  Slices polish in lockstep; a converged one leaves the stack.
    If a slice fails, the pass raises the :class:`NumericError` of the first
    failing slice it meets.
    """
    return _perron_pass(np.asarray(M, dtype=float))


def perron_eigendata(M: np.ndarray) -> PerronData:
    """Perron root and positive left/right vectors of an irreducible nonnegative matrix.

    The one-matrix case of :func:`perron_stack`: a stack of one runs its pass directly.
    """
    rho, right, left, iterations, residual = _perron_pass(np.asarray(M, dtype=float)[np.newaxis])
    return PerronData(rho[0], right[0], left[0], iterations[0], residual[0])


def spectral_radius_reducible(M: np.ndarray, adj: np.ndarray) -> tuple[float, list[list[int]]]:
    """Spectral radius of a possibly reducible nonnegative matrix, with the components of ``adj``.

    The components are the strongly connected components of the graph
    ``adj``, the structure M's weights sit on.  The radius is the maximum of
    the radii of the components of M > 0, which are the same unless a weight
    underflowed to zero; a trivial component (single state without a self
    loop) contributes zero.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0, []
    comps = strongly_connected_components(adj)
    radius = 0.0
    for comp in comps if np.array_equal(M > 0.0, adj) else strongly_connected_components(M > 0.0):
        if len(comp) == 1:
            i = comp[0]
            radius = max(radius, float(M[i, i]))
        else:
            sub = M[np.ix_(comp, comp)]
            radius = max(radius, perron_eigendata(sub).rho)
    return radius, comps


def _product_blocks(first: np.ndarray, X: np.ndarray):
    """first X, first X^2, ... without end, in blocks, one ``np.matmul`` a product.

    The blocks grow 8, 8, 16, 32 products, then stay at BLOCK_STEPS, or at
    the largest power of two that fits BLOCK_BYTES, so a search that stops
    early wastes at most as many products as it used.  Each block is a view
    into one buffer that the next block overwrites; everything else is read
    off it in a few array operations.
    """
    shape = (first.shape[0], X.shape[1])
    fits = BLOCK_BYTES // (8 * max(shape[0] * shape[1], 1))
    most = min(BLOCK_STEPS, 1 << max(fits.bit_length() - 1, 0))
    buf, prev, done = np.empty((0,) + shape), first, 0
    while True:
        size = min(max(done, 8), most)
        if buf.shape[0] < size:
            buf = np.empty((size,) + shape)
            rows = list(buf)  # views made once: a view costs a fifth of a small product
        np.matmul(prev, X, out=rows[0])
        for i in range(1, size):
            np.matmul(rows[i - 1], X, out=rows[i])
        yield buf[:size]
        prev, done = rows[size - 1], done + size
