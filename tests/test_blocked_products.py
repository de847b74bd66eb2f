"""The blocked horizon search of the exact oracle against its per-step reference.

The horizon search ``oracle._horizon`` behind ``first_return_law`` computes
one product per step and reads everything else off blocks of products.
Every output must equal the per-step loop of ``references`` bit for bit: the
same kernels, tail bound, V and tilt certificate at the stop, and the same
messages when a search fails.
"""

import re
import tracemalloc

import numpy as np
import pytest

import references as ref
from sftreturns import NumericError, oracle
from sftreturns.perron import BLOCK_STEPS

# the first and last t of the blocks of V_t: t = 1, then 8, 8, 16, 32, 64 and 64 products
BLOCK_EDGES = (1, 2, 9, 10, 17, 18, 33, 34, 65, 66, 129, 130, 193, 194)


def outcome(f, *args):
    """f(*args), or the message of the NumericError it raises."""
    try:
        return f(*args)
    except NumericError as exc:
        return str(exc)


def stochastic(rng, n, density=1.0):
    """A random row-stochastic n x n matrix with a cycle through every state."""
    P = rng.random((n, n)) * (rng.random((n, n)) < density)
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.05
    return P / P.sum(axis=1, keepdims=True)


def split(P, targets):
    A = list(targets)
    C = [i for i in range(P.shape[0]) if i not in A]
    return [P[np.ix_(rows, cols)] for rows, cols in ((A, A), (A, C), (C, A), (C, C))]


def tilt_limit(P, targets):
    """-log rho(P_cc), the tilt at which the tilted complement stops contracting."""
    rho = float(np.abs(np.linalg.eigvals(split(P, targets)[3])).max())
    return -np.log(rho) if rho > 0.0 else 3.0


def blocked_horizon(P, targets, tol, alpha_max):
    """``oracle._horizon``: (kernels, tail, V_(t_max), certificate or None), as ``ref.horizon``."""
    return oracle._horizon(*split(P, targets), tol, alpha_max)


def horizon_bits(run, P, targets, tol, alpha_max):
    result = outcome(run, P, targets, tol, alpha_max)
    if isinstance(result, str):
        return result
    kernels, tail, v, w = result
    certificate = None if w is None else w.tobytes()
    return kernels.shape, kernels.tobytes(), tail.hex(), v.shape, v.tobytes(), certificate


def assert_horizon_matches(P, targets, tol, alpha_max):
    expected = horizon_bits(ref.horizon, P, targets, tol, alpha_max)
    assert horizon_bits(blocked_horizon, P, targets, tol, alpha_max) == expected
    return expected


def geometric_chain(T):
    """Two states, target {0}, left with probability s: r_t = s^t, first <= 1e-12 at t = T."""
    stay = 1e-12 ** (1.0 / (T - 0.5))
    return np.array([[1.0 - stay, stay], [1.0 - stay, stay]])


class TestHorizon:
    def test_random_chains(self):
        rng = np.random.default_rng(20261019)
        seen = {"failed tilt": 0, "untilted": 0, "tilted": 0, "edge": 0}
        for _ in range(240):
            n = int(rng.integers(2, 11))
            P = stochastic(rng, n, rng.uniform(0.3, 1.0))
            targets = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()))
            P[:, list(targets)] *= rng.choice([1.0, 0.3, 0.1])
            P /= P.sum(axis=1, keepdims=True)
            fraction = float(rng.choice([0.0, 0.3, 0.6, 0.9, 1.1]))
            tol = float(rng.choice([1e-12, 1e-9]))
            result = assert_horizon_matches(P, targets, tol, fraction * tilt_limit(P, targets))
            if isinstance(result, str):
                seen["failed tilt"] += 1
            else:
                seen["tilted" if result[-1] else "untilted"] += 1
                seen["edge"] += result[0][0] in BLOCK_EDGES
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("T", BLOCK_EDGES)
    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_stop_at_block_edges(self, T, fraction):
        P = geometric_chain(T)
        kernels = assert_horizon_matches(P, (0,), 1e-12, fraction * tilt_limit(P, (0,)))[0]
        if fraction == 0.0:
            assert kernels[0] == T

    def test_target_complement_unreachable(self):
        # V_1 = P_ac = 0: the law stops at t = 1 without solving a certificate
        P = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        shape, *_, certificate = assert_horizon_matches(P, (0,), 1e-12, 0.5)
        assert shape[0] == 1 and certificate is None

    def test_complement_paths_die_out(self):
        # an acyclic complement: V_3 = 0, so the tilt is never needed
        P = np.array([[0.2, 0.8, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        shape, *_, certificate = assert_horizon_matches(P, (0,), 1e-12, 2.0)
        assert shape[0] == 3 and certificate is None

    def test_failed_tilt(self):
        P = geometric_chain(40)
        message = assert_horizon_matches(P, (0,), 1e-12, 1.1 * tilt_limit(P, (0,)))
        assert message.startswith("tail certificate failed")

    @pytest.mark.parametrize("cap", [1, 2, 5, 6, 30, 64, 65, 100])
    @pytest.mark.parametrize("fraction", [0.0, 0.999])
    def test_max_horizon(self, monkeypatch, cap, fraction):
        # untilted, the tail reaches tol at t = 200; tilted, at t = 20, but the tilt
        # is so near the limit that the tilted tail reaches tol only at t = 526
        monkeypatch.setattr(oracle, "MAX_HORIZON", cap)
        P = geometric_chain(20 if fraction else 200)
        alpha = fraction * tilt_limit(P, (0,))
        message = assert_horizon_matches(P, (0,), 1e-12, alpha)
        # the message names the tail that missed tol at the cap, and its value
        missed, value = re.fullmatch(f"(.*) still (.*) after horizon {cap}; tol unreachable", message).groups()
        tilted = f"first-return tail weighted by e^(alpha p) at alpha={alpha:.6g}"
        assert missed == (tilted if fraction and cap >= 20 else "first-return tail")
        assert float(value) > 1e-12

    @pytest.mark.parametrize("alpha_max", [0.0, 0.005])
    def test_law_holds_one_block_of_v(self, alpha_max):
        # m = 1, c = 200: t_max = 2289 untilted and 3983 at the tilt, where every V_t
        # would take 3.7 and 6.4 MB, one block of V 102 kB; the tilt's certificate
        # is one solve on a 200 x 200 matrix
        c, q = 200, 0.012
        P = np.full((c + 1, c + 1), (1.0 - q) / c)
        P[:, 0] = q
        parts = split(P, (0,))
        tracemalloc.start()
        try:
            kernels, *_ = oracle._horizon(*parts, 1e-12, alpha_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernels.shape[0] > 2000
        assert peak < 0.5 * kernels.shape[0] * c * 8
        if not alpha_max:
            assert peak < kernels.nbytes + 4 * BLOCK_STEPS * c * 8
