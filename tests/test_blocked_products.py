"""The blocked product searches of the exact oracle against their per-step references.

``perron._contraction``, ``perron._geometric_sum`` and the horizon search
``oracle._horizon`` behind ``first_return_law`` compute one product per step
and read everything else off blocks of products.  Every output must equal the
per-step loops of ``references`` bit for bit: the same k and beta, the
same sums, the same kernels, tail bound and V at the stop, and the same
messages when a search fails.
"""

import tracemalloc

import numpy as np
import pytest

import references as ref
from sftreturns import NumericError, oracle
from sftreturns.perron import BLOCK_STEPS, CW_CHECK_STEPS, _contraction, _geometric_sum

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
    """``oracle._horizon`` shaped like ``ref.horizon``: (kernels, tail, V_(t_max), cache)."""
    cache = {}
    kernels, tail, v = oracle._horizon(*split(P, targets), tol, alpha_max, cache)
    return kernels, tail, v, cache


def horizon_bits(run, P, targets, tol, alpha_max):
    result = outcome(run, P, targets, tol, alpha_max)
    if isinstance(result, str):
        return result
    kernels, tail, v, cache = result
    return kernels.shape, kernels.tobytes(), tail.hex(), v.shape, v.tobytes(), cache


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
        # V_1 = P_ac = 0: the law stops at t = 1 without searching a contraction
        P = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        shape, *_, cache = assert_horizon_matches(P, (0,), 1e-12, 0.5)
        assert shape[0] == 1 and cache == {}

    def test_complement_paths_die_out(self):
        # an acyclic complement: V_3 = 0, so the tilt is never needed
        P = np.array([[0.2, 0.8, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        shape, *_, cache = assert_horizon_matches(P, (0,), 1e-12, 2.0)
        assert shape[0] == 3 and cache == {}

    def test_failed_tilt(self):
        P = geometric_chain(40)
        message = assert_horizon_matches(P, (0,), 1e-12, 1.1 * tilt_limit(P, (0,)))
        assert message.startswith("geometric tail cannot be certified")

    @pytest.mark.parametrize("cap", [1, 2, 5, 6, 30, 64, 65, 100])
    @pytest.mark.parametrize("fraction", [0.0, 0.999])
    def test_max_horizon(self, monkeypatch, cap, fraction):
        # untilted, the tail reaches tol at t = 200; tilted, at t = 20, but the tilt
        # is so near the limit that k = 490 and every window runs past the cap
        monkeypatch.setattr(oracle, "MAX_HORIZON", cap)
        P = geometric_chain(20 if fraction else 200)
        message = assert_horizon_matches(P, (0,), 1e-12, fraction * tilt_limit(P, (0,)))
        assert message.endswith(f"after horizon {cap}; tol unreachable")

    @pytest.mark.parametrize("alpha_max", [0.0, 0.005])
    def test_law_holds_one_block_of_v(self, alpha_max):
        # m = 1, c = 200: t_max = 2289 untilted and 4609 at the tilt, where every V_t
        # would take 3.7 and 7.4 MB, one block of V 102 kB; the tilt's contraction
        # search and its Collatz-Wielandt eigensolve run on 200 x 200 matrices
        c, q = 200, 0.012
        P = np.full((c + 1, c + 1), (1.0 - q) / c)
        P[:, 0] = q
        parts = split(P, (0,))
        tracemalloc.start()
        try:
            kernels, *_ = oracle._horizon(*parts, 1e-12, alpha_max, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernels.shape[0] > 2000
        assert peak < 0.5 * kernels.shape[0] * c * 8
        if not alpha_max:
            assert peak < kernels.nbytes + 4 * BLOCK_STEPS * c * 8


class TestContraction:
    def test_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(240):
            n = int(rng.integers(1, 11))
            S = stochastic(rng, n, rng.uniform(0.2, 1.0))
            X = rng.uniform(0.2, 1.3) * S * (rng.random((n, n)) < 0.9)
            max_steps = int(rng.choice([4096, 100, 64, 63, 7, 1]))
            assert outcome(_contraction, X, max_steps) == outcome(ref.contraction, X, max_steps)

    @pytest.mark.parametrize("k", [1, 2, 8, 9, 63, 64, 65, 128, 129, 200])
    def test_first_contracting_power(self, k):
        # X = c S with S stochastic: max-rowsum(X^j) = c^j up to roundoff
        X = 0.5 ** (1.0 / (k - 0.5)) * stochastic(np.random.default_rng(k), 5)
        assert _contraction(X) == ref.contraction(X)
        assert ref.contraction(X)[0] == k

    def test_collatz_wielandt_stop_at_64(self):
        X = 1.01 * stochastic(np.random.default_rng(3), 6)
        expected = outcome(ref.contraction, X)
        assert expected.endswith("within 4096 steps")
        assert outcome(_contraction, X) == expected

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_powers(self, scale):
        X = scale * stochastic(np.random.default_rng(4), 4, 0.6)
        expected = outcome(ref.contraction, X)
        assert expected.startswith("geometric tail cannot be certified")
        assert outcome(_contraction, X) == expected

    @pytest.mark.parametrize("max_steps", [100, 129, CW_CHECK_STEPS, CW_CHECK_STEPS - 1])
    def test_cap_off_the_block_edges(self, max_steps):
        X = 0.995 * stochastic(np.random.default_rng(5), 7)  # contracts after about 140 steps
        assert outcome(_contraction, X, max_steps) == outcome(ref.contraction, X, max_steps)


class TestGeometricSum:
    def test_random_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(240):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            X = rng.uniform(0.3, 1.0) * stochastic(rng, n, rng.uniform(0.3, 1.0))
            V = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
            k = int(rng.choice([1, 2, 63, 64, 65, 129, int(rng.integers(1, 300))]))
            beta = float(rng.uniform(0.01, 0.5))
            assert _geometric_sum(X, V, k, beta).hex() == ref.geometric_sum(X, V, k, beta).hex()

    def test_non_contiguous_start(self):
        rng = np.random.default_rng(12)
        X = 0.9 * stochastic(rng, 12)
        V = rng.random((12, 3)).T
        assert _geometric_sum(X, V, 70, 0.4).hex() == ref.geometric_sum(X, V, 70, 0.4).hex()
