"""Shift-core: validation, recoding, and return-time combinatorics."""

from collections import deque

import numpy as np
import pytest

from sftreturns import (
    DepthKPotential,
    InvalidSystemError,
    TargetSet,
    first_return_lengths,
    recode_higher_block,
    validate_system,
    zero_potential,
)
from sftreturns.system import _unreachable_witness, strongly_connected_components
from conftest import constant_potential, full_shift, golden_mean, make_system
from references import (
    first_return_durations,
    longest_first_return_durations,
    maximal_return_cycle_mean,
    minimal_return_cycle_mean,
    minimal_return_time,
)


def witness_by_search_from_every_node(adj):
    """The least i that misses a node and the least node it misses: one search per node."""
    n = adj.shape[0]
    for i in range(n):
        reach = np.zeros(n, dtype=bool)
        reach[i] = True
        queue = deque([i])
        while queue:
            node = queue.popleft()
            for nxt in np.flatnonzero(adj[node]):
                if not reach[nxt]:
                    reach[nxt] = True
                    queue.append(nxt)
        if not reach.all():
            return i, int(np.flatnonzero(~reach)[0])
    return None


def components_by_kosaraju(adj):
    """Strongly connected components by two depth-first passes, sorted by least member."""
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    pred = [np.flatnonzero(adj[:, j]).tolist() for j in range(n)]
    order, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, 0)]
        while stack:
            node, ptr = stack[-1]
            if ptr < len(succ[node]):
                stack[-1] = (node, ptr + 1)
                nxt = succ[node][ptr]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
    comp_of = [-1] * n
    comps = []
    for root in reversed(order):
        if comp_of[root] >= 0:
            continue
        comp_of[root] = len(comps)
        members, queue = [root], deque([root])
        while queue:
            for nxt in pred[queue.popleft()]:
                if comp_of[nxt] < 0:
                    comp_of[nxt] = len(comps)
                    members.append(nxt)
                    queue.append(nxt)
        comps.append(sorted(members))
    return sorted(comps)


def shortest_returns_by_search_per_target(adj, target):
    """Shortest first-return durations: one breadth-first search through the complement per target state."""
    pos = {a: k for k, a in enumerate(target)}
    out = np.full((len(target), len(target)), np.inf)
    for k, a in enumerate(target):
        dist = {}
        queue = deque()
        for b in np.flatnonzero(adj[a]).tolist():
            if b in pos:
                out[k, pos[b]] = 1.0
            else:
                dist[b] = 1
                queue.append(b)
        while queue:
            node = queue.popleft()
            for nxt in np.flatnonzero(adj[node]).tolist():
                if nxt in pos:
                    out[k, pos[nxt]] = min(out[k, pos[nxt]], dist[node] + 1.0)
                elif nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
    return out


def longest_returns_by_topological_order(adj, target):
    """Longest first-return durations by a longest-path pass over a topological order of the complement.

    None when the complement has a cycle (no topological order exists).
    """
    pos = {a: k for k, a in enumerate(target)}
    comp = [i for i in range(adj.shape[0]) if i not in pos]
    sub = adj[np.ix_(comp, comp)]
    remaining = sub.sum(axis=0).astype(int)
    order, queue = [], deque(np.flatnonzero(remaining == 0).tolist())
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in np.flatnonzero(sub[i]).tolist():
            remaining[j] -= 1
            if remaining[j] == 0:
                queue.append(j)
    if len(order) != len(comp):
        return None
    out = np.full((len(target), len(target)), -np.inf)
    for k, a in enumerate(target):
        longest = np.full(len(comp), -np.inf)
        for b in np.flatnonzero(adj[a]).tolist():
            if b in pos:
                out[k, pos[b]] = 1.0
            else:
                longest[comp.index(b)] = 1.0
        for i in order:
            for j in np.flatnonzero(sub[i]):
                longest[j] = max(longest[j], longest[i] + 1.0)
        for i, c in enumerate(comp):
            for b in np.flatnonzero(adj[c]).tolist():
                if b in pos:
                    out[k, pos[b]] = max(out[k, pos[b]], longest[i] + 1.0)
    return out


class TestGraphReferences:
    """The matrix-product graph layer against classical searches, on random graphs."""

    def test_components_match_kosaraju(self):
        rng = np.random.default_rng(4141)
        non_transitive = 0
        for _ in range(600):
            n = int(rng.integers(2, 14))
            adj = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            expected = components_by_kosaraju(adj)
            non_transitive += len(expected) > 1
            assert strongly_connected_components(adj) == expected
        assert non_transitive >= 300

    def test_first_returns_match_searches(self):
        rng = np.random.default_rng(4242)
        cyclic = acyclic = 0
        while cyclic + acyclic < 600:
            n = int(rng.integers(2, 11))
            adj = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(int)
            target = sorted(rng.choice(n, int(rng.integers(1, n)), replace=False).tolist())
            try:
                sys = make_system(adj, target)
            except InvalidSystemError:
                continue
            shortest = shortest_returns_by_search_per_target(sys.transitions, target)
            longest = longest_returns_by_topological_order(sys.transitions, target)
            hits, unbounded = first_return_lengths(sys)
            assert len(hits) <= n - len(target) + 1
            assert unbounded == (longest is None)
            assert np.array_equal(first_return_durations(sys), shortest)
            assert minimal_return_time(sys) == int(shortest.min())
            if longest is None:
                cyclic += 1
                with pytest.raises(InvalidSystemError) as info:
                    longest_first_return_durations(sys)
                assert str(info.value) == "complement graph has a cycle; first-return durations are unbounded"
            else:
                acyclic += 1
                assert np.array_equal(longest_first_return_durations(sys), longest)
        assert cyclic >= 100 and acyclic >= 100

    def test_cycle_meets_the_walk_bound(self):
        n = 200
        sys = make_system(np.roll(np.eye(n, dtype=int), 1, axis=1), (0,))
        hits, unbounded = first_return_lengths(sys)
        assert hits.shape == (n, 1, 1) and not unbounded
        assert minimal_return_time(sys) == n
        assert first_return_durations(sys).tolist() == [[n]]
        assert longest_first_return_durations(sys).tolist() == [[n]]
        assert minimal_return_cycle_mean(sys) == maximal_return_cycle_mean(sys) == n


class TestValidation:
    def test_complete_graph_diagnostics(self, full2):
        diag = validate_system(full2)
        assert diag.irreducible and diag.aperiodic
        assert diag.period == 1
        assert diag.complement_nonempty

    def test_golden_mean_aperiodic(self, golden):
        diag = validate_system(golden)
        assert diag.irreducible and diag.aperiodic

    def test_two_cycle_period(self):
        sys = make_system([[0, 1], [1, 0]], (0,))
        diag = validate_system(sys)
        assert diag.irreducible and not diag.aperiodic
        assert diag.period == 2

    def test_reducible_names_witness(self):
        with pytest.raises(InvalidSystemError, match="not transitive.*1.*0|not transitive.*0.*"):
            make_system([[1, 1], [0, 1]], (0,))

    def test_witness_matches_search_from_every_node(self):
        rng = np.random.default_rng(1212)
        non_transitive = 0
        for _ in range(600):
            n = int(rng.integers(2, 10))
            adj = rng.random((n, n)) < rng.uniform(0.1, 0.6)
            expected = witness_by_search_from_every_node(adj)
            non_transitive += expected is not None
            assert _unreachable_witness(adj) == expected
        assert non_transitive >= 300

    def test_witness_that_cannot_reach_symbol_0(self):
        # 0 reaches everything, 2 reaches only itself and 3, 1 reaches 0
        adj = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=int)
        with pytest.raises(InvalidSystemError, match="symbol 2 cannot reach symbol 0"):
            make_system(adj, (0,))

    def test_empty_row_rejected(self):
        with pytest.raises(InvalidSystemError, match="no successor|0 or 1"):
            make_system([[0, 0], [1, 1]], (0,))

    def test_target_whole_alphabet_rejected(self):
        with pytest.raises(InvalidSystemError, match="proper"):
            make_system(np.ones((2, 2), dtype=int), (0, 1))

    def test_target_empty_rejected(self):
        with pytest.raises(InvalidSystemError, match="at least one"):
            TargetSet(())

    def test_single_symbol_rejected(self):
        with pytest.raises(InvalidSystemError, match="at least 2"):
            make_system([[1]], (0,))

    def test_potential_coverage_enforced(self):
        trans = np.ones((2, 2), dtype=int)
        with pytest.raises(InvalidSystemError, match="missing"):
            make_system(trans, (0,), potential=DepthKPotential(2, {(0, 0): 1.0}))
        bad = {w: 0.0 for w in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        with pytest.raises(InvalidSystemError, match="inadmissible"):
            make_system([[1, 1], [1, 0]], (0,), potential=DepthKPotential(2, bad))

    def test_nonfinite_potential_rejected(self):
        with pytest.raises(InvalidSystemError, match="finite"):
            DepthKPotential(1, {(0,): float("nan")})

    def test_permutation_stability(self, random_instances):
        for sys in random_instances[:10]:
            n = sys.n_symbols
            rng = np.random.default_rng(n)
            perm = rng.permutation(n)
            permuted = sys.transitions[np.ix_(perm, perm)]
            relabeled_target = tuple(sorted(int(np.flatnonzero(perm == s)[0]) for s in sys.target.symbols))
            relabeled = make_system(
                permuted.astype(int),
                relabeled_target,
                potential=DepthKPotential(
                    sys.potential.depth,
                    {
                        tuple(int(np.flatnonzero(perm == s)[0]) for s in word): val
                        for word, val in sys.potential.values.items()
                    },
                ),
            )
            assert validate_system(relabeled) == validate_system(sys)
            assert minimal_return_time(relabeled) == minimal_return_time(sys)


class TestRecoding:
    def test_depth1_passthrough(self, full2):
        rec = recode_higher_block(full2)
        assert rec.block_length == 1
        assert rec.n_states == 2
        assert rec.target_blocks == (0,)
        assert np.array_equal(rec.transitions, full2.transitions)
        assert np.allclose(rec.potential2, 0.0)

    def test_depth1_promotion_uses_first_symbol(self):
        pot = DepthKPotential(1, {(0,): 0.25, (1,): -0.5})
        sys = make_system(np.ones((2, 2), dtype=int), (0,), potential=pot)
        rec = recode_higher_block(sys)
        assert np.allclose(rec.potential2, [[0.25, 0.25], [-0.5, -0.5]])

    def test_full_shift_depth3(self):
        sys = make_system(np.ones((2, 2), dtype=int), (0,), potential=constant_potential(np.ones((2, 2)), 3))
        rec = recode_higher_block(sys)
        assert rec.block_states == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert rec.transitions.sum() == 8
        assert rec.target_blocks == (0, 1)

    def test_golden_mean_depth3(self):
        trans = [[1, 1], [1, 0]]
        sys = make_system(trans, (1,), potential=constant_potential(trans, 3))
        rec = recode_higher_block(sys)
        assert rec.block_states == ((0, 0), (0, 1), (1, 0))
        assert rec.target_blocks == (2,)
        assert rec.transitions.sum() == 5

    def test_depth3_potential_values_on_overlaps(self):
        trans = np.ones((2, 2), dtype=int)
        values = {w: hash(w) % 7 - 3.0 for w in
                  [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]}
        sys = make_system(trans, (0,), potential=DepthKPotential(3, values))
        rec = recode_higher_block(sys)
        idx = {w: i for i, w in enumerate(rec.block_states)}
        for (a, b, c), val in values.items():
            assert rec.potential2[idx[(a, b)], idx[(b, c)]] == val

    def test_recoding_preserves_hitting_times(self, random_instances):
        rng = np.random.default_rng(7)
        for sys in random_instances[:12]:
            if sys.potential.depth <= 2:
                continue
            rec = recode_higher_block(sys)
            length = 1000
            word = _random_word(sys, rng, length)
            k = rec.block_length
            target = set(sys.target.symbols)
            hits_original = [t for t in range(length - k + 1) if word[t] in target]
            state_index = {w: i for i, w in enumerate(rec.block_states)}
            target_blocks = set(rec.target_blocks)
            hits_recoded = [
                t for t in range(length - k + 1)
                if state_index[tuple(word[t : t + k])] in target_blocks
            ]
            assert hits_original == hits_recoded


def _random_word(sys, rng, length):
    succ = [np.flatnonzero(sys.transitions[i]) for i in range(sys.n_symbols)]
    word = [int(rng.integers(sys.n_symbols))]
    for _ in range(length - 1):
        word.append(int(rng.choice(succ[word[-1]])))
    return word


class TestReturnCombinatorics:
    def test_minimal_return_examples(self, full2, golden):
        assert minimal_return_time(full2) == 1
        assert minimal_return_time(golden) == 2
        cycle3 = make_system([[0, 1, 0], [0, 0, 1], [1, 0, 0]], (0,))
        assert minimal_return_time(cycle3) == 3

    def test_minimal_return_invariant_under_recoding(self, random_instances):
        for sys in random_instances[:15]:
            assert minimal_return_time(recode_higher_block(sys)) == minimal_return_time(sys)

    def test_first_return_durations_golden(self, golden):
        d = first_return_durations(golden)
        assert d.shape == (1, 1)
        assert d[0, 0] == 2

    def test_cycle_mean_singleton_equals_minimal_return(self, random_instances):
        from fractions import Fraction

        for sys in random_instances[:15]:
            if len(sys.target.symbols) == 1:
                assert minimal_return_cycle_mean(sys) == Fraction(minimal_return_time(sys))

    def test_cycle_mean_union_counterexample(self):
        # a->b direct (duration 1) but every b->a return takes 2 steps through c,
        # and neither a nor b self-returns: the best average is 3/2, above tau(A)=1
        trans = [[0, 1, 0], [0, 0, 1], [1, 0, 1]]
        sys = make_system(trans, (0, 1))
        assert minimal_return_time(sys) == 1
        d = first_return_durations(sys)
        assert d[0, 1] == 1 and d[1, 0] == 2
        assert not np.isfinite(d[0, 0])
        from fractions import Fraction

        assert minimal_return_cycle_mean(sys) == Fraction(3, 2)
