"""Symbolic systems: transition structure, finite-range potentials, targets.

A system is a finite alphabet with a 0/1 transition matrix (strongly
connected), a potential depending on a fixed number of consecutive symbols,
and a target given as a union of one-symbol cylinders.  Symbols are 0-based
indices everywhere in this package.

Potentials of depth k > 2 are recoded onto the higher-block presentation
whose states are admissible (k-1)-words, so that every downstream
computation works with a depth-2 potential attached to single transitions.
Return times to the target are preserved exactly by that conjugacy.

Graph structure comes from boolean matrix products.  Reachability is the
reflexive-transitive closure, found by repeated squaring; it gives the
strongly connected components and the witness of a non-transitive graph.
First returns of length t are the support of the oracle's kernel V_t P_CA,
V_t = P_AC P_CC^(t-1): a walk from the target through the complement C,
landing back in the target, for t <= |C| + 1.  Every shortest first return
fits in that range, and so does every first return when C is acyclic; a
walk still alive after |C| steps shows that C has a cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidSystemError

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Graph utilities (directed graphs given by boolean adjacency matrices)
# ---------------------------------------------------------------------------

def _closure(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by boolean squaring: ``reach[i, j]`` when i reaches j."""
    reach = np.asarray(adj, dtype=bool) | np.eye(adj.shape[0], dtype=bool)
    while True:
        step = reach.astype(float)
        grown = step @ step > 0.0
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph, as sorted index lists.

    i and j share a component when each reaches the other; every node is
    labelled by the least member of its component, so the components come
    out sorted by smallest member.
    """
    if adj.shape[0] == 0:
        return []
    reach = _closure(adj)
    label = np.argmax(reach & reach.T, axis=1)
    return [np.flatnonzero(label == root).tolist() for root in np.unique(label)]


def _unreachable_witness(adj: np.ndarray) -> tuple[int, int] | None:
    """The least i with some j it cannot reach, and the least such j; None if strongly connected."""
    missed = np.argwhere(~_closure(adj))
    return (int(missed[0, 0]), int(missed[0, 1])) if len(missed) else None


def graph_period(adj: np.ndarray) -> int:
    """Period (gcd of cycle lengths) of a strongly connected graph."""
    n = adj.shape[0]
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    queue = deque([0])
    g = 0
    while queue:
        node = queue.popleft()
        for nxt in np.flatnonzero(adj[node]):
            if depth[nxt] < 0:
                depth[nxt] = depth[node] + 1
                queue.append(nxt)
            else:
                g = int(np.gcd(g, depth[node] + 1 - depth[nxt]))
    return abs(g) if g != 0 else 0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthKPotential:
    """Log-weight table on admissible words of a fixed depth.

    ``values`` maps each admissible ``depth``-word (a tuple of symbols) to a
    finite real.  Coverage against a transition matrix is checked when the
    potential is installed in a :class:`SymbolicSystem`.
    """

    depth: int
    values: Mapping[Word, float]

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidSystemError(f"potential depth must be >= 1, got {self.depth}")
        clean: dict[Word, float] = {}
        for word, value in self.values.items():
            w = tuple(int(s) for s in word)
            if len(w) != self.depth:
                raise InvalidSystemError(
                    f"potential word {w} has length {len(w)}, expected depth {self.depth}"
                )
            v = float(value)
            if not np.isfinite(v):
                raise InvalidSystemError(f"potential value for word {w} is not finite: {value}")
            clean[w] = v
        object.__setattr__(self, "values", clean)

    def __getitem__(self, word: Word) -> float:
        return self.values[tuple(word)]


def zero_potential(n_symbols: int) -> DepthKPotential:
    """Depth-1 potential that is identically zero (maximal-entropy weights)."""
    return DepthKPotential(1, {(i,): 0.0 for i in range(n_symbols)})


@dataclass(frozen=True)
class TargetSet:
    """Union of one-symbol cylinders, as a strictly increasing symbol tuple."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        syms = tuple(int(s) for s in self.symbols)
        if not syms:
            raise InvalidSystemError("target must contain at least one symbol")
        if any(b <= a for a, b in zip(syms, syms[1:])):
            raise InvalidSystemError(f"target symbols must be strictly increasing, got {syms}")
        object.__setattr__(self, "symbols", syms)


def admissible_words(transitions: np.ndarray, depth: int) -> list[Word]:
    """All admissible words of the given depth, in lexicographic order."""
    if depth < 1:
        raise InvalidSystemError(f"potential depth must be >= 1, got {depth}")
    n = transitions.shape[0]
    words: list[Word] = [(i,) for i in range(n)]
    for _ in range(depth - 1):
        words = [w + (j,) for w in words for j in range(n) if transitions[w[-1], j]]
    return words


@dataclass(frozen=True)
class SymbolicSystem:
    """A validated problem instance: transitions, potential and target.

    Construction enforces the structural invariants: at least two symbols,
    no empty row or column, strong connectivity (a witness pair is named
    otherwise), a proper nonempty target, and exact potential coverage of
    the admissible words.  ``words`` are those words, in lexicographic
    order, from a caller that has enumerated them for these transitions
    and this depth; they are enumerated here otherwise, and kept as
    ``admissible``.
    """

    n_symbols: int
    transitions: np.ndarray
    potential: DepthKPotential
    target: TargetSet
    words: InitVar[Sequence[Word] | None] = None
    admissible: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, words: Sequence[Word] | None) -> None:
        n = int(self.n_symbols)
        if n < 2:
            raise InvalidSystemError(f"need at least 2 symbols, got {n}")
        adj = np.asarray(self.transitions)
        if adj.shape != (n, n):
            raise InvalidSystemError(f"transition table must be {n}x{n}, got shape {adj.shape}")
        if not ((adj == 0) | (adj == 1)).all():
            raise InvalidSystemError("transition entries must be 0 or 1")
        adj = adj.astype(bool)
        adj.setflags(write=False)
        object.__setattr__(self, "n_symbols", n)
        object.__setattr__(self, "transitions", adj)
        for i in range(n):
            if not adj[i].any():
                raise InvalidSystemError(f"symbol {i} has no successor (empty row)")
            if not adj[:, i].any():
                raise InvalidSystemError(f"symbol {i} has no predecessor (empty column)")
        witness = _unreachable_witness(adj)
        if witness is not None:
            raise InvalidSystemError(
                f"not transitive: symbol {witness[0]} cannot reach symbol {witness[1]}"
            )
        if any(s < 0 or s >= n for s in self.target.symbols):
            raise InvalidSystemError(
                f"target symbols {self.target.symbols} outside alphabet of size {n}"
            )
        if len(self.target.symbols) == n:
            raise InvalidSystemError("target must be proper (some symbol must remain outside)")
        if words is None:
            words = admissible_words(adj, self.potential.depth)
        object.__setattr__(self, "admissible", tuple(words))
        words = set(self.admissible)
        have = set(self.potential.values.keys())
        missing = words - have
        extra = have - words
        if missing:
            raise InvalidSystemError(
                f"potential missing {len(missing)} admissible word(s), e.g. {sorted(missing)[0]}"
            )
        if extra:
            raise InvalidSystemError(
                f"potential defined on inadmissible word(s), e.g. {sorted(extra)[0]}"
            )


@dataclass(frozen=True)
class SystemDiagnostics:
    irreducible: bool
    aperiodic: bool
    period: int
    complement_nonempty: bool


def validate_system(sys: SymbolicSystem) -> SystemDiagnostics:
    """Graph diagnostics of a constructed system.

    Construction already rejects reducible graphs and improper targets, so on
    a live instance ``irreducible`` and ``complement_nonempty`` are always
    true; the period is reported because periodic systems are accepted.
    """
    period = graph_period(sys.transitions)
    return SystemDiagnostics(
        irreducible=True,
        aperiodic=period == 1,
        period=period,
        complement_nonempty=len(sys.target.symbols) < sys.n_symbols,
    )


# ---------------------------------------------------------------------------
# Higher-block recoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecodedSystem:
    """Depth-2 presentation of a system; the working object downstream.

    ``block_states`` lists the states as words over the original alphabet
    (length 1 when the original depth was <= 2).  ``potential2[i, j]`` is the
    log-weight attached to the transition i -> j; it is only meaningful where
    ``transitions`` permits.  ``target_blocks`` are the states whose first
    symbol lies in the original target, so hitting times are preserved.
    """

    block_states: tuple[Word, ...]
    transitions: np.ndarray
    potential2: np.ndarray
    target_blocks: tuple[int, ...]
    block_length: int

    def __post_init__(self) -> None:
        adj = np.asarray(self.transitions, dtype=bool)
        adj.setflags(write=False)
        pot = np.asarray(self.potential2, dtype=float)
        pot.setflags(write=False)
        object.__setattr__(self, "transitions", adj)
        object.__setattr__(self, "potential2", pot)
        object.__setattr__(self, "block_states", tuple(tuple(w) for w in self.block_states))
        object.__setattr__(self, "target_blocks", tuple(int(i) for i in self.target_blocks))
        n = len(self.block_states)
        if adj.shape != (n, n) or pot.shape != (n, n):
            raise InvalidSystemError("recoded tables must match the number of block states")
        if not self.target_blocks or len(self.target_blocks) >= n:
            raise InvalidSystemError("recoded target must be nonempty and proper")
        if not _closure(adj).all():
            raise InvalidSystemError("recoded graph is not strongly connected")

    @property
    def n_states(self) -> int:
        return len(self.block_states)

    @property
    def complement_blocks(self) -> tuple[int, ...]:
        targets = set(self.target_blocks)
        return tuple(i for i in range(self.n_states) if i not in targets)

    @cached_property
    def weight_shift(self) -> float:
        """Largest potential on an allowed transition; log rho(M) = log rho(weight_matrix()) + shift."""
        return float(self.potential2[self.transitions].max())

    def weight_matrix(self) -> np.ndarray:
        """Transfer-operator matrix M exp(-weight_shift), M[i, j] = 1{i->j} exp(potential2[i, j]).

        Built in log space: the peak entry is 1, so no potential overflows exp.
        """
        return np.exp(np.where(self.transitions, self.potential2 - self.weight_shift, -np.inf))


def recode_higher_block(sys: SymbolicSystem) -> RecodedSystem:
    """Recode to a depth-2 potential on the (k-1)-block presentation.

    Depth <= 2 keeps the symbols as states (depth 1 is promoted by
    ignoring the second coordinate).  For depth k > 2 the states are
    admissible (k-1)-words, transitions are suffix/prefix overlaps of
    length k-2, and the new pair potential evaluates the original on the
    k-word formed by extending the source block with the last symbol of
    the destination block.
    """
    adj = sys.transitions
    depth = sys.potential.depth
    # the (k-1)-words are the prefixes of the admissible k-words, in order
    states = list(dict.fromkeys(w[: max(depth - 1, 1)] for w in sys.admissible))
    index = {w: i for i, w in enumerate(states)}
    m = len(states)
    trans = np.zeros((m, m), dtype=bool)
    pot = np.zeros((m, m))
    successors = [np.flatnonzero(row).tolist() for row in adj]
    for w, i in index.items():
        for s in successors[w[-1]]:
            j = index[w[1:] + (s,)]
            trans[i, j] = True
            pot[i, j] = sys.potential[(w + (s,))[:depth]]
    target = set(sys.target.symbols)
    target_blocks = tuple(i for i, w in enumerate(states) if w[0] in target)
    return RecodedSystem(
        block_states=tuple(states),
        transitions=trans,
        potential2=pot,
        target_blocks=target_blocks,
        block_length=len(states[0]),
    )


# ---------------------------------------------------------------------------
# Return-time combinatorics
# ---------------------------------------------------------------------------

def first_return_lengths(system: SymbolicSystem | RecodedSystem) -> tuple[np.ndarray, bool]:
    """Support of the first-return series by duration, and whether durations are unbounded.

    ``hits[t - 1, a, a']`` is true when a path of length t runs from target
    state a to target state a' through the complement C only: the support of
    V_t P_CA.  The walk through C stops once it dies, or after |C| steps;
    alive then, it has repeated a state of C, so ``unbounded`` is true.
    """
    adj = system.transitions
    target = system.target.symbols if isinstance(system, SymbolicSystem) else system.target_blocks
    m, inside = len(target), set(target)
    order = list(target) + [i for i in range(len(adj)) if i not in inside]
    paths = adj[np.ix_(order, order)].astype(float)
    step, land, walk = paths[m:, m:], paths[m:, :m], paths[:m, m:]
    hits = [paths[:m, :m] > 0.0]
    for _ in range(len(adj) - m):
        if not walk.any():
            break
        hits.append(walk @ land > 0.0)
        walk = (walk @ step > 0.0).astype(float)
    return np.array(hits), bool(walk.any())


def _shortest(hits: np.ndarray) -> np.ndarray:
    return np.where(hits.any(axis=0), np.argmax(hits, axis=0) + 1, np.inf)


def _longest(hits: np.ndarray) -> np.ndarray:
    return np.where(hits.any(axis=0), len(hits) - np.argmax(hits[::-1], axis=0), -np.inf)


def _karp_min_mean_cycle(d: np.ndarray) -> Fraction:
    """Minimum mean cycle of an integer-weight digraph (inf marks no edge)."""
    m = d.shape[0]
    finite = np.isfinite(d)
    if m == 1:
        if not finite[0, 0]:
            raise InvalidSystemError("target state has no first-return cycle")
        return Fraction(int(d[0, 0]))
    # Karp: D[k][v] = min weight of a k-edge walk from node 0 to v.
    D: list[list[int | None]] = [[None] * m for _ in range(m + 1)]
    D[0][0] = 0
    for k in range(1, m + 1):
        for v in range(m):
            best: int | None = None
            for u in range(m):
                if D[k - 1][u] is None or not finite[u, v]:
                    continue
                cand = D[k - 1][u] + int(d[u, v])
                if best is None or cand < best:
                    best = cand
            D[k][v] = best
    result: Fraction | None = None
    for v in range(m):
        if D[m][v] is None:
            continue
        worst: Fraction | None = None
        for k in range(m):
            if D[k][v] is None:
                continue
            ratio = Fraction(D[m][v] - D[k][v], m - k)
            if worst is None or ratio > worst:
                worst = ratio
        if worst is not None and (result is None or worst < result):
            result = worst
    if result is None:
        raise InvalidSystemError("first-return graph has no cycle; system is not irreducible")
    return result


def _maximal_cycle_mean(longest: np.ndarray) -> Fraction:
    return -_karp_min_mean_cycle(np.where(longest > 0, -longest, np.inf))


def return_time_bounds(system: SymbolicSystem | RecodedSystem) -> tuple[int, Fraction, Fraction | None]:
    """Minimal return time and the least and greatest first-return cycle means, from one walk.

    The greatest is None when first returns are unbounded.
    """
    hits, unbounded = first_return_lengths(system)
    shortest = _shortest(hits)
    greatest = None if unbounded else _maximal_cycle_mean(_longest(hits))
    return int(shortest.min()), _karp_min_mean_cycle(shortest), greatest
