"""Shared instances: canonical closed-form systems and seeded random ones."""

from __future__ import annotations

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from sftreturns import (
    DepthKPotential,
    ReturnOperator,
    SymbolicSystem,
    TargetSet,
    admissible_words,
    gibbs_chain,
    recode_higher_block,
    variance_report,
    zero_potential,
)

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def make_system(transitions, target, potential=None, depth=1):
    transitions = np.asarray(transitions, dtype=int)
    n = transitions.shape[0]
    if potential is None:
        potential = zero_potential(n) if depth == 1 else constant_potential(transitions, depth)
    return SymbolicSystem(
        n_symbols=n,
        transitions=transitions,
        potential=potential,
        target=TargetSet(tuple(sorted(target))),
    )


def variance_of(recoded):
    """variance_report on a fresh operator of ``recoded`` and the chain of its Perron pair."""
    op = ReturnOperator(recoded)
    return variance_report(op, gibbs_chain(recoded, op.perron))


def constant_potential(transitions, depth, value=0.0):
    words = admissible_words(np.asarray(transitions, dtype=bool), depth)
    return DepthKPotential(depth, {w: value for w in words})


def full_shift(n, target=(0,)):
    return make_system(np.ones((n, n), dtype=int), target)


def golden_mean(target=(1,)):
    return make_system([[1, 1], [1, 0]], target)


def random_instance(rng: np.random.Generator, max_symbols: int = 8, max_depth: int = 3):
    """Random irreducible system with a proper target and uniform [-1, 1] potential."""
    while True:
        n = int(rng.integers(2, max_symbols + 1))
        transitions = (rng.random((n, n)) < 0.6).astype(int)
        if not (transitions.sum(axis=0).all() and transitions.sum(axis=1).all()):
            continue
        depth = int(rng.integers(1, max_depth + 1))
        words = admissible_words(transitions.astype(bool), depth)
        potential = DepthKPotential(
            depth, {w: float(rng.uniform(-1.0, 1.0)) for w in words}
        )
        n_target = int(rng.integers(1, n))
        target = tuple(sorted(rng.choice(n, size=n_target, replace=False).tolist()))
        try:
            return make_system(transitions, target, potential=potential)
        except Exception:
            continue


@pytest.fixture(scope="session")
def full2():
    return full_shift(2)


@pytest.fixture(scope="session")
def full2_recoded(full2):
    return recode_higher_block(full2)


@pytest.fixture(scope="session")
def golden():
    return golden_mean()


@pytest.fixture(scope="session")
def golden_recoded(golden):
    return recode_higher_block(golden)


@pytest.fixture(scope="session")
def random_instances():
    rng = np.random.default_rng(20240817)
    return [random_instance(rng) for _ in range(50)]


@pytest.fixture(scope="session")
def random_recoded(random_instances):
    return [recode_higher_block(sys) for sys in random_instances]
