"""Seeded inputs of the two workloads, and the failures each is known to hit.

A workload is a list of ``Case``: a JSON config plus the exit code and the
stderr line expected from each command.  Only the two fault cases expect a
failure; their inputs are fixed, so every round of every run fails the same
invocations whatever the seed.  Random draws that would hit either fault are
redrawn, using a prediction from ``reference`` and not from the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference

COMMANDS = ("analyze", "simulate", "validate")

# Tier-1 family, one system per stratum: (symbols, potential depth, target
# symbols, band of sigma^2).  The cost of validate grows with sigma^2 (longer
# first-return laws, more covariance terms) and with the number of target
# states (a single one has no covariance series), so both are fixed.
LOW, MID, HIGH = (0.5, 3.0), (3.0, 10.0), (10.0, 30.0)
SPECTRAL_STRATA = (
    (2, 1, 1, LOW), (3, 3, 1, HIGH), (4, 3, 2, LOW), (5, 2, 1, HIGH), (6, 2, 2, MID), (8, 1, 3, MID),
)
EDGE_DENSITY = 0.6
SYSTEMS_SEED = 0x5EC7
POTENTIAL_JITTER = 0.02
SANDWICH_TILTS = (-1.0, -0.2, 0.2)
SANDWICH_MARGIN = 0.8   # redraw when max |C_n| > 0.8 * 2|C_3|; the program's gate is 1.0
# Redraw when the mean return time exceeds MAX_MEAN_RETURN, which sets the
# simulation cost.  The sigma^2 bands stay below 30 because variance_report's
# absolute 1e-6 two-route gate fails on roundoff for sigma^2 near 1000, and
# above 0.5 because near-deterministic returns fail the CLT KS gate at n = 25.
MAX_MEAN_RETURN = 20.0
# variance_report's covariance series never certifies when the chain of
# landing target states is periodic (second eigenvalue of modulus 1)
MAX_LANDING_SLEM = 0.99

FAULT_ATTAINABLE = (
    "numeric failure: u=3.0 is outside the attainable range of Psi', which is (1.0, 2.0); "
    "no finite conjugate point exists"
)
FAULT_SANDWICH = "validation failed: sandwich_bounded"

# The 10th system drawn by tests/conftest.py::random_instance from
# np.random.default_rng(5): C_3 sits near 0 at alpha = -0.2 although C_n converges.
SANDWICH_FAULT_SYSTEM = {
    "n_symbols": 4,
    "transitions": [[1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
    "potential": {"depth": 2, "values": [
        {"word": [0, 0], "value": -0.936838860181463},
        {"word": [0, 3], "value": -0.7391779181837066},
        {"word": [1, 0], "value": 0.838916123097571},
        {"word": [1, 1], "value": 0.6212593443971881},
        {"word": [2, 0], "value": -0.48996095118105476},
        {"word": [2, 2], "value": -0.3226846399272256},
        {"word": [3, 1], "value": -0.9237520919459414},
        {"word": [3, 2], "value": -0.7464060816150129},
    ]},
    "target": [0, 2, 3],
}

# Every cycle passes through the target, so return times are bounded by 2 and
# u = 3, 4 lie above the attainable range; --clip-grid does not clip them.
ATTAINABLE_FAULT_SYSTEM = {
    "n_symbols": 3,
    "transitions": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "potential": {"depth": 1, "values": [{"word": [s], "value": 0.0} for s in range(3)]},
    "target": [0, 1],
}


@dataclass
class Case:
    name: str
    config: dict
    expect: dict[str, tuple[int, str]] = field(default_factory=dict)

    def expected(self, command: str) -> tuple[int, str]:
        return self.expect.get(command, (0, ""))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _strongly_connected(adj: np.ndarray) -> bool:
    reach = adj.astype(bool) | np.eye(adj.shape[0], dtype=bool)
    for _ in range(adj.shape[0]):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return bool(reach.all())


def _random_system(rng: np.random.Generator, n: int, depth: int, n_target: int) -> dict:
    while True:
        adj = rng.random((n, n)) < EDGE_DENSITY
        if _strongly_connected(adj):
            break
    words = reference._words(adj, depth)
    values = [{"word": list(w), "value": float(rng.uniform(-1.0, 1.0))} for w in words]
    target = sorted(int(s) for s in rng.choice(n, size=n_target, replace=False))
    return {
        "n_symbols": n,
        "transitions": adj.astype(int).tolist(),
        "potential": {"depth": depth, "values": values},
        "target": target,
    }


def _rejected(ref: reference.Reference, band: tuple[float, float]) -> bool:
    """True for draws outside the stratum or that a known fault makes fail (predicted independently)."""
    if 1.0 / ref.mu > MAX_MEAN_RETURN or not band[0] <= reference.sigma2(ref) < band[1]:
        return True
    if not math.isfinite(ref.alpha0):
        return True  # bounded return times: clip_u_grid does not clip above the range
    landing = np.sort(np.abs(np.linalg.eigvals(reference.return_mgf_matrix(ref, 0.0))))
    if landing.size > 1 and landing[-2] > MAX_LANDING_SLEM:
        return True
    for alpha in SANDWICH_TILTS:
        if alpha < 0.5 * ref.alpha0:
            cs = [abs(c) for c in reference.sandwich_constants(ref, alpha)]
            if max(cs) > SANDWICH_MARGIN * max(2.0 * cs[2], 1e-9):
                return True
    return False


def _spectral_grids(ref: reference.Reference) -> dict:
    mean = 1.0 / ref.mu
    top = min(0.3, 0.5 * ref.alpha0)
    return {
        "alpha_grid": {"min": -1.0, "max": top, "count": 4},
        "u_grid": [0.8 * mean, 1.25 * mean],
    }


def _jittered(system: dict, rng: np.random.Generator) -> dict:
    values = [{"word": item["word"], "value": item["value"] + float(rng.uniform(-POTENTIAL_JITTER, POTENTIAL_JITTER))}
              for item in system["potential"]["values"]]
    return {**system, "potential": {"depth": system["potential"]["depth"], "values": values}}


def random_spectral(seed: int) -> list[Case]:
    """One random system per stratum, jittered by the seed, plus the two fixed fault cases.

    The systems are drawn once, from SYSTEMS_SEED: with a fresh draw per
    seed, the cost of a batch varied by about 20% between seeds (Perron
    iteration counts, law horizons), more than the bounds allow.  The seed
    moves every potential value by up to POTENTIAL_JITTER and sets the
    Monte Carlo seeds, so no two seeds give the program the same inputs.
    """
    base = np.random.default_rng(SYSTEMS_SEED)
    rng = np.random.default_rng([SYSTEMS_SEED, seed])
    cases = []
    for n, depth, n_target, band in SPECTRAL_STRATA:
        while True:
            drawn = _random_system(base, n, depth, n_target)
            if not _rejected(reference.build(drawn), band):
                break
        while True:
            system = _jittered(drawn, rng)
            ref = reference.build(system)
            if not _rejected(ref, band):
                break
        cfg = {"system": system, **_spectral_grids(ref), "simulation": {
            "seed": _seed(rng), "n_returns": 25, "n_samples": 1000, "horizon": 200, "workers": 1,
        }}
        cases.append(Case(f"n{n}-d{depth}-t{n_target}", cfg))
    sim = {"seed": _seed(rng), "n_returns": 25, "n_samples": 1000, "horizon": 200, "workers": 1}
    cases.append(Case("fault-attainable", {
        "system": ATTAINABLE_FAULT_SYSTEM,
        "alpha_grid": {"min": -1.0, "max": 0.5, "count": 4},
        "u_grid": {"min": 1.0, "max": 4.0, "count": 4},
        "simulation": sim,
    }, expect={"analyze": (4, FAULT_ATTAINABLE), "validate": (4, FAULT_ATTAINABLE)}))
    cases.append(Case("fault-sandwich", {"system": SANDWICH_FAULT_SYSTEM, "simulation": sim},
                      expect={"validate": (5, FAULT_SANDWICH)}))
    return cases


TAIL_N_RETURNS = 40
TAIL_SAMPLES = 20_000   # expected tail count 2.15


def tail_full2(seed: int) -> list[Case]:
    """Full 2-shift, target {0}: criterion 9's n = 40, u = 1 upper tail, scaled down."""
    rng = np.random.default_rng([0x7A11, seed])
    cfg = {
        "system": {
            "n_symbols": 2,
            "transitions": [[1, 1], [1, 1]],
            "potential": {"depth": 1, "values": [{"word": [0], "value": 0.0}, {"word": [1], "value": 0.0}]},
            "target": [0],
        },
        "alpha_grid": {"min": -2.0, "max": 0.5, "count": 11},
        "u_grid": {"min": 1.25, "max": 5.0, "count": 7},
        "simulation": {
            "seed": _seed(rng), "n_returns": TAIL_N_RETURNS, "n_samples": TAIL_SAMPLES,
            "horizon": 16, "workers": 1, "tails": [{"u": 1.0, "side": "upper"}],
        },
    }
    return [Case("full2", cfg)]


WORKLOADS = {
    "random-spectral": random_spectral,
    "tail-full2": tail_full2,
}
