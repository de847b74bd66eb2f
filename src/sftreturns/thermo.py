"""Topological pressure, the Gibbs Markov chain, and the pressure of the target-avoiding subshift.

All logarithms are natural.  The pressure is log of the Perron root of the
weighted transition matrix M[i, j] = 1{i->j} exp(phi(i, j)), which is built
as M exp(-c), c the largest potential, with c added back; the equilibrium
measure is realized as the Parry-type Markov chain built from the Perron
vectors, whose entropy satisfies the variational equality h + mean(phi) = P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .perron import PerronData, perron_eigendata, spectral_radius_reducible
from .system import RecodedSystem

STOCHASTIC_TOL = 1e-12
VARIATIONAL_TOL = 1e-10
PRESSURE_GAP_MIN = 1e-12


@dataclass(frozen=True)
class GibbsChain:
    """Equilibrium state as a stationary Markov chain.

    ``transition_probs`` is row stochastic, ``stationary`` is its invariant
    probability vector, and ``entropy`` is computed directly from the chain
    so that the variational equality against ``pressure`` is a genuine
    consistency check, enforced at construction.
    """

    transition_probs: np.ndarray
    stationary: np.ndarray
    pressure: float
    entropy: float

    def __post_init__(self) -> None:
        p = np.asarray(self.transition_probs, dtype=float)
        pi = np.asarray(self.stationary, dtype=float)
        p.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "transition_probs", p)
        object.__setattr__(self, "stationary", pi)
        row_defect = np.abs(p.sum(axis=1) - 1.0).max()
        stat_defect = np.abs(pi @ p - pi).max()
        # written as "not <=" so that a nan defect fails
        if not (row_defect <= STOCHASTIC_TOL and abs(pi.sum() - 1.0) <= STOCHASTIC_TOL):
            raise NumericError(f"chain is not stochastic (row defect {row_defect:.3e})")
        if not stat_defect <= STOCHASTIC_TOL:
            raise NumericError(f"stationarity defect {stat_defect:.3e} exceeds tolerance")

    @property
    def n_states(self) -> int:
        return self.transition_probs.shape[0]


def _perron(recoded: RecodedSystem) -> PerronData:
    return perron_eigendata(recoded.weight_matrix())


def pressure(recoded: RecodedSystem) -> float:
    """Topological pressure log rho(M) of the weighted transition matrix."""
    return float(np.log(_perron(recoded).rho)) + recoded.weight_shift


def gibbs_chain(recoded: RecodedSystem, data: PerronData | None = None) -> GibbsChain:
    """Parry-type chain p[i, j] = M[i, j] v[j] / (rho v[i]); ``data``: M's Perron pair, if solved."""
    M = recoded.weight_matrix()
    data = data if data is not None else _perron(recoded)
    v = data.right_vec
    # a Perron vector spanning more than double range leaves nan rows, which the chain's checks reject
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = M * v[np.newaxis, :] / (data.rho * v[:, np.newaxis])
        p = p / p.sum(axis=1, keepdims=True)
        log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    pi = data.left_vec * v
    pi = pi / pi.sum()
    pres = float(np.log(data.rho)) + recoded.weight_shift
    entropy = float(-(pi[:, np.newaxis] * p * log_p).sum())
    chain = GibbsChain(transition_probs=p, stationary=pi, pressure=pres, entropy=entropy)
    mean_potential = float((pi[:, np.newaxis] * p * np.where(p > 0.0, recoded.potential2, 0.0)).sum())
    defect = abs(entropy + mean_potential - pres)
    if not defect <= VARIATIONAL_TOL:
        raise NumericError(f"variational equality defect {defect:.3e} exceeds {VARIATIONAL_TOL}")
    return chain


def restricted_spectrum(recoded: RecodedSystem, data: PerronData | None = None) -> tuple[float, list[list[int]]]:
    """Pressure of the subshift without the target states, with the remainder's components.

    The remainder may be reducible: its radius is the largest over strongly
    connected components (-inf for an acyclic remainder).  The gap against
    the full pressure must be strictly positive; ``data`` as in :func:`gibbs_chain`.
    """
    comp = recoded.complement_blocks
    if not comp:
        raise ConfigurationError("target complement is empty; nothing remains after removal")
    block = np.ix_(comp, comp)
    radius, comps_local = spectral_radius_reducible(recoded.weight_matrix()[block], recoded.transitions[block])
    components = [[comp[i] for i in c] for c in comps_local]
    value = float(np.log(radius)) + recoded.weight_shift if radius > 0.0 else float("-inf")
    full = pressure(recoded) if data is None else float(np.log(data.rho)) + recoded.weight_shift
    if not full - value > PRESSURE_GAP_MIN:
        raise NumericError(
            f"pressure gap is not strictly positive: P={full!r}, P'={value!r}"
        )
    return value, components
