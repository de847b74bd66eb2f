"""Return-time statistics of subshifts of finite type.

Build a :class:`SymbolicSystem`, recode it with :func:`recode_higher_block`,
and feed the recoded system to the thermodynamic, spectral, oracle and
simulation layers.  The induced-operator route (``ReturnOperator``) and the
exact combinatorial route (``first_return_law`` and friends) compute the
same quantities independently and are meant to be cross-checked.
"""

from .deviations import VarianceReport, rate_function, variance_report
from .errors import (
    ConfigurationError,
    DomainError,
    InvalidSystemError,
    NumericError,
    SftReturnsError,
)
from .montecarlo import (
    EmpiricalScgf,
    EmpiricalStats,
    SimConfig,
    TailRate,
    empirical_clt,
    empirical_scgf,
    empirical_tail_rate,
    normal_cdf,
    sample_return_times,
    visit_counts,
)
from .oracle import (
    FirstReturnLaw,
    exact_mgf,
    first_return_law,
    mgf_matrix,
    return_time_law,
)
from .perron import PerronData, perron_eigendata, spectral_radius_reducible
from .return_op import (
    CgfCurve,
    ReturnOperator,
    ReturnOperatorEval,
)
from .system import (
    DepthKPotential,
    RecodedSystem,
    SymbolicSystem,
    SystemDiagnostics,
    TargetSet,
    admissible_words,
    first_return_durations,
    first_return_lengths,
    longest_first_return_durations,
    maximal_return_cycle_mean,
    minimal_return_cycle_mean,
    minimal_return_time,
    recode_higher_block,
    validate_system,
    zero_potential,
)
from .thermo import (
    GibbsChain,
    gibbs_chain,
    pressure,
    restricted_spectrum,
    target_measure,
)

__version__ = "0.1.0"

__all__ = [
    "CgfCurve",
    "ConfigurationError",
    "DepthKPotential",
    "DomainError",
    "EmpiricalScgf",
    "EmpiricalStats",
    "FirstReturnLaw",
    "GibbsChain",
    "InvalidSystemError",
    "NumericError",
    "PerronData",
    "RecodedSystem",
    "ReturnOperator",
    "ReturnOperatorEval",
    "SftReturnsError",
    "SimConfig",
    "SymbolicSystem",
    "SystemDiagnostics",
    "TailRate",
    "TargetSet",
    "VarianceReport",
    "admissible_words",
    "empirical_clt",
    "empirical_scgf",
    "empirical_tail_rate",
    "exact_mgf",
    "first_return_durations",
    "first_return_law",
    "first_return_lengths",
    "gibbs_chain",
    "longest_first_return_durations",
    "maximal_return_cycle_mean",
    "mgf_matrix",
    "minimal_return_cycle_mean",
    "minimal_return_time",
    "normal_cdf",
    "perron_eigendata",
    "pressure",
    "rate_function",
    "recode_higher_block",
    "restricted_spectrum",
    "return_time_law",
    "sample_return_times",
    "spectral_radius_reducible",
    "target_measure",
    "validate_system",
    "variance_report",
    "visit_counts",
    "zero_potential",
]
