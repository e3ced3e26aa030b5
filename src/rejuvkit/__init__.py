"""rejuvkit: dependability and performance analysis of container services
under OS software aging with live-migration and reboot rejuvenation.

The package solves a 12-state semi-Markov model analytically
(availability, MTTF, mean completion time), cross-validates it by
discrete-event simulation, and sweeps the migration trigger interval to
locate dependability/performance optima.
"""

from .analysis import (
    CompletionDivergenceError,
    MetricsReport,
    WorkloadSpec,
    availability,
    completion_lst_backup,
    completion_lst_primary,
    completion_time,
    metrics_report,
    mttf,
)
from .distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Hypoexponential,
)
from .model import (
    KERNEL_TARGETS,
    STATES,
    ModelConsistencyError,
    ModelParams,
    SystemState,
    scale_time,
    sojourn_times,
    state_events,
    transition_matrix,
)
from .numerics import ReducibleChainError, absorbing_visits, dtmc_stationary
from .simulator import (
    Estimate,
    SimConfig,
    simulate_availability,
    simulate_completion,
    simulate_mttf,
)

__version__ = "0.1.0"

__all__ = [
    "availability",
    "mttf",
    "completion_time",
    "completion_lst_primary",
    "completion_lst_backup",
    "metrics_report",
    "MetricsReport",
    "WorkloadSpec",
    "CompletionDivergenceError",
    "ModelConsistencyError",
    "ModelParams",
    "SystemState",
    "STATES",
    "KERNEL_TARGETS",
    "transition_matrix",
    "sojourn_times",
    "state_events",
    "scale_time",
    "Distribution",
    "Exponential",
    "Erlang",
    "Hypoexponential",
    "Deterministic",
    "dtmc_stationary",
    "absorbing_visits",
    "ReducibleChainError",
    "SimConfig",
    "Estimate",
    "simulate_availability",
    "simulate_mttf",
    "simulate_completion",
]
