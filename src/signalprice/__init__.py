"""Value of a trading-signal feed under exponential utility.

Closed-form strategies, value functions, and signal prices for a Gaussian
signal-plus-noise price model; filtering of the unobserved signal from
prices; seeded Monte-Carlo path simulation; the optimal time to start a paid
subscription under a deterministic rate; and a suite of independent
numerical oracles that cross-check every formula.
"""

from .closed_form import (
    ContinuousPriceResult,
    SinglePeriodSolution,
    continuous_price,
    informed_strategy,
    single_period_solve,
    uninformed_strategy,
    value_informed,
    value_uninformed,
)
from .model_core import (
    DomainError,
    INFORMED_FROM_START,
    InformationMode,
    McSettings,
    ModelParams,
    TimeGrid,
    UNINFORMED,
    load_config,
    make_grid,
    subscribe_at,
    validate,
)
from .path_sim import (
    McEstimate,
    PathBundle,
    run_strategy,
    simulate_paths,
)
from .signal_filter import FilteredPath, filter_path, hitsuda_kernel, kalman_oracle
from .subscription_timing import (
    RateSchedule,
    ScheduleDomainError,
    TimingResult,
    earliest_time,
    ell,
    indifference_rate,
    latest_time,
    value_committed,
    value_flexible,
    value_prepurchase,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "TimeGrid",
    "InformationMode",
    "McSettings",
    "DomainError",
    "UNINFORMED",
    "INFORMED_FROM_START",
    "subscribe_at",
    "validate",
    "make_grid",
    "load_config",
    "ContinuousPriceResult",
    "SinglePeriodSolution",
    "continuous_price",
    "informed_strategy",
    "uninformed_strategy",
    "single_period_solve",
    "value_informed",
    "value_uninformed",
    "FilteredPath",
    "filter_path",
    "kalman_oracle",
    "hitsuda_kernel",
    "PathBundle",
    "McEstimate",
    "simulate_paths",
    "run_strategy",
    "RateSchedule",
    "ScheduleDomainError",
    "TimingResult",
    "ell",
    "indifference_rate",
    "latest_time",
    "earliest_time",
    "value_prepurchase",
    "value_committed",
    "value_flexible",
]
