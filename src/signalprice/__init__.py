"""Value of a trading-signal feed under exponential utility.

Closed-form strategies, value functions, and signal prices for a Gaussian
signal-plus-noise price model; filtering of the unobserved signal from
prices; seeded Monte-Carlo path simulation; the optimal time to start a paid
subscription under a deterministic rate; and a suite of independent
numerical oracles that cross-check every formula.

A submodule is imported the first time one of its names, or the submodule
itself, is read from the package.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the names the package exports from it
_EXPORTS = {
    "model_core": ("ModelParams", "TimeGrid", "InformationMode", "McSettings", "DomainError",
                   "UNINFORMED", "INFORMED_FROM_START", "subscribe_at", "validate", "make_grid",
                   "load_config"),
    "closed_form": ("ContinuousPriceResult", "SinglePeriodSolution", "continuous_price",
                    "informed_strategy", "uninformed_strategy", "single_period_solve",
                    "value_informed", "value_uninformed"),
    "signal_filter": ("FilteredPath", "filter_path", "kalman_oracle", "hitsuda_kernel"),
    "path_sim": ("PathBundle", "McEstimate", "simulate_paths", "run_strategy"),
    "subscription_timing": ("RateSchedule", "ScheduleDomainError", "TimingResult", "ell",
                            "indifference_rate", "earliest_time", "value_prepurchase",
                            "value_committed", "value_flexible"),
    "verify_oracles": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        found = globals()[name] = getattr(found, name)
    return found
