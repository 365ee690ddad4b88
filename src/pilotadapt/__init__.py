"""Pilot pattern adaptation for multi-user MIMO OFDM.

Builds pilot patterns from channel second-order statistics, schedules users
under the grouping constraint, evaluates MRC/MRT spectral efficiency with
perfect CSI, and compares against the fixed worst-case pattern baseline both
in Monte Carlo and in the large-system limit.

The names below load on first use (PEP 562), so importing the package, or
one of its modules, does not import every module.
"""

import importlib

# module -> the public names it provides
_EXPORTS = {
    "asymptotics": ("deterministic_sinr", "gain_bound", "sinr_bar"),
    "channel": ("ChannelRealization", "generate_realization", "generate_single_grid"),
    "config": ("ExperimentConfig", "load_config"),
    "core": (
        "FadingSpec",
        "Numerology",
        "SystemConfig",
        "UserPopulation",
        "build_population",
        "lte_numerology",
    ),
    "errors": (
        "ConfigurationError",
        "DegenerateChannelError",
        "ExactSearchBudgetError",
        "InfeasibleRegistryError",
        "NoDataRoomError",
        "PilotAdaptError",
        "UnsupportableProfileError",
    ),
    "estimation": ("EstimationReport", "interpolation_nmse"),
    "experiments": ("ResultRow", "run_sweep", "summarize_gains"),
    "patterns": (
        "ChannelProfile",
        "PatternRegistry",
        "PilotPattern",
        "PilotSpacing",
        "build_pattern",
        "builtin_profiles",
        "conventional_pattern",
        "default_registry",
        "max_spacing",
        "select_pattern_for_group",
    ),
    "phy": ("pair_terms", "subset_sinr"),
    "scheduling": (
        "RbRateCalculator",
        "ScheduleAssignment",
        "conventional_schedule_exact",
        "conventional_schedule_greedy",
        "evaluate_schedule",
        "group_rb_ownership",
        "grouping_schedule",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
