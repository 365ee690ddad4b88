"""Pilot pattern adaptation for multi-user MIMO OFDM.

Builds pilot patterns from channel second-order statistics, schedules users
under the grouping constraint, evaluates MRC/MRT spectral efficiency with
perfect CSI, and compares against the fixed worst-case pattern baseline both
in Monte Carlo and in the large-system limit.
"""

from .asymptotics import (
    AsymptoticModel,
    asymptotic_rates,
    deterministic_sinr,
    gain_bound,
    sinr_bar,
)
from .channel import (
    ChannelProfile,
    ChannelRealization,
    PilotSpacing,
    builtin_profiles,
    draw_channels,
    generate_realization,
    generate_single_grid,
    max_spacing,
)
from .core import (
    FadingSpec,
    Numerology,
    SystemConfig,
    User,
    UserPopulation,
    build_population,
    group_fractions,
    lte_numerology,
)
from .errors import (
    ConfigurationError,
    DegenerateChannelError,
    ExactSearchBudgetError,
    InfeasibleRegistryError,
    NoDataRoomError,
    PilotAdaptError,
    UnsupportableProfileError,
)
from .estimation import EstimationReport, interpolation_nmse
from .experiments import (
    ExperimentConfig,
    ResultRow,
    load_config,
    replay_row,
    run_sweep,
    summarize_gains,
)
from .patterns import (
    PatternRegistry,
    PilotPattern,
    build_pattern,
    conventional_pattern,
    default_registry,
    group_overheads,
    select_pattern_for_group,
)
from .phy import pair_terms, subset_sinr
from .scheduling import (
    RbRateCalculator,
    ScheduleAssignment,
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    group_rb_ownership,
    grouping_schedule,
)

__version__ = "0.1.0"
