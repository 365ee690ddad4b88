"""Exception types raised across the simulator."""


class PilotAdaptError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(PilotAdaptError):
    """Invalid system, population, or experiment configuration."""


class UnsupportableProfileError(PilotAdaptError):
    """Channel varies faster than one symbol/subcarrier; no pilot spacing exists."""


class NoDataRoomError(PilotAdaptError):
    """Pilot pattern would cover every resource element of the block."""


class InfeasibleRegistryError(PilotAdaptError):
    """No registry pattern is dense enough for the requested channel profile."""


class DegenerateChannelError(PilotAdaptError):
    """Zero-norm channel vector; MRC/MRT beamformer undefined."""


class ExactSearchBudgetError(PilotAdaptError):
    """Instance too large for exact scheduling; caller must switch to greedy."""
