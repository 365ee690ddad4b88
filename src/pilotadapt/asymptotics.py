"""Closed-form large-system limits of the MRC/MRT spectral efficiencies.

With M antennas and U multiplexed users, the per-RE SINR concentrates around

    uplink:    eta_k*P / (sigma^2/M + (U/M) * mean_eta * P)
    downlink:  eta_k*P / (sigma^2/M + (U/M) * eta_k   * P)

The limit rates per multiplexed user follow by averaging log2(1 + SINR) over
the fading distribution and weighting each statistics group by its user share
and pilot overhead:

    grouping:     sum_g gamma_g * (1 - rho_g) * log2(1 + sinr_bar)
    conventional:            (1 - max_g rho_g) * log2(1 + sinr_bar)

so the relative gain of grouping is bounded by

    sum_g gamma_g * (1 - rho_g) / (1 - max_g rho_g) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import FadingSpec, SystemConfig
from .errors import ConfigurationError


@dataclass(frozen=True)
class AsymptoticModel:
    """Scaling ratios and link parameters for the large-system formulas."""

    alpha: float  # mux users per antenna
    beta: float  # mux users per resource element
    gammas: tuple[float, ...]
    fading: FadingSpec
    direction: str
    power: float
    noise_power: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ConfigurationError("alpha and beta must lie in (0, 1)")
        if abs(sum(self.gammas) - 1.0) > 1e-9:
            raise ConfigurationError("group fractions must sum to 1")
        if self.direction not in ("uplink", "downlink"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")

    @classmethod
    def from_system(
        cls,
        cfg: SystemConfig,
        gammas: Sequence[float],
        fading: FadingSpec,
        direction: str,
        mux: int | None = None,
    ) -> "AsymptoticModel":
        u = cfg.max_mux if mux is None else mux
        return cls(
            alpha=u / cfg.num_antennas,
            beta=u / cfg.numerology.res_per_rb,
            gammas=tuple(gammas),
            fading=fading,
            direction=direction,
            power=cfg.power(direction),
            noise_power=cfg.noise_power,
        )


def deterministic_sinr(
    model: AsymptoticModel, eta_k: float, eta_bar: float, m: int, u: int
) -> float:
    """Large-system SINR of a user with gain eta_k among u multiplexed users."""
    p = model.power
    if model.direction == "uplink":
        return eta_k * p / (model.noise_power / m + (u / m) * eta_bar * p)
    return eta_k * p / (model.noise_power / m + (u / m) * eta_k * p)


def sinr_bar(model: AsymptoticModel, m: int, u: int) -> float:
    """Effective SINR whose log-rate equals the fading-averaged log-rate.

    2**E[log2(1 + sinr_det(eta))] - 1; equals the deterministic SINR exactly
    for a constant fading distribution.
    """
    eta_bar = model.fading.mean()
    mean_log = model.fading.expect(
        lambda eta: math.log2(1.0 + deterministic_sinr(model, eta, eta_bar, m, u))
    )
    return 2.0**mean_log - 1.0


def asymptotic_rates(
    model: AsymptoticModel,
    pattern_sizes: Sequence[int],
    n_re: int,
    m: int,
    u: int,
) -> tuple[float, float]:
    """(grouping, conventional) spectral-efficiency limits per multiplexed user."""
    if len(pattern_sizes) != len(model.gammas):
        raise ConfigurationError("one pattern size per group required")
    if max(pattern_sizes) >= n_re:
        raise ConfigurationError("pattern sizes must leave data room")
    log_term = math.log2(1.0 + sinr_bar(model, m, u))
    rho = [s / n_re for s in pattern_sizes]
    r_grp = sum(g * (1.0 - r) for g, r in zip(model.gammas, rho)) * log_term
    r_conv = (1.0 - max(rho)) * log_term
    return r_grp, r_conv


def gain_bound(gammas: Sequence[float], overhead_ratios: Sequence[float]) -> float:
    """Limit of the relative gain of grouping over the fixed worst-case pattern."""
    if len(gammas) != len(overhead_ratios):
        raise ConfigurationError("one overhead ratio per group required")
    if any(r < 0.0 or r >= 1.0 for r in overhead_ratios):
        raise ConfigurationError("overhead ratios must lie in [0, 1)")
    if abs(sum(gammas) - 1.0) > 1e-9:
        raise ConfigurationError("group fractions must sum to 1")
    num = sum(g * (1.0 - r) for g, r in zip(gammas, overhead_ratios))
    den = 1.0 - max(overhead_ratios)
    return num / den - 1.0

