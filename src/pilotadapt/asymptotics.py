"""Closed-form large-system limits of the MRC/MRT spectral efficiencies.

Every limit reads one sweep point's `SystemConfig`: M antennas
(`num_antennas`), U multiplexed users (`max_mux`), the power P of the
direction, the noise power sigma^2 and the REs per RB. With U < M and
U < REs per RB, the per-RE SINR concentrates around

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
from typing import Sequence

from .core import FadingSpec, SystemConfig
from .errors import ConfigurationError


def deterministic_sinr(
    cfg: SystemConfig, direction: str, eta_k: float, eta_bar: float
) -> float:
    """Large-system SINR of a user with gain eta_k among cfg.max_mux
    multiplexed users whose mean gain is eta_bar."""
    m, u, n_re = cfg.num_antennas, cfg.max_mux, cfg.numerology.res_per_rb
    if not (u < m and u < n_re):
        raise ConfigurationError(
            f"the large-system limits need U < M and U < REs per RB, "
            f"got U = {u}, M = {m} and {n_re} REs per RB"
        )
    p = cfg.power(direction)
    if direction == "uplink":
        return eta_k * p / (cfg.noise_power / m + (u / m) * eta_bar * p)
    return eta_k * p / (cfg.noise_power / m + (u / m) * eta_k * p)


def sinr_bar(cfg: SystemConfig, direction: str, fading: FadingSpec) -> float:
    """Effective SINR whose log-rate equals the fading-averaged log-rate.

    2**E[log2(1 + sinr_det(eta))] - 1; equals the deterministic SINR exactly
    for a constant fading distribution.
    """
    eta_bar = fading.mean()
    mean_log = fading.expect(
        lambda eta: math.log2(1.0 + deterministic_sinr(cfg, direction, eta, eta_bar))
    )
    return 2.0**mean_log - 1.0


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
