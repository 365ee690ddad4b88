"""Per-RE SINR under MRC combining and MRT precoding (perfect CSI).

Uplink uses maximum-ratio combining, w = h_k. The per-RE SINR of user k is

    eta_k*P * |w^H h_k|^2 / (sum_{j!=k} eta_j*P * |w^H h_j|^2 + w^H w * sigma^2)

Downlink uses maximum-ratio transmission with precoders normalized to
||w_j|| = M (w_j = M * h_j / ||h_j||):

    eta_k*P * |w_k^H h_k|^2 / (sum_{j!=k} eta_k*P * |w_j^H h_k|^2 + M^2 * sigma^2)

`sinr_from_gram` is the only code that evaluates them: for whole user sets,
from the per-RB Gram cross powers |h_k^H h_j|^2 that `generate_realization`
keeps for each RB. `scheduling.RbRateCalculator` turns those SINRs into
per-RB rates; `tests/oracles.py` writes the formulas out per RE.
"""

from __future__ import annotations

import numpy as np

from .core import SystemConfig
from .errors import DegenerateChannelError


def sinr_from_gram(
    cross: np.ndarray,
    norms: np.ndarray,
    eta: np.ndarray,
    cfg: SystemConfig,
    direction: str,
) -> np.ndarray:
    """SINR of every scheduled user at every RE, from the users' Gram.

    cross: (..., U, U, T, N), cross[..., k, j, :, :] = |h_k^H h_j|^2.
    norms: (..., U, T, N), ||h_k||^2.
    eta:   (..., U), large-scale gains.
    Leading axes are batch axes. Returns (..., U, T, N).

    The MRT normalization ||w_j|| = M scales the downlink signal,
    interference and noise alike by M^2, so M cancels and is not needed.
    """
    p = cfg.power(direction)
    if np.any(norms == 0.0):
        raise DegenerateChannelError("zero-norm channel vector on some RE")
    gain = p * np.asarray(eta, dtype=float)
    g = gain[..., None, None]  # broadcast over (T, N)
    if direction == "uplink":
        # |w^H h_j|^2 = |h_k^H h_j|^2; the j == k term is the signal
        signal = g * norms**2
        total = np.einsum("...j,...kjtn->...ktn", gain, cross)
        return signal / (total - signal + norms * cfg.noise_power)
    # |w_j^H h_k|^2 / M^2 = |h_j^H h_k|^2 / ||h_j||^2, summed over j
    total = (cross / norms[..., None, :, :, :]).sum(axis=-3)
    return g * norms / (g * (total - norms) + cfg.noise_power)
