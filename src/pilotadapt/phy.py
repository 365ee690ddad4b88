"""Combining/precoding and per-RE SINR (perfect CSI).

Uplink uses maximum-ratio combining, w = h_k. The per-RE SINR of user k is

    eta_k*P * |w^H h_k|^2 / (sum_{j!=k} eta_j*P * |w^H h_j|^2 + w^H w * sigma^2)

Downlink uses maximum-ratio transmission with precoders normalized to
||w_j|| = M (w_j = M * h_j / ||h_j||):

    eta_k*P * |w_k^H h_k|^2 / (sum_{j!=k} eta_k*P * |w_j^H h_k|^2 + M^2 * sigma^2)

`uplink_sinr`/`downlink_sinr` evaluate these per RE for an explicit beamformer.
`sinr_from_gram` evaluates them for whole user sets from the per-RB Gram
cross powers |h_k^H h_j|^2 that `generate_realization` keeps for each RB;
`scheduling.RbRateCalculator` turns those SINRs into per-RB rates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import SystemConfig
from .errors import DegenerateChannelError


def mrc_combiner(h: np.ndarray) -> np.ndarray:
    """Uplink combining vector: the channel itself."""
    return h


def mrt_precoder(h: np.ndarray, num_antennas: int) -> np.ndarray:
    """Downlink precoding vector scaled to norm M."""
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise DegenerateChannelError("zero-norm channel vector")
    return num_antennas * h / norm


def uplink_sinr(
    h_set: Sequence[np.ndarray],
    k: int,
    fadings: Sequence[float],
    cfg: SystemConfig,
    w: np.ndarray | None = None,
) -> float:
    """MRC SINR of user k at one RE given all scheduled users' channels.

    `w` overrides the combining vector; the SINR is invariant to its scale.
    """
    h = np.asarray(h_set)
    w = mrc_combiner(h[k]) if w is None else np.asarray(w)
    own = np.vdot(w, w).real
    if own == 0.0:
        raise DegenerateChannelError("zero-norm combining vector")
    p = cfg.ul_power
    signal = fadings[k] * p * abs(np.vdot(w, h[k])) ** 2
    interference = 0.0
    for j in range(h.shape[0]):
        if j == k:
            continue
        interference += fadings[j] * p * abs(np.vdot(w, h[j])) ** 2
    return float(signal / (interference + own * cfg.noise_power))


def downlink_sinr(
    h_set: Sequence[np.ndarray], k: int, fadings: Sequence[float], cfg: SystemConfig
) -> float:
    """MRT SINR of user k at one RE; all scheduled users' precoders interfere."""
    h = np.asarray(h_set)
    m = h.shape[1]
    p = cfg.dl_power
    precoders = [mrt_precoder(h[j], m) for j in range(h.shape[0])]
    signal = fadings[k] * p * abs(np.vdot(precoders[k], h[k])) ** 2
    interference = 0.0
    for j in range(h.shape[0]):
        if j == k:
            continue
        interference += fadings[k] * p * abs(np.vdot(precoders[j], h[k])) ** 2
    return float(signal / (interference + m**2 * cfg.noise_power))


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
