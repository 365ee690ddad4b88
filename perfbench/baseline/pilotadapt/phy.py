"""Combining/precoding, per-RE SINR, and per-RB spectral efficiency (perfect CSI).

Uplink uses maximum-ratio combining, w = h_k. The per-RE SINR of user k is

    eta_k*P * |w^H h_k|^2 / (sum_{j!=k} eta_j*P * |w^H h_j|^2 + w^H w * sigma^2)

Downlink uses maximum-ratio transmission with precoders normalized to
||w_j|| = M (w_j = M * h_j / ||h_j||):

    eta_k*P * |w_k^H h_k|^2 / (sum_{j!=k} eta_k*P * |w_j^H h_k|^2 + M^2 * sigma^2)

The per-RB spectral efficiency averages log2(1 + SINR) of every scheduled
user over the non-pilot REs, normalized by the full RE count of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelRealization
from .core import SystemConfig
from .errors import DegenerateChannelError, NoDataRoomError
from .patterns import PilotPattern

DIRECTIONS = ("uplink", "downlink")


@dataclass(frozen=True)
class RateReport:
    """Spectral efficiencies of one schedule evaluation.

    `sinr_samples` (per RB: array of shape (users, symbols, subcarriers)) is
    collected only on request; it is bulky and most callers need the rates.
    """

    rb_rates: tuple[float, ...]
    direction: str
    sinr_samples: tuple[np.ndarray, ...] | None = None

    @property
    def mean_rate(self) -> float:
        return float(np.mean(self.rb_rates))


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


def _sinr_grid(
    h: np.ndarray, fadings: np.ndarray, cfg: SystemConfig, direction: str
) -> np.ndarray:
    """SINR of every scheduled user at every RE.

    h: (U, T, N, M) channels of the scheduled users on one RB.
    Returns (U, T, N).
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    inner = np.einsum("ktnm,jtnm->kjtn", h.conj(), h)
    cross = inner.real**2 + inner.imag**2  # |h_k^H h_j|^2
    u = h.shape[0]
    norms = np.einsum("kktn->ktn", inner).real  # ||h_k||^2
    if np.any(norms == 0.0):
        raise DegenerateChannelError("zero-norm channel vector on some RE")
    eta = np.asarray(fadings, dtype=float)

    if direction == "uplink":
        p = cfg.ul_power
        signal = eta[:, None, None] * p * norms**2
        interference = np.einsum("j,kjtn->ktn", eta * p, cross)
        interference -= eta[:, None, None] * p * norms**2  # drop j == k term
        noise = norms * cfg.noise_power
        return signal / (interference + noise)

    m = h.shape[3]
    p = cfg.dl_power
    # |w_j^H h_k|^2 = M^2 |h_j^H h_k|^2 / ||h_j||^2
    scaled = cross / norms[None, :, :, :]  # index [k, j]: cross[k,j]/||h_j||^2
    interference = m**2 * p * (np.einsum("kjtn->ktn", scaled) - norms)
    interference *= eta[:, None, None]
    signal = eta[:, None, None] * p * m**2 * norms
    return signal / (interference + m**2 * cfg.noise_power)


def _data_mask(pattern: PilotPattern | None, n_s: int, n_sc: int) -> np.ndarray:
    mask = np.ones((n_s, n_sc), dtype=bool)
    if pattern is not None:
        for t, n in pattern.positions:
            mask[t, n] = False
        if not mask.any():
            raise NoDataRoomError("pattern covers every RE of the block")
    return mask


def rb_spectral_efficiency(
    realization: ChannelRealization,
    rb: int,
    users: Sequence[int],
    pattern: PilotPattern | None,
    cfg: SystemConfig,
    direction: str,
    fadings: np.ndarray | None = None,
) -> float:
    """Average spectral efficiency of one RB for the scheduled user set.

    `fadings` defaults to unit gains; pass the population's gains indexed by
    user id. `pattern=None` means every RE carries data.
    """
    users = list(users)
    if len(users) == 0:
        return 0.0
    if len(users) > cfg.max_mux:
        raise ValueError(f"{len(users)} users exceed the multiplexing cap {cfg.max_mux}")
    num = realization.numerology
    h = realization.h[users, rb]  # (U, T, N, M)
    if fadings is None:
        eta = np.ones(len(users))
    else:
        eta = np.asarray(fadings)[users]
    sinr = _sinr_grid(h, eta, cfg, direction)
    mask = _data_mask(pattern, num.symbols_per_rb, num.subcarriers_per_rb)
    rate = np.log2(1.0 + sinr[:, mask]).sum()
    return float(rate / num.res_per_rb)
