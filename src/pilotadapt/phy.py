"""Per-RE SINR under MRC combining and MRT precoding (perfect CSI).

Uplink uses maximum-ratio combining, w = h_k. The per-RE SINR of user k is

    eta_k*P * |w^H h_k|^2 / (sum_{j!=k} eta_j*P * |w^H h_j|^2 + w^H w * sigma^2)

Downlink uses maximum-ratio transmission with precoders normalized to
||w_j|| = M (w_j = M * h_j / ||h_j||):

    eta_k*P * |w_k^H h_k|^2 / (sum_{j!=k} eta_k*P * |w_j^H h_k|^2 + M^2 * sigma^2)

Both split into per-RB pair terms over the Gram cross powers
cross[k, j] = |h_k^H h_j|^2 and norms[k] = ||h_k||^2, with g_k = eta_k*P:

    SINR_k(S) = a_k / (sum_{j in S, j != k} V[k, j] + b_k)

    uplink:   V[k, j] = g_j * cross[k, j],          a_k = g_k * norms_k^2,  b_k = norms_k * sigma^2
    downlink: V[k, j] = g_k * cross[j, k] / norms_j, a_k = g_k * norms_k,    b_k = sigma^2

(the MRT normalization scales signal, interference and noise alike by M^2,
so M cancels). `pair_terms` builds them once per RB on its data REs and
`subset_sinr` sums V rows for any batch of user subsets; they are the only
SINR code. `scheduling.RbRateCalculator` turns the SINRs into per-RB rates;
`tests/oracles.py` writes the formulas out per RE.
"""

from __future__ import annotations

import numpy as np

from .core import SystemConfig
from .errors import DegenerateChannelError


def pair_terms(
    cross: np.ndarray,
    norms: np.ndarray,
    eta: np.ndarray,
    cfg: SystemConfig,
    direction: str,
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One RB's SINR terms (V, a, b, degenerate) on its data REs.

    cross (K, K, T, N) and norms (K, T, N) are the RB's Gram, eta (K,) the
    large-scale gains and data a (T, N) mask of the R REs to keep. V is
    (K, K, R) with a zero diagonal, a and b are (K, R), and degenerate (K,)
    flags the users with a zero-norm RE anywhere in the RB, pilots included.
    """
    k, keep = len(norms), data.ravel()
    degenerate = (norms == 0.0).any(axis=(1, 2))
    # compress keeps the RE axis contiguous, so subset_sinr gathers whole rows
    cross = cross.reshape(k, k, keep.size).compress(keep, axis=2)
    # a degenerate user never rates, so its norms only have to be nonzero
    norms = norms.reshape(k, keep.size).compress(keep, axis=1)
    norms = np.where(degenerate[:, None], 1.0, norms)
    g = cfg.power(direction) * np.asarray(eta, dtype=float)[:, None]
    if direction == "uplink":
        v, a, b = g[None] * cross, g * norms**2, norms * cfg.noise_power
    else:  # cross is symmetric, so cross[k, j] stands for cross[j, k]
        v, a, b = g[:, None] * cross / norms, g * norms, np.full_like(norms, cfg.noise_power)
    v[np.diag_indices(len(v))] = 0.0
    return v, a, b, degenerate


def subset_sinr(terms, subsets: np.ndarray) -> np.ndarray:
    """SINR (B, s, R) of every user of each subset in `subsets` (B, s) on
    the data REs of `terms`, one RB's `pair_terms`."""
    v, a, b, degenerate = terms
    if degenerate[subsets].any():
        raise DegenerateChannelError("zero-norm channel vector on some RE")
    # sum the V rows of each subset's members in member order into one buffer
    denominator = v[subsets, subsets[:, :1]]
    for j in range(1, subsets.shape[1]):
        denominator += v[subsets, subsets[:, j : j + 1]]
    denominator += b[subsets]
    return np.divide(a[subsets], denominator, out=denominator)
