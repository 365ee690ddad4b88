"""Empirical check of the 2x-Nyquist pilot spacing rule.

Spacings at or below the per-profile maximum keep the interpolation error of a
noiseless piecewise-linear channel estimate small; sparser spacings do not.
The experiment samples a single-antenna fading grid spanning several resource
blocks (spacings under test may exceed one block), reads the channel at the
pilot anchor lattice, reconstructs every RE by separable linear interpolation
(time axis first, then frequency, clamping to the nearest anchor past the
edges), and reports the normalized MSE over the non-anchor REs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import generate_single_grid
from .core import Numerology
from .errors import ConfigurationError
from .patterns import ChannelProfile, PilotSpacing

# sampled extent in (time, frequency) resource blocks
_GRID_RBS = (4, 4)


@dataclass(frozen=True)
class EstimationReport:
    """Interpolation error of one (profile, spacing) combination."""

    spacing: PilotSpacing
    nmse: float
    trials: int
    nearest_neighbor_axes: tuple[str, ...] = ()

    @property
    def nmse_db(self) -> float:
        if self.nmse == 0.0:
            return -math.inf
        return 10.0 * math.log10(self.nmse)


def _interp_axis(values: np.ndarray, anchors: np.ndarray, extent: int) -> np.ndarray:
    """Linear interpolation along axis 0 from anchor rows to all rows."""
    targets = np.arange(extent)
    flat = values.reshape(len(anchors), -1)
    out = np.empty((extent, flat.shape[1]), dtype=np.complex128)
    for col in range(flat.shape[1]):
        out[:, col] = np.interp(targets, anchors, flat[:, col].real) + 1j * np.interp(
            targets, anchors, flat[:, col].imag
        )
    return out.reshape((extent,) + values.shape[1:])


def interpolation_nmse(
    profile: ChannelProfile,
    spacing: PilotSpacing,
    num: Numerology,
    trials: int = 100,
    seed: int = 0,
) -> EstimationReport:
    """Mean NMSE of linear interpolation from the anchor lattice of
    `spacing`, which may exceed one block, over a grid of _GRID_RBS blocks.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    n_t = num.symbols_per_rb * _GRID_RBS[0]
    n_f = num.subcarriers_per_rb * _GRID_RBS[1]
    t_anchors = np.arange(0, n_t, spacing.time_spacing_symbols)
    f_anchors = np.arange(0, n_f, spacing.freq_spacing_subcarriers)

    fallback = []
    if len(t_anchors) < 2:
        fallback.append("time")
    if len(f_anchors) < 2:
        fallback.append("frequency")

    err = 0.0
    power = 0.0
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        h = generate_single_grid(profile, n_t, n_f, num, rng)[:, :, 0]
        pilots = h[np.ix_(t_anchors, f_anchors)]
        # np.interp with a single anchor returns that anchor everywhere, which
        # is the nearest-neighbor fallback
        est_t = _interp_axis(pilots, t_anchors, n_t)
        est = _interp_axis(est_t.T, f_anchors, n_f).T
        mask = np.ones((n_t, n_f), dtype=bool)
        mask[np.ix_(t_anchors, f_anchors)] = False
        err += float((np.abs(est[mask] - h[mask]) ** 2.0).sum())
        power += float((np.abs(h[mask]) ** 2.0).sum())
    return EstimationReport(
        spacing=spacing,
        # every RE an anchor leaves nothing to interpolate: zero error
        nmse=err / power if power > 0.0 else 0.0,
        trials=trials,
        nearest_neighbor_axes=tuple(fallback),
    )
