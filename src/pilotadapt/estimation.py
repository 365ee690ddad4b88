"""Empirical check of the 2x-Nyquist pilot spacing rule.

Spacings at or below the per-profile maximum keep the interpolation error of a
noiseless piecewise-linear channel estimate small; sparser spacings do not.
The experiment samples a single-antenna fading grid spanning several resource
blocks once per trial, reads it at each spacing's pilot anchor lattice,
reconstructs every RE by separable linear interpolation (time axis first, then
frequency, clamping to the nearest anchor past the edges), and reports each
spacing's normalized MSE over its non-anchor REs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import generate_single_grid
from .core import Numerology
from .errors import ConfigurationError
from .patterns import ChannelProfile, PilotSpacing

# sampled extent in (time, frequency) resource blocks
_GRID_RBS = (4, 4)


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
    spacings: Sequence[PilotSpacing],
    num: Numerology,
    trials: int,
    seed: int,
) -> list[float]:
    """Mean NMSE of linear interpolation from the anchor lattice of each of
    `spacings`, in order, over a grid of _GRID_RBS blocks. Trial t draws one
    grid from SeedSequence((seed, t)) and rates every spacing on it.

    A spacing may exceed one block. Where it leaves one anchor on an axis,
    the estimate falls back to that anchor's value along the whole axis
    (nearest neighbor); where it leaves no non-anchor RE, its NMSE is 0.0.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    n_t = num.symbols_per_rb * _GRID_RBS[0]
    n_f = num.subcarriers_per_rb * _GRID_RBS[1]
    lattices = []
    for spacing in spacings:
        t_anchors = np.arange(0, n_t, spacing.time_spacing_symbols)
        f_anchors = np.arange(0, n_f, spacing.freq_spacing_subcarriers)
        mask = np.ones((n_t, n_f), dtype=bool)
        mask[np.ix_(t_anchors, f_anchors)] = False
        lattices.append((t_anchors, f_anchors, mask))
    err, power = np.zeros((2, len(lattices)))
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        h = generate_single_grid(profile, n_t, n_f, num, rng)
        for i, (t_anchors, f_anchors, mask) in enumerate(lattices):
            est_t = _interp_axis(h[np.ix_(t_anchors, f_anchors)], t_anchors, n_t)
            est = _interp_axis(est_t.T, f_anchors, n_f).T
            err[i] += float((np.abs(est[mask] - h[mask]) ** 2.0).sum())
            power[i] += float((np.abs(h[mask]) ** 2.0).sum())
    return [float(e / p) if p > 0.0 else 0.0 for e, p in zip(err, power)]
