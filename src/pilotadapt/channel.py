"""Statistical channel profiles and small-scale fading generation.

A profile is a (max Doppler, max delay spread) class with a power-delay
profile. The densest pilot spacing a profile tolerates follows the 2x-Nyquist
rule for band-limited WSS processes:

    spacing_time = floor(1 / (4 * f_doppler * T_symbol))
    spacing_freq = floor(1 / (4 * tau_max  * delta_f))

each clamped to the resource-block grid. Realizations are tapped-delay-line:
per-tap complex processes with classical Jakes time autocorrelation
J0(2*pi*f*T_s*lag), i.i.d. across antennas and taps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Numerology, SystemConfig, UserPopulation
from .errors import ConfigurationError, UnsupportableProfileError

# Arrival angles per sum-of-sinusoids tap process. 32 equally spaced angles
# keep the quadrature error of the J0 autocorrelation far below test tolerances
# for any Doppler this grid supports.
NUM_ARRIVAL_ANGLES = 32


@dataclass(frozen=True)
class ChannelProfile:
    """Second-order statistics class: Doppler, delay spread, power-delay profile."""

    name: str
    max_doppler_hz: float
    max_delay_spread_s: float
    taps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.max_doppler_hz <= 0 or self.max_delay_spread_s <= 0:
            raise ConfigurationError("Doppler and delay spread must be positive")
        taps = self.taps
        if not taps:
            # bracket PDP: equal-power taps at the delay-support endpoints
            taps = ((0.0, 0.5), (self.max_delay_spread_s, 0.5))
            object.__setattr__(self, "taps", taps)
        total = sum(p for _, p in taps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("tap powers must sum to 1")
        for delay, power in taps:
            if delay < 0 or delay > self.max_delay_spread_s + 1e-15:
                raise ConfigurationError("tap delays must lie in [0, max_delay_spread]")
            if power < 0:
                raise ConfigurationError("tap powers must be non-negative")

    def tap_delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.taps])

    def tap_powers(self) -> np.ndarray:
        return np.array([p for _, p in self.taps])


@dataclass(frozen=True)
class PilotSpacing:
    """Regular pilot spacing in OFDM symbols and subcarriers."""

    time_spacing_symbols: int
    freq_spacing_subcarriers: int

    def __post_init__(self):
        if self.time_spacing_symbols < 1 or self.freq_spacing_subcarriers < 1:
            raise ConfigurationError("pilot spacings must be at least 1")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-RB cross powers of one small-scale fading draw.

    `grams[rb]` is (cross, norms): cross of shape (K, K, T, N) with
    cross[k, j] = |h_k^H h_j|^2 and norms of shape (K, T, N) with
    norms[k] = ||h_k||^2, for channels h of unit per-entry power
    (large-scale gains are applied in the SINR computation). Every rate
    reads only these, so the channels themselves are never held;
    `draw_channels` redraws one RB's when they are needed.
    """

    grams: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    numerology: Numerology

    @classmethod
    def from_channels(cls, h: np.ndarray, numerology: Numerology) -> ChannelRealization:
        """Realization of explicit channels h (K, RBs, T, N, M)."""
        m = h.shape[-1]
        grams = tuple(
            _accumulate_gram(
                h[:, rb, ..., start : start + _ANTENNA_CHUNK].transpose(1, 2, 0, 3)
                for start in range(0, m, _ANTENNA_CHUNK)
            )
            for rb in range(h.shape[1])
        )
        return cls(grams, numerology)

    @property
    def num_users(self) -> int:
        return self.grams[0][1].shape[0]


# Antennas drawn per block while an RB's Gram is accumulated. A block holds
# (T, N, K, chunk) complex values (2.4 MB at K = 28), so generation memory
# does not grow with M. At K = 28, blocks of 128 generated ~6% faster at
# M = 512 and ~17% faster at M = 112, for four times the memory.
_ANTENNA_CHUNK = 32


def _accumulate_gram(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(cross, norms) of one RB from its channels in antenna blocks."""
    # the sum runs in its own frame, so the last block is freed before squaring
    inner = _inner_products(blocks).transpose(2, 3, 0, 1)  # (K, K, T, N)
    cross = np.ascontiguousarray(inner.real**2 + inner.imag**2)
    norms = np.einsum("kktn->ktn", inner).real.copy()
    cross.flags.writeable = norms.flags.writeable = False
    return cross, norms


def _inner_products(blocks) -> np.ndarray:
    """h_k^H h_j of shape (T, N, K, K), summed over antenna blocks (T, N, K, a)."""
    inner = None
    for block in blocks:
        if inner is None:
            t, n, k, _ = block.shape
            inner = np.zeros((t, n, k, k), dtype=np.complex128)
        # one symbol at a time, so the conjugate copy is a slice of the block
        for acc, slab in zip(inner, block):
            acc += np.matmul(slab.conj(), slab.swapaxes(-1, -2))
    return inner


def _floor_with_roundoff_guard(x: float) -> int:
    # values landing on integers up to float error must not fall one short
    return int(math.floor(x * (1.0 + 1e-12) + 1e-12))


def max_spacing(profile: ChannelProfile, num: Numerology) -> PilotSpacing:
    """Largest pilot spacing the profile tolerates, clamped to the grid."""
    raw_t = _floor_with_roundoff_guard(
        1.0 / (4.0 * profile.max_doppler_hz * num.symbol_duration_s)
    )
    raw_f = _floor_with_roundoff_guard(
        1.0 / (4.0 * profile.max_delay_spread_s * num.subcarrier_spacing_hz)
    )
    if raw_t < 1 or raw_f < 1:
        raise UnsupportableProfileError(
            f"profile {profile.name!r} varies faster than one symbol/subcarrier "
            f"of the numerology (raw spacings {raw_t}, {raw_f})"
        )
    return PilotSpacing(
        time_spacing_symbols=min(raw_t, num.symbols_per_rb),
        freq_spacing_subcarriers=min(raw_f, num.subcarriers_per_rb),
    )


def builtin_profiles() -> list[ChannelProfile]:
    """The four standard mobility/dispersion classes used throughout."""
    return [
        ChannelProfile("EPA5", 5.0, 0.41e-6),
        ChannelProfile("EVA70", 70.0, 2.51e-6),
        ChannelProfile("ETU70", 70.0, 4.69e-6),
        ChannelProfile("ETU300", 300.0, 4.69e-6),
    ]


@functools.lru_cache(maxsize=64)
def _grid_bases(
    profile: ChannelProfile, num_symbols: int, num_subcarriers: int, num: Numerology
) -> tuple[np.ndarray, np.ndarray]:
    """The random-phase-free factors of `generate_single_grid`.

    basis (n, T): exp(j*2*pi*f_i*t) over the comb of n arrival angles;
    mix (N, L): each tap's per-subcarrier delay rotation, scaled by
    sqrt(tap power / n).
    """
    n = NUM_ARRIVAL_ANGLES
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    freqs = profile.max_doppler_hz * np.cos(angles)
    times = np.arange(num_symbols) * num.symbol_duration_s
    basis = np.exp(2j * math.pi * np.outer(freqs, times))
    sc = np.arange(num_subcarriers) * num.subcarrier_spacing_hz
    mix = np.exp(-2j * math.pi * np.outer(sc, profile.tap_delays()))
    mix *= np.sqrt(profile.tap_powers() / n)
    basis.flags.writeable = mix.flags.writeable = False
    return basis, mix


def generate_single_grid(
    profile: ChannelProfile,
    num_symbols: int,
    num_subcarriers: int,
    num: Numerology,
    rng: np.random.Generator,
    num_antennas: int = 1,
) -> np.ndarray:
    """One correlated fading grid of shape (num_symbols, num_subcarriers, antennas).

    Each (antenna, tap) is a sum-of-sinusoids process with Jakes
    autocorrelation and unit power, weighted by the tap's power; the
    frequency response sums the taps with per-subcarrier phase rotations.
    The random phases are drawn antenna-major, so drawing the antennas in
    consecutive blocks from one generator yields the same channels as one
    draw of all of them. Used directly by the estimation-validation
    experiments, which need grids wider than a single resource block.
    """
    basis, mix = _grid_bases(profile, num_symbols, num_subcarriers, num)
    n_taps = mix.shape[1]
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(num_antennas * n_taps, NUM_ARRIVAL_ANGLES))
    taps = (np.exp(1j * phases) @ basis).reshape(num_antennas, n_taps, num_symbols)
    return np.matmul(mix, taps.transpose(2, 1, 0))  # (T, N, A)


def _antenna_blocks(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int,
    rb: int,
):
    """Every user's channels on one RB, in blocks of at most _ANTENNA_CHUNK
    antennas: yields (T, N, K, a) arrays, each overwritten by the next.

    Each (user, RB) pair draws from its own generator seeded by
    (seed, user, rb), so the channels do not depend on the block size or on
    how generation is parallelized or ordered.
    """
    if pop.num_groups > len(profiles):
        raise ConfigurationError(
            f"{pop.num_groups} groups but only {len(profiles)} channel profiles"
        )
    num = cfg.numerology
    t, n, m = num.symbols_per_rb, num.subcarriers_per_rb, cfg.num_antennas
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, user.id, rb))))
        for user in pop.users
    ]
    block = np.empty((t, n, pop.num_users, min(m, _ANTENNA_CHUNK)), dtype=np.complex128)
    for start in range(0, m, _ANTENNA_CHUNK):
        out = block[..., : min(_ANTENNA_CHUNK, m - start)]
        for user, rng in zip(pop.users, rngs):
            out[:, :, user.id] = generate_single_grid(
                profiles[user.group_id], t, n, num, rng, num_antennas=out.shape[-1]
            )
        yield out


def draw_channels(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int,
    rb: int,
) -> np.ndarray:
    """The channels (K, T, N, M) of one RB of `generate_realization`'s draw."""
    blocks = [b.copy() for b in _antenna_blocks(pop, profiles, cfg, seed, rb)]
    return np.concatenate(blocks, axis=-1).transpose(2, 0, 1, 3)


def generate_realization(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int = 0,
) -> ChannelRealization:
    """Draw the per-user, per-RB fading field and keep each RB's Gram.

    Fading is independent across users, RBs, antennas, and taps. Each RB's
    Gram is accumulated from antenna blocks, so memory stays bounded by one
    block whatever the antenna count.
    """
    grams = tuple(
        _accumulate_gram(_antenna_blocks(pop, profiles, cfg, seed, rb))
        for rb in range(cfg.num_rbs)
    )
    return ChannelRealization(grams, cfg.numerology)
