"""Statistical channel profiles and small-scale fading generation.

A profile is a (max Doppler, max delay spread) class with a power-delay
profile. The densest pilot spacing a profile tolerates follows the 2x-Nyquist
rule for band-limited WSS processes:

    spacing_time = floor(1 / (4 * f_doppler * T_symbol))
    spacing_freq = floor(1 / (4 * tau_max  * delta_f))

each clamped to the resource-block grid. Realizations are tapped-delay-line:
per-tap complex processes with classical Jakes time autocorrelation
J0(2*pi*f*T_s*lag), i.i.d. across antennas and taps.

On one RB, user k's channel is h_k[t, n, m] = sum_l mix_k[n, l] taps_k[m, l, t]:
its tap processes, each rotated per subcarrier by the tap's delay. The rates
need only the per-RB Gram, which is therefore built in the tap domain,

    h_k^H h_j [t, n] = sum_{l, l'} conj(mix_k[n, l]) mix_j[n, l'] G_t[(k, l), (j, l')],
    G_t[(k, l), (j, l')] = sum_m conj(taps_k[m, l, t]) taps_j[m, l', t],

with G_t, a (K L) x (K L) product per symbol, summed over antenna blocks.
That is N / L^2 times fewer flops (3 at N = 12, L = 2) than a K x K product
per (symbol, subcarrier) of the frequency response, which only
`draw_channels` forms.
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

    @property
    def num_users(self) -> int:
        return self.grams[0][1].shape[0]


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


def unit_phasors(phases: np.ndarray) -> np.ndarray:
    """exp(j * phases) from the half-angle tangent t = tan(phases / 2):
    (cos, sin) = (1 - t^2, 2t) / (1 + t^2). One tan replaces a cos and a
    sin; the result is within 2 eps of `np.exp(1j * phases)`."""
    # in-place steps: fewer fresh temporaries measured ~3x faster per block
    t = np.multiply(phases, 0.5)
    np.tan(t, out=t)
    t2 = t * t
    denom = t2 + 1.0
    out = np.empty(t.shape, dtype=np.complex128)
    np.divide(np.subtract(1.0, t2, out=t2), denom, out=out.real)
    np.divide(np.add(t, t, out=t), denom, out=out.imag)
    return out


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
    taps = (unit_phasors(phases) @ basis).reshape(num_antennas, n_taps, num_symbols)
    return np.matmul(mix, taps.transpose(2, 1, 0))  # (T, N, A)


# Antennas drawn per block while an RB's Gram is accumulated. A block holds
# the (K, chunk, L, 32) phases, their phasors and the (T, K, L, chunk) taps
# (2.2 MB at K = 28, L = 2), so generation memory does not grow with M. At
# K = 28, blocks of 64 generated as fast at M = 512 and 9% faster at M = 112
# for 3 MB more peak memory; 16 was 7-14% slower and 128 60-75% slower.
_ANTENNA_CHUNK = 32


def _tap_factors(
    pop: UserPopulation, profiles: list[ChannelProfile], num: Numerology
) -> tuple[np.ndarray, np.ndarray]:
    """Every user's `_grid_bases` for one RB, stacked: bases (K, 32, T) and
    mix (K, N, L), L the largest tap count. A user with fewer taps gets zero
    mix columns for the missing ones."""
    if pop.num_groups > len(profiles):
        raise ConfigurationError(
            f"{pop.num_groups} groups but only {len(profiles)} channel profiles"
        )
    t, n = num.symbols_per_rb, num.subcarriers_per_rb
    factors = [_grid_bases(profiles[user.group_id], t, n, num) for user in pop.users]
    mix = np.zeros((pop.num_users, n, max(m.shape[1] for _, m in factors)), dtype=np.complex128)
    for k, (_, m) in enumerate(factors):
        mix[k, :, : m.shape[1]] = m
    return np.stack([basis for basis, _ in factors]), mix


def _antenna_blocks(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int,
    rb: int,
):
    """Every user's tap processes on one RB, in blocks of at most
    _ANTENNA_CHUNK antennas: yields (T, K, L, a) arrays, each overwritten
    by the next. User k's channels are `_tap_factors`' mix[k] applied over
    the L axis, so its taps beyond its own count carry zero weight.

    Each (user, RB) pair draws its phases from its own generator seeded by
    (seed, user, rb), in `generate_single_grid`'s antenna-major order, so
    the channels do not depend on the block size or on how generation is
    parallelized or ordered. All users' phases of a block become taps in
    one phasor call and one batched matmul.
    """
    num = cfg.numerology
    bases, mix = _tap_factors(pop, profiles, num)
    k, n_taps, m = pop.num_users, mix.shape[2], cfg.num_antennas
    chunk = min(m, _ANTENNA_CHUNK)
    counts = [len(profiles[user.group_id].taps) for user in pop.users]
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, user.id, rb))))
        for user in pop.users
    ]
    # padded taps keep phase 0: finite taps that the zero mix columns cancel
    phases = np.zeros((k, chunk, n_taps, NUM_ARRIVAL_ANGLES))
    block = np.empty((num.symbols_per_rb, k, n_taps, chunk), dtype=np.complex128)
    for start in range(0, m, chunk):
        a = min(chunk, m - start)
        for row, count, rng in zip(phases, counts, rngs):
            row[:a, :count] = rng.uniform(
                0.0, 2.0 * math.pi, size=(a, count, NUM_ARRIVAL_ANGLES)
            )
        taps = np.matmul(unit_phasors(phases[:, :a]).reshape(k, a * n_taps, -1), bases)
        out = block[..., :a]
        out[...] = taps.reshape(k, a, n_taps, -1).transpose(3, 0, 2, 1)
        del taps  # not held while the consumer works on the block
        yield out


def _accumulate_gram(blocks, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cross, norms) of one RB from its tap blocks (T, K, L, a) and the
    tap-pair weights (K, K, L*L, N) that `generate_realization` builds."""
    gram = None  # G_t[(k, l), (j, l')], summed over antenna blocks
    for block in blocks:
        t, k, n_taps, _ = block.shape
        x = block.reshape(t, k * n_taps, -1)
        if gram is None:
            gram = np.zeros((t, k * n_taps, k * n_taps), dtype=np.complex128)
        gram += np.matmul(x.conj(), x.swapaxes(1, 2))
    # one (T, L*L) @ (L*L, N) product per user pair expands the taps to
    # subcarriers, writing h_k^H h_j straight into its (K, K, T, N) layout
    gram = gram.reshape(t, k, n_taps, k, n_taps).transpose(1, 3, 0, 2, 4).reshape(k, k, t, -1)
    inner = np.matmul(gram, weights)
    del gram
    norms = np.einsum("kktn->ktn", inner).real.copy()
    cross = np.square(inner.real)
    cross += np.square(inner.imag, out=inner.imag)  # inner is spent after this
    cross.flags.writeable = norms.flags.writeable = False
    return cross, norms


def draw_channels(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int,
    rb: int,
) -> np.ndarray:
    """The channels (K, T, N, M) of one RB of `generate_realization`'s draw."""
    num = cfg.numerology
    _, mix = _tap_factors(pop, profiles, num)
    h = np.empty(
        (pop.num_users, num.symbols_per_rb, num.subcarriers_per_rb, cfg.num_antennas),
        dtype=np.complex128,
    )
    start = 0
    for block in _antenna_blocks(pop, profiles, cfg, seed, rb):
        stop = start + block.shape[-1]
        np.matmul(mix[:, None], block.transpose(1, 0, 2, 3), out=h[..., start:stop])
        start = stop
    return h


def generate_realization(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int = 0,
) -> ChannelRealization:
    """Draw the per-user, per-RB fading field and keep each RB's Gram.

    Fading is independent across users, RBs, antennas, and taps. Each RB's
    Gram is accumulated in the tap domain from antenna blocks, so memory
    stays bounded by one block whatever the antenna count.
    """
    _, mix = _tap_factors(pop, profiles, cfg.numerology)
    k, n = pop.num_users, mix.shape[1]
    per_tap = mix.transpose(0, 2, 1)  # (K, L, N)
    # weights[k, j, (l, l'), n] = conj(mix[k, n, l]) * mix[j, n, l']
    weights = (per_tap.conj()[:, None, :, None] * per_tap[None, :, None]).reshape(k, k, -1, n)
    grams = tuple(
        _accumulate_gram(_antenna_blocks(pop, profiles, cfg, seed, rb), weights)
        for rb in range(cfg.num_rbs)
    )
    return ChannelRealization(grams, cfg.numerology)
