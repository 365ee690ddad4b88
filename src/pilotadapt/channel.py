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
    """Small-scale fading for every (user, RB, symbol, subcarrier, antenna).

    `h` has shape (num_users, num_rbs, symbols, subcarriers, antennas) with
    unit per-entry power; large-scale gains are applied separately in the SINR
    computation.
    """

    h: np.ndarray
    seed: int
    profile_names: tuple[str, ...]
    numerology: Numerology
    _grams: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.h.flags.writeable = False

    def gram(self, rb: int) -> tuple[np.ndarray, np.ndarray]:
        """Cross powers of every user pair on one RB, built once and cached.

        Returns `cross` of shape (K, K, T, N) with cross[k, j] = |h_k^H h_j|^2
        and `norms` of shape (K, T, N) with norms[k] = ||h_k||^2. Only this
        RB's channels are read, so the cache never holds more than the Gram.
        """
        if rb not in self._grams:
            self._grams[rb] = _build_gram(self.h[:, rb])
        return self._grams[rb]

    @property
    def num_users(self) -> int:
        return self.h.shape[0]

    @property
    def num_rbs(self) -> int:
        return self.h.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.h.shape[4]


def _build_gram(h_rb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cross, norms) of one RB's channels h_rb (K, T, N, M), by batched matmul."""
    a = h_rb.transpose(1, 2, 0, 3)  # (T, N, K, M)
    inner = np.matmul(a.conj(), a.swapaxes(-1, -2))  # (T, N, K, K): h_k^H h_j
    inner = np.ascontiguousarray(inner.transpose(2, 3, 0, 1))
    cross = inner.real**2 + inner.imag**2
    norms = np.einsum("kktn->ktn", inner).real.copy()
    cross.flags.writeable = norms.flags.writeable = False
    return cross, norms


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


def _doppler_process(
    doppler_hz: float,
    times_s: np.ndarray,
    shape: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum-of-sinusoids processes with Jakes autocorrelation, unit power.

    Returns an array of shape `shape + (len(times_s),)`; entries are
    independent across the leading axes (fresh random phases per process).
    """
    n = NUM_ARRIVAL_ANGLES
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    freqs = doppler_hz * np.cos(angles)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape + (n,))
    # exp(j*(2*pi*f_i*t + phi_i)) averaged over the angle comb
    arg = 2.0 * math.pi * np.outer(freqs, times_s)
    basis = np.exp(1j * arg)  # (n, T)
    return np.exp(1j * phases) @ basis / math.sqrt(n)


def generate_single_grid(
    profile: ChannelProfile,
    num_symbols: int,
    num_subcarriers: int,
    num: Numerology,
    rng: np.random.Generator,
    num_antennas: int = 1,
) -> np.ndarray:
    """One correlated fading grid of shape (num_symbols, num_subcarriers, antennas).

    Used directly by the estimation-validation experiments, which need grids
    wider than a single resource block.
    """
    times = np.arange(num_symbols) * num.symbol_duration_s
    delays = profile.tap_delays()
    powers = profile.tap_powers()
    taps = _doppler_process(
        profile.max_doppler_hz, times, (num_antennas, len(delays)), rng
    )  # (A, L, T)
    taps = taps * np.sqrt(powers)[None, :, None]
    # frequency response: tap sum with per-subcarrier phase rotations
    sc = np.arange(num_subcarriers) * num.subcarrier_spacing_hz
    mix = np.exp(-2j * math.pi * np.outer(sc, delays))  # (N, L)
    h = np.einsum("alt,nl->tna", taps, mix)
    return h


def generate_realization(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int = 0,
) -> ChannelRealization:
    """Draw the full per-user, per-RB fading field.

    Fading is independent across users, RBs, antennas, and taps; each
    (user, RB) pair uses a sub-seed derived from `seed`, so the output is
    identical no matter how generation is parallelized or ordered.
    """
    if pop.num_groups > len(profiles):
        raise ConfigurationError(
            f"{pop.num_groups} groups but only {len(profiles)} channel profiles"
        )
    num = cfg.numerology
    shape = (
        pop.num_users,
        cfg.num_rbs,
        num.symbols_per_rb,
        num.subcarriers_per_rb,
        cfg.num_antennas,
    )
    h = np.empty(shape, dtype=np.complex128)
    names = []
    for user in pop.users:
        prof = profiles[user.group_id]
        names.append(prof.name)
        for rb in range(cfg.num_rbs):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed, user.id, rb)))
            )
            h[user.id, rb] = generate_single_grid(
                prof, num.symbols_per_rb, num.subcarriers_per_rb, num, rng,
                num_antennas=cfg.num_antennas,
            )
    return ChannelRealization(
        h=h, seed=seed, profile_names=tuple(names), numerology=num
    )
